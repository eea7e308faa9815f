"""Hostile-input mutation fuzzer: one valid file per format, mutated.

Each file (FJS, HJF, FJFAM, HJC) gets seeded single-byte substitutions,
deletions and duplications, and swaps of two lines.  Every mutated file is
run in process through `hermfj.cli.run`: `validate`, plus `decompose` for
HJF and `recompose` for HJC, both with `--out`.  Every run must exit 0, 2
or 3 without raising, and leave no `--out` file (and no temporary file)
after exit 2.  The outcome of each run is compared with
`tests/golden/fuzz.json`: its exit code, the sha256 of its stdout, and the
first 16 hex digits of the sha256 of its stderr (with the case directory
written as `@`) and of its `--out` file (None when it wrote none).  Each
mutated input is pinned by the same short digest.

After a deliberate change of outcome, rewrite the record with

    PYTHONPATH=src python tests/test_fuzz_inputs.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from hermfj import cli
from hermfj.field import FieldElement, make_field
from hermfj.formats import write_components, write_family, write_jacobi, write_series
from hermfj.hermitian import enumerate_semi_integral
from hermfj.jacobi import theta_recompose
from hermfj.series import FourierSeries
from util import build_degree3_family, random_component_vector

GOLDEN = Path(__file__).resolve().parent / "golden" / "fuzz.json"

#: mutations of each kind per file
PER_KIND = 25
KINDS = ("substitute", "delete", "duplicate", "swap")
#: replacement bytes: the syntax of the formats, and a few outside it
ALPHABET = b"0123456789-+/*w,;()[]=.: \n\tE_x\x00\xff"


def valid_files() -> dict[str, tuple[str, list[list[str]]]]:
    """Per format: the valid file's text and the argv of each run on it
    (`@in` is the mutated file, `@out` the output)."""
    rng = random.Random(8)
    t1 = make_field(-1)
    keys = enumerate_semi_integral(2, 2, t1)
    series = FourierSeries(2, 4, t1, 2, {
        t: (FieldElement(rng.randint(-3, 3), rng.randint(-1, 1), t1),)
        for t in rng.sample(keys, 6)})
    table = theta_recompose(random_component_vector(rng, make_field(-2), 2, 3), 3)
    family = build_degree3_family(rng, make_field(-3), trunc=2)
    bundle = random_component_vector(rng, make_field(-7), 1, 3)
    validate = ["validate", "--in", "@in"]
    return {
        "fjs": (write_series(series), [validate]),
        "hjf": (write_jacobi(table),
                [validate, ["decompose", "--in", "@in", "--out", "@out"]]),
        "fjfam": (write_family(family), [validate]),
        "hjc": (write_components(bundle),
                [validate, ["recompose", "--in", "@in", "--trunc", "3", "--out", "@out"]]),
    }


def mutate(data: bytes, kind: str, rng: random.Random) -> bytes:
    if kind == "swap":
        lines = data.split(b"\n")
        i, j = rng.sample(range(len(lines) - 1), 2)  # the last piece is empty
        lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    pos = rng.randrange(len(data))
    if kind == "substitute":
        return data[:pos] + bytes([rng.choice(ALPHABET)]) + data[pos + 1:]
    if kind == "delete":
        return data[:pos] + data[pos + 1:]
    return data[:pos + 1] + data[pos:]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(argv: list[str], where: Path) -> list:
    """One CLI run on `where/in`; checks the exit-code contract and
    returns the outcome."""
    real = [str(where / a[1:]) if a.startswith("@") else a for a in argv]
    out_path = where / "out"
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(real)
    assert code in (0, 2, 3), (argv, code, stderr.getvalue())
    wrote = out_path.exists()
    if code == 2:
        assert not wrote, argv
    assert sorted(p.name for p in where.iterdir()) == (["in", "out"] if wrote else ["in"])
    return [code, _sha(stdout.getvalue().encode()),
            _sha(stderr.getvalue().replace(str(where), "@").encode())[:16],
            _sha(out_path.read_bytes())[:16] if wrote else None]


def run_fuzz(where: Path) -> list[dict]:
    record = []
    for fmt, (text, runs) in valid_files().items():
        data = text.encode("ascii")
        rng = random.Random("fuzz-" + fmt)
        for kind in KINDS:
            for i in range(PER_KIND):
                mutated = mutate(data, kind, rng)
                (where / "in").write_bytes(mutated)
                record.append({
                    "case": "%s/%s/%d" % (fmt, kind, i),
                    "input": _sha(mutated)[:16],
                    "runs": [run_one(argv, where) for argv in runs],
                })
    return record


def test_mutated_inputs_keep_the_exit_contract(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="ascii"))
    got = run_fuzz(tmp_path)
    assert len(got) == len(want)
    for mine, expected in zip(got, want):
        assert mine == expected, expected["case"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fuzz_inputs.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        cases = run_fuzz(Path(tmp))
    GOLDEN.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(c, sort_keys=True) for c in cases),
                      encoding="ascii")
