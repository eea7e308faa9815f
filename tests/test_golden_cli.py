"""Golden CLI corpus: every command, all four formats, all five fields.

Each case runs `hermfj.cli.run` in process on inputs built here from fixed
seeds, and is compared byte for byte, through sha256, with
`tests/golden/cli.json`: its exit code, its stdout, its `--out` file and,
on exit 3, the `witness:` line it prints to stderr.  The generated inputs
are hashed as well, so a change to a fixture builder shows as such.  Cases
run in order, and later cases read the outputs of earlier ones.

After a deliberate change of output, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden_cli.py --record
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
from hermfj.ffj import assemble, disassemble
from hermfj.field import FieldElement, make_field
from hermfj.formats import write_components, write_family, write_jacobi, write_series
from hermfj.hermitian import enumerate_semi_integral
from hermfj.series import FourierSeries, gl_generators, symmetrize
from util import ALL_D, build_degree3_family, distant_break, random_component_vector

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


def _random_series(rng, tag, g, trunc, count):
    keys = enumerate_semi_integral(g, trunc, tag)
    return FourierSeries(g, 4, tag, trunc, {
        t: (FieldElement(rng.randint(-3, 3), rng.randint(-1, 1), tag),)
        for t in rng.sample(keys, min(count, len(keys)))})


def build_inputs(d: int) -> dict[str, str]:
    """The input files of field d, by name, as text."""
    tag = make_field(d)
    rng = random.Random(1000 - d)
    a = _random_series(rng, tag, 2, 2, 8)
    b = _random_series(rng, tag, 2, 2, 8)
    sym = symmetrize(_random_series(rng, tag, 2, 2, 4), gl_generators(2, tag))
    fam1 = build_degree3_family(rng, tag, trunc=3)
    broken, _witness = distant_break(tag, 2, largest_trace=True)
    deep, _witness = distant_break(tag, 1, largest_trace=False)
    return {
        "a.fjs": write_series(a),
        "b.fjs": write_series(b),
        "sym.fjs": write_series(sym),
        "fam1.fjfam": write_family(fam1),
        "fam2.fjfam": write_family(disassemble(assemble(fam1), 2)),
        "dense.hjc": write_components(random_component_vector(rng, tag, 3, 4)),
        "broken.hjf": write_jacobi(broken),
        "deep.hjf": write_jacobi(deep),
    }


def cases(d: int) -> list[list[str]]:
    """The argv of each case of field d; `@name` is a file in the case
    directory, and the `--out` of one case is an input of later ones."""
    f = str(d)
    return [
        ["theta", "--field", f, "--m", "2", "--shift", "5", "--trunc", "3", "--out", "@t.hjf"],
        ["theta", "--field", f, "--m", "1", "--shift", "1", "--trunc", "2", "--genus", "2",
         "--out", "@t2.hjf"],
        ["validate", "--in", "@t.hjf"],
        ["decompose", "--in", "@t.hjf", "--out", "@t.hjc"],
        ["decompose", "--strict", "--in", "@t.hjf", "--out", "@ts.hjc"],
        ["decompose", "--strict", "--in", "@t2.hjf", "--out", "@t2.hjc"],
        ["validate", "--in", "@t.hjc"],
        ["recompose", "--in", "@t.hjc", "--trunc", "3", "--out", "@back.hjf"],
        ["recompose", "--in", "@t2.hjc", "--trunc", "2", "--out", "@back2.hjf"],
        ["recompose", "--in", "@dense.hjc", "--trunc", "4", "--out", "@dense.hjf"],
        ["decompose", "--in", "@dense.hjf", "--out", "@dense2.hjc"],
        ["decompose", "--strict", "--in", "@dense.hjf", "--out", "@dense3.hjc"],
        ["decompose", "--in", "@broken.hjf", "--out", "@broken.hjc"],
        ["decompose", "--strict", "--in", "@broken.hjf", "--out", "@broken3.hjc"],
        ["validate", "--in", "@a.fjs"],
        ["multiply", "--in", "@a.fjs", "--in2", "@b.fjs", "--out", "@ab.fjs"],
        ["multiply", "--in", "@sym.fjs", "--in2", "@sym.fjs", "--out", "@sym2.fjs"],
        ["symmetry-check", "--in", "@a.fjs"],
        ["symmetry-check", "--in", "@sym2.fjs"],
        ["validate", "--in", "@fam1.fjfam"],
        ["rearrange", "--in", "@fam2.fjfam", "--cogenus", "1", "--out", "@re.fjfam"],
        ["psi0", "--in", "@fam2.fjfam", "--out", "@psi0.fjfam"],
        ["validate", "--in", "@psi0.fjfam"],
        ["symmetry-check", "--in", "@fam2.fjfam"],
        ["bounds", "--field", f, "--degree", "3", "--weight", "10"],
        ["bounds", "--field", f, "--degree", "2", "--weight", "12", "--d-start", "0"],
        ["c-constant", "--field", f],
        ["decompose", "--in", "@deep.hjf", "--out", "@deep.hjc"],
        ["decompose", "--strict", "--in", "@deep.hjf", "--out", "@deep2.hjc"],
        ["theta", "--field", f, "--m", "1000", "--shift", "0", "--trunc", "1", "--out",
         "@m1000.hjf"],
        ["theta", "--field", f, "--m", "1", "--shift", "0", "--trunc", "100000000000",
         "--out", "@huge.hjf"],
        ["theta", "--field", f, "--m", "1", "--shift", "0", "--trunc", "1", "--genus", "1000",
         "--out", "@wide.hjf"],
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], where: Path) -> dict:
    """One CLI run: exit code, hashes of stdout and `--out` (None when no
    file was written), and the stderr witness line on exit 3."""
    real = [str(where / a[1:]) if a.startswith("@") else a for a in argv]
    out_path = where / argv[argv.index("--out") + 1][1:] if "--out" in argv else None
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(real)
    witness = [line for line in stderr.getvalue().splitlines() if line.startswith("witness: ")]
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode("ascii")),
        "out": _sha(out_path.read_bytes()) if out_path is not None and out_path.exists() else None,
        "witness": witness[0] if code == 3 and witness else None,
    }


def run_corpus(root: Path) -> dict:
    corpus = {}
    for d in ALL_D:
        where = root / ("d%d" % -d)
        where.mkdir()
        inputs = build_inputs(d)
        for name, text in inputs.items():
            (where / name).write_text(text, encoding="ascii")
        corpus[str(d)] = {
            "inputs": {name: _sha(text.encode("ascii")) for name, text in inputs.items()},
            "cases": [run_case(argv, where) for argv in cases(d)],
        }
    return corpus


def test_golden_cli_corpus(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="ascii"))
    got = run_corpus(tmp_path)
    assert sorted(got) == sorted(want)
    for d in want:
        assert got[d]["inputs"] == want[d]["inputs"], d
        assert len(got[d]["cases"]) == len(want[d]["cases"]), d
        for mine, expected in zip(got[d]["cases"], want[d]["cases"]):
            assert mine == expected, (d, expected["argv"])


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_corpus(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="ascii")
