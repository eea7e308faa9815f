"""The readers parse each distinct text once per call and reject repeated keys.

`formats` keeps, per read call and per role (n or t matrix, FJFAM index, r,
coefficient vector), a map from (text, size) to the object it parsed to.
These tests pin what that must not change: errors and their lines, the
rejection of a text in a slot of another size, and equality with
`util.read_by_lines`, which parses every record line on its own.  They also
pin what it adds: one object per distinct text within a read, none shared
across reads, and a repeated key rejected at its second line.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from hermfj import cli
from hermfj.errors import ParseError
from hermfj.ffj import FJFamily, assemble, disassemble
from hermfj.field import FieldElement, make_field
from hermfj.formats import (
    read_any,
    write_components,
    write_family,
    write_jacobi,
    write_series,
)
from hermfj.hermitian import HermMatrix, delta_classes, enumerate_semi_integral
from hermfj.jacobi import (
    JacobiTable,
    ThetaComponentVector,
    theta_coeffs,
    theta_decompose,
    theta_recompose,
)
from hermfj.series import FourierSeries
from test_golden_cli import build_inputs
from util import ALL_D, all_tags, build_degree3_family, random_component_vector, read_by_lines

FORMATS = ("fjs", "hjf", "fjfam", "hjc")
#: separator before the coefficient values of a record line
VALUE_SEP = {"fjs": " ; c = ", "hjf": ") = ", "fjfam": ") = ", "hjc": " ; c = "}
TOKEN = re.compile(r"(-?\d+)/(\d+)\+(-?\d+)/(\d+)\*w")


def valid_files() -> dict[str, tuple[str, int, int]]:
    """Per format: a valid file whose n (or t) texts and coefficient texts
    repeat, the size of its n slot, and its dim."""
    rng = random.Random(1313)
    t1 = make_field(-1)
    keys = enumerate_semi_integral(2, 2, t1)
    series = FourierSeries(2, 4, t1, 2, {
        t: (FieldElement(rng.randint(1, 2), 0, t1), FieldElement(0, rng.randint(0, 1), t1))
        for t in rng.sample(keys, 8)}, dim=2)
    table = theta_recompose(random_component_vector(rng, make_field(-2), 2, 3), 3)
    family = disassemble(assemble(build_degree3_family(rng, make_field(-3), trunc=2)), 2)
    bundle = random_component_vector(rng, make_field(-7), 2, 3)
    return {
        "fjs": (write_series(series), 2, 2),
        "hjf": (write_jacobi(table), 1, 1),
        "fjfam": (write_family(family), 1, 1),
        "hjc": (write_components(bundle), 1, 1),
    }


def record_lines(lines: list[str]) -> list[int]:
    """The 0-based indices of the record lines (not header, not section)."""
    return [j for j, line in enumerate(lines) if j and not line.startswith("[")]


def n_slot(line: str) -> tuple[int, int]:
    """(start, end) of the n or t matrix text of a record line."""
    if line.startswith("("):
        return 1, line.index(" ; ")
    return 4, line.index(" ; c = ")


def widened(text: str) -> str:
    """`text` with every field-element token out of lowest terms."""
    return TOKEN.sub(lambda t: "%d/%d+%d/%d*w" % (2 * int(t[1]), 2 * int(t[2]),
                                                  3 * int(t[3]), 3 * int(t[4])), text)


def read_error(text: str) -> ParseError:
    with pytest.raises(ParseError) as err:
        read_any(text)
    return err.value


# ----------------------------------------------------------------------
# repeated keys


@pytest.mark.parametrize("spelling", ["same", "widened"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_repeated_key_is_rejected_at_its_second_line(fmt, spelling):
    text, _size, dim = valid_files()[fmt]
    lines = text.splitlines()
    j = record_lines(lines)[0]
    key = lines[j][:lines[j].index(VALUE_SEP[fmt])]
    copy = (widened(key) if spelling == "widened" else key) + VALUE_SEP[fmt] \
        + ",".join(["7/1+0/1*w"] * dim)
    assert copy != lines[j]
    lines.insert(j + 1, copy)
    err = read_error("\n".join(lines) + "\n")
    assert err.line == j + 2 and "repeated key" in str(err), err


def test_repeated_family_index_is_rejected():
    text, _size, _dim = valid_files()["fjfam"]
    lines = text.splitlines()
    index = lines[1]
    assert index.startswith("[index m = ") and sum(1 for x in lines if x.startswith("[")) > 1
    for spelling in (index, widened(index)):
        err = read_error("\n".join(lines + [spelling]) + "\n")
        assert err.line == len(lines) + 1 and "repeated section" in str(err), err


def test_recompose_refuses_a_repeated_key(tmp_path):
    lines = write_components(random_component_vector(random.Random(5), make_field(-1), 1, 2)) \
        .splitlines()
    first, second = [j for j, line in enumerate(lines) if line.startswith("[class ")][:2]
    lines[first + 1:second] = ["n = 0/1+0/1*w ; c = 1/1+0/1*w", "n = 0/1+0/1*w ; c = 7/1+0/1*w"]
    src, out = tmp_path / "in.hjc", tmp_path / "out.hjf"
    src.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert cli.run(["recompose", "--in", str(src), "--trunc", "2", "--out", str(out)]) == 2
    assert not out.exists()


# ----------------------------------------------------------------------
# an invalid text fails where it first occurs, with the message of its parser


def bad_matrix_texts(size: int) -> dict[str, str]:
    return {
        "non-hermitian": ",".join(["0/1+1/1*w"] * size * size),
        "bad-token": ",".join(["1/1+0/1*x"] * size * size),
        "entry-count": ",".join(["0/1+0/1*w"] * (size * size + 1)),
    }


@pytest.mark.parametrize("kind", ["non-hermitian", "bad-token", "entry-count", "bad-value"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_repeated_invalid_text_fails_at_its_first_line(fmt, kind):
    text, size, dim = valid_files()[fmt]
    tag = make_field(int(text.split(";")[1].split("=")[1]))
    lines = text.splitlines()
    records = record_lines(lines)
    first, last = records[0], records[-1]
    if kind == "bad-value":
        bad = ",".join(["1/1+0/1*x"] * dim)
        with pytest.raises(ValueError) as want:
            FieldElement.from_text("1/1+0/1*x", tag)
        for j in (first, last):
            lines[j] = lines[j][:lines[j].index(VALUE_SEP[fmt]) + len(VALUE_SEP[fmt])] + bad
    else:
        bad = bad_matrix_texts(size)[kind]
        with pytest.raises(ValueError) as want:
            HermMatrix.from_text(bad, size, tag)
        assert str(want.value) in ("matrix is not Hermitian",
                                   "malformed field element '1/1+0/1*x'",
                                   "expected %d entries, got %d" % (size * size, size * size + 1))
        for j in (first, last):
            start, end = n_slot(lines[j])
            lines[j] = lines[j][:start] + bad + lines[j][end:]
    err = read_error("\n".join(lines) + "\n")
    assert err.line == first + 1
    assert str(err) == "line %d: %s" % (first + 1, want.value)


@pytest.mark.parametrize("text, line, message", [
    # a 1x1 index text in a 2x2 n slot
    ("FJFAM v1; d=-1; g=3; l=1; k=8; trunc=4; dim=1\n[index m = 1/1+0/1*w]\n"
     "(1/1+0/1*w ; 0/1+0/1*w,0/1+0/1*w) = 1/1+0/1*w\n", 3, "expected 4 entries, got 1"),
    # a 1x1 n text in a 2x2 index slot
    ("FJFAM v1; d=-1; g=3; l=2; k=8; trunc=4; dim=1\n"
     "[index m = 1/1+0/1*w,0/1+0/1*w,0/1+0/1*w,0/1+0/1*w]\n"
     "(0/1+0/1*w ; 0/1+0/1*w,0/1+0/1*w) = 1/1+0/1*w\n[index m = 0/1+0/1*w]\n",
     4, "expected 4 entries, got 1"),
    # a 2-element r text as a 1-element value
    ("FJFAM v1; d=-1; g=3; l=1; k=8; trunc=4; dim=1\n[index m = 1/1+0/1*w]\n"
     "(1/1+0/1*w,0/1+0/1*w,0/1+0/1*w,1/1+0/1*w ; 0/1+0/1*w,0/1+0/1*w) = 0/1+0/1*w,0/1+0/1*w\n",
     3, "expected 1 elements, got 2"),
    # a 1-element r text as a 2-element value
    ("HJF v1; d=-1; g=1; k=8; m=1; trunc=4; dim=2\n(0/1+0/1*w ; 0/1+0/1*w) = 0/1+0/1*w\n",
     2, "expected 2 elements, got 1"),
])
def test_text_in_a_slot_of_another_size_is_rejected(text, line, message):
    err = read_error(text)
    assert err.line == line and str(err) == "line %d: %s" % (line, message)


# ----------------------------------------------------------------------
# a record that the public constructor rejects is reported at its line


def rejected_keys(fmt: str, size: int) -> dict[str, tuple[str, str]]:
    """Per kind, a key text of the given size that parses but that the
    constructor of `fmt` rejects, and a part of its message."""
    def diag(*xs):
        return ",".join(xs[i] if i == j else "0/1+0/1*w" for i in range(size) for j in range(size))

    kinds = {"truncation": (diag(*["100/1+0/1*w"] * size), "exceeds truncation")}
    if size == 1:
        kinds["psd"] = ("-1/1+0/1*w", "positive semidefinite")
    else:
        kinds["psd"] = ("0/1+0/1*w,1/1+0/1*w,1/1+0/1*w,0/1+0/1*w", "positive semidefinite")
    if fmt in ("fjs", "fjfam"):  # HJF checks its block, HJC takes rational diagonals
        kinds["semi-integral"] = (diag("1/2+0/1*w", *["0/1+0/1*w"] * (size - 1)),
                                  "not semi-integral")
    return kinds


@pytest.mark.parametrize("fmt", FORMATS)
def test_constructor_rejection_names_the_record_line(fmt):
    text, size, _dim = valid_files()[fmt]
    lines = text.splitlines()
    records = record_lines(lines)
    for j in (records[len(records) // 2], records[-1]):
        cases = {kind: (n_slot(lines[j]), bad) for kind, bad in rejected_keys(fmt, size).items()}
        if fmt == "hjf":  # an r outside the inverse different
            start = lines[j].index(" ; ") + 3
            cases["r"] = ((start, lines[j].index(") = ")), ("1/3+0/1*w", "inverse different"))
        for kind, ((start, end), (bad, message)) in cases.items():
            mutated = lines[:j] + [lines[j][:start] + bad + lines[j][end:]] + lines[j + 1:]
            err = read_error("\n".join(mutated) + "\n")
            assert err.line == j + 1 and message in str(err), (fmt, kind, j, str(err))


# ----------------------------------------------------------------------
# one object per distinct text within a read, none across reads


def parsed_objects(obj) -> dict[str, list]:
    """Per role, the objects a read handed over: key matrices, r vectors
    and coefficient vectors (a family stores joined keys, so only its
    coefficient vectors come from the reader)."""
    if isinstance(obj, ThetaComponentVector):
        series = list(obj.components.values())
        return {"n": [n for h in series for n in h.coeffs],
                "c": [c for h in series for c in h.coeffs.values()]}
    coeffs = obj.coeffs
    if isinstance(obj, JacobiTable):
        return {"n": [n for n, _r in coeffs], "r": [r for _n, r in coeffs],
                "c": list(coeffs.values())}
    if isinstance(obj, FJFamily):
        return {"c": list(coeffs.values())}
    return {"t": list(coeffs), "c": list(coeffs.values())}


@pytest.mark.parametrize("fmt", FORMATS)
def test_repeated_text_is_one_object_within_a_read(fmt):
    text = valid_files()[fmt][0]
    repeats = 0
    for role, objs in parsed_objects(read_any(text)).items():
        by_value: dict = {}
        for x in objs:
            by_value.setdefault(x, set()).add(id(x))
        assert all(len(ids) == 1 for ids in by_value.values()), role
        repeats += len(objs) - len(by_value)
    assert repeats > 0


@pytest.mark.parametrize("fmt", FORMATS)
def test_two_reads_share_no_object(fmt):
    text = valid_files()[fmt][0]
    one, two = read_any(text), read_any(text)
    assert one == two
    for role, objs in parsed_objects(one).items():
        assert not {id(x) for x in objs} & {id(x) for x in parsed_objects(two)[role]}, role


# ----------------------------------------------------------------------
# the readers against the per-line oracle


def random_files(tag, rng) -> list[str]:
    keys = enumerate_semi_integral(2, 2, tag)
    series = FourierSeries(2, 4, tag, 2, {
        t: (FieldElement(rng.randint(-2, 2), rng.randint(0, 1), tag),)
        for t in rng.sample(keys, 6)})
    family = build_degree3_family(rng, tag, trunc=2)
    texts = [write_series(series), write_family(family),
             write_family(disassemble(assemble(family), 2))]
    for m in (1, 2):
        bundle = random_component_vector(rng, tag, m, 4)
        table = theta_recompose(bundle, 4)
        texts += [write_components(bundle), write_jacobi(table),
                  write_components(theta_decompose(table))]
    texts.append(write_jacobi(theta_coeffs(2, rng.choice(delta_classes(1, 2, tag)), 3)))
    return texts


def test_readers_match_the_per_line_oracle():
    rng = random.Random(1314)
    texts = [text for d in ALL_D for text in build_inputs(d).values()]
    texts += [text for tag in all_tags() for text in random_files(tag, rng)]
    seen = set()
    for text in texts:
        got = read_any(text)
        assert got == read_by_lines(text), text.splitlines()[0]
        seen.add(text.split(" ")[0])
    assert seen == {"FJS", "HJF", "FJFAM", "HJC"}


def bundle_parses(monkeypatch, text: str) -> tuple[Counter, list[str], list[str]]:
    """The token parses of reading the HJC `text`, its rep component texts
    and its value texts; the bundle read equals `read_by_lines`."""
    from hermfj import field

    parsed = []
    parse = field._parse_token

    def counted(token):
        parsed.append(token)
        return parse(token)

    with monkeypatch.context() as patch:
        patch.setattr(field, "_parse_token", counted)
        bundle = read_any(text)
    assert bundle == read_by_lines(text)
    reps = [part for line in text.splitlines() if line.startswith("[class ")
            for part in line.split("; rep = ")[1].split(";")[0].split(",")]
    values = [line.split(" ; c = ")[1] for line in text.splitlines() if " ; c = " in line]
    return Counter(parsed), reps, values


def delta_2_2_bundle() -> str:
    # Delta_2(2) over Q(i) has 256 classes, whose 512 rep components are 16
    # distinct texts; every class but one has an empty body
    tag = make_field(-1)
    s = delta_classes(2, 2, tag)[37]
    return write_components(theta_decompose(theta_coeffs(2, s, 2)))


def test_bundle_class_reps_parse_each_component_text_once(monkeypatch):
    parsed, reps, values = bundle_parses(monkeypatch, delta_2_2_bundle())
    assert len(reps) == 512 and len(set(reps)) == 16
    # a canonical rep is matched by its text and not parsed; one parse per
    # distinct value
    assert parsed == Counter(set(values))


def test_bundle_class_reps_in_other_spellings_parse_each_component_text_once(monkeypatch):
    # each rep component "a/b+..." spelled "2a/2b+...": the same classes, and
    # no rep is the canonical text of its class
    def doubled(component):
        left, rest = component.split("+", 1)
        a, b = left.split("/")
        return "%d/%d+%s" % (2 * int(a), 2 * int(b), rest)

    lines = []
    for line in delta_2_2_bundle().splitlines():
        if line.startswith("[class "):
            head, rep, tail = re.match(r"(.*; rep = )(.*)(; htrunc = .*)", line).groups()
            line = head + ",".join(doubled(c) for c in rep.split(",")) + tail
        lines.append(line)
    text = "\n".join(lines) + "\n"
    parsed, reps, values = bundle_parses(monkeypatch, text)
    assert len(reps) == 512 and len(set(reps)) == 16
    assert all(rep.split("/")[1].split("+")[0] in ("2", "4") for rep in reps)
    # one parse per distinct rep component text, and one per distinct value
    assert parsed == Counter(set(reps)) + Counter(set(values))
