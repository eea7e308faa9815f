import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hermfj.ffj import disassemble
from hermfj.field import FieldElement, make_field
from hermfj.formats import read_family, read_jacobi, write_family, write_jacobi, write_series
from hermfj.hermitian import CosetClass, HermMatrix, delta_classes, enumerate_semi_integral
from hermfj.jacobi import theta_coeffs
from hermfj.series import FourierSeries
from util import distant_break


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hermfj", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def write_sample_series(path: Path, tag, seed=1):
    rng = random.Random(seed)
    coeffs = {}
    for t in rng.sample(enumerate_semi_integral(1, 4, tag), 3):
        coeffs[t] = (fe(rng.randint(1, 4), 0, tag),)
    f = FourierSeries(1, 4, tag, 4, coeffs)
    path.write_text(write_series(f), encoding="ascii")
    return f


def test_c_constant_output():
    code, out, err = run_cli("c-constant", "--field", "-3")
    assert code == 0 and err == ""
    assert out == "mu=1/3 c=2/3\n"


def test_c_constant_rejects_bad_field():
    code, out, err = run_cli("c-constant", "--field", "-5")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code():
    code, _out, err = run_cli("theta", "--field", "-1")
    assert code == 1 and "usage" in err


def test_theta_writes_deterministic_file(tmp_path):
    out1 = tmp_path / "a.hjf"
    out2 = tmp_path / "b.hjf"
    args = ("theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "4")
    code, _, _ = run_cli(*args, "--out", str(out1))
    assert code == 0
    code, _, _ = run_cli(*args, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    table = read_jacobi(out1.read_text(encoding="ascii"))
    assert table.m == 1


def test_theta_shift_out_of_range(tmp_path):
    code, _, err = run_cli("theta", "--field", "-1", "--m", "1", "--shift", "99",
                           "--trunc", "2", "--out", str(tmp_path / "x.hjf"))
    assert code == 1 and "shift" in err


def test_theta_shift_out_of_range_names_the_class_count(tmp_path):
    out = tmp_path / "x.hjf"
    for argv, count in ((("--m", "2", "--shift", "16"), 16), (("--m", "2", "--shift", "-1"), 16),
                        (("--m", "5", "--shift", str(10 ** 12), "--genus", "6"), 10 ** 12)):
        code, stdout, err = run_cli("theta", "--field", "-1", *argv, "--trunc", "2",
                                    "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err == "error: usage: --shift must be in [0, %d) for m=%s over d=-1\n" % (
            count, argv[1])


def test_theta_shift_builds_its_class_without_listing_the_others(tmp_path):
    # Delta_6(5) over Q(i) has (25 * 4)^6 = 10^12 classes
    from hermfj import cli

    tag = make_field(-1)
    out = tmp_path / "g6.hjf"
    start = time.perf_counter()
    code = cli.run(["theta", "--field", "-1", "--m", "5", "--shift", "0", "--trunc", "2",
                    "--genus", "6", "--out", str(out)])
    assert code == 0 and time.perf_counter() - start < 1.0
    zero = CosetClass(5, (FieldElement.zero(tag),) * 6, tag)
    assert out.read_text(encoding="ascii") == write_jacobi(theta_coeffs(5, zero, 2))


def test_theta_shift_gives_the_bytes_of_the_listed_class(tmp_path):
    from hermfj import cli

    out = tmp_path / "t.hjf"
    for d in (-1, -2, -3, -7, -11):
        tag = make_field(d)
        for g, m in ((1, 1), (1, 2), (2, 1)):
            for i, s in enumerate(delta_classes(g, m, tag)):
                assert cli.run(["theta", "--field", str(d), "--m", str(m), "--shift", str(i),
                                "--trunc", "1", "--genus", str(g), "--out", str(out)]) == 0
                assert out.read_text(encoding="ascii") == write_jacobi(theta_coeffs(m, s, 1))


def test_decompose_recompose_round_trip(tmp_path):
    theta_file = tmp_path / "t.hjf"
    comp_file = tmp_path / "t.hjc"
    back_file = tmp_path / "back.hjf"
    assert run_cli("theta", "--field", "-2", "--m", "2", "--shift", "3",
                   "--trunc", "3", "--out", str(theta_file))[0] == 0
    assert run_cli("decompose", "--in", str(theta_file), "--out", str(comp_file))[0] == 0
    assert run_cli("recompose", "--in", str(comp_file), "--trunc", "3",
                   "--out", str(back_file))[0] == 0
    assert back_file.read_bytes() == theta_file.read_bytes()


def test_multiply(tmp_path):
    tag = make_field(-1)
    a = tmp_path / "a.fjs"
    b = tmp_path / "b.fjs"
    c = tmp_path / "c.fjs"
    write_sample_series(a, tag, seed=2)
    write_sample_series(b, tag, seed=3)
    assert run_cli("multiply", "--in", str(a), "--in2", str(b), "--out", str(c))[0] == 0
    from hermfj.formats import read_series

    fa = read_series(a.read_text(encoding="ascii"))
    fb = read_series(b.read_text(encoding="ascii"))
    fc = read_series(c.read_text(encoding="ascii"))
    assert fc == fa * fb


def test_symmetry_check_passes_and_fails(tmp_path):
    tag = make_field(-1)
    good = tmp_path / "good.fjs"
    f = FourierSeries.constant(fe(1, 0, tag), 1, 4, 2)
    good.write_text(write_series(f), encoding="ascii")
    code, out, _ = run_cli("symmetry-check", "--in", str(good))
    assert code == 0 and "symmetry ok" in out

    bad = tmp_path / "bad.fjs"
    f6 = FourierSeries.constant(fe(1, 0, tag), 1, 6, 2)
    bad.write_text(write_series(f6), encoding="ascii")
    code, out, err = run_cli("symmetry-check", "--in", str(bad))
    assert code == 3
    assert "violation" in out and "consistency" in err


@pytest.mark.parametrize("g", [8, 30])
def test_symmetry_check_of_a_header_only_series_at_high_genus(g, tmp_path, capsys, monkeypatch):
    # each generator of GL_g(O) and its inverse cost O(g^2) field
    # multiplications by elimination, where a cofactor expansion takes g!;
    # with no key to act on, no congruence map is built
    from hermfj import cli, series

    path = tmp_path / "empty.fjs"
    path.write_text("FJS v1; d=-1; g=%d; k=4; trunc=2; dim=1\n" % g, encoding="ascii")
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    maps = []
    congruence = series._congruence
    monkeypatch.setattr(series, "_congruence", lambda u: maps.append(u) or congruence(u))
    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    assert cli.run(["symmetry-check", "--in", str(path)]) == 0
    gens = 3 + (g - 1) + 4  # units other than 1, transpositions, elementary matrices
    assert capsys.readouterr().out == "symmetry ok: %d generators\n" % gens
    assert len(calls) <= 4 * gens * g * g
    assert maps == []


def test_symmetry_check_refuses_a_header_over_the_entry_limit(tmp_path, capsys, monkeypatch):
    # g = 100, l = 50 over Q(i): 106 generators of GL_100(O) and 5,000 shears
    # of 10^4 entries each, counted off the header before anything is built
    from hermfj import cli, hermitian

    built = []
    store = hermitian.UnitMatrix._fill  # every UnitMatrix build ends here
    monkeypatch.setattr(hermitian.UnitMatrix, "_fill",
                        lambda self, *args: built.append(None) or store(self, *args))
    path = tmp_path / "empty.fjfam"
    path.write_text("FJFAM v1; d=-1; g=100; l=50; k=12; trunc=2; dim=1\n", encoding="ascii")
    assert cli.run(["symmetry-check", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "5106 generators of g^2 = 10000 entries each, 51060000 in all" in captured.err
    assert "limit of %d entries" % cli.SYMMETRY_MAX_ENTRIES in captured.err
    assert built == []
    # a header the reader rejects keeps its parse error
    path.write_text("FJFAM v1; d=-1; g=100; l=x; k=12; trunc=2; dim=1\n", encoding="ascii")
    assert cli.run(["symmetry-check", "--in", str(path)]) == 2
    path.write_text("FJFAM v1; d=-1; g=3; l=1; k=12; trunc=2; dim=1\n", encoding="ascii")
    assert cli.run(["symmetry-check", "--in", str(path)]) == 0 and built
    capsys.readouterr()


@pytest.mark.parametrize("magic", ["FJS v1", "FJFAM v1"])
def test_symmetry_check_counts_the_generators_it_builds(magic, tmp_path, capsys, monkeypatch):
    # the limit admits exactly the entries of the generators that are built
    from hermfj import cli
    from hermfj.ffj import shear_generators
    from hermfj.series import gl_generators

    path = tmp_path / "empty"
    header = {"FJS v1": "FJS v1; d=%d; g=%d; k=12; trunc=1; dim=1\n",
              "FJFAM v1": "FJFAM v1; d=%d; g=%d; l=%d; k=12; trunc=1; dim=1\n"}[magic]
    for tag in (make_field(-1), make_field(-3), make_field(-7)):
        for g in (1, 2, 3, 5):
            for l in range(1, g) if magic == "FJFAM v1" else (None,):
                units = gl_generators(g, tag) + (shear_generators(g, l, tag) if l else [])
                entries = len(units) * g * g
                path.write_text(header % ((tag.d, g) + ((l,) if l else ())), encoding="ascii")
                monkeypatch.setattr(cli, "SYMMETRY_MAX_ENTRIES", entries)
                assert cli.run(["symmetry-check", "--in", str(path)]) == 0
                monkeypatch.setattr(cli, "SYMMETRY_MAX_ENTRIES", entries - 1)
                assert cli.run(["symmetry-check", "--in", str(path)]) == 1
    capsys.readouterr()


def test_rearrange_and_psi0(tmp_path):
    tag = make_field(-1)
    t = HermMatrix.diagonal([1, 1, 0], tag)
    f = FourierSeries(3, 8, tag, 4, {t: (fe(2, 0, tag),),
                                     HermMatrix.zero(3, tag): (fe(1, 0, tag),)})
    fam2 = disassemble(f, 2)
    src = tmp_path / "fam.fjfam"
    src.write_text(write_family(fam2), encoding="ascii")

    out1 = tmp_path / "fam1.fjfam"
    assert run_cli("rearrange", "--in", str(src), "--cogenus", "1",
                   "--out", str(out1))[0] == 0
    fam1 = read_family(out1.read_text(encoding="ascii"))
    assert fam1.l == 1 and fam1.g == 3

    psi0 = tmp_path / "psi0.fjfam"
    assert run_cli("psi0", "--in", str(src), "--out", str(psi0))[0] == 0
    small = read_family(psi0.read_text(encoding="ascii"))
    assert small.g == 2 and small.l == 1


def test_bounds_output():
    code, out, _ = run_cli("bounds", "--field", "-1", "--degree", "2",
                           "--weight", "12", "--d-start", "0")
    assert code == 0
    assert "slope_lb = 6" in out
    assert "budget_indices = 0,1,2" in out
    assert "BOUNDS;d=-1;g=2;k=12;" in out


def test_bounds_rejected_budget_prints_nothing():
    code, out, err = run_cli("bounds", "--field", "-1", "--degree", "1",
                             "--weight", "4", "--d-start", "0")
    assert code == 1 and "degree >= 2" in err
    assert out == ""


def test_theta_rejects_genus_below_one(tmp_path):
    for genus in ("0", "-1"):
        out = tmp_path / ("g%s.hjf" % genus)
        code, stdout, err = run_cli("theta", "--field", "-1", "--m", "1", "--shift", "0",
                                    "--trunc", "1", "--genus", genus, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == "error: usage: g must be >= 1\n"
        assert not out.exists()


def test_validate_accepts_toolchain_outputs(tmp_path):
    tag = make_field(-3)
    fjs = tmp_path / "f.fjs"
    write_sample_series(fjs, tag, seed=5)
    assert run_cli("validate", "--in", str(fjs))[0] == 0

    hjf = tmp_path / "t.hjf"
    assert run_cli("theta", "--field", "-3", "--m", "1", "--shift", "1",
                   "--trunc", "2", "--out", str(hjf))[0] == 0
    code, out, _ = run_cli("validate", "--in", str(hjf))
    assert code == 0 and "valid HJF v1" in out


def test_validate_rejects_non_canonical(tmp_path):
    tag = make_field(-1)
    fjs = tmp_path / "f.fjs"
    write_sample_series(fjs, tag, seed=7)
    # append a blank line: parses fine but is not canonical bytes
    fjs.write_text(fjs.read_text(encoding="ascii") + "\n", encoding="ascii")
    code, _, err = run_cli("validate", "--in", str(fjs))
    assert code == 2 and "canonical" in err


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.fjs"
    bad.write_text("FJS v1; d=-1; g=1; k=0; trunc=2; dim=1\nt = junk ; c = 1/1+0/1*w\n",
                   encoding="ascii")
    code, _, err = run_cli("multiply", "--in", str(bad), "--in2", str(bad),
                           "--out", str(tmp_path / "o.fjs"))
    assert code == 2 and "parse" in err


def test_non_ascii_input_exit_code(tmp_path):
    tag = make_field(-1)
    fjs = tmp_path / "f.fjs"
    write_sample_series(fjs, tag, seed=3)
    fjs.write_bytes(fjs.read_bytes() + b"\xc3\n")
    code, _, err = run_cli("validate", "--in", str(fjs))
    assert code == 2 and "parse" in err
    assert "Traceback" not in err


def test_recompose_rejects_zero_index(tmp_path):
    theta_file = tmp_path / "t.hjf"
    comp_file = tmp_path / "t.hjc"
    out_file = tmp_path / "back.hjf"
    assert run_cli("theta", "--field", "-1", "--m", "1", "--shift", "0",
                   "--trunc", "2", "--out", str(theta_file))[0] == 0
    assert run_cli("decompose", "--in", str(theta_file), "--out", str(comp_file))[0] == 0
    text = comp_file.read_text(encoding="ascii")
    assert "; m=1;" in text.splitlines()[0]
    comp_file.write_text(text.replace("; m=1;", "; m=0;", 1), encoding="ascii")
    code, _, err = run_cli("recompose", "--in", str(comp_file), "--trunc", "2",
                           "--out", str(out_file))
    assert code == 2 and "parse" in err
    assert "Traceback" not in err
    assert not out_file.exists()


def test_decompose_rejects_zero_index(tmp_path):
    # an index-0 table is a valid HJF file, but has no theta decomposition
    table_file = tmp_path / "t.hjf"
    out_file = tmp_path / "t.hjc"
    table_file.write_text("HJF v1; d=-2; g=1; k=1; m=0; trunc=3; dim=1\n"
                          "(0/1+0/1*w ; 0/1+0/1*w) = 1/1+0/1*w\n", encoding="ascii")
    assert run_cli("validate", "--in", str(table_file))[0] == 0
    code, _, err = run_cli("decompose", "--in", str(table_file), "--out", str(out_file))
    assert code == 2 and "parse" in err and "index m must be >= 1" in err
    assert not out_file.exists()


def test_decompose_refuses_a_table_over_the_section_limit(tmp_path, capsys):
    # 697 bytes whose bundle needs (3^2 * 3)^4 = 531441 class sections
    from hermfj import cli

    src, out_file = tmp_path / "g4.hjf", tmp_path / "g4.hjc"
    assert cli.run(["theta", "--field", "-3", "--m", "3", "--shift", "5", "--trunc", "2",
                    "--genus", "4", "--out", str(src)]) == 0
    assert len(src.read_bytes()) == 697
    start = time.perf_counter()
    code = cli.run(["decompose", "--in", str(src), "--out", str(out_file)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "27^4 = 531441" in captured.err and "100000" in captured.err
    assert not out_file.exists()
    # a header genus far over the limit is refused without forming the count
    src.write_text(src.read_text(encoding="ascii").replace("g=4;", "g=123456789;"),
                   encoding="ascii")
    start = time.perf_counter()
    assert cli.run(["decompose", "--in", str(src), "--out", str(out_file)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "27^123456789 theta" in capsys.readouterr().err
    assert not out_file.exists()


def test_theta_refuses_a_table_over_the_entry_limit(tmp_path, capsys, monkeypatch):
    from hermfj import cli, field, hermitian

    searches = []
    search = field._lattice_points

    def counted(*args):
        points = search(*args)
        searches.append(points)
        return points

    monkeypatch.setattr(field, "_lattice_points", counted)
    monkeypatch.setattr(hermitian, "_lattice_points", counted)
    out = tmp_path / "t.hjf"
    # about pi * 10^11 keys: the search stops one point past the limit and
    # builds none of them
    code = cli.run(["theta", "--field", "-1", "--m", "1", "--shift", "0",
                    "--trunc", "100000000000", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    assert "more than %d keys" % cli.THETA_MAX_ENTRIES in captured.err
    assert searches == [None] and not out.exists()
    # one key of a genus-3000 table has 9 * 10^6 entries: refused unsearched
    searches.clear()
    assert cli.run(["theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "1",
                    "--genus", "3000", "--out", str(out)]) == 1
    assert "g^2 = 9000000 entries" in capsys.readouterr().err
    assert searches == [] and not out.exists()
    # a genus-700 key fits the limit, two do not: the search of O^700 stops
    # at the second point
    assert cli.run(["theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "1",
                    "--genus", "700", "--out", str(out)]) == 1
    assert "more than 1 keys" in capsys.readouterr().err
    assert searches == [None] and not out.exists()
    # the limit counts keys x g^2: at trunc 1 over Q(i), N(r) <= 1 gives 5 keys
    # at genus 1 and 9 keys of 4 entries at genus 2
    for genus, entries in (("1", 5), ("2", 36)):
        argv = ["theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "1",
                "--genus", genus, "--out", str(out)]
        monkeypatch.setattr(cli, "THETA_MAX_ENTRIES", entries)
        assert cli.run(argv) == 0 and out.exists()
        out.unlink()
        monkeypatch.setattr(cli, "THETA_MAX_ENTRIES", entries - 1)
        assert cli.run(argv) == 1 and not out.exists()
    capsys.readouterr()


def test_theta_at_a_large_index_builds_only_its_class(tmp_path, monkeypatch):
    # Delta_1(1000) over Q(sqrt(-3)) has 3 * 10^6 classes; the shift class
    # is built from the digits of its index, one component, and the one key
    # is keyed by its point y = 0 as it is, with no r built from it
    from hermfj import cli, hermitian, jacobi

    built = []
    from_y = hermitian._from_y

    def counted(a, b, tag):
        built.append((a, b))
        return from_y(a, b, tag)

    monkeypatch.setattr(hermitian, "_from_y", counted)
    monkeypatch.setattr(jacobi, "_from_y", counted)
    tag = make_field(-3)
    out = tmp_path / "m1000.hjf"
    assert cli.run(["theta", "--field", "-3", "--m", "1000", "--shift", "0", "--trunc", "1",
                    "--out", str(out)]) == 0
    assert built == [(0, 0)]
    zero = CosetClass(1000, (FieldElement.zero(tag),), tag)
    assert out.read_text(encoding="ascii") == write_jacobi(theta_coeffs(1000, zero, 1))


def test_coefficient_dimension_below_one_is_a_parse_error(tmp_path):
    # readers used to accept dim < 1 in HJF and FJFAM headers, so decompose
    # wrote a bundle that validate and recompose then rejected
    out_file = tmp_path / "out"
    cases = [
        ("HJF v1; d=-1; g=1; k=1; m=1; trunc=2; dim=%d\n",
         [("validate",), ("decompose", "--out", str(out_file))]),
        ("FJFAM v1; d=-1; g=3; l=2; k=4; trunc=2; dim=%d\n",
         [("validate",), ("rearrange", "--cogenus", "1", "--out", str(out_file)),
          ("psi0", "--out", str(out_file))]),
    ]
    path = tmp_path / "in.txt"
    for header, commands in cases:
        for dim in (0, -1):
            path.write_text(header % dim, encoding="ascii")
            for cmd, *rest in commands:
                code, out, err = run_cli(cmd, "--in", str(path), *rest)
                assert code == 2 and "coefficient dimension must be >= 1" in err, (header, cmd)
                assert out == "" and "Traceback" not in err
                assert not out_file.exists()


def test_recompose_beyond_a_component_truncation(tmp_path):
    # one class section stops below the requested --trunc
    theta_file = tmp_path / "t.hjf"
    comp_file = tmp_path / "t.hjc"
    out_file = tmp_path / "back.hjf"
    assert run_cli("theta", "--field", "-1", "--m", "1", "--shift", "1",
                   "--trunc", "3", "--out", str(theta_file))[0] == 0
    assert run_cli("decompose", "--in", str(theta_file), "--out", str(comp_file))[0] == 0
    text = comp_file.read_text(encoding="ascii")
    assert "; htrunc = 11/4]" in text
    comp_file.write_text(text.replace("; htrunc = 11/4]", "; htrunc = 1/4]"), encoding="ascii")
    assert run_cli("validate", "--in", str(comp_file))[0] == 0
    code, _, err = run_cli("recompose", "--in", str(comp_file), "--trunc", "3",
                           "--out", str(out_file))
    assert code == 2 and "parse" in err and "insufficient" in err
    assert not out_file.exists()
    code, _, err = run_cli("recompose", "--in", str(comp_file), "--trunc", "9",
                           "--out", str(out_file))
    assert code == 2 and "parse" in err and "insufficient" in err
    assert not out_file.exists()


def test_unwritable_out_exit_code(tmp_path):
    out_file = tmp_path / "missing" / "x.hjf"
    code, _, err = run_cli("theta", "--field", "-1", "--m", "1", "--shift", "0",
                           "--trunc", "2", "--out", str(out_file))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_file.exists()


def test_out_is_replaced_atomically(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_file = out_dir / "t.hjf"
    args = ("theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "3",
            "--out", str(out_file))
    assert run_cli(*args)[0] == 0
    first = out_file.read_bytes()
    assert run_cli(*args)[0] == 0  # over an existing file
    assert [p.name for p in out_dir.iterdir()] == ["t.hjf"]
    assert out_file.read_bytes() == first


def test_out_through_symlink_keeps_link_and_mode(tmp_path):
    real = tmp_path / "real.hjf"
    real.write_bytes(b"previous contents\n")
    real.chmod(0o640)
    link = tmp_path / "link.hjf"
    link.symlink_to(real)
    args = ("theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "3")
    assert run_cli(*args, "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() != b"previous contents\n"
    assert (real.stat().st_mode & 0o777) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.hjf", "real.hjf"]
    direct = tmp_path / "direct.hjf"
    assert run_cli(*args, "--out", str(direct))[0] == 0
    assert real.read_bytes() == direct.read_bytes()


def test_out_to_stdout_is_written_through(tmp_path):
    # a link to /dev/stdout: the pipe to this process is written, not replaced
    link = tmp_path / "stdout"
    link.symlink_to("/dev/stdout")
    args = ("theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "3")
    code, out, err = run_cli(*args, "--out", str(link))
    assert (code, err) == (0, "")
    assert link.is_symlink() and [p.name for p in tmp_path.iterdir()] == ["stdout"]
    direct = tmp_path / "direct.hjf"
    assert run_cli(*args, "--out", str(direct))[0] == 0
    assert out == direct.read_text(encoding="ascii")


def test_failed_write_keeps_existing_out(tmp_path, monkeypatch, capsys):
    from hermfj import cli, formats

    out_file = tmp_path / "t.hjf"
    out_file.write_bytes(b"previous contents\n")
    args = ["theta", "--field", "-1", "--m", "1", "--shift", "0", "--trunc", "3",
            "--out", str(out_file)]

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    # the rename fails after the new text is complete
    with monkeypatch.context() as m:
        m.setattr(os, "replace", failing_replace)
        assert cli.run(args) == 1
    # the write itself fails part way: the text is not ASCII at its end
    with monkeypatch.context() as m:
        m.setattr(formats, "write_jacobi", lambda table: "HJF v1" + "x" * 9000 + "\u00e9\n")
        assert cli.run(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and all(line.startswith("error: ") for line in err.splitlines())
    assert out_file.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.hjf"]


def _theta_bundle(tmp_path):
    """The d=-1, m=2 theta table at shift 1 and its HJC bundle, split into
    its header and its class sections."""
    theta_file = tmp_path / "t.hjf"
    comp_file = tmp_path / "t.hjc"
    assert run_cli("theta", "--field", "-1", "--m", "2", "--shift", "1",
                   "--trunc", "3", "--out", str(theta_file))[0] == 0
    assert run_cli("decompose", "--in", str(theta_file), "--out", str(comp_file))[0] == 0
    header, *rest = comp_file.read_text(encoding="ascii").splitlines(keepends=True)
    sections = []
    for line in rest:
        if line.startswith("[class "):
            sections.append([line])
        else:
            sections[-1].append(line)
    assert len(sections) == 16  # |Delta_1(2)| = 2^2 * 4
    return theta_file, header, sections


def _assert_bundle_rejected(tmp_path, text):
    bad = tmp_path / "bad.hjc"
    out_file = tmp_path / "back.hjf"
    bad.write_text(text, encoding="ascii")
    code, _, err = run_cli("recompose", "--in", str(bad), "--trunc", "3",
                           "--out", str(out_file))
    assert code == 2 and "parse" in err
    assert "Traceback" not in err
    assert not out_file.exists()
    code, _, err = run_cli("validate", "--in", str(bad))
    assert code == 2 and "parse" in err


def test_bundle_missing_class_section(tmp_path):
    _, header, sections = _theta_bundle(tmp_path)
    last_dropped = header + "".join("".join(s) for s in sections[:-1])
    _assert_bundle_rejected(tmp_path, last_dropped)
    third_dropped = header + "".join("".join(s) for s in sections[:3] + sections[4:])
    _assert_bundle_rejected(tmp_path, third_dropped)


def test_bundle_non_canonical_class_rep(tmp_path):
    _, header, sections = _theta_bundle(tmp_path)
    assert sections[1][0].startswith("[class 1; rep = 1/2+0/1*w;")
    # 5/2 = 1/2 + 2 names the same class, but not by its canonical rep
    sections[1][0] = sections[1][0].replace("rep = 1/2+0/1*w", "rep = 5/2+0/1*w")
    _assert_bundle_rejected(tmp_path, header + "".join("".join(s) for s in sections))


def test_bundle_duplicated_class_section(tmp_path):
    _, header, sections = _theta_bundle(tmp_path)
    # section 1 repeats the class of section 0, so class 1 has no section
    dup = [sections[0][0].replace("[class 0;", "[class 1;")] + sections[0][1:]
    _assert_bundle_rejected(tmp_path, header + "".join(
        "".join(s) for s in sections[:1] + [dup] + sections[2:]))
    appended = sections + [[sections[0][0].replace("[class 0;", "[class 16;")]
                            + sections[0][1:]]
    _assert_bundle_rejected(tmp_path, header + "".join("".join(s) for s in appended))


def test_bundle_header_trunc_must_match_class_zero(tmp_path):
    _, header, sections = _theta_bundle(tmp_path)
    assert "; trunc=3;" in header and sections[0][0].endswith("htrunc = 3]\n")
    body = "".join("".join(s) for s in sections)
    _assert_bundle_rejected(tmp_path, header.replace("; trunc=3;", "; trunc=99;") + body)
    _assert_bundle_rejected(tmp_path, header.replace("; trunc=3;", "; trunc=2;") + body)


def test_consistency_error_prints_witness(tmp_path):
    from hermfj.errors import ConsistencyError
    from hermfj.jacobi import theta_decompose

    theta_file, _, _ = _theta_bundle(tmp_path)
    lines = theta_file.read_text(encoding="ascii").splitlines(keepends=True)
    key, _ = lines[1].rsplit(" = ", 1)
    lines[1] = key + " = 2/1+0/1*w\n"
    broken = tmp_path / "broken.hjf"
    broken.write_text("".join(lines), encoding="ascii")
    try:
        theta_decompose(read_jacobi(broken.read_text(encoding="ascii")))
    except ConsistencyError as exc:
        witness = exc.witness
    else:
        raise AssertionError("the broken table decomposed")
    nprime, r, r0 = witness

    out_file = tmp_path / "b.hjc"
    code, out, err = run_cli("decompose", "--in", str(broken), "--out", str(out_file))
    assert code == 3 and out == ""
    assert not out_file.exists()
    first, second = err.splitlines()
    assert first.startswith("error: consistency: ")
    # n' first, then the two disagreeing representatives
    assert second == _witness_line((nprime, r, r0))


def _witness_line(witness) -> str:
    nprime, r, r_other = witness
    return "witness: %s | %s | %s" % (
        nprime.to_text(), ",".join(x.to_text() for x in r), ",".join(x.to_text() for x in r_other))


def test_strict_decompose_prints_distant_witness(tmp_path):
    broken, witness = distant_break(make_field(-7), 2, largest_trace=True)
    src = tmp_path / "broken.hjf"
    src.write_text(write_jacobi(broken), encoding="ascii")
    out_file = tmp_path / "b.hjc"
    code, out, err = run_cli("decompose", "--in", str(src), "--out", str(out_file), "--strict")
    assert code == 3 and out == ""
    assert not out_file.exists()
    first, second = err.splitlines()
    assert first.startswith("error: consistency: ")
    assert second == _witness_line(witness)


def test_commands_in_one_process_share_no_state(tmp_path, capsys):
    from hermfj import cli

    broken, witness = distant_break(make_field(-3), 1, largest_trace=False)
    src = tmp_path / "broken.hjf"
    src.write_text(write_jacobi(broken), encoding="ascii")
    out_file = tmp_path / "b.hjc"
    decompose = ["decompose", "--in", str(src), "--out", str(out_file)]
    assert cli.run(decompose + ["--strict"]) == 3
    assert _witness_line(witness) in capsys.readouterr().err.splitlines()
    # the same command without --strict must not inherit it
    assert cli.run(decompose) == 0 and out_file.exists()
    # a usage error leaves nothing behind for the next command
    assert cli.run(["decompose", "--in", str(src)]) == 1
    assert cli.run(["decompose", "--strict", "--bogus"]) == 1
    assert cli.run(["validate", "--in", str(out_file)]) == 0
    assert capsys.readouterr().out == "valid HJC v1\n"
