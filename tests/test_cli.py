import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hermfj.ffj import disassemble
from hermfj.field import FieldElement, make_field
from hermfj.formats import read_family, read_jacobi, write_family, write_series
from hermfj.hermitian import HermMatrix, enumerate_semi_integral
from hermfj.series import FourierSeries


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
    assert second == "witness: %s | %s | %s" % (
        nprime.to_text(), ",".join(x.to_text() for x in r), ",".join(x.to_text() for x in r0))
