"""Batch command-line front end.

Every command is pure input -> output: identical invocations produce
bit-identical bytes.  Exit codes: 0 success, 1 usage, 2 parse error,
3 mathematical consistency violation.
"""

from __future__ import annotations

import argparse
import os
import shutil
import stat
import sys
from functools import cache
from pathlib import Path

from . import bounds as bounds_mod
from . import ffj, formats, jacobi
from .errors import ConsistencyError, ParseError
from .field import euclidean_constant, make_field, unit_group
from .hermitian import delta_class
from .series import check_symmetry, gl_generators

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_MATH = 3

#: The most theta component sections `decompose` writes; a table of genus
#: g and index m has (m^2 |D|)^g.  Set at 20 s of work when decompose wrote
#: 5,000 sections per second.  It now writes 55,000 (85,184 in 1.55 s on a
#: 2-vCPU x86_64 machine, Python 3.11.7): 2 s of work and 8 MB of output.
DECOMPOSE_MAX_SECTIONS = 100_000
#: The most matrix entries `theta` writes, g^2 per key.  At genus 1 it
#: writes 40,000 to 65,000 keys per second (251,305 in 4.4 s, peak RSS
#: 210 MB, measured as above): 8 to 12 s of work and 22 MB of output.
THETA_MAX_ENTRIES = 500_000
#: The most generator entries `symmetry-check` builds, g^2 for each
#: generator of GL_g(O) and, for a family, each of the 2(g-l)l shears.
#: Building a generator and its inverse takes 2.5 to 2.7 s and 280 MB of
#: peak RSS per million entries (6.7 million in 17.9 s at 1.9 GB, measured
#: as above): 2.7 s of work.
SYMMETRY_MAX_ENTRIES = 1_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@cache
def _build_parser() -> _Parser:
    """Built once per process; `parse_args` keeps no state in it."""
    p = _Parser(prog="hermfj", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("c-constant", help="print the Euclidean constants of a field")
    c.add_argument("--field", type=int, required=True)

    t = sub.add_parser("theta", help="write a theta coefficient table")
    t.add_argument("--field", type=int, required=True)
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--shift", type=int, required=True,
                   help="index into the canonical class list")
    t.add_argument("--trunc", type=int, required=True)
    t.add_argument("--genus", type=int, default=1)
    t.add_argument("--out", required=True)

    d = sub.add_parser("decompose", help="theta-decompose a Jacobi table")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--strict", action="store_true",
                   help="verify every representative inside the truncation")

    r = sub.add_parser("recompose", help="rebuild a Jacobi table from components")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--trunc", type=int, required=True)
    r.add_argument("--out", required=True)

    m = sub.add_parser("multiply", help="multiply two scalar Fourier series")
    m.add_argument("--in", dest="infile", required=True)
    m.add_argument("--in2", dest="infile2", required=True)
    m.add_argument("--out", required=True)

    s = sub.add_parser("symmetry-check", help="check the unimodular symmetry condition")
    s.add_argument("--in", dest="infile", required=True)

    ra = sub.add_parser("rearrange", help="rearrange a family to a lower cogenus")
    ra.add_argument("--in", dest="infile", required=True)
    ra.add_argument("--cogenus", type=int, required=True)
    ra.add_argument("--out", required=True)

    ps = sub.add_parser("psi0", help="extract the index-0 coefficient family")
    ps.add_argument("--in", dest="infile", required=True)
    ps.add_argument("--out", required=True)

    b = sub.add_parser("bounds", help="print certified slope and vanishing bounds")
    b.add_argument("--field", type=int, required=True)
    b.add_argument("--degree", type=int, required=True)
    b.add_argument("--weight", type=int, required=True)
    b.add_argument("--d-start", dest="d_start", type=int, default=None)

    v = sub.add_parser("validate", help="parse a file and verify it re-serializes identically")
    v.add_argument("--in", dest="infile", required=True)

    return p


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _write_file(path: str, text: str):
    """Writes `text` to `path`.  A regular file, or a path that does not
    exist yet, is replaced atomically: the text goes to a new temporary file
    in the directory of the resolved target, which takes the mode of an
    existing target and which `os.replace` then moves over it.  On any
    failure the temporary file is removed and the target is untouched.  A
    symlinked `path` keeps its link; the file it points to is replaced.
    Anything else that exists (a device such as /dev/stdout, a FIFO) is
    opened and written through, as there is no file to replace."""
    try:
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            regular = None
        if regular is False:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            return
        target = Path(os.path.realpath(path))
        tmp = target.with_name(".%s.%s.tmp" % (target.name, os.urandom(6).hex()))
        fh = open(tmp, "x", encoding="ascii")
        try:
            with fh:
                fh.write(text)
            if regular:
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise _UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


def _cmd_c_constant(args) -> int:
    ec = euclidean_constant(make_field(args.field))
    print("mu=%s c=%s" % (ec.mu, ec.c))
    return EXIT_OK


def _cmd_theta(args) -> int:
    tag = make_field(args.field)
    size = args.genus ** 2
    if args.genus >= 1 and size > THETA_MAX_ENTRIES:  # one key is over the limit
        raise _UsageError("theta would write keys of g^2 = %d entries, more than the limit "
                          "of %d entries" % (size, THETA_MAX_ENTRIES))
    try:
        shift = delta_class(args.genus, args.m, tag, args.shift)
    except IndexError:
        count = (args.m * args.m * abs(tag.disc)) ** args.genus
        raise _UsageError("--shift must be in [0, %d) for m=%d over d=%d"
                          % (count, args.m, tag.d)) from None
    most = THETA_MAX_ENTRIES // size
    table = jacobi.theta_coeffs(args.m, shift, args.trunc, max_keys=most)
    if table is None:  # more keys than `most`, found before any was built
        raise _UsageError("theta would write more than %d keys of g^2 = %d entries, more than "
                          "the limit of %d entries" % (most, size, THETA_MAX_ENTRIES))
    _write_file(args.out, formats.write_jacobi(table))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    text = _read_file(args.infile)
    head = formats.read_header(text, "HJF v1")
    g, m, base = head["g"], head["m"], head["m"] ** 2 * abs(head["d"].disc)
    # base >= 3 for m >= 1, so a genus above 64 is far over the limit
    if g >= 1 and m >= 1 and base ** min(g, 64) > DECOMPOSE_MAX_SECTIONS:
        count = "%d^%d" % (base, g) + (" = %d" % base ** g if g <= 64 else "")
        raise _UsageError("decompose would write (m^2 |D|)^g = %s theta component sections, "
                          "more than the limit of %d" % (count, DECOMPOSE_MAX_SECTIONS))
    table = formats.read_jacobi(text)
    if table.m < 1:
        raise ParseError("index m must be >= 1 to decompose", 1)
    v = jacobi.theta_decompose(table, strict=args.strict)
    _write_file(args.out, formats.write_components(v))
    return EXIT_OK


def _cmd_recompose(args) -> int:
    v = formats.read_components(_read_file(args.infile))
    try:
        table = jacobi.theta_recompose(v, args.trunc)
    except ValueError as exc:  # a component stops short of --trunc
        raise ParseError(str(exc)) from exc
    _write_file(args.out, formats.write_jacobi(table))
    return EXIT_OK


def _cmd_multiply(args) -> int:
    f1 = formats.read_series(_read_file(args.infile))
    f2 = formats.read_series(_read_file(args.infile2))
    _write_file(args.out, formats.write_series(f1 * f2))
    return EXIT_OK


def _cmd_symmetry_check(args) -> int:
    text = _read_file(args.infile)
    magic = formats.detect(text)
    if magic not in ("FJS v1", "FJFAM v1"):
        raise ParseError("symmetry-check expects an FJS or FJFAM file")
    head = formats.read_header(text, magic)
    g = head["g"]
    # as many as `gl_generators` builds: units other than 1, transpositions,
    # elementary matrices; and for a family, `ffj.shear_generators`
    count = len(unit_group(head["d"])) - 1 + (g - 1) + (4 if g >= 2 else 0)
    if magic == "FJFAM v1":
        count += max(0, 2 * (g - head["l"]) * head["l"])
    if g >= 1 and count * g * g > SYMMETRY_MAX_ENTRIES:
        raise _UsageError("symmetry-check would build %d generators of g^2 = %d entries each, "
                          "%d in all, more than the limit of %d entries"
                          % (count, g * g, count * g * g, SYMMETRY_MAX_ENTRIES))
    if magic == "FJS v1":
        f = formats.read_series(text)
        gens = gl_generators(f.g, f.tag)
        violations = check_symmetry(f, gens)
        summary = "%d symmetry violations" % len(violations)
        ok = "symmetry ok: %d generators" % len(gens)
    else:
        fam = formats.read_family(text)
        report = ffj.check_family(fam, gl_generators(fam.g, fam.tag))
        violations = report.symmetry_violations + report.subaction_violations
        summary = "%d symmetry and %d sub-action violations" % (
            len(report.symmetry_violations), len(report.subaction_violations))
        ok = "symmetry ok: family with %d indices" % len(fam.indices())
    for u, t in violations:
        print("violation: u=%s t=%s" % (_witness_part_text(u.entries), t.to_text()))
    if violations:
        raise ConsistencyError(summary)
    print(ok)
    return EXIT_OK


def _witness_part_text(part) -> str:
    """A matrix by `to_text`; a vector or an r-matrix as its comma-joined
    entries, row by row."""
    if isinstance(part, tuple):
        return ",".join(_witness_part_text(x) for x in part)
    return part.to_text()


def _cmd_rearrange(args) -> int:
    fam = formats.read_family(_read_file(args.infile))
    out = ffj.rearrange_cogenus(fam, args.cogenus)
    _write_file(args.out, formats.write_family(out))
    return EXIT_OK


def _cmd_psi0(args) -> int:
    fam = formats.read_family(_read_file(args.infile))
    out = ffj.extract_psi0(fam)
    _write_file(args.out, formats.write_family(out))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    tag = make_field(args.field)
    report = bounds_mod.BoundReport(args.degree, args.weight, tag)
    if args.d_start is not None:
        # reject a bad budget request before anything reaches stdout
        count, indices = bounds_mod.truncation_budget(
            args.weight, args.degree, args.d_start, tag
        )
    print(report.text_block())
    if args.d_start is not None:
        print("budget_count = %d" % count)
        print("budget_indices = %s" % ",".join(str(i) for i in indices))
    print(report.record())
    return EXIT_OK


def _cmd_validate(args) -> int:
    text = _read_file(args.infile)
    obj = formats.read_any(text)
    again = formats.write_any(obj)
    if again != text:
        raise ParseError("file is not in canonical form: %s" % args.infile)
    print("valid %s" % formats.detect(text))
    return EXIT_OK


_COMMANDS = {
    "c-constant": _cmd_c_constant,
    "theta": _cmd_theta,
    "decompose": _cmd_decompose,
    "recompose": _cmd_recompose,
    "multiply": _cmd_multiply,
    "symmetry-check": _cmd_symmetry_check,
    "rearrange": _cmd_rearrange,
    "psi0": _cmd_psi0,
    "bounds": _cmd_bounds,
    "validate": _cmd_validate,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print("error: usage: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print("error: parse: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ConsistencyError as exc:
        print("error: consistency: %s" % exc, file=sys.stderr)
        witness = exc.witness
        if witness is not None:
            parts = witness if isinstance(witness, tuple) else (witness,)
            print("witness: %s" % " | ".join(_witness_part_text(p) for p in parts),
                  file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        print("error: usage: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
