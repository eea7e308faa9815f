"""Shared pieces of the three workloads: jobs, the in-process CLI call,
random field elements, class representatives and the host-speed yardstick.

Workload code calls library functions through their module
(``ffj.rearrange_cogenus(...)``, never a function imported by name), so
that the wrappers the tracer installs after set-up are what runs.  Classes
may be imported by name: their methods are wrapped on the class itself.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import hermfj.cli
import hermfj.field as field
from hermfj.field import FieldElement
from hermfj.hermitian import HermMatrix

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3


class Mismatch(Exception):
    """A job's outcome differs from the expected one."""


@dataclass
class Job:
    """One unit of closed-loop work.

    `work` is timed as the job's latency; `check` runs after it, untimed,
    raises Mismatch on a wrong outcome, and returns the bytes the job adds
    to the run digest.  A `gate` job feeds an invalid input; it counts as
    attempted and in the batch wall time, but not in the latency
    percentiles, which describe the workload's pipelines.
    """

    name: str
    work: Callable[[], object]
    check: Callable[[object], bytes]
    gate: bool = False


@dataclass
class Workload:
    jobs: list[Job]
    keys: int  # coefficient records across all generated inputs


def cli(*argv) -> tuple[int, str]:
    """`hermfj.cli.run` in-process, with its stdout captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = hermfj.cli.run([str(a) for a in argv])
    return code, out.getvalue()


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def outcome(codes, stdout: str, *paths) -> bytes:
    """Digest contribution: exit codes, captured stdout and output files."""
    parts = [repr(tuple(codes)).encode(), stdout.encode()]
    for p in paths:
        parts.append(Path(p).read_bytes())
    return b"\0".join(parts)


def expect_rejected(name: str, argv: tuple, code_wanted: int, out_path=None) -> Job:
    """A job that feeds an invalid input and must see `code_wanted`, with
    no --out file written."""

    def work():
        return cli(*argv)

    def check(result):
        code, stdout = result
        expect(code == code_wanted, "%s: exit %d, wanted %d" % (name, code, code_wanted))
        if out_path is not None:
            expect(not Path(out_path).exists(), "%s: wrote %s" % (name, out_path))
        return outcome((code,), stdout)

    return Job(name, work, check, gate=True)


def yardstick() -> Fraction:
    """About ten milliseconds of fixed, stdlib-only work of the kind the
    library does (Fraction arithmetic, tuple keys, dict updates).

    Timed between jobs, it measures how fast the host runs Python right
    now.  On a shared machine host speed drifts between runs; batch times
    divided by it spread less from run to run than raw times do.
    """
    acc = Fraction(0)
    seen = {}
    for i in range(1, 800):
        x = Fraction(i % 17 + 1, i % 13 + 1) * Fraction(i % 7 + 2, 3) + acc / (i + 1)
        acc = x - acc
        seen[(i % 97, x.denominator % 11)] = x
    return acc


def min_rep(s) -> tuple:
    """A representative of the coset class s of least norm in each component.

    Generators use this and `shift` instead of `hermitian.small_rep` and
    `jacobi.shift_matrix`, so that set-up leaves the library's caches as
    cold as a fresh CLI invocation finds them.
    """
    return tuple(field.coset_points(x, s.m, x.norm())[0] for x in s.rep)


def shift(r, m: int) -> HermMatrix:
    """r m^-1 r* for a column vector r."""
    return HermMatrix([[x * y.conj() / m for y in r] for x in r], r[0].tag)


def write(path, text: str):
    Path(path).write_text(text, encoding="ascii")


def rand_rational(rng, span: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.choice([i for i in range(-span, span + 1) if i]), rng.randint(1, den))


def rand_element(rng, tag) -> FieldElement:
    """A random nonzero element a + b*w with small numerators and
    denominators; nonzero so that no generated coefficient is dropped."""
    return FieldElement(rand_rational(rng), Fraction(rng.randint(-3, 3), rng.randint(1, 3)), tag)
