"""theta-roundtrip: genus-1 theta decomposition and recomposition.

Each round-trip job gets a dense random theta-component bundle (HJC): a
nonzero coefficient at every index n the component's truncation admits, in
every class of Delta_1(m).  So the key count is fixed by (d, m, trunc) and
only the coefficient values depend on the seed.  The job runs CLI
`recompose`, `decompose` (with --strict on every other job) and `validate`;
the decomposed bundle must be byte-identical to the input.

Genus-1 tables use the scalar block test, so this workload does almost no
real PSD work: it is the bypass workload for PSD and enumeration changes,
and the one that stresses `jacobi`, `reduce_class`/`small_rep`,
`coset_points` and format parsing.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

import hermfj.formats as formats
import hermfj.hermitian as hermitian
import hermfj.jacobi as jacobi
from hermfj.field import NORM_EUCLIDEAN_D, FieldElement, make_field
from hermfj.series import FourierSeries
from harness import (
    EXIT_OK,
    EXIT_PARSE,
    Job,
    Workload,
    cli,
    expect,
    expect_rejected,
    min_rep,
    outcome,
    rand_element,
    shift,
    write,
)

#: (m, trunc) pairs run for every field; each pair runs once plain and once
#: with --strict.  Fixed, so that every seed does the same amount of work;
#: weighted to small truncations to keep a batch near five seconds.
ROUND_TRIPS = ((1, 3), (1, 4), (1, 6), (2, 3), (3, 3))
#: theta -> decompose -> recompose chains, one per field
CHAIN = (2, 3)  # (m, trunc)
WEIGHT = 10


def _bundle_text(rng, tag, m: int, trunc: int) -> tuple[str, int]:
    classes = hermitian.delta_classes(1, m, tag)
    comps = {}
    keys = 0
    for s in classes:
        h_trunc = Fraction(trunc) - shift(min_rep(s), m).trace()
        coeffs = {
            hermitian.HermMatrix.from_rational(n, tag): (rand_element(rng, tag),)
            for n in range(floor(h_trunc) + 1)
        }
        keys += len(coeffs)
        comps[s] = FourierSeries(1, WEIGHT - 1, tag, h_trunc, coeffs, semi_integral=False)
    return formats.write_components(jacobi.ThetaComponentVector(m, classes, comps)), keys


def _round_trip(i: int, src: str, trunc: int, strict: bool) -> Job:
    table, back = "rt%d.hjf" % i, "rt%d.hjc" % i
    flags = ("--strict",) if strict else ()

    def work():
        c1, _ = cli("recompose", "--in", src, "--trunc", trunc, "--out", table)
        c2, _ = cli("decompose", "--in", table, "--out", back, *flags)
        c3, out = cli("validate", "--in", back)
        return (c1, c2, c3), out

    def check(result):
        codes, out = result
        expect(codes == (EXIT_OK,) * 3, "round trip %d: exit codes %r" % (i, codes))
        expect(out == "valid HJC v1\n", "round trip %d: validate said %r" % (i, out))
        with open(src, "rb") as a, open(back, "rb") as b:
            expect(a.read() == b.read(), "round trip %d: bundle changed" % i)
        return outcome(codes, out, table, back)

    return Job("round-trip", work, check)


def _chain(i: int, d: int, m: int, shift: int, trunc: int) -> Job:
    """theta -> decompose -> recompose must reproduce the theta bytes."""
    theta, comps, again = "ch%d.hjf" % i, "ch%d.hjc" % i, "ch%d-again.hjf" % i

    def work():
        c1, _ = cli("theta", "--field", d, "--m", m, "--shift", shift, "--trunc", trunc,
                    "--out", theta)
        c2, _ = cli("decompose", "--in", theta, "--out", comps)
        c3, _ = cli("recompose", "--in", comps, "--trunc", trunc, "--out", again)
        return (c1, c2, c3)

    def check(codes):
        expect(codes == (EXIT_OK,) * 3, "chain %d: exit codes %r" % (i, codes))
        with open(theta, "rb") as a, open(again, "rb") as b:
            expect(a.read() == b.read(), "chain %d: recomposed table differs" % i)
        return outcome(codes, "", theta, comps, again)

    return Job("chain", work, check)


def _rejections(tag) -> list[Job]:
    """Inputs the readers must refuse with exit 2, writing no output."""
    z = FieldElement.zero(tag).to_text()
    third = FieldElement(Fraction(1, 3), 0, tag).to_text()
    one = FieldElement.one(tag).to_text()
    hjf = "HJF v1; d=%d; g=1; k=1; m=2; trunc=3; dim=1\n" % tag.d
    # n*m < |r|^2: the block (n r; r* m) is not positive semidefinite
    write("bad-psd.hjf", hjf + "(%s ; %s) = %s\n" % (z, one, one))
    # r = 1/3 lies outside the inverse different
    write("bad-dual.hjf", hjf + "(%s ; %s) = %s\n" % (one, third, one))
    # n = 4 exceeds htrunc = 3
    four = FieldElement(4, 0, tag).to_text()
    write("bad-trunc.hjc", "HJC v1; d=%d; g=1; k=0; m=1; trunc=3; dim=1\n"
          "[class 0; rep = %s; htrunc = 3]\nn = %s ; c = %s\n" % (tag.d, z, four, one))
    return [
        expect_rejected("reject-psd", ("decompose", "--in", "bad-psd.hjf", "--out", "x1.hjc"),
                        EXIT_PARSE, "x1.hjc"),
        expect_rejected("reject-dual", ("decompose", "--in", "bad-dual.hjf", "--out", "x2.hjc"),
                        EXIT_PARSE, "x2.hjc"),
        expect_rejected("reject-trunc",
                        ("recompose", "--in", "bad-trunc.hjc", "--trunc", "3", "--out", "x3.hjf"),
                        EXIT_PARSE, "x3.hjf"),
    ]


def setup(rng) -> Workload:
    specs = [(d, m, t) for d in NORM_EUCLIDEAN_D for (m, t) in ROUND_TRIPS]
    rng.shuffle(specs)
    jobs: list[Job] = []
    keys = 0
    for i, (d, m, trunc) in enumerate(specs):
        for strict in (False, True):
            j = 2 * i + strict
            text, n = _bundle_text(rng, make_field(d), m, trunc)
            src = "in%d.hjc" % j
            write(src, text)
            keys += n
            jobs.append(_round_trip(j, src, trunc, strict))
    for i, d in enumerate(NORM_EUCLIDEAN_D):
        m, trunc = CHAIN
        index = rng.randrange(len(hermitian.delta_classes(1, m, make_field(d))))
        jobs.append(_chain(i, d, m, index, trunc))
    jobs.extend(_rejections(make_field(-1)))
    return Workload(jobs, keys)
