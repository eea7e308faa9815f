"""series-ring: degree-2 Fourier series in the graded ring.

For each field the generator draws a random seed series with a
coefficient at every positive definite semi-integral 2x2 key of trace 2;
the key set is fixed, only the values depend on the seed.  Each job
symmetrises it under `gl_generators` within trace 4, runs CLI `multiply`
to square it and `symmetry-check` on the square (which must pass), and
checks the super-additivity of vanishing orders (acceptance criterion 5).  One more job
enumerates the semi-integral PSD 3x3 matrices of trace <= 3 and checks their
count and digest.

Keys here are built by arithmetic (`gl_action`, `HermMatrix.add`), not by
parsing, so a constructor change that helps the readers of the other two
workloads but costs this path shows here.  It is the only workload that
runs `gl_action`, `mat_mul`, `min_represented` and enumeration.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

import hermfj.formats as formats
import hermfj.hermitian as hermitian
import hermfj.series as series
from hermfj.field import NORM_EUCLIDEAN_D, FieldElement, make_field
from hermfj.hermitian import HermMatrix
from harness import (
    EXIT_MATH,
    EXIT_OK,
    EXIT_PARSE,
    Job,
    Workload,
    cli,
    expect,
    expect_rejected,
    outcome,
    rand_element,
    write,
)

TRUNC = 4
SEED_TRACE = 2
WEIGHT = 12  # a multiple of every unit order, so no orbit is forced to zero
#: enumerate_semi_integral(3, 3) over Q(sqrt(-1)): (d, g, trace bound, count)
#: and the sha256 of the keys' text forms, one per line, in the documented
#: order (trace, then text)
ENUMERATION = (-1, 3, 3, 780)
ENUMERATION_SHA256 = "1a16acd88e8b0a2edf4334ebf6af74023297d4b49701165f2ba38fc1dc3995ae"


def _seed_series(rng, tag) -> series.FourierSeries:
    keys = [t for t in hermitian.enumerate_semi_integral(2, SEED_TRACE, tag) if t.is_pd()]
    return series.FourierSeries(2, WEIGHT, tag, TRUNC,
                                {t: (rand_element(rng, tag),) for t in keys})


def _product_job(i: int, tag, seed) -> Job:
    a, c = "a%d.fjs" % i, "c%d.fjs" % i
    gens = series.gl_generators(2, tag)

    def work():
        f = series.symmetrize(seed, gens)
        write(a, formats.write_series(f))
        c1, _ = cli("multiply", "--in", a, "--in2", a, "--out", c)
        c2, said = cli("symmetry-check", "--in", c)
        product = formats.read_series(Path(c).read_text(encoding="ascii"))
        orders = (f.vanishing_order(), product.vanishing_order())
        return (c1, c2), said, orders, product

    def check(result):
        codes, said, orders, product = result
        expect(codes == (EXIT_OK, EXIT_OK), "product %d: exit codes %r" % (i, codes))
        expect(said == "symmetry ok: %d generators\n" % len(gens),
               "product %d: symmetry-check said %r" % (i, said))
        expect(not product.is_zero(), "product %d: product is zero" % i)
        expect(orders[1] >= 2 * orders[0],
               "product %d: ord(f^2) = %s < 2 ord(f) = 2 * %s" % ((i,) + orders[::-1]))
        return outcome(codes, said + repr(orders), a, c)

    return Job("product", work, check)


def _enumeration_job() -> Job:
    d, g, trace, count = ENUMERATION
    tag = make_field(d)

    def work():
        return hermitian.enumerate_semi_integral(g, trace, tag)

    def check(keys):
        text = "".join(t.to_text() + "\n" for t in keys).encode()
        expect(len(keys) == count, "enumeration: %d keys, wanted %d" % (len(keys), count))
        expect(hashlib.sha256(text).hexdigest() == ENUMERATION_SHA256, "enumeration: digest differs")
        return text

    return Job("enumerate", work, check)


def _rejections(tag) -> list[Job]:
    """Series the reader must refuse with exit 2, and a series that is not
    symmetric, which symmetry-check must answer with exit 3."""

    def diag(x, y):
        return HermMatrix.diagonal([Fraction(x), Fraction(y)], tag).to_text()

    one = FieldElement.one(tag).to_text()
    head = "FJS v1; d=%d; g=2; k=0; trunc=%d; dim=1\n" % (tag.d, TRUNC)
    write("good.fjs", head + "t = %s ; c = %s\n" % (diag(1, 1), one))
    write("bad-psd.fjs", head + "t = %s ; c = %s\n" % (diag(2, -1), one))
    write("bad-semi.fjs", head + "t = %s ; c = %s\n" % (diag(Fraction(1, 2), 1), one))
    write("bad-trunc.fjs", head + "t = %s ; c = %s\n" % (diag(3, 2), one))
    # weight 6 over Q(i): the unit i acts by i^6 = -1 on the constant term
    broken = series.FourierSeries.constant(FieldElement.one(tag), 1, 6, 2)
    write("broken.fjs", formats.write_series(broken))
    jobs = [
        expect_rejected("reject-" + kind,
                        ("multiply", "--in", "bad-%s.fjs" % kind, "--in2", "good.fjs",
                         "--out", "x-%s.fjs" % kind),
                        EXIT_PARSE, "x-%s.fjs" % kind)
        for kind in ("psd", "semi", "trunc")
    ]
    jobs.append(expect_rejected("reject-symmetry", ("symmetry-check", "--in", "broken.fjs"),
                                EXIT_MATH))
    return jobs


def setup(rng) -> Workload:
    jobs: list[Job] = []
    keys = 0
    for i, d in enumerate(NORM_EUCLIDEAN_D):
        tag = make_field(d)
        seed = _seed_series(rng, tag)
        keys += len(seed.coeffs)
        jobs.append(_product_job(i, tag, seed))
    jobs.append(_enumeration_job())
    jobs.extend(_rejections(make_field(-1)))
    return Workload(jobs, keys)
