"""family-reindex: degree-3 formal Fourier-Jacobi families, cogenus 2 -> 1.

The generator builds a cogenus-1 family with index 0 (a dense random
psi_0 body over every semi-integral PSD 2x2 key within the truncation) and
index 1 (theta-built: for one coset class s of Delta_2(1), one random
value per admissible index n', spread over every representative of s).  It
writes the cogenus-2 arrangement of the same coefficients as FJFAM.

The seed draws s from a fixed stratum of Delta_2(1), the classes whose
small representatives have the same component norms; classes in one
stratum give the same number of keys, so every seed does the same amount
of work.

Each job runs CLI `rearrange --cogenus 1`, `psi0` and `validate`, then
`formal_theta_coeffs` (plain and strict), `theta_decompose` of the
cogenus-1 slice at index 1 and `partial_decomposition_check` for every
class of Delta_1(1).  The outputs must equal the generator's cogenus-1
family, its psi_0 family and its theta components.  All keys are 3x3
blocks, so this is the workload whose time goes to `HermMatrix.is_psd` and
to validating the same keys again in each derived view.
"""

from __future__ import annotations

from fractions import Fraction

import hermfj.ffj as ffj
import hermfj.field as field
import hermfj.formats as formats
import hermfj.hermitian as hermitian
import hermfj.jacobi as jacobi
from hermfj.field import FieldElement, make_field
from hermfj.hermitian import HermMatrix
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

#: (d, trunc, strata of Delta_2(1) used at index 1 -- positions in the list
#: of strata ordered by component norms --, whether the job runs
#: partial_decomposition_check).  The identity check rearranges the whole
#: family once per class of Delta_1(1), |D| times, so it runs on the two
#: fields with the fewest classes only.  Truncation 4 is left out: such a
#: family takes three seconds or more, and a batch must stay near five
#: seconds for a run to hold enough batches for steady medians.
FAMILIES = (
    (-1, 3, (1,), True),
    (-2, 3, (1,), False),
    (-3, 3, (-1,), True),
    (-7, 3, (1,), False),
    (-11, 3, (-1,), False),
)
WEIGHT = 8


def _class_vectors(s, bound: Fraction):
    """Every r in the class s with sum |r_i|^2 <= bound."""
    out = [()]
    for x in s.rep:
        points = field.coset_points(x, s.m, bound)
        out = [v + (p,) for v in out for p in points
               if sum(y.norm() for y in v) + p.norm() <= bound]
    return out


def _strata(tag, picks, rng):
    """One class per chosen stratum; strata ordered by representative norms."""
    groups: dict[tuple, list] = {}
    for s in hermitian.delta_classes(2, 1, tag):
        profile = tuple(sorted(x.norm() for x in min_rep(s)))
        groups.setdefault(profile, []).append(s)
    ordered = [groups[p] for p in sorted(groups)]
    return [rng.choice(ordered[i]) for i in picks]


# The generator splits and joins blocks itself rather than through
# ffj.split_block/join_block, so that the expected families do not come
# from the code under test.
def _split(t: HermMatrix, a: int):
    """(n, r, m) with t = (n r; r* m) and n of size a."""
    g = t.g
    e = t.entries
    n = HermMatrix([[e[i][j] for j in range(a)] for i in range(a)], t.tag)
    r = tuple(tuple(e[i][j] for j in range(a, g)) for i in range(a))
    m = HermMatrix([[e[i][j] for j in range(a, g)] for i in range(a, g)], t.tag)
    return n, r, m


def _join(n: HermMatrix, r, m: HermMatrix) -> HermMatrix:
    rows = [list(n.entries[i]) + list(r[i]) for i in range(n.g)]
    for j in range(m.g):
        rows.append([r[i][j].conj() for i in range(n.g)] + list(m.entries[j]))
    return HermMatrix(rows, n.tag)


def _generate(rng, tag, trunc: int, picks):
    zero = FieldElement.zero(tag)
    zero_col = ((zero,), (zero,))
    idx0 = HermMatrix.from_rational(0, tag)
    idx1 = HermMatrix.from_rational(1, tag)
    psi0 = {(n, zero_col): (rand_element(rng, tag),)
            for n in hermitian.enumerate_semi_integral(2, trunc, tag)}
    theta: dict = {}
    h_data: dict = {s: {} for s in hermitian.delta_classes(2, 1, tag)}
    for s in _strata(tag, picks, rng):
        shift0 = shift(min_rep(s), 1)
        room = trunc - 1
        for target in hermitian.enumerate_semi_integral(2, room, tag):
            nprime = target.sub(shift0)
            if nprime in h_data[s] or not nprime.is_psd():
                continue
            value = (rand_element(rng, tag),)
            h_data[s][nprime] = value
            for r in _class_vectors(s, room - nprime.trace()):
                theta[(nprime.add(shift(r, 1)), tuple((x,) for x in r))] = value
    fam1 = ffj.FJFamily(3, 1, WEIGHT, tag, trunc, {idx0: psi0, idx1: theta})

    tables2: dict = {}
    for m, body in fam1.tables.items():
        for (n, r), vec in body.items():
            n2, r2, m2 = _split(_join(n, r, m), 1)
            tables2.setdefault(m2, {})[(n2, r2)] = vec
    fam2 = ffj.FJFamily(3, 2, WEIGHT, tag, trunc, tables2)

    psi0_tables: dict = {}
    for (n, _col), vec in psi0.items():
        n1, r1, m1 = _split(n, 1)
        psi0_tables.setdefault(m1, {})[(n1, r1)] = vec
    psi0_fam = ffj.FJFamily(2, 1, WEIGHT, tag, trunc, psi0_tables)

    comps = {}
    for s, body in h_data.items():
        h_trunc = trunc - 1 - shift(min_rep(s), 1).trace()
        comps[s] = FourierSeries(2, WEIGHT - 1, tag, h_trunc, body, semi_integral=False)
    slice_body = {(n, tuple(row[0] for row in r)): vec for (n, r), vec in theta.items()}
    return fam1, fam2, psi0_fam, comps, slice_body, len(psi0) + len(theta)


def _family_job(i: int, tag, fam1, fam2, psi0_fam, comps, slice_body, identity: bool) -> Job:
    src, out1, out0 = "fam%d.fjfam" % i, "fam%d-l1.fjfam" % i, "fam%d-psi0.fjfam" % i
    write(src, formats.write_family(fam2))
    want1 = formats.write_family(fam1).encode()
    want0 = formats.write_family(psi0_fam).encode()
    probes = [(s2, min_rep(s2)[0])
              for s2 in (hermitian.delta_classes(1, 1, tag) if identity else ())]

    def work():
        codes = (
            cli("rearrange", "--in", src, "--cogenus", 1, "--out", out1)[0],
            cli("psi0", "--in", src, "--out", out0)[0],
        )
        code, said = cli("validate", "--in", out1)
        plain = ffj.formal_theta_coeffs(fam2, 1)
        strict = ffj.formal_theta_coeffs(fam2, 1, strict=True)
        # the cogenus-1 slice at index 1 as a Jacobi table (criterion 9)
        table = jacobi.JacobiTable(2, WEIGHT, 1, tag, fam2.trunc - 1, slice_body)
        sliced = jacobi.theta_decompose(table)
        identity = [ffj.partial_decomposition_check(fam2, 1, s2, r) for s2, r in probes]
        return codes + (code,), said, plain, strict, sliced, identity

    def check(result):
        codes, said, plain, strict, sliced, identity = result
        expect(codes == (EXIT_OK,) * 3, "family %d: exit codes %r" % (i, codes))
        expect(said == "valid FJFAM v1\n", "family %d: validate said %r" % (i, said))
        with open(out1, "rb") as f:
            expect(f.read() == want1, "family %d: cogenus-1 rearrangement differs" % i)
        with open(out0, "rb") as f:
            expect(f.read() == want0, "family %d: psi_0 differs" % i)
        expect(plain == comps, "family %d: formal theta components differ" % i)
        expect(strict == comps, "family %d: strict formal theta components differ" % i)
        expect(sliced.components == comps, "family %d: slice decomposition differs" % i)
        expect(all(identity), "family %d: partial decomposition identity fails" % i)
        text = "".join(
            "%s|%s|%s\n" % (s.to_text(), n.to_text(), ",".join(x.to_text() for x in vec))
            for s in sliced.classes
            for n, vec in sorted(plain[s].coeffs.items(), key=lambda kv: kv[0].to_text())
        )
        return outcome(codes, said, out1, out0) + text.encode()

    return Job("family", work, check)


def _rejections(tag) -> list[Job]:
    """Families the reader must refuse with exit 2, writing no output."""

    def q(x):
        return FieldElement(Fraction(x), 0, tag).to_text()

    head = "FJFAM v1; d=%d; g=3; l=2; k=8; trunc=4; dim=1\n[index m = %s,%s,%s,%s]\n" % (
        tag.d, q(1), q(0), q(0), q(1))
    # (0 1 0; 1 1 0; 0 0 1) has the principal minor -1
    write("bad-psd.fjfam", head + "(%s ; %s,%s) = %s\n" % (q(0), q(1), q(0), q(1)))
    # a diagonal entry 1/2 is not integral
    write("bad-semi.fjfam", head + "(%s ; %s,%s) = %s\n" % (q(Fraction(1, 2)), q(0), q(0), q(1)))
    # trace 3 + 2 exceeds trunc = 4
    write("bad-trunc.fjfam", head + "(%s ; %s,%s) = %s\n" % (q(3), q(0), q(0), q(1)))
    return [
        expect_rejected("reject-" + kind,
                        ("rearrange", "--in", "bad-%s.fjfam" % kind, "--cogenus", "1",
                         "--out", "x-%s.fjfam" % kind),
                        EXIT_PARSE, "x-%s.fjfam" % kind)
        for kind in ("psd", "semi", "trunc")
    ]


def setup(rng) -> Workload:
    jobs: list[Job] = []
    keys = 0
    for i, (d, trunc, picks, identity) in enumerate(FAMILIES):
        tag = make_field(d)
        fam1, fam2, psi0_fam, comps, slice_body, n = _generate(rng, tag, trunc, picks)
        keys += n
        jobs.append(_family_job(i, tag, fam1, fam2, psi0_fam, comps, slice_body, identity))
    jobs.extend(_rejections(make_field(-1)))
    return Workload(jobs, keys)
