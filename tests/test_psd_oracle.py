"""Cross-checks of the LDL* definiteness test and the coordinate hermicity
check against their predecessors in `util`: all principal minors by
cofactors, leading minors for definiteness, and entrywise conjugates."""

import random
from fractions import Fraction

from hermfj import linalg
from hermfj.field import FieldElement, _ldl_pivots
from hermfj.hermitian import HermMatrix, enumerate_semi_integral, gl_action
from hermfj.jacobi import shift_matrix
from util import (
    all_tags,
    diagonal_tuples,
    dual_points_bounded,
    hermitian_by_conj,
    pd_by_leading_minors,
    psd_by_minors,
    random_field_element,
    random_unit_matrix,
)


def assert_matches_oracle(m: HermMatrix):
    assert m.is_psd() == psd_by_minors(m), m
    assert m.is_pd() == pd_by_leading_minors(m), m


def hermitian_rows(rng, tag, g, den=3, span=3):
    zero = FieldElement.zero(tag)
    rows = [[zero] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = FieldElement(Fraction(rng.randint(-span, span), rng.randint(1, den)), 0, tag)
        for j in range(i + 1, g):
            x = random_field_element(rng, tag, den, span)
            rows[i][j] = x
            rows[j][i] = x.conj()
    return rows


def semi_integral_candidates(g, trace_bound, tag):
    """Every Hermitian matrix with a nonnegative integer diagonal of trace
    <= trace_bound and off-diagonal entries x_ij in O^# with
    N(x_ij) <= t_ii t_jj (the 2x2 minor bound), definite or not."""
    zero = FieldElement.zero(tag)
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    for diag in diagonal_tuples(g, trace_bound):
        slots = [dual_points_bounded(tag, Fraction(diag[i] * diag[j])) or [zero]
                 for i, j in pairs]

        def fill(k, rows):
            if k == len(pairs):
                yield HermMatrix(rows, tag)
                return
            i, j = pairs[k]
            for x in slots[k]:
                rows[i][j] = x
                rows[j][i] = x.conj()
                yield from fill(k + 1, rows)

        rows = [[zero] * g for _ in range(g)]
        for i in range(g):
            rows[i][i] = FieldElement(diag[i], 0, tag)
        yield from fill(0, rows)


def test_enumeration_agrees_with_minor_oracle():
    for tag in all_tags():
        for g, bound in ((1, 3), (2, 3), (3, 3)):
            got = enumerate_semi_integral(g, bound, tag)
            for m in got:
                assert_matches_oracle(m)
            expected = {m for m in semi_integral_candidates(g, bound, tag) if psd_by_minors(m)}
            assert set(got) == expected
            assert len(got) == len(expected)


def test_random_hermitian_agrees_with_minor_oracle():
    rng = random.Random(20211)
    outcomes = {True: 0, False: 0}
    for tag in all_tags():
        for g in (1, 2, 3, 4):
            for _ in range(12 if g == 4 else 25):
                cases = []
                # generic, mostly indefinite
                cases.append(HermMatrix(hermitian_rows(rng, tag, g), tag))
                # PSD of rank < g or = g: sums of rank-1 shifts r m^-1 r*
                rank = rng.randint(1, g)
                psd = HermMatrix.zero(g, tag)
                for _ in range(rank):
                    r = [random_field_element(rng, tag, 2, 2) for _ in range(g)]
                    if all(x.is_zero() for x in r):
                        r[0] = FieldElement.one(tag)
                    psd = psd.add(shift_matrix(r, rng.randint(1, 3)))
                cases.append(psd)
                # indefinite perturbations of the PSD key
                i, j = rng.randrange(g), rng.randrange(g)
                eps = Fraction(1, rng.randint(1, 50))
                cases.append(psd.sub(HermMatrix.diagonal(
                    [eps if k == i else 0 for k in range(g)], tag)))
                if g > 1 and i != j:
                    rows = [list(row) for row in psd.entries]
                    d = FieldElement(eps, rng.choice((0, eps)), tag)
                    rows[i][j] = rows[i][j] + d
                    rows[j][i] = rows[i][j].conj()
                    cases.append(HermMatrix(rows, tag))
                # a zero diagonal entry, with and without a nonzero row
                rows = [list(row) for row in psd.entries]
                zero = FieldElement.zero(tag)
                for k in range(g):
                    rows[i][k] = rows[k][i] = zero
                cases.append(HermMatrix(rows, tag))
                if g > 1 and i != j:
                    rows[i][j] = FieldElement(0, eps, tag)
                    rows[j][i] = rows[i][j].conj()
                    cases.append(HermMatrix(rows, tag))
                # known inertia, hidden by a GL_g(O) change of basis
                diag = HermMatrix.diagonal([rng.choice((-1, 0, 0, 1, 2)) for _ in range(g)], tag)
                cases.append(gl_action(random_unit_matrix(rng, g, tag), diag))
                for m in cases:
                    assert_matches_oracle(m)
                    outcomes[m.is_psd()] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_scalar_psd_rank_agrees_with_trace_form_elimination():
    """The 1x1 sign test of `_psd_rank` against `_ldl_pivots` on `_gram()`,
    for negative, zero and positive keys however they were built."""
    rng = random.Random(20213)
    outcomes = {None: 0, 0: 0, 1: 0}
    for tag in all_tags():
        keys = [HermMatrix.from_rational(Fraction(p, q), tag)
                for p in range(-12, 13) for q in (1, 2, 3, 7)]
        keys += [HermMatrix.from_text("%d/%d+0/%d*w" % (p * c, q * c, rng.randint(1, 9)), 1, tag)
                 for p in range(-4, 5) for q in (1, 5) for c in (1, 3)]
        keys += enumerate_semi_integral(1, 4, tag)
        for _ in range(20):
            x = random_field_element(rng, tag, 3, 3)
            shift = shift_matrix((x,), rng.randint(1, 3))
            keys += [shift, shift.sub(HermMatrix.from_rational(Fraction(1, 5), tag)),
                     HermMatrix.zero(1, tag).sub(shift)]
        for t in keys:
            pivots = _ldl_pivots(t._gram()[0])
            want = None if pivots is None else len(pivots) // 2
            assert t._psd_rank() == want, t
            assert_matches_oracle(t)
            outcomes[want] += 1
    assert min(outcomes.values()) > 30, outcomes


def test_is_hermitian_agrees_with_conj_oracle():
    rng = random.Random(20212)
    outcomes = {True: 0, False: 0}
    for tag in all_tags():
        other = all_tags()[(all_tags().index(tag) + 1) % 5]
        for g in (1, 2, 3, 4):
            for _ in range(40):
                rows = hermitian_rows(rng, tag, g)
                variants = [rows]
                i, j = rng.randrange(g), rng.randrange(g)
                x = rows[i][j]
                for bad in (
                    FieldElement(x.a, x.b + rng.choice((-1, 1)), tag),
                    FieldElement(x.a + Fraction(1, rng.randint(1, 3)), x.b, tag),
                    x.conj(),
                    FieldElement(x.a, -x.b, tag),
                    FieldElement(x.a, x.b, other),
                ):
                    changed = [list(row) for row in rows]
                    changed[i][j] = bad
                    variants.append(changed)
                for v in variants:
                    frozen = linalg.freeze(v)
                    want = hermitian_by_conj(frozen)
                    assert linalg.is_hermitian(frozen) == want, v
                    outcomes[want] += 1
    assert min(outcomes.values()) > 300, outcomes
