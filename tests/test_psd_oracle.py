"""Cross-checks of the LDL* definiteness test and the coordinate hermicity
check against their predecessors in `util`: all principal minors by
cofactors, leading minors for definiteness, the elimination of the 2g x 2g
trace form, and entrywise conjugates."""

import random
from collections import Counter
from fractions import Fraction

from hermfj import field, hermitian, linalg
from hermfj.field import FieldElement
from hermfj.hermitian import HermMatrix, enumerate_semi_integral, gl_action, min_represented
from hermfj.jacobi import shift_matrix
from util import (
    all_tags,
    diagonal_tuples,
    dual_points_bounded,
    hermitian_by_conj,
    pd_by_leading_minors,
    psd_by_minors,
    psd_rank_by_trace_form,
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
            want = psd_rank_by_trace_form(t)
            assert t._psd_rank() == want, t
            assert_matches_oracle(t)
            outcomes[want] += 1
    assert min(outcomes.values()) > 30, outcomes


def perturbed(rng, t: HermMatrix) -> HermMatrix:
    """t with each coordinate of its key moved by -1, 0 or 1, except the
    w-coordinates of the diagonal: Hermitian with a real diagonal."""
    g, raw, k = t.g, list(t._key), 1
    for i in range(g):
        raw[k] += rng.randint(-1, 1)
        for j in range(k + 2, k + 2 * (g - i)):
            raw[j] += rng.randint(-1, 1)
        k += 2 * (g - i)
    return HermMatrix._trusted(g, raw, t.tag)


def random_shift(rng, tag, g) -> HermMatrix:
    """A rank-one key r m^-1 r*, r with denominators up to 3 and some zero
    components."""
    r = [random_field_element(rng, tag, 3, 3) if rng.random() < 0.8 else FieldElement.zero(tag)
         for _ in range(g)]
    if all(x.is_zero() for x in r):
        r[rng.randrange(g)] = FieldElement(Fraction(1, rng.randint(1, 3)), 0, tag)
    return shift_matrix(r, rng.randint(1, 4))


def with_zero_row(t: HermMatrix, i: int, rng=None) -> HermMatrix:
    """t with row and column i zero; with `rng`, then one nonzero t_ij,
    j != i, so that the zero diagonal entry makes it indefinite."""
    rows = [list(row) for row in t.entries]
    zero = FieldElement.zero(t.tag)
    for k in range(t.g):
        rows[i][k] = rows[k][i] = zero
    if rng is not None:
        j = rng.choice([k for k in range(t.g) if k != i])
        x = random_field_element(rng, t.tag, 2, 2)
        rows[i][j] = FieldElement.one(t.tag) if x.is_zero() else x
        rows[j][i] = rows[i][j].conj()
    return HermMatrix(rows, t.tag)


def test_psd_rank_agrees_with_trace_form_elimination():
    """`_psd_rank` of g x g keys, g = 2..5, against the elimination of the
    2g x 2g trace form it replaced, and `is_psd`/`is_pd` against the minors,
    in all five fields: enumerated keys and their Hermitian perturbations,
    rank-one shifts with denominators and their sums and differences, and
    zero rows at the first, middle and last index."""
    rng = random.Random(20220)
    outcomes = Counter()
    for tag in all_tags():
        for g, bound in ((2, 3), (3, 3), (4, 2), (5, 2)):
            keys = enumerate_semi_integral(g, bound, tag)
            keys = rng.sample(keys, min(len(keys), 120))
            keys += [perturbed(rng, t) for t in keys[:60]]
            shifts = [random_shift(rng, tag, g) for _ in range(3 * g)]
            keys += shifts
            for _ in range(20):
                a, b = rng.sample(shifts, 2)
                total = a
                for c in rng.sample(shifts, g):
                    total = total.add(c)
                keys += [a.add(b), a.sub(b), total, perturbed(rng, total)]
            for i in (0, g // 2, g - 1):
                for t in rng.sample(keys, 4):
                    keys += [with_zero_row(t, i), with_zero_row(t, i, rng)]
            for t in keys:
                rank = t._psd_rank()
                assert rank == psd_rank_by_trace_form(t), t
                outcomes[g, "not psd" if rank is None else "full" if rank == g else "deficient"] += 1
            for t in keys if g < 5 else rng.sample(keys, 60):
                assert_matches_oracle(t)
    assert len(outcomes) == 12 and min(outcomes.values()) > 40, outcomes


def test_psd_tests_build_no_trace_form(monkeypatch):
    """`is_psd` and `is_pd` of a key with g >= 2 eliminate its g rows over O:
    no `HermMatrix._gram` and no `field._ldl_pivots` call; `min_represented`
    still makes both, which shows the counters work."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(HermMatrix, "_gram", counted("_gram", HermMatrix._gram))
    for module in (field, hermitian):
        monkeypatch.setattr(module, "_ldl_pivots", counted("_ldl_pivots", module._ldl_pivots))
    rng = random.Random(20221)
    for tag in all_tags():
        for g in (2, 3, 4):
            for t in (HermMatrix.identity(g, tag), random_shift(rng, tag, g),
                      with_zero_row(HermMatrix.identity(g, tag), g - 1, rng)):
                t.is_psd()
                t.is_pd()
    assert not calls, calls
    min_represented(HermMatrix.identity(2, all_tags()[0]))
    assert calls == {"_gram": 1, "_ldl_pivots": 1}, calls


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
