import random
from fractions import Fraction
from math import inf

import pytest

from hermfj.field import FieldElement, make_field
from hermfj.hermitian import HermMatrix, UnitMatrix, enumerate_semi_integral, gl_action
from hermfj.series import (
    FourierSeries,
    check_symmetry,
    gl_generators,
    symmetrize,
)
from util import all_tags


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def one_dim_series(tag, support, k=0, trunc=None):
    """Degree-1 scalar series from {exponent: rational coefficient}."""
    if trunc is None:
        trunc = max(support) if support else 0
    coeffs = {
        HermMatrix.from_rational(n, tag): (fe(c, 0, tag),) for n, c in support.items()
    }
    return FourierSeries(1, k, tag, trunc, coeffs)


def random_series(rng, g, tag, trunc, k=0, max_terms=5):
    cands = enumerate_semi_integral(g, trunc, tag)
    coeffs = {}
    for t in rng.sample(cands, min(max_terms, len(cands))):
        coeffs[t] = (fe(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), 0, tag),)
    return FourierSeries(g, k, tag, trunc, coeffs)


def test_add_and_scale_basics():
    t1 = make_field(-1)
    f = one_dim_series(t1, {0: 1, 2: 3}, trunc=3)
    zero = FourierSeries.zero(1, 0, t1, 3)
    assert f + zero == f
    assert (f + f.scale(-1)).is_zero()
    g = one_dim_series(t1, {1: 7}, trunc=3)
    s = f + g
    assert s.coefficient(HermMatrix.from_rational(1, t1))[0] == fe(7, 0, t1)
    assert len(s.coeffs) == 3


def test_add_requires_matching_weight_degree_field():
    t1, t2 = make_field(-1), make_field(-2)
    f = one_dim_series(t1, {0: 1}, k=2)
    with pytest.raises(ValueError):
        f + one_dim_series(t1, {0: 1}, k=4)
    with pytest.raises(ValueError):
        f + one_dim_series(t2, {0: 1}, k=2)


def test_mul_identity_and_cauchy():
    t1 = make_field(-1)
    one = FourierSeries.constant(fe(1, 0, t1), 1, 0, 2)
    f = one_dim_series(t1, {0: 1, 1: 1, 2: 1}, trunc=2)
    assert f * one == f
    sq = f * f
    assert [sq.coefficient(HermMatrix.from_rational(n, t1))[0].as_rational()
            for n in (0, 1, 2)] == [1, 2, 3]


def test_mul_degree_two_against_convolution_oracle():
    rng = random.Random(19)
    for tag in all_tags()[:3]:
        f1 = random_series(rng, 2, tag, 3)
        f2 = random_series(rng, 2, tag, 3)
        prod = f1 * f2
        # brute-force convolution over all support pairs
        expected = {}
        for t1, v1 in f1.coeffs.items():
            for t2, v2 in f2.coeffs.items():
                if t1.trace() + t2.trace() > 3:
                    continue
                key = t1.add(t2)
                expected[key] = expected.get(key, fe(0, 0, tag)) + v1[0] * v2[0]
        expected = {t: v for t, v in expected.items() if not v.is_zero()}
        assert dict(prod.coeffs) == {t: (v,) for t, v in expected.items()}


def test_mul_two_diagonal_supports():
    t1 = make_field(-1)
    a = HermMatrix.diagonal([1, 0], t1)
    b = HermMatrix.diagonal([0, 1], t1)
    f1 = FourierSeries(2, 0, t1, 2, {a: (fe(1, 0, t1),), b: (fe(2, 0, t1),)})
    f2 = FourierSeries(2, 0, t1, 2, {a: (fe(3, 0, t1),), b: (fe(5, 0, t1),)})
    prod = f1 * f2
    two_a = HermMatrix.diagonal([2, 0], t1)
    two_b = HermMatrix.diagonal([0, 2], t1)
    mixed = HermMatrix.diagonal([1, 1], t1)
    assert prod.coefficient(two_a)[0] == fe(3, 0, t1)
    assert prod.coefficient(two_b)[0] == fe(10, 0, t1)
    assert prod.coefficient(mixed)[0] == fe(5 + 6, 0, t1)


def test_ring_axioms_on_random_series():
    rng = random.Random(21)
    tag = make_field(-3)
    for _ in range(10):
        f = random_series(rng, 2, tag, 2, max_terms=4)
        g = random_series(rng, 2, tag, 2, max_terms=4)
        h = random_series(rng, 2, tag, 2, max_terms=4)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_vanishing_order():
    t1 = make_field(-1)
    assert FourierSeries.zero(1, 0, t1, 4).vanishing_order() == inf
    f = one_dim_series(t1, {2: 1, 5: 1}, trunc=5)
    assert f.vanishing_order() == 2
    g2 = FourierSeries(2, 0, t1, 4, {HermMatrix.diagonal([1, 3], t1): (fe(1, 0, t1),)})
    assert g2.vanishing_order() == 1


def test_vanishing_order_of_products():
    rng = random.Random(25)
    tag = make_field(-1)
    for _ in range(30):
        f = random_series(rng, rng.choice([1, 2]), tag, 4, max_terms=3)
        g = random_series(rng, f.g, tag, 4, max_terms=3)
        assert (f * g).vanishing_order() >= f.vanishing_order() + g.vanishing_order()


def test_check_symmetry_unit_obstruction():
    t1 = make_field(-1)
    u = UnitMatrix([[fe(0, 1, t1)]], t1)
    for k in (0, 4, 8, 12):
        f = FourierSeries.constant(fe(1, 0, t1), 1, k, 2)
        assert check_symmetry(f, [u]) == []
    f6 = FourierSeries.constant(fe(1, 0, t1), 1, 6, 2)
    bad = check_symmetry(f6, [u])
    assert bad == [(u, HermMatrix.zero(1, t1))]

    t3 = make_field(-3)
    w = UnitMatrix([[FieldElement.omega(t3)]], t3)
    for k in (0, 6, 12):
        f = FourierSeries.constant(fe(1, 0, t3), 1, k, 2)
        assert check_symmetry(f, [w]) == []
    for k in (2, 3, 4):
        f = FourierSeries.constant(fe(1, 0, t3), 1, k, 2)
        assert check_symmetry(f, [w]) != []


def test_check_symmetry_identity_unit_never_violates():
    rng = random.Random(29)
    tag = make_field(-2)
    f = random_series(rng, 2, tag, 3)
    assert check_symmetry(f, [UnitMatrix.identity(2, tag)]) == []


def test_symmetrized_series_passes_check():
    rng = random.Random(33)
    for tag in (make_field(-1), make_field(-3)):
        gens = gl_generators(2, tag)
        f = random_series(rng, 2, tag, 3, k=12, max_terms=3)
        f_sym = symmetrize(f, gens)
        assert check_symmetry(f_sym, gens) == []
        # single unpaired coefficient breaks it
        t = HermMatrix.diagonal([1, 2], tag)
        broken = f_sym + FourierSeries(2, 12, tag, 3, {t: (fe(1, 0, tag),)})
        assert check_symmetry(broken, gens) != []


def test_symmetrize_factor_is_conjugate_determinant_power():
    # The factor of c(u* t u) is det(u*)^k = conj(det u)^k.  At k = 12 every
    # unit has u^12 = 1, so this needs a small weight and a key whose orbit
    # under the unit diag(w, 1) of d = -3 (w a primitive sixth root of
    # unity) has trivial stabilizer: a nonzero off-diagonal entry.
    tag = make_field(-3)
    w = FieldElement.omega(tag)
    u = UnitMatrix.diagonal_units([w, FieldElement.one(tag)], tag)
    t = next(m for m in enumerate_semi_integral(2, 2, tag)
             if m.entries[0][1] != FieldElement.zero(tag) and m.is_pd())
    c = fe(3, 0, tag)
    for k in (1, 2, 4, 5):
        f_sym = symmetrize(FourierSeries(2, k, tag, 2, {t: (c,)}), [u])
        assert len(f_sym.coeffs) == 6
        image = t
        for j in range(1, 6):
            image = gl_action(u, image)
            assert f_sym.coeffs[image] == (w.conj() ** (j * k) * c,)
        assert w.conj() ** k != w ** k
        assert check_symmetry(f_sym, [u]) == []


def test_symmetrization_preserves_vanishing_order():
    # single positive seed: no cancellation, and every orbit key represents
    # the same minimal value, so the order is exactly preserved
    rng = random.Random(37)
    tag = make_field(-1)
    gens = gl_generators(2, tag)
    cands = enumerate_semi_integral(2, 3, tag)
    for _ in range(8):
        t = rng.choice(cands)
        f = FourierSeries(2, 12, tag, 3, {t: (fe(rng.randint(1, 5), 0, tag),)})
        f_sym = symmetrize(f, gens)
        if f.is_zero():
            continue
        assert f_sym.vanishing_order() == f.vanishing_order()


def test_vector_valued_check_symmetry_needs_rho():
    t1 = make_field(-1)
    t = HermMatrix.zero(1, t1)
    f = FourierSeries(1, 4, t1, 1, {t: (fe(1, 0, t1), fe(2, 0, t1))}, dim=2)
    u = UnitMatrix([[fe(0, 1, t1)]], t1)
    with pytest.raises(ValueError):
        check_symmetry(f, [u])

    def rho(unit):
        # explicit finite-quotient action: swap matrix
        return [[fe(0, 0, t1), fe(1, 0, t1)], [fe(1, 0, t1), fe(0, 0, t1)]]

    # rho * (1, 2) = (2, 1) must equal (det u*)^4 (1, 2) = (1, 2): violation
    assert check_symmetry(f, [u], rho) != []
    g = FourierSeries(1, 4, t1, 1, {t: (fe(1, 0, t1), fe(1, 0, t1))}, dim=2)
    assert check_symmetry(g, [u], rho) == []
