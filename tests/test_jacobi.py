import random
from fractions import Fraction
from math import inf

import pytest

from hermfj.errors import ConsistencyError
from hermfj.field import FieldElement, euclidean_constant, make_field
from hermfj.hermitian import HermMatrix, delta_classes, reduce_class, small_rep
from hermfj.jacobi import (
    JacobiTable,
    ThetaComponentVector,
    block_key,
    series_times_theta,
    shift_matrix,
    theta_coeffs,
    theta_decompose,
    theta_recompose,
)
from hermfj.series import FourierSeries
from util import all_tags


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def zero_class(tag, m, g=1):
    return reduce_class((FieldElement.zero(tag),) * g, m)


def random_component_vector(rng, tag, m, total_trunc, k=10, g=1):
    """Per-class polynomial components with truncations matching decompose."""
    classes = delta_classes(g, m, tag)
    comps = {}
    for s in classes:
        shift = shift_matrix(small_rep(s), m).trace()
        h_trunc = Fraction(total_trunc) - shift
        coeffs = {}
        for n in range(int(h_trunc) + 1):
            if rng.random() < 0.5:
                c = rng.randint(-4, 4)
                if c:
                    coeffs[HermMatrix.from_rational(n, tag)] = (fe(c, 0, tag),)
        comps[s] = FourierSeries(g, k - 1, tag, h_trunc, coeffs, semi_integral=False)
    return ThetaComponentVector(m, classes, comps)


def test_theta_table_example_gaussian():
    t1 = make_field(-1)
    s0 = zero_class(t1, 1)
    theta = theta_coeffs(1, s0, 2)
    # keys: (0,0), (1, units), (2, +-1+-i)
    by_norm = {}
    for (n, r) in theta.coeffs:
        by_norm.setdefault(n.trace(), set()).add(r[0])
    assert set(by_norm) == {0, 1, 2}
    assert by_norm[0] == {FieldElement.zero(t1)}
    assert by_norm[1] == {fe(1, 0, t1), fe(-1, 0, t1), fe(0, 1, t1), fe(0, -1, t1)}
    assert by_norm[2] == {fe(1, 1, t1), fe(1, -1, t1), fe(-1, 1, t1), fe(-1, -1, t1)}
    assert all(vec == (fe(1, 0, t1),) for vec in theta.coeffs.values())


def test_theta_table_zero_shift_always_has_origin():
    for tag in all_tags():
        theta = theta_coeffs(1, zero_class(tag, 1), 1)
        assert theta.coefficient(HermMatrix.zero(1, tag), (FieldElement.zero(tag),)) \
            == (FieldElement.one(tag),)


def test_theta_table_eisenstein_units():
    t3 = make_field(-3)
    theta = theta_coeffs(1, zero_class(t3, 1), 1)
    norm_one = [r[0] for (n, r) in theta.coeffs if n.trace() == 1]
    assert len(norm_one) == 6


def test_theta_keys_satisfy_block_psd():
    for tag in all_tags():
        for s in delta_classes(1, 2, tag)[:6]:
            theta = theta_coeffs(2, s, 3)
            for (n, r) in theta.coeffs:
                assert block_key(n, r, 2).is_psd()


def test_decompose_single_theta():
    t2 = make_field(-2)
    classes = delta_classes(1, 2, t2)
    s0 = classes[5]
    theta = theta_coeffs(2, s0, 3)
    v = theta_decompose(theta)
    for s in v.classes:
        h = v.components[s]
        if s == s0:
            assert len(h.coeffs) == 1
            assert h.coefficient(HermMatrix.zero(1, t2)) == (FieldElement.one(t2),)
        else:
            assert h.is_zero()


def test_decompose_sum_of_all_thetas():
    t3 = make_field(-3)
    m = 1
    classes = delta_classes(1, m, t3)
    total = None
    for s in classes:
        t = theta_coeffs(m, s, 2)
        total = t if total is None else total.add(t)
    v = theta_decompose(total)
    for s in classes:
        h = v.components[s]
        assert h.coefficient(HermMatrix.zero(1, t3)) == (FieldElement.one(t3),)


def test_round_trip_decompose_of_recompose():
    rng = random.Random(71)
    for tag in all_tags():
        for _ in range(6):
            m = rng.randint(1, 3)
            total = 5
            v = random_component_vector(rng, tag, m, total)
            table = theta_recompose(v, total)
            assert theta_decompose(table) == v


def test_round_trip_recompose_of_decompose_on_theta_built():
    rng = random.Random(73)
    tag = make_field(-1)
    m = 2
    total = 4
    v = random_component_vector(rng, tag, m, total)
    table = theta_recompose(v, total)
    again = theta_recompose(theta_decompose(table), total)
    assert again == table


def test_recompose_zero_components_gives_zero_table():
    tag = make_field(-7)
    m = 1
    classes = delta_classes(1, m, tag)
    comps = {
        s: FourierSeries(1, 9, tag, Fraction(3) - shift_matrix(small_rep(s), m).trace(),
                         {}, semi_integral=False)
        for s in classes
    }
    table = theta_recompose(ThetaComponentVector(m, classes, comps), 3)
    assert table.is_zero()


def test_recompose_monomial_support():
    # single h_s = q^1 with m=1, d=-1: table support at n = 1 + |r|^2
    t1 = make_field(-1)
    m = 1
    classes = delta_classes(1, m, t1)
    s0 = zero_class(t1, 1)
    comps = {}
    for s in classes:
        shift = shift_matrix(small_rep(s), m).trace()
        coeffs = {}
        if s == s0:
            coeffs[HermMatrix.from_rational(1, t1)] = (fe(1, 0, t1),)
        comps[s] = FourierSeries(1, 9, t1, Fraction(3) - shift, coeffs, semi_integral=False)
    table = theta_recompose(ThetaComponentVector(m, classes, comps), 3)
    for (n, r) in table.coeffs:
        assert n.trace() == 1 + r[0].norm()
        assert r[0].is_integral()


def test_recompose_insufficient_truncation_raises():
    rng = random.Random(79)
    tag = make_field(-1)
    v = random_component_vector(rng, tag, 1, 3)
    with pytest.raises(ValueError):
        theta_recompose(v, 10)


def test_broken_well_definedness_is_caught():
    t1 = make_field(-1)
    m = 1
    s0 = zero_class(t1, m)
    theta = theta_coeffs(m, s0, 3)
    # perturb the coefficient at r = 1 only: breaks agreement with r = 0-class reps
    coeffs = dict(theta.coeffs)
    key = (HermMatrix.from_rational(1, t1), (fe(1, 0, t1),))
    assert key in coeffs
    coeffs[key] = (fe(5, 0, t1),)
    broken = JacobiTable(1, 1, m, t1, 3, coeffs)
    with pytest.raises(ConsistencyError) as err:
        theta_decompose(broken)
    assert err.value.witness is not None


def test_strict_mode_catches_distant_breaks():
    t1 = make_field(-1)
    m = 1
    s0 = zero_class(t1, m)
    theta = theta_coeffs(m, s0, 5)
    # break at r = 2i: canonical r0 = 0 and spare r0 + m = 1 both still read 0
    coeffs = dict(theta.coeffs)
    key = (HermMatrix.from_rational(4, t1), (fe(0, 2, t1),))
    assert key in coeffs
    del coeffs[key]
    broken = JacobiTable(1, 1, m, t1, 5, coeffs)
    with pytest.raises(ConsistencyError):
        theta_decompose(broken, strict=True)


def test_ord_r_of_theta_is_class_norm():
    for tag in all_tags():
        for m in (1, 2):
            for s in delta_classes(1, m, tag)[:4]:
                theta = theta_coeffs(m, s, m + 1)
                r = small_rep(s)
                assert theta.vanishing_order_at(r) == r[0].norm() / m


def test_ord_bounds():
    t1 = make_field(-1)
    assert JacobiTable(1, 1, 1, t1, 2, {}).vanishing_order() == inf
    rng = random.Random(83)
    for tag in all_tags():
        m = 2
        s = rng.choice(delta_classes(1, m, tag))
        theta = theta_coeffs(m, s, 4)
        ordv = theta.vanishing_order()
        for _ in range(20):
            n, r = rng.choice(list(theta.coeffs))
            assert ordv <= theta.vanishing_order_at(r)


def test_sky_identity_for_products():
    # ord_r(h * theta) = ord(h) + ord_r(theta) for r in the class
    rng = random.Random(89)
    for tag in (make_field(-1), make_field(-11)):
        m = 2
        for s in rng.sample(delta_classes(1, m, tag), 3):
            coeffs = {}
            lead = rng.randint(1, 2)
            for n in range(lead, 4):
                coeffs[HermMatrix.from_rational(n, tag)] = (fe(rng.randint(1, 3), 0, tag),)
            h = FourierSeries(1, 4, tag, 4, coeffs)
            theta = theta_coeffs(m, s, Fraction(4) + shift_matrix(small_rep(s), m).trace())
            prod = series_times_theta(h, theta)
            r = small_rep(s)
            assert prod.vanishing_order_at(r) == h.vanishing_order() + theta.vanishing_order_at(r)


def test_lemma_cell_consequence_ord_r_bound():
    for tag in all_tags():
        ec = euclidean_constant(tag)
        for m in (1, 2, 3, 4, 5):
            for s in delta_classes(1, m, tag):
                r = small_rep(s)
                theta = theta_coeffs(m, s, m)
                assert theta.vanishing_order_at(r) <= (1 - ec.c) * m


def test_strict_decompose_agrees_on_honest_tables():
    rng = random.Random(211)
    for tag in (make_field(-1), make_field(-7)):
        for _ in range(5):
            m = rng.randint(1, 2)
            v = random_component_vector(rng, tag, m, 4)
            table = theta_recompose(v, 4)
            assert theta_decompose(table, strict=True) == theta_decompose(table)


def test_series_times_theta_matches_recomposition():
    # h * theta_s built directly equals the recomposition of the component
    # vector with a single nonzero slot
    rng = random.Random(223)
    for tag in (make_field(-2), make_field(-11)):
        m = 2
        classes = delta_classes(1, m, tag)
        s0 = classes[rng.randrange(len(classes))]
        shift0 = shift_matrix(small_rep(s0), m).trace()
        coeffs = {HermMatrix.from_rational(n, tag): (fe(rng.randint(1, 3), 0, tag),)
                  for n in range(3)}
        h = FourierSeries(1, 7, tag, 3, coeffs)
        theta = theta_coeffs(m, s0, Fraction(3) + shift0)
        direct = series_times_theta(h, theta)

        comps = {}
        for s in classes:
            sh = shift_matrix(small_rep(s), m).trace()
            body = dict(coeffs) if s == s0 else {}
            comps[s] = FourierSeries(1, 7, tag, Fraction(3) + shift0 - sh, body,
                                     semi_integral=False)
        from hermfj.jacobi import ThetaComponentVector

        rebuilt = theta_recompose(ThetaComponentVector(m, classes, comps),
                                  Fraction(3) + shift0)
        assert direct.coeffs == rebuilt.coeffs


def test_input_keyed_caches_are_bounded():
    from hermfj import jacobi

    tag = make_field(-1)
    for cached in (jacobi._shift_matrix, small_rep, delta_classes):
        assert cached.cache_info().maxsize is not None
    maxsize = jacobi._shift_matrix.cache_info().maxsize
    for a in range(maxsize + 1):
        shift_matrix((fe(a, 1, tag),), 1)
    assert jacobi._shift_matrix.cache_info().currsize <= maxsize

    r = [fe(1, 2, tag), fe(0, 1, tag)]
    assert shift_matrix(r, 3) is shift_matrix(tuple(r), 3)
    classes = delta_classes(1, 2, tag)
    assert isinstance(classes, tuple) and delta_classes(1, 2, tag) is classes
