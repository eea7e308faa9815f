from fractions import Fraction

import pytest

from hermfj.bounds import (
    BoundReport,
    dimension_exponents,
    jacobi_index_threshold,
    slope_lower_bound,
    trace_formula_constant,
    truncation_budget,
    vanishing_threshold,
)
from hermfj.field import euclidean_constant, make_field
from hermfj.hermitian import delta_classes
from hermfj.jacobi import theta_coeffs
from util import all_tags


def test_slope_lower_bound_values():
    t1 = make_field(-1)
    assert slope_lower_bound(1, t1) == 12
    assert slope_lower_bound(2, t1) == 6
    assert slope_lower_bound(3, t1) == 3
    t3 = make_field(-3)
    assert slope_lower_bound(3, t3) == Fraction(16, 3)


def test_slope_recursion():
    for tag in all_tags():
        c = euclidean_constant(tag).c
        for g in range(1, 7):
            assert slope_lower_bound(g + 1, tag) == c * slope_lower_bound(g, tag)
            assert slope_lower_bound(g, tag) == 12 * c ** (g - 1)
            assert slope_lower_bound(g, tag) > 0


def test_vanishing_threshold():
    t1 = make_field(-1)
    assert vanishing_threshold(0, 3, t1) == 0
    assert vanishing_threshold(12, 1, t1) == 1
    assert vanishing_threshold(24, 2, t1) == 4
    # monotone in k, antitone in the slope bound
    for tag in all_tags():
        assert vanishing_threshold(10, 2, tag) < vanishing_threshold(20, 2, tag)
        assert vanishing_threshold(10, 2, tag) >= vanishing_threshold(10, 1, tag)


def test_jacobi_index_threshold():
    t1 = make_field(-1)
    assert jacobi_index_threshold(0, 1, t1) == 0
    assert jacobi_index_threshold(12, 1, t1) == 2
    t3 = make_field(-3)
    assert jacobi_index_threshold(12, 1, t3) == Fraction(3, 2)


def test_truncation_budget():
    t1 = make_field(-1)
    count, indices = truncation_budget(12, 2, 0, t1)
    assert (count, indices) == (3, [0, 1, 2])
    count, indices = truncation_budget(12, 2, 5, t1)
    assert (count, indices) == (0, [])
    # k below 12 c^{g-2} d_start gives the empty list
    for tag in all_tags():
        c = euclidean_constant(tag).c
        d_start = 3
        k_small = int(12 * c ** 0 * d_start) - 1
        count, indices = truncation_budget(k_small, 2, d_start, tag)
        assert indices == [] or indices[0] >= d_start


def test_truncation_budget_rejects_a_negative_weight():
    # it returned (0, []) for k = -5, where its siblings raise
    t1 = make_field(-1)
    for k in (-5, -1):
        with pytest.raises(ValueError, match="weight must be >= 0"):
            truncation_budget(k, 2, 0, t1)
    assert truncation_budget(0, 2, 0, t1) == (1, [0])


def test_dimension_exponents():
    assert dimension_exponents(1) == (1, 2)
    assert dimension_exponents(2) == (4, 5)
    assert dimension_exponents(3) == (9, 10)
    with pytest.raises(ValueError):
        dimension_exponents(0)


def test_trace_formula_constant():
    q, e = trace_formula_constant(10, 1)
    # 2^{-2} * (10 - 2 + 1 + 0 + 0) = 9/4, pi^-1
    assert (q, e) == (Fraction(9, 4), -1)
    q, e = trace_formula_constant(12, 2)
    assert e == -4
    expected = Fraction(1, 2 ** 6)
    for i in range(2):
        for j in range(2):
            expected *= 12 - 4 + 1 + i + j
    assert q == expected


def test_theta_order_bound_powers_the_index_threshold():
    # ord(theta) <= (1 - c) m for every shift, m <= 5, all fields
    for tag in all_tags():
        c = euclidean_constant(tag).c
        for m in range(1, 6):
            for s in delta_classes(1, m, tag):
                theta = theta_coeffs(m, s, m)
                assert theta.vanishing_order() <= (1 - c) * m


def test_bound_report():
    t1 = make_field(-1)
    rep = BoundReport(2, 24, t1)
    assert rep.slope_lb == 6
    assert rep.ord_vanish_threshold == 4
    assert rep.fm_exponent == 4 and rep.graded_exponent == 5
    block = rep.text_block()
    assert "slope_lb = 6" in block
    assert rep.record().startswith("BOUNDS;d=-1;g=2;k=24;")
