"""Cross-checks of the integer-coordinate lattice kernels `gl_action`,
`min_represented`, `coset_points`, `util._coset_vectors` and the
fraction-free LDL^T of `field._search_levels` against their predecessors in
`util`: two generic field-element matrix products, Fincke-Pohst searches in
Fractions and in integers, coordinate ranges over-approximated in Fractions,
and the rational LDL^T."""

import random
from fractions import Fraction

import pytest

from hermfj.field import FieldElement, _search_levels, coset_points
from hermfj.hermitian import (
    CosetClass,
    HermMatrix,
    delta_classes,
    enumerate_semi_integral,
    gl_action,
    min_represented,
    small_rep,
)
from hermfj.jacobi import shift_matrix, theta_coeffs
from hermfj.series import gl_generators
from util import (
    _coset_vectors,
    all_tags,
    class_points_by_recursion,
    coset_points_by_fractions,
    gl_action_by_mat_mul,
    min_represented_by_best_budget,
    min_represented_by_fractions,
    random_field_element,
    real_gram_by_fractions,
    search_levels_by_fractions,
    sqrt_disc,
)


def semi_integral_keys(rng, g, tag):
    """Every semi-integral PSD key of trace <= 6, 3, 2 for g = 1, 2, 3; for
    g = 3 also 80 keys of trace 3, the least trace of a definite one."""
    if g < 3:
        return enumerate_semi_integral(g, 6 if g == 1 else 3, tag)
    keys = enumerate_semi_integral(3, 3, tag)
    low = [t for t in keys if t.trace() <= 2]
    return low + rng.sample(keys[len(low):], 80)


def outcome(kernel, t):
    """The kernel's value at t, or ValueError if it raises one."""
    try:
        return kernel(t)
    except ValueError:
        return ValueError


def units_for(rng, g, tag):
    """Every generator of `gl_generators` and its inverse, and products of
    two to four of them."""
    gens = gl_generators(g, tag)
    units = gens + [u.inverse() for u in gens]
    for _ in range(8):
        u = rng.choice(units)
        for _ in range(rng.randint(1, 3)):
            u = u.mul(rng.choice(units))
        units.append(u)
    return units


def shifted_keys(rng, g, tag, keys):
    """n + r m^-1 r* and n - r m^-1 r* for small representatives r of
    classes of Delta_g(m), m = 1, 2: rational diagonals, PSD or not."""
    out = []
    for m in (1, 2):
        classes = delta_classes(g, m, tag)
        for s in rng.sample(classes, min(6, len(classes))):
            shift = shift_matrix(small_rep(s), m)
            for n in rng.sample(keys, min(4, len(keys))):
                out.append(n.add(shift))
                out.append(n.sub(shift))
    return out


def degenerate_keys(rng, g, tag):
    """Zero, diagonal with a zero entry, rank one x x*, and sums of rank-one
    matrices with fewer than g terms."""
    out = [HermMatrix.zero(g, tag), HermMatrix.diagonal([0] + [1] * (g - 1), tag)]
    for _ in range(6):
        acc = HermMatrix.zero(g, tag)
        for _ in range(rng.randint(1, max(1, g - 1))):
            x = [random_field_element(rng, tag, den=2, span=2) for _ in range(g)]
            rows = [[x[i] * x[j].conj() for j in range(g)] for i in range(g)]
            acc = acc.add(HermMatrix(rows, tag))
        out.append(acc)
    return out


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_kernels_match_oracles(tag):
    rng = random.Random(7000 - tag.d)
    for g in (1, 2, 3):
        keys = semi_integral_keys(rng, g, tag)
        cases = keys + shifted_keys(rng, g, tag, keys) + degenerate_keys(rng, g, tag)
        for t in cases:
            assert outcome(min_represented, t) == outcome(min_represented_by_fractions, t), t
        units = units_for(rng, g, tag)
        sample = rng.sample(cases, min(40, len(cases)))
        for t in sample:
            for u in units:
                assert gl_action(u, t) == gl_action_by_mat_mul(u, t), (u, t)


def test_min_represented_rejects_non_psd():
    for tag in all_tags():
        with pytest.raises(ValueError):
            min_represented(HermMatrix.diagonal([0, -1], tag))
        with pytest.raises(ValueError):
            min_represented(HermMatrix.diagonal([1, -1], tag))


def test_theta_table_vanishing_order_matches_oracle():
    # theta keys r m^-1 r* have rational diagonals; genus 2 makes them rank one
    rng = random.Random(7100)
    for tag in all_tags():
        for g, m, trunc in ((1, 2, 3), (1, 3, 4), (2, 1, 2)):
            table = theta_coeffs(m, rng.choice(delta_classes(g, m, tag)), trunc)
            want = min(min_represented_by_fractions(n) for (n, _r) in table.coeffs)
            assert table.vanishing_order() == want


def random_dual_vector(rng, g, tag):
    """g components y/sqrt(D) of O^# with y integral, or all zero."""
    if rng.random() < 0.2:
        return (FieldElement.zero(tag),) * g
    inv_sd = sqrt_disc(tag).inv()
    return tuple(FieldElement(rng.randint(-4, 4), rng.randint(-4, 4), tag) * inv_sd
                 for _ in range(g))


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_point_enumeration_matches_predecessors(tag):
    rng = random.Random(7200 - tag.d)
    for m in (1, 2, 3):
        bounds = [0, Fraction(rng.randint(1, 6 * m), rng.randint(2, 5)), rng.randint(1, 2 * m), -1]
        for _ in range(6):
            # denominators up to 6: most of these shifts lie outside O^#
            shift = random_field_element(rng, tag, den=6, span=5)
            for bound in bounds:
                got = coset_points(shift, m, bound)
                assert got == coset_points_by_fractions(shift, m, bound), (shift, m, bound)
            assert coset_points(shift, m, -1) == []
        for g in (1, 2, 3):
            for _ in range(3):
                s = CosetClass(m, random_dual_vector(rng, g, tag), tag)
                for bound in bounds:
                    got = _coset_vectors(s.rep, s.m, bound)
                    assert got == class_points_by_recursion(s, bound), (s, bound)
                assert _coset_vectors(s.rep, s.m, -1) == []
        assert _coset_vectors((FieldElement.zero(tag),) * 2, m, 0) == \
            [(FieldElement.zero(tag),) * 2]


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_min_represented_matches_integer_predecessor(tag):
    rng = random.Random(7300 - tag.d)
    for g in (1, 2, 3):
        keys = enumerate_semi_integral(g, 3 if g < 3 else 2, tag)
        cases = keys + shifted_keys(rng, g, tag, keys) + degenerate_keys(rng, g, tag)
        for t in cases:
            assert outcome(min_represented, t) == outcome(min_represented_by_best_budget, t), t


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_fraction_free_ldl_matches_rational_ldl(tag):
    # the Gram matrices min_represented searches, taken integral, and
    # random positive definite ones B^T B + I of sizes 1 to 6
    rng = random.Random(7400 - tag.d)
    grams = []
    for g in (1, 2, 3):
        for t in enumerate_semi_integral(g, 3 if g < 3 else 2, tag):
            if t.is_pd():
                gram = real_gram_by_fractions(t)
                den = 2 * t._int_coords()[1]
                grams.append([[int(x * den) for x in row] for row in gram])
    for n in range(1, 7):
        for _ in range(20):
            b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            grams.append([[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j)
                           for j in range(n)] for i in range(n)])
    assert len(grams) > 120
    for gram in grams:
        assert _search_levels(gram) == search_levels_by_fractions(gram), gram
