"""`series.symmetrize` and `series.check_symmetry` against the walks that act
by every step on every key: the same series, in the same key order, and the
same violations in the same order, with fewer actions.  The walks act by one
`hermitian._congruence` map per step, applied by `_congruent`; the oracles
act by `util.gl_action_by_int_coords`."""

import random
from fractions import Fraction

import pytest

import hermfj.hermitian as hermitian
import hermfj.series as series
import util
from hermfj.ffj import shear_generators
from hermfj.field import FieldElement, make_field
from hermfj.hermitian import HermMatrix, UnitMatrix, _canonical_order, enumerate_semi_integral
from hermfj.series import FourierSeries, check_symmetry, gl_generators, symmetrize
from util import (
    ALL_D,
    check_symmetry_by_candidates,
    gl_action_by_int_coords,
    random_field_element,
    symmetrize_by_all_steps,
)


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def herm(rows, tag):
    return HermMatrix([[fe(x, 0, tag) for x in row] for row in rows], tag)


def random_series(rng, tag, trunc, k, dim=1, terms=4):
    keys = rng.sample(enumerate_semi_integral(2, trunc, tag), terms)
    return FourierSeries(2, k, tag, trunc, {
        t: tuple(random_field_element(rng, tag, den=2, span=3) for _ in range(dim))
        for t in keys}, dim=dim)


def generator_lists(rng, tag):
    """gl_generators, then lists with a repeat, the identity, involutions
    (diag(-1, 1) and the swap) and the shears of `ffj.check_family`."""
    gens = gl_generators(2, tag)
    e = UnitMatrix.elementary(2, 0, 1, FieldElement.one(tag))
    neg = UnitMatrix.diagonal_units([-FieldElement.one(tag), FieldElement.one(tag)], tag)
    swap = UnitMatrix.permutation([1, 0], tag)
    return [
        gens,
        gens + [rng.choice(gens)],
        [UnitMatrix.identity(2, tag), e, neg, e],
        [swap, neg, swap, e.inverse(), e],
        shear_generators(2, 1, tag),
    ]


def swap_rho(u):
    """A map to 2 x 2 matrices: the swap for a unit of determinant != 1."""
    tag = u.tag
    one, zero = FieldElement.one(tag), FieldElement.zero(tag)
    if u.det_unit == one:
        return [[one, zero], [zero, one]]
    return [[zero, one], [one, zero]]


@pytest.mark.parametrize("d", ALL_D)
def test_orbit_walks_match_the_walks_by_every_step(d):
    tag = make_field(d)
    rng = random.Random(1900 + d)
    for units in generator_lists(rng, tag):
        for k in (12, rng.choice([1, 2, 3, 5])):
            f = random_series(rng, tag, 3, k)
            sym = symmetrize(f, units)
            oracle = symmetrize_by_all_steps(f, units)
            assert sym == oracle
            assert list(sym.coeffs.items()) == list(oracle.coeffs.items())
            broken = sym + random_series(rng, tag, 3, k, terms=2)
            for g in (f, sym, broken):
                assert check_symmetry(g, units) == check_symmetry_by_candidates(g, units)
        f2 = random_series(rng, tag, 3, 12, dim=2)
        sym2 = symmetrize(f2, units)
        assert sym2 == symmetrize_by_all_steps(f2, units)
        for g in (f2, sym2):
            assert (check_symmetry(g, units, swap_rho)
                    == check_symmetry_by_candidates(g, units, swap_rho))


def test_symmetrize_reads_units_once():
    tag = make_field(-1)
    e = UnitMatrix.elementary(2, 0, 1, FieldElement.one(tag))
    f = FourierSeries(2, 12, tag, 6, {HermMatrix.diagonal([2, 1], tag): (fe(1, 0, tag),)})
    from_list = symmetrize(f, [e])
    from_iter = symmetrize(f, iter([e]))
    assert len(from_list.coeffs) == 3
    assert from_iter == from_list
    assert check_symmetry(from_iter, [e]) == []
    assert check_symmetry(from_iter, iter([e])) == []


def _counting(monkeypatch, module, name):
    calls = [0]
    act = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return act(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("d", ALL_D)
def test_orbit_walks_act_once_per_edge(d, monkeypatch):
    # the trace-2 positive definite seed of the series-ring benchmark
    tag = make_field(d)
    keys = [t for t in enumerate_semi_integral(2, 2, tag) if t.is_pd()]
    seed = FourierSeries(2, 12, tag, 4, {t: (FieldElement.one(tag),) for t in keys})
    gens = gl_generators(2, tag)
    steps = set(gens) | {u.inverse() for u in gens}
    every_step = _counting(monkeypatch, util, "gl_action_by_int_coords")  # the oracles' action
    calls = _counting(monkeypatch, series, "_congruent")  # one per key and step applied
    maps = _counting(monkeypatch, series, "_congruence")
    zero = FourierSeries.zero(2, 12, tag, 4)
    assert symmetrize(zero, gens) == zero and check_symmetry(zero, gens) == []
    assert maps[0] == 0  # an empty support builds no map
    f = symmetrize(seed, gens)
    assert f == symmetrize_by_all_steps(seed, gens)
    assert 3 * calls[0] <= 2 * every_step[0]
    assert maps[0] == len(steps)
    square = f * f
    bound = square.trunc
    inside = sum(gl_action_by_int_coords(u, t).trace() <= bound
                 for u in steps for t in square.coeffs)
    assert inside < len(square.coeffs) * len(steps)
    calls[0] = maps[0] = 0
    built = _counting(monkeypatch, hermitian, "_store")  # every key build ends here
    assert check_symmetry(square, gens) == []
    assert calls[0] == len(square.coeffs) * len(steps)
    assert maps[0] == len(steps)
    # only an image inside the window is built as a key
    assert built[0] == inside


@pytest.mark.parametrize("dim", [1, 2])
def test_preimage_violations_sort_among_support_violations(dim):
    # Over Q(i) with e = I + E_01: the support key a = e* e has the
    # preimage e^-1 a = 1 (trace 2) outside the support, and the support
    # key y has the image e* y e = [[2, 1], [1, 2]] outside it; a's own
    # image (trace 6) leaves the window.
    tag = make_field(-1)
    e = UnitMatrix.elementary(2, 0, 1, FieldElement.one(tag))
    a, y = herm([[1, 1], [1, 2]], tag), herm([[2, -1], [-1, 2]], tag)
    vec = tuple(fe(i + 1, 0, tag) for i in range(dim))
    f = FourierSeries(2, 12, tag, 4, {a: vec, y: vec}, dim=dim)
    rho = swap_rho if dim == 2 else None
    got = check_symmetry(f, [e], rho)
    one = HermMatrix.identity(2, tag)
    assert hermitian.gl_action(e.inverse(), a) == one
    assert got == [(e, one), (e, y)]
    assert [t for _u, t in got] == _canonical_order([y, one])
    assert got == check_symmetry_by_candidates(f, [e], rho)
