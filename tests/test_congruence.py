"""`hermitian.gl_action` acts by the int-linear map of `_congruence` on the
key, applied by `_congruent`.

The map is checked against `util.gl_action_by_int_coords`, the former body
on `_int_coords` and `_pair_dot`, and against `util.gl_action_by_mat_mul`,
two field-element matrix products: in all five fields, for g = 1 to 4, on
`gl_generators`, their inverses, `ffj.shear_generators`, random words and
dense words, acting on random Hermitian keys, definite or not, over
denominators up to 6.
Under a truncation bound, `_congruent` returns None exactly when the trace
of the image is over the bound.  A map costs O(g^2) for a generator.
"""

import random
from fractions import Fraction

import pytest

import hermfj.hermitian as hermitian
from hermfj.ffj import shear_generators
from hermfj.field import FieldElement
from hermfj.hermitian import HermMatrix, UnitMatrix, _congruence, _congruent, gl_action
from hermfj.series import gl_generators
from util import (
    all_tags,
    gl_action_by_int_coords,
    gl_action_by_mat_mul,
    random_hermitian_rows,
    random_unit_matrix,
)

TAGS = all_tags()
IDS = ["d%d" % t.d for t in TAGS]


def units_of(rng, g, tag):
    gens = gl_generators(g, tag)
    units = gens + [u.inverse() for u in gens]
    for l in range(1, g):
        units += shear_generators(g, l, tag)
    units += [random_unit_matrix(rng, g, tag) for _ in range(4)]
    # dense words: a full lower times a full upper unitriangular matrix
    values = [FieldElement.one(tag), FieldElement.omega(tag), -FieldElement.omega(tag)]
    lower = [(i, j) for i in range(g) for j in range(i)]
    for _ in range(2):
        word = UnitMatrix.identity(g, tag)
        for i, j in lower + [(j, i) for i, j in lower]:
            word = word.mul(UnitMatrix.elementary(g, i, j, rng.choice(values)))
        units.append(word)
    return units


def random_keys(rng, g, tag, count):
    keys = [HermMatrix(random_hermitian_rows(rng, g, tag), tag) for _ in range(count)]
    keys.append(HermMatrix.zero(g, tag))
    return keys


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
def test_congruence_matches_the_int_and_matrix_product_oracles(tag):
    rng = random.Random(2400 - tag.d)
    seen = {"non_psd": 0, "den": 0, "dense": 0}
    for g in range(1, 5):
        for u in units_of(rng, g, tag):
            seen["dense"] += g >= 3 and all(a or b for col in u._cols for a, b in col)
            cmap = _congruence(u)
            for t in random_keys(rng, g, tag, 6):
                seen["non_psd"] += not t.is_psd()
                seen["den"] += t._key[0] != 1
                got = gl_action(u, t)
                oracle = gl_action_by_int_coords(u, t)
                assert got == oracle == gl_action_by_mat_mul(u, t), (u, t)
                assert (got._key, got._trace) == (oracle._key, oracle._trace)
                assert _congruent(cmap, t) == oracle
    assert all(seen.values()), seen


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
def test_congruent_is_none_exactly_over_the_bound(tag):
    rng = random.Random(2500 - tag.d)
    for g in range(1, 5):
        for u in units_of(rng, g, tag):
            cmap = _congruence(u)
            for t in random_keys(rng, g, tag, 3):
                image = gl_action_by_int_coords(u, t)
                tr = image.trace()
                for bound in (tr, tr - Fraction(1, 7), tr + Fraction(1, 7), tr - 1, tr + 1):
                    got = _congruent(cmap, t, bound.as_integer_ratio())
                    assert (got is None) == (tr > bound), (u, t, bound)
                    if got is not None:
                        assert got == image and got._trace == image._trace
                # a bound out of lowest terms, equal to the trace
                num, den = tr.as_integer_ratio()
                assert _congruent(cmap, t, (3 * num, 3 * den)) == image


@pytest.mark.parametrize("tag", TAGS[:2], ids=IDS[:2])
def test_a_generator_map_has_o_g_squared_terms(tag, monkeypatch):
    # at most 2 nonzeros per column: at most 4 pairs per entry of the upper
    # triangle, each 2 products adding to 2 key positions in 2 coordinates
    g = 12
    cells = g * (g + 1) // 2
    gens = gl_generators(g, tag) + shear_generators(g, g // 2, tag)
    units = gens + [u.inverse() for u in gens]
    products = [0]
    mul = hermitian._pair_mul

    def counted(*args):
        products[0] += 1
        return mul(*args)

    monkeypatch.setattr(hermitian, "_pair_mul", counted)
    for u in units:
        products[0] = 0
        _g, _tag, rows, trace = _congruence(u)
        assert products[0] <= 8 * cells
        assert len(rows) == 2 * cells
        assert sum(map(len, rows)) <= 16 * cells
        assert len(trace) <= 2 * g


def test_gl_action_rejects_a_size_or_field_mismatch():
    tag, other = TAGS[0], TAGS[1]
    t = HermMatrix.identity(2, tag)
    for u in (UnitMatrix.identity(3, tag), UnitMatrix.identity(2, other)):
        with pytest.raises(ValueError):
            gl_action(u, t)
