"""`HermMatrix` holds one int tuple in lowest terms, and its readers work on it.

Each reader of the key is checked against its predecessor on field-element
rows in `util`, on random Hermitian matrices of sizes 1 to 3 with mixed
entry denominators over all five fields.  One matrix reached in several ways
must give one key, one hash and one text.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from hermfj import linalg
from hermfj.ffj import join_block, split_block
from hermfj.field import FieldElement, unit_group
from hermfj.hermitian import HermMatrix, UnitMatrix, gl_action
from hermfj.jacobi import shift_matrix
from util import (
    all_tags,
    block_key,
    gl_action_rows_by_mat_mul,
    gram_by_elements,
    join_rows_by_elements,
    leading_block_by_key_walk,
    random_field_element,
    random_hermitian_rows,
    random_unit_matrix,
    semi_integral_by_elements,
    shift_rows_by_elements,
    split_rows_by_elements,
)


def assert_canonical(t):
    key = t._key
    assert len(key) == 1 + t.g * (t.g + 1), key
    assert key[0] > 0 and gcd(*key) == 1, key


def assert_is(t, rows):
    """t is the Hermitian matrix on the field-element `rows` in every view."""
    rows = linalg.freeze(rows)
    public = HermMatrix(rows, t.tag)
    assert_canonical(t)
    assert t._key == public._key and t == public and hash(t) == hash(public)
    assert t.entries == rows
    assert t.to_text() == ",".join(e.to_text() for row in rows for e in row)
    trace = sum((rows[i][i].as_rational() for i in range(len(rows))), Fraction(0))
    assert t.trace() == trace and t._trace == trace.as_integer_ratio()


def random_vector(rng, g, tag):
    return tuple(random_field_element(rng, tag, den=6, span=6) for _ in range(g))


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_key_readers_match_field_element_oracles(tag):
    rng = random.Random(7700 - tag.d)
    for g in (1, 2, 3):
        for _ in range(30):
            rows, other = random_hermitian_rows(rng, g, tag), random_hermitian_rows(rng, g, tag)
            t, u = HermMatrix(rows, tag), HermMatrix(other, tag)
            assert_is(t, rows)
            assert_is(HermMatrix.from_text(t.to_text(), g, tag), rows)
            assert t._gram() == gram_by_elements(rows, tag)
            assert t.is_semi_integral() == semi_integral_by_elements(rows)
            assert_is(t.add(u), linalg.mat_add(rows, other))
            assert_is(t.sub(u), linalg.mat_sub(rows, other))
            unit = random_unit_matrix(rng, g, tag)
            assert_is(gl_action(unit, t), gl_action_rows_by_mat_mul(unit, rows))
            r, m = random_vector(rng, g, tag), rng.randint(1, 4)
            assert_is(shift_matrix(r, m), shift_rows_by_elements(r, m))
            corner = rng.randint(0, 3)
            assert_is(block_key(t, r, corner),
                      join_rows_by_elements(rows, tuple((x,) for x in r),
                                            ((FieldElement(corner, 0, tag),),)))


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_join_and_split_match_field_element_oracles(tag):
    rng = random.Random(7750 - tag.d)
    for a, l in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        for _ in range(10):
            n_rows, m_rows = random_hermitian_rows(rng, a, tag), random_hermitian_rows(rng, l, tag)
            r = tuple(random_vector(rng, l, tag) for _ in range(a))
            n, m = HermMatrix(n_rows, tag), HermMatrix(m_rows, tag)
            block = join_block(n, r, m)
            rows = join_rows_by_elements(n_rows, r, m_rows)
            assert_is(block, rows)
            for cut in range(1, a + l):
                n_cut, r_cut, m_cut = split_rows_by_elements(rows, cut)
                got_n, got_r, got_m = split_block(block, cut)
                assert_is(got_n, n_cut)
                assert_is(got_m, m_cut)
                assert got_r == r_cut
            assert split_block(block, l) == (n, r, m)
            assert_is(leading_block_by_key_walk(block), split_rows_by_elements(rows, 1)[0])


def widened(rows, rng) -> str:
    """The `to_text` of `rows`, each coordinate written out of lowest terms
    (as "2/4+0/2*w" for 1/2)."""
    tokens = []
    for row in rows:
        for e in row:
            k1, k2 = rng.randint(2, 5), rng.randint(2, 5)
            tokens.append("%d/%d+%d/%d*w" % (e.p * k1, e.den * k1, e.q * k2, e.den * k2))
    return ",".join(tokens)


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_one_matrix_reached_in_several_ways_has_one_key(tag):
    rng = random.Random(7800 - tag.d)
    half = HermMatrix.from_text("2/4+0/2*w", 1, tag)
    assert half._key == (2, 1, 0) and half == HermMatrix.from_rational(Fraction(1, 2), tag)
    for g in (1, 2, 3):
        rows = random_hermitian_rows(rng, g, tag)
        t = HermMatrix(rows, tag)
        other = HermMatrix(random_hermitian_rows(rng, g, tag), tag)
        unit = next(e for e in unit_group(tag) if e != FieldElement.one(tag))
        r = tuple(random_vector(rng, 2, tag) for _ in range(g))
        m = HermMatrix(random_hermitian_rows(rng, 2, tag), tag)
        ways = [
            HermMatrix.from_text(widened(rows, rng), g, tag),
            t.add(other).sub(other),
            t.sub(other).add(other),
            gl_action(UnitMatrix.identity(g, tag), t),
            # conj(e) t e = t for a scalar unit e
            gl_action(UnitMatrix.diagonal_units([unit] * g, tag), t),
            split_block(join_block(t, r, m), 2)[0],
        ]
        for way in ways:
            assert way._key == t._key and hash(way) == hash(t), (way, t)
            assert way.to_text() == t.to_text()
        x = random_vector(rng, g, tag)
        shift = shift_matrix(x, 3)
        assert_canonical(shift)
        again = HermMatrix.from_text(widened(shift.entries, rng), g, tag)
        assert again._key == shift._key and hash(again) == hash(shift)
        assert shift_matrix(x[:1], 3) == HermMatrix.from_rational(x[0].norm() / 3, tag)
