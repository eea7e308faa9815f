"""Block and diagonal matrices come from one assembler each.

`linalg.blocks` puts a grid of blocks together row by row and
`linalg.diagonal` builds a diagonal matrix; J, `from_blocks`, the two
factors of `jacobi_embed`, `diag_embed`, the row block of
`heisenberg_transform`, `linalg.identity`, `HermMatrix.diagonal` and
`UnitMatrix.diagonal_units` are built through them.  The former bodies,
which wrote the entries one by one, are kept in the tests' `util` and must
give the same entries, compared as ints, in all five fields for
g in {1, 2, 3}, l in {1, 2} and every slot of `diag_embed`.
"""

import random
from fractions import Fraction

import pytest

from hermfj import linalg
from hermfj.field import FieldElement, unit_group
from hermfj.hermitian import HermMatrix, UnitMatrix
from hermfj.unitary import (UnitaryElement, _j_matrix, diag_embed, heisenberg_transform,
                            jacobi_embed, rot)
from util import (all_tags, block_by_index, diag_embed_by_entries, diagonal_units_by_entries,
                  from_blocks_by_rows, heisenberg_transform_by_blocks, herm_diagonal_by_entries,
                  identity_by_entries, j_matrix_by_entries, jacobi_embed_by_entries,
                  random_heisenberg, random_integral_element, random_unit_matrix,
                  random_unitary, unitary_inverse_by_blocks)

TAGS = all_tags()
IDS = ["d%d" % t.d for t in TAGS]
SIZES = [(g, l) for g in (1, 2, 3) for l in (1, 2)]


def ints(rows):
    """The canonical ints and field of every entry, row by row."""
    return tuple(tuple((e.p, e.q, e.den, e.tag.d) for e in row) for row in rows)


def same_element(got, oracle):
    assert type(got) is type(oracle)
    assert ints(got.entries) == ints(oracle.entries)
    assert got == oracle and hash(got) == hash(oracle)


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
@pytest.mark.parametrize("g,l", SIZES)
def test_jacobi_embed_matches_the_entrywise_product(tag, g, l):
    rng = random.Random(29 * g + 7 * l - tag.d)
    for _ in range(3):
        gamma, h = random_unitary(rng, g, tag), random_heisenberg(rng, l, g, tag)
        same_element(jacobi_embed(gamma, h), jacobi_embed_by_entries(gamma, h))
        got, oracle = heisenberg_transform(h, gamma), heisenberg_transform_by_blocks(h, gamma)
        assert ints(got.lam) == ints(oracle.lam) and ints(got.mu) == ints(oracle.mu)
        assert got == oracle and ints(got.kappa) == ints(h.kappa)


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
@pytest.mark.parametrize("g", (1, 2, 3))
def test_j_blocks_and_inverse_match_the_entrywise_builders(tag, g):
    assert ints(_j_matrix(g, tag)) == ints(j_matrix_by_entries(g, tag))
    same_element(UnitaryElement.j_element(g, tag),
                 UnitaryElement(j_matrix_by_entries(g, tag), tag))
    rng = random.Random(31 * g - tag.d)
    for _ in range(3):
        gamma = random_unitary(rng, g, tag)
        for which in "abcd":
            assert ints(gamma.block(which)) == ints(block_by_index(gamma, which))
        same_element(gamma.inverse(), unitary_inverse_by_blocks(gamma))
        blocks = [[[random_integral_element(rng, tag) for _ in range(g)] for _ in range(g)]
                  for _ in range(4)]
        same_element(UnitaryElement.from_blocks(*blocks, tag), from_blocks_by_rows(*blocks, tag))
        u = random_unit_matrix(rng, g, tag)
        zero = linalg.zeros(g, g, tag)
        lower = linalg.conj_transpose(u.inverse().entries)
        same_element(rot(u), from_blocks_by_rows(u.entries, zero, zero, lower, tag))


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
@pytest.mark.parametrize("g", (1, 2, 3))
def test_diag_embed_matches_the_entrywise_slot_at_every_j(tag, g):
    rng = random.Random(37 * g - tag.d)
    for _ in range(3):
        gamma1 = random_unitary(rng, 1, tag)
        for j in range(1, g + 1):
            same_element(diag_embed(j, gamma1, g), diag_embed_by_entries(j, gamma1, g))


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
def test_diagonal_builders_match_the_entrywise_rows(tag):
    rng = random.Random(41 - tag.d)
    units = unit_group(tag)
    for n in range(5):
        assert ints(linalg.identity(n, tag)) == ints(identity_by_entries(n, tag))
    for g in (1, 2, 3):
        for _ in range(4):
            values = [rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3),
                                  FieldElement(Fraction(rng.randint(-5, 5), 2), 0, tag)])
                      for _ in range(g)]
            got, oracle = HermMatrix.diagonal(values, tag), herm_diagonal_by_entries(values, tag)
            assert got._key == oracle._key and got == oracle
            assert ints(got.entries) == ints(oracle.entries)
            diag = [rng.choice(units) for _ in range(g)]
            got, oracle = UnitMatrix.diagonal_units(diag, tag), diagonal_units_by_entries(diag, tag)
            assert got._cols == oracle._cols and got.det_unit == oracle.det_unit
            assert ints(got.entries) == ints(oracle.entries)


def test_blocks_reads_each_size_off_a_matrix_of_its_row_and_column():
    tag = all_tags()[0]
    e = [[FieldElement(i, j, tag) for j in range(3)] for i in range(2)]  # 2 x 3
    f = [[FieldElement(5, i, tag)] for i in range(2)]  # 2 x 1
    g = [[FieldElement(7, 7, tag)]]  # 1 x 1
    z = FieldElement.zero(tag)
    got = linalg.blocks([[e, f], [0, g]], tag)
    assert ints(got) == ints([e[0] + f[0], e[1] + f[1], [z, z, z] + g[0]])
