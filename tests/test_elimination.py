"""`linalg.det` and `UnitMatrix.inverse` by elimination against Laplace expansion.

The library computes determinants and inverses by one Gaussian elimination
over E.  `util.det_by_cofactors` and `util.adjugate_by_cofactors` are the
cofactor expansions they replaced; for n <= 6 in all five fields they must
agree on random integral matrices, singular ones included, and on products
of `gl_generators`.  The cost of the generators is bounded by counting field
multiplications.
"""

import random

import pytest

from hermfj import linalg
from hermfj.field import FieldElement
from hermfj.hermitian import UnitMatrix
from hermfj.series import gl_generators
from util import adjugate_by_cofactors, all_tags, det_by_cofactors, random_integral_element

TAGS = all_tags()
IDS = ["d%d" % t.d for t in TAGS]


def random_matrices(rng, n, tag):
    """A dense integral matrix, one with a zero top-left entry (a row swap),
    one with a zero column, one with a row that is the sum of two others,
    and one with two equal rows."""
    def dense():
        return [[random_integral_element(rng, tag, span=4) for _ in range(n)] for _ in range(n)]

    out = [dense()]
    if n > 1:
        swap = dense()
        swap[0][0] = FieldElement.zero(tag)
        zero_col = dense()
        for row in zero_col:
            row[n - 1] = FieldElement.zero(tag)
        equal = dense()
        equal[n - 1] = list(equal[0])
        out += [swap, zero_col, equal]
    if n > 2:
        summed = dense()
        summed[n - 1] = [a + b for a, b in zip(summed[0], summed[1])]
        out.append(summed)
    return [linalg.freeze(x) for x in out]


def inverse_by_adjugate(x):
    d = det_by_cofactors(x)
    return tuple(tuple(c / d for c in row) for row in adjugate_by_cofactors(x))


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
def test_det_and_inverse_agree_with_cofactor_expansion(tag):
    rng = random.Random(30 + tag.d)
    singular = 0
    for n in range(1, 7):
        for x in random_matrices(rng, n, tag):
            d = linalg.det(x)
            assert d == det_by_cofactors(x)
            if d.is_zero():
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    linalg.inverse(x)
            else:
                assert linalg.inverse(x) == inverse_by_adjugate(x)
    assert singular >= 10


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
def test_unit_matrix_inverse_agrees_with_adjugate(tag):
    rng = random.Random(40 + tag.d)
    for g in range(1, 7):
        gens = gl_generators(g, tag)
        for _ in range(3):
            u = UnitMatrix.identity(g, tag)
            for _ in range(rng.randint(1, 6)):
                u = u.mul(rng.choice(gens))
            assert u.det_unit == det_by_cofactors(u.entries)
            v = u.inverse()
            assert v.entries == inverse_by_adjugate(u.entries)
            assert u.mul(v) == UnitMatrix.identity(g, tag) == v.mul(u)


def test_det_rejects_non_square_and_empty():
    tag = TAGS[0]
    with pytest.raises(ValueError, match="non-square"):
        linalg.det(linalg.zeros(2, 3, tag))
    with pytest.raises(ValueError, match="empty"):
        linalg.det(())


@pytest.mark.parametrize("g", [8, 30])
def test_generators_build_and_invert_in_quadratic_multiplications(g, monkeypatch):
    # a cofactor expansion takes g! products per determinant; the sparse
    # generators take O(g^2) by elimination, as rows with a zero in the
    # pivot column are skipped
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    for tag in TAGS:
        del calls[:]
        gens = gl_generators(g, tag)
        assert len(calls) <= len(gens) * g * g
        del calls[:]
        inverses = [u.inverse() for u in gens]
        assert len(calls) <= 3 * len(gens) * g * g
        assert all(u.mul(v) == UnitMatrix.identity(g, tag) for u, v in zip(gens, inverses))
