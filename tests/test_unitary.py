import random
from fractions import Fraction

import pytest

from hermfj import linalg
from hermfj.field import FieldElement, make_field, unit_group
from hermfj.hermitian import UnitMatrix
from hermfj.unitary import (
    HeisenbergElement,
    UnitaryElement,
    block_conditions,
    diag_embed,
    heisenberg_mul,
    is_unitary,
    jacobi_embed,
    jacobi_mul,
    rot,
)
from util import all_tags


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def random_unit_matrix(rng, g, tag):
    u = UnitMatrix.identity(g, tag)
    units = unit_group(tag)
    w = FieldElement.omega(tag)
    for _ in range(rng.randint(1, 6)):
        kind = rng.randint(0, 2)
        if kind == 0 and g > 1:
            i, j = rng.sample(range(g), 2)
            u = u.mul(UnitMatrix.elementary(g, i, j, rng.choice([FieldElement.one(tag), w, -w])))
        elif kind == 1 and g > 1:
            perm = list(range(g))
            rng.shuffle(perm)
            u = u.mul(UnitMatrix.permutation(perm, tag))
        else:
            u = u.mul(UnitMatrix.diagonal_units([rng.choice(units) for _ in range(g)], tag))
    return u


def random_heisenberg(rng, l, g, tag):
    def rand_mat(rows, cols):
        return [[fe(rng.randint(-2, 2), rng.randint(-2, 2), tag) for _ in range(cols)]
                for _ in range(rows)]

    lam = rand_mat(l, g)
    mu = rand_mat(l, g)
    # kappa = H - mu lambda* for a random integral Hermitian H
    herm = [[fe(0, 0, tag) for _ in range(l)] for _ in range(l)]
    for i in range(l):
        herm[i][i] = fe(rng.randint(-2, 2), 0, tag)
        for j in range(i + 1, l):
            x = fe(rng.randint(-2, 2), rng.randint(-2, 2), tag)
            herm[i][j] = x
            herm[j][i] = x.conj()
    kappa = linalg.mat_sub(
        linalg.freeze(herm),
        linalg.mat_mul(linalg.freeze(mu), linalg.conj_transpose(linalg.freeze(lam))),
    )
    return HeisenbergElement(lam, mu, kappa, tag)


def random_unitary(rng, g, tag):
    """A guaranteed member: a short product of rot images, J, and embedded
    degree-(g-1) Jacobi elements."""
    out = UnitaryElement.identity(g, tag)
    for _ in range(rng.randint(1, 5)):
        kind = rng.randint(0, 2)
        if kind == 0:
            out = out.mul(rot(random_unit_matrix(rng, g, tag)))
        elif kind == 1:
            out = out.mul(UnitaryElement.j_element(g, tag))
        else:
            if g >= 2:
                gamma = UnitaryElement.identity(g - 1, tag)
                h = random_heisenberg(rng, 1, g - 1, tag)
                out = out.mul(jacobi_embed(gamma, h))
            else:
                out = out.mul(UnitaryElement.j_element(1, tag))
    return out


def test_is_unitary_basics():
    for tag in all_tags():
        for g in (1, 2):
            assert is_unitary(UnitaryElement.identity(g, tag))
            assert is_unitary(UnitaryElement.j_element(g, tag))
    t1 = make_field(-1)
    two = UnitaryElement([[fe(2, 0, t1), fe(0, 0, t1)], [fe(0, 0, t1), fe(1, 0, t1)]], t1)
    assert not is_unitary(two)


def test_banana_iff_pear():
    rng = random.Random(6)
    for tag in all_tags():
        for _ in range(20):
            g = rng.choice([1, 2])
            member = random_unitary(rng, g, tag)
            assert is_unitary(member) and block_conditions(member)
            # doubling a row breaks the norm of the determinant
            rows = [list(r) for r in member.entries]
            rows[0] = [x * 2 for x in rows[0]]
            bad = UnitaryElement(rows, tag)
            assert not is_unitary(bad) and not block_conditions(bad)


def test_rot_examples_and_homomorphism():
    t1 = make_field(-1)
    assert rot(UnitMatrix.identity(2, t1)) == UnitaryElement.identity(2, t1)
    i_unit = UnitMatrix([[fe(0, 1, t1)]], t1)
    r = rot(i_unit)
    assert is_unitary(r)
    # (u*)^-1 for u = [i]: conj is -i, inverse is i
    assert r.entries[1][1] == fe(0, 1, t1)

    rng = random.Random(8)
    for tag in all_tags():
        for _ in range(15):
            g = rng.choice([1, 2, 3])
            u = random_unit_matrix(rng, g, tag)
            v = random_unit_matrix(rng, g, tag)
            assert is_unitary(rot(u))
            assert rot(u.mul(v)) == rot(u).mul(rot(v))


def test_rot_of_elementary_is_unitary():
    t3 = make_field(-3)
    w = FieldElement.omega(t3)
    e = UnitMatrix.elementary(2, 0, 1, w)
    assert is_unitary(rot(e))


def test_heisenberg_identity_and_inverse():
    rng = random.Random(9)
    for tag in all_tags():
        for _ in range(15):
            l, g = rng.choice([(1, 1), (1, 2), (2, 1)])
            h = random_heisenberg(rng, l, g, tag)
            e = HeisenbergElement.identity(l, g, tag)
            assert heisenberg_mul(h, e) == h
            assert heisenberg_mul(e, h) == h
            assert heisenberg_mul(h, h.inverse()) == e
            assert heisenberg_mul(h.inverse(), h) == e


def test_heisenberg_associative():
    rng = random.Random(10)
    tag = make_field(-7)
    for _ in range(10):
        a = random_heisenberg(rng, 1, 2, tag)
        b = random_heisenberg(rng, 1, 2, tag)
        c = random_heisenberg(rng, 1, 2, tag)
        assert heisenberg_mul(heisenberg_mul(a, b), c) == heisenberg_mul(a, heisenberg_mul(b, c))


def test_heisenberg_squared_cross_term():
    # l=g=1, d=-1: lambda=1, mu=i, kappa with kappa + mu lambda* = 0
    t1 = make_field(-1)
    lam = [[fe(1, 0, t1)]]
    mu = [[fe(0, 1, t1)]]
    kappa = [[fe(0, -1, t1)]]  # -i
    h = HeisenbergElement(lam, mu, kappa, t1)
    sq = heisenberg_mul(h, h)
    # kappa-part: k + k + lambda mu* - mu lambda* = -2i + (-i) - i = -4i
    assert sq.kappa[0][0] == fe(0, -4, t1)
    assert sq.lam[0][0] == fe(2, 0, t1) and sq.mu[0][0] == fe(0, 2, t1)


def test_jacobi_embed_examples():
    for tag in all_tags():
        g, l = 1, 1
        gamma = UnitaryElement.identity(g, tag)
        h = HeisenbergElement.identity(l, g, tag)
        assert jacobi_embed(gamma, h) == UnitaryElement.identity(g + l, tag)

        lam_only = HeisenbergElement(
            [[fe(3, -1, tag)]], [[fe(0, 0, tag)]], [[fe(0, 0, tag)]], tag
        )
        assert is_unitary(jacobi_embed(gamma, lam_only))


def test_jacobi_embed_is_homomorphism():
    rng = random.Random(12)
    for tag in all_tags():
        for _ in range(10):
            g = rng.choice([1, 2])
            l = 1
            x = (random_unitary(rng, g, tag), random_heisenberg(rng, l, g, tag))
            y = (random_unitary(rng, g, tag), random_heisenberg(rng, l, g, tag))
            lhs = jacobi_embed(*x).mul(jacobi_embed(*y))
            rhs = jacobi_embed(*jacobi_mul(x, y))
            assert lhs == rhs
            assert is_unitary(lhs)


def test_jacobi_embed_rejects_non_member():
    t1 = make_field(-1)
    bad = UnitaryElement([[fe(2, 0, t1), fe(0, 0, t1)], [fe(0, 0, t1), fe(1, 0, t1)]], t1)
    with pytest.raises(ValueError):
        jacobi_embed(bad, HeisenbergElement.identity(1, 1, t1))


def test_diag_embed():
    t1 = make_field(-1)
    ident = UnitaryElement.identity(1, t1)
    for j in (1, 2, 3):
        assert diag_embed(j, ident, 3) == UnitaryElement.identity(3, t1)
    j_small = UnitaryElement.j_element(1, t1)
    for g in (2, 3):
        emb = diag_embed(g, j_small, g)
        assert is_unitary(emb)
    with pytest.raises(ValueError):
        diag_embed(4, j_small, 3)


def test_diag_embed_conjugation_by_permutation():
    # conjugating by rot(P) relocates the diagonal slot
    rng = random.Random(14)
    t3 = make_field(-3)
    gamma1 = UnitaryElement([[fe(1, 0, t3), fe(1, 0, t3)], [fe(0, 0, t3), fe(1, 0, t3)]], t3)
    assert is_unitary(gamma1)
    g = 3
    perm = [1, 2, 0]
    p = UnitMatrix.permutation(perm, t3)
    r = rot(p)
    for j in range(1, g + 1):
        lhs = r.inverse().mul(diag_embed(j, gamma1, g)).mul(r)
        # P[i][perm[i]] = 1 sends the (i,i) slot of the conjugate to (perm[i], perm[i])
        target = perm[j - 1] + 1
        assert lhs == diag_embed(target, gamma1, g)


def test_unitary_inverse():
    rng = random.Random(15)
    for tag in all_tags():
        for _ in range(10):
            g = rng.choice([1, 2])
            x = random_unitary(rng, g, tag)
            assert x.mul(x.inverse()) == UnitaryElement.identity(g, tag)


def test_jacobi_embed_higher_cogenus():
    # l = 2 Heisenberg blocks embed into U(g+2, g+2)(Z)
    rng = random.Random(16)
    for tag in (make_field(-1), make_field(-11)):
        for _ in range(5):
            g = rng.choice([1, 2])
            x = (random_unitary(rng, g, tag), random_heisenberg(rng, 2, g, tag))
            y = (random_unitary(rng, g, tag), random_heisenberg(rng, 2, g, tag))
            ex = jacobi_embed(*x)
            assert ex.g == g + 2 and is_unitary(ex)
            assert ex.mul(jacobi_embed(*y)) == jacobi_embed(*jacobi_mul(x, y))


def test_group_elements_reject_entries_of_another_field():
    # I_2 over Q(i) under the tag of Q(sqrt(-2)) was accepted, and
    # block_conditions then read it as not unitary
    t1, t2 = make_field(-1), make_field(-2)
    one, z = fe(1, 0, t1), fe(0, 0, t1)
    with pytest.raises(ValueError, match="is not in the field d=-2"):
        UnitaryElement([[one, z], [z, one]], t2)
    with pytest.raises(ValueError, match="is not in the field d=-2"):
        UnitaryElement.from_blocks([[one]], [[z]], [[z]], [[one]], t2)
    with pytest.raises(ValueError, match="is not in the field d=-2"):
        HeisenbergElement([[z]], [[z]], [[z]], t2)
    with pytest.raises(ValueError, match="is not in the field d=-2"):
        HeisenbergElement([[fe(0, 0, t2)]], [[z]], [[fe(0, 0, t2)]], t2)


def test_group_elements_keep_their_integrality_messages():
    t1 = make_field(-1)
    half, z = fe(Fraction(1, 2), 0, t1), fe(0, 0, t1)
    with pytest.raises(ValueError, match="^entries must lie in O$"):
        UnitaryElement([[half, z], [z, z]], t1)
    with pytest.raises(ValueError, match="^Heisenberg entries must lie in O$"):
        HeisenbergElement([[z]], [[half]], [[z]], t1)


def test_block_rejects_a_name_other_than_a_b_c_d():
    # any name but "a", "b" or "c" used to give the d block
    t1 = make_field(-1)
    gamma = UnitaryElement.j_element(2, t1)
    for which in ("x", "", "ab", "D"):
        with pytest.raises(ValueError, match="block must be one of a, b, c, d"):
            gamma.block(which)
    assert gamma.block("b") == ((fe(1, 0, t1), fe(0, 0, t1)), (fe(0, 0, t1), fe(1, 0, t1)))
    assert gamma.block("c") == linalg.mat_neg(gamma.block("b"))
