import random
from fractions import Fraction

import pytest

from hermfj.field import (
    FieldElement,
    _ldl_pivots,
    coset_points,
    euclidean_constant,
    euclidean_round,
    make_field,
    unit_group,
)
from util import (
    all_tags,
    dual_integral_by_product,
    min_dist_to_lattice,
    psd_rank_by_minors,
    random_field_element,
    sqrt_disc,
)

EXPECTED_MU = {-1: Fraction(1, 2), -2: Fraction(3, 4), -3: Fraction(1, 3),
               -7: Fraction(4, 7), -11: Fraction(9, 11)}


def test_make_field_basis_and_discriminant():
    t1 = make_field(-1)
    assert t1.disc == -4 and not t1.half_basis
    t3 = make_field(-3)
    assert t3.disc == -3 and t3.half_basis
    assert make_field(-2).disc == -8
    assert make_field(-7).disc == -7
    assert make_field(-11).disc == -11


def test_make_field_rejects_other_d():
    for bad in (-5, 0, 1, -4, -19):
        with pytest.raises(ValueError):
            make_field(bad)


def test_norm_examples():
    t1 = make_field(-1)
    one_plus_i = FieldElement(1, 1, t1)
    assert one_plus_i.norm() == 2
    t3 = make_field(-3)
    assert FieldElement.omega(t3).norm() == 1
    assert FieldElement.zero(t1).norm() == 0


def test_field_axioms_on_random_triples():
    rng = random.Random(11)
    for tag in all_tags():
        for _ in range(40):
            x = random_field_element(rng, tag)
            y = random_field_element(rng, tag)
            z = random_field_element(rng, tag)
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x.norm() * y.norm() == (x * y).norm()
            assert x.conj().conj() == x
            assert (x * y).conj() == x.conj() * y.conj()
            assert x.trace() == (x + x.conj()).as_rational()
            if not x.is_zero():
                assert x * x.inv() == FieldElement.one(tag)
                assert (y / x) * x == y


def test_norm_nonnegative_zero_iff_zero():
    rng = random.Random(5)
    for tag in all_tags():
        for _ in range(50):
            x = random_field_element(rng, tag)
            assert x.norm() >= 0
            assert (x.norm() == 0) == x.is_zero()


def test_dual_integrality():
    t1 = make_field(-1)
    half_i = FieldElement(0, Fraction(1, 2), t1)  # i/2
    assert half_i.is_dual_integral()
    assert not half_i.is_integral()
    one = FieldElement.one(t1)
    assert one.is_integral() and one.is_dual_integral()
    third = FieldElement(Fraction(1, 3), 0, t1)
    assert not third.is_integral() and not third.is_dual_integral()


def test_dual_lattice_is_scaled_ring():
    # O^# membership is exactly sqrt(D)*x in O
    rng = random.Random(7)
    for tag in all_tags():
        sd = sqrt_disc(tag)
        assert sd.norm() == abs(tag.disc)
        for _ in range(30):
            x = random_field_element(rng, tag, den=abs(tag.disc))
            assert x.is_dual_integral() == (x * sd).is_integral()


def test_dual_integrality_on_coordinates_matches_product_oracle():
    # denominators dividing 2|D|k put both members and non-members of O^#
    # in the sample
    rng = random.Random(131)
    for tag in all_tags():
        outcomes = set()
        for _ in range(3000):
            base = 2 * abs(tag.disc) * rng.randint(1, 3)
            dens = [q for q in range(1, base + 1) if base % q == 0]
            x = FieldElement(Fraction(rng.randint(-50, 50), rng.choice(dens)),
                             Fraction(rng.randint(-50, 50), rng.choice(dens)), tag)
            got = x.is_dual_integral()
            assert got == dual_integral_by_product(x), x
            outcomes.add(got)
        assert outcomes == {False, True}


def test_euclidean_round_examples():
    t1 = make_field(-1)
    beta = FieldElement(Fraction(1, 2), Fraction(1, 2), t1)  # (1+i)/2, the deep hole
    alpha = euclidean_round(beta)
    assert alpha == FieldElement.zero(t1)
    assert (beta - alpha).norm() == Fraction(1, 2)

    fixed = FieldElement(7, 2, t1)
    assert euclidean_round(fixed) == fixed

    t3 = make_field(-3)
    beta = FieldElement(Fraction(1, 2), 0, t3)
    alpha = euclidean_round(beta)
    assert alpha == FieldElement.zero(t3)
    assert (beta - alpha).norm() == Fraction(1, 4)


def test_euclidean_round_is_global_minimizer():
    rng = random.Random(23)
    for tag in all_tags():
        for _ in range(60):
            beta = random_field_element(rng, tag, den=6, span=12)
            alpha = euclidean_round(beta)
            assert alpha.is_integral()
            got = (beta - alpha).norm()
            expected = min_dist_to_lattice(tag, beta.a, beta.b)
            assert got == expected


def test_euclidean_constants_closed_form():
    for d, mu in EXPECTED_MU.items():
        ec = euclidean_constant(make_field(d))
        assert ec.mu == mu
        assert ec.c == 1 - mu
        assert ec.c_squared == 1 - mu * mu
        assert 0 < ec.mu < 1 and 0 < ec.c < 1


def test_round_bound_on_sample_grid_with_deep_hole_equality():
    # ~10^4 rational sample points across the five fields
    for tag in all_tags():
        ec = euclidean_constant(tag)
        n = 45
        for i in range(n):
            for j in range(n):
                beta = FieldElement(Fraction(i, n), Fraction(j, n), tag)
                r = (beta - euclidean_round(beta)).norm()
                assert r <= ec.mu
        hole = ec.deep_hole
        assert (hole - euclidean_round(hole)).norm() == ec.mu


def test_unit_groups():
    t1 = make_field(-1)
    u1 = unit_group(t1)
    assert len(u1) == 4
    assert FieldElement(0, 1, t1) in u1 and FieldElement(-1, 0, t1) in u1
    t3 = make_field(-3)
    assert len(unit_group(t3)) == 6
    for d in (-2, -7, -11):
        assert len(unit_group(make_field(d))) == 2


def test_text_round_trip():
    rng = random.Random(31)
    for tag in all_tags():
        for _ in range(40):
            x = random_field_element(rng, tag, den=12, span=30)
            assert FieldElement.from_text(x.to_text(), tag) == x
    t1 = make_field(-1)
    assert FieldElement(Fraction(-1, 2), Fraction(3, 4), t1).to_text() == "-1/2+3/4*w"
    with pytest.raises(ValueError):
        FieldElement.from_text("1/2", t1)
    with pytest.raises(ValueError):
        FieldElement.from_text("x/2+0/1*w", t1)


def test_coset_points_matches_brute_force():
    rng = random.Random(17)
    for tag in all_tags():
        for _ in range(10):
            shift = random_field_element(rng, tag, den=3, span=4)
            m = rng.randint(1, 3)
            bound = Fraction(rng.randint(0, 30), 2)
            got = coset_points(shift, m, bound)
            brute = []
            for p in range(-12, 13):
                for q in range(-12, 13):
                    x = FieldElement(shift.a + m * p, shift.b + m * q, tag)
                    if x.norm() <= bound:
                        brute.append(x)
            brute.sort(key=lambda x: (x.norm(), x.a, x.b))
            assert got == brute


def test_pow_and_division():
    t3 = make_field(-3)
    w = FieldElement.omega(t3)
    assert w ** 6 == FieldElement.one(t3)  # primitive sixth root of unity
    assert w ** -1 == w.conj()  # unit inverse is its conjugate
    assert (w ** 3) == FieldElement(-1, 0, t3)


def _random_symmetric(rng, n):
    """A random symmetric integer matrix of size n: PSD of full or lower
    rank (B^T B with B of r <= n rows), PSD with zero rows and columns,
    indefinite, or PSD with a zero pivot left over a nonzero entry."""
    kind = rng.choice(("psd", "psd", "zero rows", "indefinite", "zero pivot"))
    r = rng.randint(0, n) if kind != "indefinite" else n
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    gram = [[sum(b[k][i] * b[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    if kind == "zero rows":
        for z in rng.sample(range(n), rng.randint(1, n)):
            for i in range(n):
                gram[z][i] = gram[i][z] = 0
    elif kind == "indefinite":
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-6, 6)
    elif kind == "zero pivot":
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        for k in range(n):
            gram[i][k] = gram[k][i] = 0
        gram[i][j] = gram[j][i] = rng.choice((-1, 1)) if i != j else -1
    return gram


def test_ldl_pivots_match_minor_oracle():
    # None exactly when the matrix is not PSD; otherwise one positive pivot
    # per unit of rank, and the input is left as it was
    rng = random.Random(9100)
    seen = set()
    for n in range(1, 7):
        cases = [[[0] * n for _ in range(n)]] + [_random_symmetric(rng, n) for _ in range(150)]
        for gram in cases:
            copy = [row[:] for row in gram]
            pivots = _ldl_pivots(gram)
            assert gram == copy
            rank = psd_rank_by_minors(gram)
            if rank is None:
                assert pivots is None, gram
                seen.add((n, "indefinite"))
                continue
            assert pivots is not None, gram
            assert len(pivots) == rank, gram
            assert all(p > 0 for _k, p, _row in pivots)
            seen.add((n, "full rank" if rank == n else "singular"))
    kinds = ("indefinite", "full rank", "singular")
    assert {(n, kind) for n in range(2, 7) for kind in kinds} <= seen
