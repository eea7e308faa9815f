import random
from fractions import Fraction

import pytest

from hermfj.field import FieldElement, euclidean_constant, make_field, unit_group
from hermfj.hermitian import (
    CosetClass,
    HermMatrix,
    UnitMatrix,
    delta_class,
    delta_classes,
    enumerate_semi_integral,
    gl_action,
    min_represented,
    reduce_class,
    small_rep,
)
from util import all_tags, in_same_class, principal_minor, psd_by_minors, random_field_element


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def test_psd_pd_basics():
    t1 = make_field(-1)
    for g in (1, 2, 3):
        zero = HermMatrix.zero(g, t1)
        assert zero.is_psd() and not zero.is_pd()
        ident = HermMatrix.identity(g, t1)
        assert ident.is_psd() and ident.is_pd()


def test_psd_counterexample_from_off_diagonal():
    # diag (1,1) with |t12|^2 = 9/4 > 1 fails PSD
    t1 = make_field(-1)
    x = fe(0, Fraction(3, 2), t1)  # 3i/2, norm 9/4
    m = HermMatrix([[fe(1, 0, t1), x], [x.conj(), fe(1, 0, t1)]], t1)
    assert not m.is_psd()
    assert principal_minor(m, (0, 1)) == 1 - Fraction(9, 4)


def test_psd_needs_all_principal_minors():
    # diag(0, -1) has leading minors 0, 0 but is not PSD
    t1 = make_field(-1)
    m = HermMatrix.diagonal([0, -1], t1)
    assert not m.is_psd()


def test_psd_rank_matches_minor_oracle():
    # B* B over E with B of r <= g rows has rank <= r; a diagonal entry made
    # negative, or an off-diagonal one changed, usually makes it indefinite
    rng = random.Random(9200)
    for tag in all_tags():
        for g in (1, 2, 3):
            for _ in range(12):
                r = rng.randint(0, g)
                b = [[random_field_element(rng, tag, den=2, span=2) for _ in range(g)]
                     for _ in range(r)]
                rows = [[sum((b[k][i].conj() * b[k][j] for k in range(r)), FieldElement.zero(tag))
                         for j in range(g)] for i in range(g)]
                if rng.random() < 0.3:
                    i, j = rng.randrange(g), rng.randrange(g)
                    x = random_field_element(rng, tag, den=2, span=2)
                    if i == j:
                        x = FieldElement(-x.norm(), 0, tag)
                    rows[i][j], rows[j][i] = x, x.conj()
                t = HermMatrix(rows, tag)
                rank = t._psd_rank()
                if not psd_by_minors(t):
                    assert rank is None, t
                    continue
                idx = [tuple(i for i in range(g) if mask >> i & 1) for mask in range(1, 1 << g)]
                assert rank == max([len(k) for k in idx if principal_minor(t, k)] + [0]), t


def test_non_hermitian_rejected():
    t1 = make_field(-1)
    with pytest.raises(ValueError):
        HermMatrix([[fe(0, 1, t1)]], t1)  # imaginary diagonal
    with pytest.raises(ValueError):
        HermMatrix([[fe(1, 0, t1), fe(1, 1, t1)], [fe(1, 1, t1), fe(1, 0, t1)]], t1)


def test_semi_integral():
    t1 = make_field(-1)
    half_i = fe(0, Fraction(1, 2), t1)
    m = HermMatrix([[fe(1, 0, t1), half_i], [half_i.conj(), fe(2, 0, t1)]], t1)
    assert m.is_semi_integral()
    m2 = HermMatrix.diagonal([Fraction(1, 2), 1], t1)
    assert not m2.is_semi_integral()
    m3 = HermMatrix([[fe(1, 0, t1), fe(Fraction(1, 3), 0, t1)],
                     [fe(Fraction(1, 3), 0, t1), fe(1, 0, t1)]], t1)
    assert not m3.is_semi_integral()


def test_gl_action_examples():
    t1 = make_field(-1)
    ident2 = HermMatrix.identity(2, t1)
    u_id = UnitMatrix.identity(2, t1)
    assert gl_action(u_id, ident2) == ident2

    u = UnitMatrix([[fe(1, 0, t1), fe(1, 0, t1)], [fe(0, 0, t1), fe(1, 0, t1)]], t1)
    got = gl_action(u, ident2)
    expected = HermMatrix([[fe(1, 0, t1), fe(1, 0, t1)], [fe(1, 0, t1), fe(2, 0, t1)]], t1)
    assert got == expected
    assert got.is_semi_integral() and got.is_psd()

    perm = UnitMatrix.permutation([1, 0], t1)
    d = HermMatrix.diagonal([1, 3], t1)
    swapped = gl_action(perm, d)
    assert swapped == HermMatrix.diagonal([3, 1], t1)


def test_elementary_rejects_an_index_out_of_range():
    tag = make_field(-3)
    w = fe(0, 1, tag)
    assert UnitMatrix.elementary(3, 2, 0, w).entries[2][0] == w
    # a negative index used to write through Python indexing: (3, 2, -1)
    # gave diag(1, 1, w), and an index >= g raised IndexError
    for i, j in ((2, -1), (-1, 0), (0, 5), (3, 0), (1, 1)):
        with pytest.raises(ValueError, match="elementary matrix requires"):
            UnitMatrix.elementary(3, i, j, w)


def test_unit_matrix_rejects_entries_of_another_field():
    # diag(i, 1) over Q(i), given the tag of Q(sqrt(-2)), was accepted and
    # read as diag(sqrt(-2), 1): gl_action(u, I_2) gave diag(2, 1)
    t1, t2 = make_field(-1), make_field(-2)
    one, z = fe(1, 0, t1), fe(0, 0, t1)
    with pytest.raises(ValueError, match="is not in the field d=-2"):
        UnitMatrix([[fe(0, 1, t1), z], [z, one]], t2)
    with pytest.raises(ValueError, match="is not in the field d=-2"):
        UnitMatrix.diagonal_units([fe(0, 1, t1), one], t2)
    with pytest.raises(ValueError, match="unit matrix entries must lie in O"):
        UnitMatrix([[fe(Fraction(1, 2), 0, t1)]], t1)


def test_gl_action_is_right_action():
    rng = random.Random(3)
    for tag in all_tags():
        units = unit_group(tag)
        for _ in range(20):
            g = rng.choice([1, 2])
            u = _random_unit(rng, g, tag)
            v = _random_unit(rng, g, tag)
            t = _random_semi_integral(rng, g, tag)
            assert gl_action(u.mul(v), t) == gl_action(v, gl_action(u, t))


def _random_unit(rng, g, tag):
    u = UnitMatrix.identity(g, tag)
    units = unit_group(tag)
    w = FieldElement.omega(tag)
    for _ in range(rng.randint(0, 6)):
        kind = rng.randint(0, 2)
        if kind == 0 and g > 1:
            i, j = rng.sample(range(g), 2)
            val = rng.choice([FieldElement.one(tag), w, -w])
            u = u.mul(UnitMatrix.elementary(g, i, j, val))
        elif kind == 1 and g > 1:
            perm = list(range(g))
            rng.shuffle(perm)
            u = u.mul(UnitMatrix.permutation(perm, tag))
        else:
            diag = [rng.choice(units) for _ in range(g)]
            u = u.mul(UnitMatrix.diagonal_units(diag, tag))
    return u


def _random_semi_integral(rng, g, tag):
    cands = enumerate_semi_integral(g, 3, tag)
    return rng.choice(cands)


def test_enumerate_examples():
    t1 = make_field(-1)
    ones = enumerate_semi_integral(1, 2, t1)
    assert ones == [HermMatrix.from_rational(n, t1) for n in (0, 1, 2)]
    for tag in all_tags():
        assert enumerate_semi_integral(2, 0, tag) == [HermMatrix.zero(2, tag)]
    twos = enumerate_semi_integral(2, 1, t1)
    assert len(twos) == 3
    assert HermMatrix.zero(2, t1) in twos
    assert HermMatrix.diagonal([1, 0], t1) in twos
    assert HermMatrix.diagonal([0, 1], t1) in twos


def test_enumerate_monotone_and_deterministic():
    t3 = make_field(-3)
    prev = 0
    for bound in range(4):
        out = enumerate_semi_integral(2, bound, t3)
        assert len(out) >= prev
        prev = len(out)
        again = enumerate_semi_integral(2, bound, t3)
        assert [m.to_text() for m in out] == [m.to_text() for m in again]
        traces = [m.trace() for m in out]
        assert traces == sorted(traces)
        assert all(m.is_semi_integral() and m.is_psd() and m.trace() <= bound for m in out)
        assert len({m.to_text() for m in out}) == len(out)


def brute_min_represented(t: HermMatrix, height: int = 3) -> Fraction:
    """Brute-force min of omega* t omega over coordinate height <= height."""
    tag = t.tag
    g = t.g
    coords = range(-height, height + 1)
    best = None

    def vectors(k):
        if k == 0:
            yield ()
            return
        for rest in vectors(k - 1):
            for a in coords:
                for b in coords:
                    yield rest + (FieldElement(a, b, tag),)

    rows = t.entries
    for vec in vectors(g):
        if all(x.is_zero() for x in vec):
            continue
        acc = None
        for i in range(g):
            for j in range(g):
                term = vec[i].conj() * rows[i][j] * vec[j]
                acc = term if acc is None else acc + term
        val = acc.as_rational()
        if best is None or val < best:
            best = val
    return best


def test_min_represented_examples():
    t1 = make_field(-1)
    assert min_represented(HermMatrix.identity(2, t1)) == 1
    assert min_represented(HermMatrix.diagonal([2, 3], t1)) == 2
    # t = [[1, 1/(2i)], [-1/(2i), 1]]; oracle decides the minimum
    x = fe(0, Fraction(-1, 2), t1)  # 1/(2i) = -i/2
    t = HermMatrix([[fe(1, 0, t1), x], [x.conj(), fe(1, 0, t1)]], t1)
    assert min_represented(t) == brute_min_represented(t)


def test_min_represented_degenerate_is_zero():
    t1 = make_field(-1)
    assert min_represented(HermMatrix.zero(2, t1)) == 0
    assert min_represented(HermMatrix.diagonal([1, 0], t1)) == 0
    one = fe(1, 0, t1)
    rank_one = HermMatrix([[one, one], [one, one]], t1)
    assert min_represented(rank_one) == 0


def test_min_represented_matches_brute_force():
    # height 2 is certified here: every sampled matrix has a diagonal entry
    # <= 3, and any vector of coordinate height 3 already exceeds that value
    rng = random.Random(41)
    for tag in all_tags():
        cands = enumerate_semi_integral(2, 3, tag)
        for t in rng.sample(cands, min(6, len(cands))):
            assert min_represented(t) == brute_min_represented(t, height=2)


def test_min_represented_unimodular_invariance():
    rng = random.Random(43)
    for tag in all_tags():
        for _ in range(10):
            t = _random_semi_integral(rng, 2, tag)
            u = _random_unit(rng, 2, tag)
            assert min_represented(gl_action(u, t)) == min_represented(t)


def test_delta_class_counts():
    t1 = make_field(-1)
    assert len(delta_classes(1, 1, t1)) == 4
    t3 = make_field(-3)
    assert len(delta_classes(1, 1, t3)) == 3
    assert len(delta_classes(2, 2, t1)) == 256


def test_delta_class_is_the_listed_class():
    for tag in all_tags():
        for g, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
            classes = delta_classes(g, m, tag)
            assert [delta_class(g, m, tag, i) for i in range(len(classes))] == list(classes)
            for index in (-1, len(classes)):
                with pytest.raises(IndexError):
                    delta_class(g, m, tag, index)
        for g, m in ((0, 1), (1, 0)):
            with pytest.raises(ValueError):
                delta_class(g, m, tag, 0)


def test_delta_classes_distinct_and_reduce_idempotent():
    rng = random.Random(47)
    for tag in all_tags():
        for m in (1, 2):
            classes = delta_classes(1, m, tag)
            assert len(classes) == m * m * abs(tag.disc)
            # canonical reps are pairwise inequivalent
            for i in range(len(classes)):
                for j in range(i + 1, len(classes)):
                    assert not in_same_class(classes[i].rep, classes[j].rep, m)
            # reduction hits the canonical rep again
            for s in rng.sample(classes, min(6, len(classes))):
                shifted = tuple(
                    x + FieldElement(m * rng.randint(-2, 2), m * rng.randint(-2, 2), tag)
                    for x in s.rep
                )
                assert reduce_class(shifted, m) == s


def test_small_rep_bound_exhaustive_d_minus_11():
    tag = make_field(-11)
    ec = euclidean_constant(tag)
    m = 3
    classes = delta_classes(1, m, tag)
    assert len(classes) == 99
    for s in classes:
        r = small_rep(s)
        assert in_same_class(r, s.rep, m)
        assert r[0].norm() <= (1 - ec.c) * m * m


def test_small_rep_examples():
    t1 = make_field(-1)
    zero_class = reduce_class((FieldElement.zero(t1),), 2)
    assert small_rep(zero_class) == (FieldElement.zero(t1),)
    s = reduce_class((fe(0, Fraction(-1, 2), t1),), 1)  # class of 1/(2i)
    r = small_rep(s)
    assert r[0].norm() == Fraction(1, 4)
    assert r[0].norm() <= (1 - euclidean_constant(t1).c)


def test_matrix_text_round_trip():
    rng = random.Random(53)
    for tag in all_tags():
        for t in rng.sample(enumerate_semi_integral(2, 3, tag), 5):
            assert HermMatrix.from_text(t.to_text(), 2, tag) == t


def test_min_represented_genus_three_brute_force():
    t1 = make_field(-1)
    samples = [
        HermMatrix.identity(3, t1),
        HermMatrix.diagonal([1, 2, 3], t1),
        HermMatrix.diagonal([2, 1, 1], t1),
    ]
    x = fe(0, Fraction(1, 2), t1)
    rows = [[fe(1, 0, t1), x, fe(0, 0, t1)],
            [x.conj(), fe(1, 0, t1), x],
            [fe(0, 0, t1), x.conj(), fe(2, 0, t1)]]
    samples.append(HermMatrix(rows, t1))
    for t in samples:
        assert min_represented(t) == brute_min_represented(t, height=2)


def test_gl_action_preserves_semi_integral_psd():
    rng = random.Random(59)
    for tag in all_tags():
        for _ in range(8):
            t = _random_semi_integral(rng, 2, tag)
            u = _random_unit(rng, 2, tag)
            image = gl_action(u, t)
            assert image.is_semi_integral() and image.is_psd()


def test_coset_class_hash_is_stored(monkeypatch):
    tag = make_field(-3)
    classes = list(delta_classes(2, 2, tag))
    classes.append(CosetClass(3, (fe(0, 0, tag), fe(1, 0, tag)), tag))
    classes.append(reduce_class((fe(5, 0, tag), fe(2, 1, tag)), 2))
    hashes = [hash(s) for s in classes]
    calls = [0]
    element_hash = FieldElement.__hash__

    def counted(x):
        calls[0] += 1
        return element_hash(x)

    monkeypatch.setattr(FieldElement, "__hash__", counted)
    assert [hash(s) for s in classes] == hashes
    assert all(s in set(classes) for s in classes)
    assert calls[0] == 0
    assert hash(classes[0]) == hash((2, classes[0].rep, tag.d))
