"""The points of a class of Delta_g(m) have one search, `hermitian._class_points`.

`theta_coeffs` and the `--strict` walk of `theta_decompose` read it, and
`series_times_theta` reads its minimal shift off the rounding cells.  Each
is compared with its predecessor, kept in `util`: the den*r search
`util._coset_vectors`, the walk of `util.theta_decompose_by_probes`, and the
`reduce_class` + `small_rep` + `shift_matrix` trace.  Key order, the limit
that stops a search before any key is built, and the tie order of the walk
are pinned too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hermfj.errors import ConsistencyError
from hermfj.field import FieldElement, coset_points, make_field
from hermfj.hermitian import CosetClass, HermMatrix, delta_classes, enumerate_semi_integral, \
    small_rep
from hermfj.jacobi import JacobiTable, series_times_theta, shift_matrix, theta_coeffs, \
    theta_decompose
from hermfj.series import FourierSeries
from util import ALL_D, series_times_theta_by_small_rep, theta_coeffs_by_coset_vectors, \
    theta_decompose_by_probes

CASES = [(g, m) for g in (1, 2) for m in (1, 2, 3)]
TRUNC = {1: Fraction(9, 2), 2: 2}


def sample_classes(rng, g, m, tag, count=4):
    """The zero class and `count` random classes of Delta_g(m), each also
    with a rep moved by m times a random vector over O."""
    classes = delta_classes(g, m, tag)
    out = []
    for s in [classes[0]] + rng.sample(classes, min(count, len(classes) - 1)):
        moved = tuple(x + m * FieldElement(rng.randint(-3, 3), rng.randint(-3, 3), tag)
                      for x in s.rep)
        out += [s, CosetClass(m, moved, tag)]
    return out


@pytest.mark.parametrize("d", ALL_D)
def test_theta_coeffs_match_the_coset_vector_search(d):
    tag = make_field(d)
    rng = random.Random(1800 + d)
    for g, m in CASES:
        for s in sample_classes(rng, g, m, tag):
            got = theta_coeffs(m, s, TRUNC[g])
            want = theta_coeffs_by_coset_vectors(m, s, TRUNC[g])
            assert list(got.coeffs.items()) == list(want.coeffs.items()), (g, m, s)
            assert got == want
            assert theta_coeffs(m, s, -1).coeffs == {}


def test_max_keys_stops_one_point_past_the_limit_with_no_key_built(monkeypatch):
    from hermfj import hermitian, jacobi

    rng = random.Random(1801)
    for d in ALL_D:
        tag = make_field(d)
        for g, m in ((1, 1), (1, 2), (2, 1)):
            for s in sample_classes(rng, g, m, tag, count=1):
                full = theta_coeffs(m, s, 3)
                count = len(full.coeffs)
                assert theta_coeffs(m, s, 3, count) == full
                assert theta_coeffs_by_coset_vectors(m, s, 3, count - 1) is None
                built, listed = [], []
                search = hermitian._lattice_points

                def counted(*args):
                    points = search(*args)
                    listed.append(points)
                    return points

                with monkeypatch.context() as patch:
                    patch.setattr(hermitian, "_lattice_points", counted)
                    patch.setattr(jacobi, "_from_y", lambda *args: built.append(args))
                    patch.setattr(jacobi, "shift_matrix", lambda *args: built.append(args))
                    assert theta_coeffs(m, s, 3, count - 1) is None
                    assert theta_coeffs(m, s, 3, 0) is None
                assert listed == [None, None] and built == []


def drop_keys(theta: JacobiTable, rs) -> JacobiTable:
    coeffs = {key: vec for key, vec in theta.coeffs.items() if key[1] not in rs}
    assert len(coeffs) == len(theta.coeffs) - len(rs)
    return JacobiTable(theta.g, theta.k, theta.m, theta.tag, theta.trunc, coeffs)


def test_strict_walk_breaks_norm_ties_by_the_coordinates_of_r():
    # over Q(i), class 0 of Delta_1(1): r = -1 and r = i have norm 1; by
    # the coordinates of |D| r, -1 comes first, by those of y = sqrt(D) r
    # = 2i r, i would
    tag = make_field(-1)
    zero = delta_classes(1, 1, tag)[0]
    minus_one, i = FieldElement(-1, 0, tag), FieldElement(0, 1, tag)
    phi = drop_keys(theta_coeffs(1, zero, 2), [(minus_one,), (i,)])
    theta_decompose(phi)
    with pytest.raises(ConsistencyError) as got:
        theta_decompose(phi, strict=True)
    with pytest.raises(ConsistencyError) as want:
        theta_decompose_by_probes(phi, strict=True)
    assert got.value.witness == want.value.witness
    assert got.value.witness[2] == (minus_one,)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("d", ALL_D)
def test_strict_walk_names_the_witness_of_the_probes_at_equal_norms(d):
    tag = make_field(d)
    rng = random.Random(1802 + d)
    tried = 0
    for g, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for s in rng.sample(delta_classes(g, m, tag), 3):
            theta = theta_coeffs(m, s, TRUNC[g])
            r0 = small_rep(s)
            spare = (r0[0] + m,) + r0[1:]
            levels: dict[Fraction, list] = {}
            for _n, r in theta.coeffs:
                if r not in (r0, spare):
                    levels.setdefault(sum(x.norm() for x in r), []).append(r)
            ties = [rs for rs in levels.values() if len(rs) >= 2]
            if not ties:
                continue
            tried += 1
            phi = drop_keys(theta, rng.sample(rng.choice(ties), 2))
            theta_decompose(phi)
            with pytest.raises(ConsistencyError) as got:
                theta_decompose(phi, strict=True)
            with pytest.raises(ConsistencyError) as want:
                theta_decompose_by_probes(phi, strict=True)
            assert got.value.witness == want.value.witness, (g, m, s)
            assert str(got.value) == str(want.value)
    assert tried >= 4


def random_series(rng, g: int, tag, trunc) -> FourierSeries:
    keys = enumerate_semi_integral(g, int(trunc), tag)
    coeffs = {n: (FieldElement(rng.randint(1, 3), rng.randint(-1, 1), tag),)
              for n in rng.sample(keys, min(4, len(keys)))}
    return FourierSeries(g, 5, tag, trunc, coeffs)


@pytest.mark.parametrize("d", ALL_D)
def test_series_times_theta_matches_the_small_rep_shift(d):
    tag = make_field(d)
    rng = random.Random(1803 + d)
    for g, m in CASES:
        for s in sample_classes(rng, g, m, tag, count=2):
            theta = theta_coeffs(m, s, 3)
            for h_trunc in (Fraction(1, 2), 1, 2, 3):
                h = random_series(rng, g, tag, h_trunc)
                try:
                    want = series_times_theta_by_small_rep(h, theta)
                except ValueError as exc:  # theta truncated below the product
                    with pytest.raises(ValueError, match="below product target"):
                        series_times_theta(h, theta)
                    assert "below product target" in str(exc)
                    continue
                got = series_times_theta(h, theta)
                assert got == want and got.trunc == want.trunc, (g, m, s, h_trunc)
                assert got.trunc == h.trunc + shift_matrix(small_rep(s), m).trace()


def test_series_times_theta_rejects_index_zero():
    tag = make_field(-1)
    zero = (FieldElement.zero(tag),)
    theta = JacobiTable(1, 1, 0, tag, 1, {(HermMatrix.from_rational(0, tag), zero):
                                          (FieldElement.one(tag),)})
    h = FourierSeries(1, 5, tag, 1, {HermMatrix.from_rational(0, tag): (FieldElement.one(tag),)})
    with pytest.raises(ValueError, match="m must be >= 1"):
        series_times_theta(h, theta)
    with pytest.raises(ValueError, match="m must be >= 1"):
        series_times_theta_by_small_rep(h, theta)


def test_coset_points_rejects_an_index_below_one():
    # 1 + 0*O is not a coset; 1 + (-1)O = 1 + O contains 1, so an index -1
    # once listed nothing where 1 + O has points
    tag = make_field(-1)
    one = FieldElement.one(tag)
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be >= 1"):
            coset_points(one, m, 5)
    assert one in coset_points(one, 1, 5)
