"""Theta decomposition and recomposition by class buckets, against the
class-by-class code they replaced (kept in `tests/util.py`).

Small representatives rounded per component on ints are compared with
rounding in field arithmetic; one listing of y = sqrt(D) r sorted into
class buckets with one `util._coset_vectors` search per class; and
decomposition that reads each body at r0 and checks `strict` on the pairs
(n', r) of each class with decomposition by probes: the same components, or the same exception
with the same witness, on consistent tables, on tables with a coefficient
changed and on tables with a deep key removed, plain and strict.  All five
fields, g <= 2 with m <= 3, and g = 3 with m = 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import pytest

from hermfj.errors import ConsistencyError
from hermfj.field import FieldElement, _lattice_points, _norm_levels, \
    _search_levels, euclidean_round, make_field
from hermfj.hermitian import CosetClass, _class_points, _delta_cells, _from_y, delta_classes, \
    enumerate_semi_integral, reduce_class, small_rep
from hermfj.jacobi import JacobiTable, ThetaComponentVector, shift_matrix, theta_coeffs, \
    theta_decompose, theta_recompose
from hermfj.series import FourierSeries
from util import ALL_D, _coset_vectors, euclidean_round_by_norms, small_rep_by_rounding, \
    theta_decompose_by_probes, theta_recompose_by_classes

CASES = [(g, m) for g in (1, 2) for m in (1, 2, 3)] + [(3, 1)]
#: the truncation of the tables per genus; every class of Delta_g(m) has
#: representatives inside it
TRUNC = {1: 4, 2: 2, 3: 1}


@pytest.mark.parametrize("d", ALL_D)
def test_small_representatives_match_rounding_in_field_arithmetic(d):
    tag = make_field(d)
    for g, m in CASES:
        for s in delta_classes(g, m, tag):
            assert small_rep(s) == small_rep_by_rounding(s), (g, m, s)
        for i, (y0, norm0) in enumerate(_delta_cells(m, tag)):
            s, r0 = delta_classes(1, m, tag)[i], _from_y(*y0, tag)
            assert (r0,) == small_rep_by_rounding(s)
            assert norm0 == abs(tag.disc) * r0.norm()


def test_euclidean_round_matches_the_comparison_of_fraction_norms():
    rng = random.Random(3)
    for d in ALL_D:
        tag = make_field(d)
        for _ in range(400):  # small denominators give many exact ties
            beta = FieldElement(Fraction(rng.randint(-40, 40), rng.randint(1, 6)),
                                Fraction(rng.randint(-40, 40), rng.randint(1, 6)), tag)
            assert euclidean_round(beta) == euclidean_round_by_norms(beta), beta


@pytest.mark.parametrize("d", ALL_D)
def test_class_buckets_hold_the_points_of_each_class(d):
    # every class wanted: one listing of O^g; a few: one coset search each
    tag = make_field(d)
    rng = random.Random(d)
    for g, m in CASES:
        classes = delta_classes(g, m, tag)
        trunc = TRUNC[g]
        few = set(rng.sample(range(len(classes)), len(classes) // 2 - 1))
        for wanted in (range(len(classes)), few):
            got: dict[int, dict] = {}
            for index, norm, y in _class_points(g, m, tag, trunc * abs(tag.disc) * m, wanted):
                r = tuple(_from_y(y[i], y[i + 1], tag) for i in range(0, 2 * g, 2))
                assert norm == abs(tag.disc) * sum(x.norm() for x in r)
                got.setdefault(index, {})[r] = norm
            assert set(got) <= set(wanted)
            for index in wanted:
                s = classes[index]
                want = _coset_vectors(s.rep, m, trunc * m)
                assert set(got.get(index, ())) == set(want), (g, m, s)
                assert all(reduce_class(r, m) == s for r in want)


def test_few_classes_of_a_large_index_list_only_their_points(monkeypatch):
    # Delta_1(100) over Q(sqrt(-3)) has 30,000 classes; at trunc 10^4 O
    # has about 1.1 * 10^7 points y = sqrt(D) r with N(y) <= trunc m |D|,
    # and the zero class about 360 of them
    from hermfj import field, hermitian

    tag = make_field(-3)
    m, trunc = 100, 10_000
    zero = CosetClass(m, (FieldElement.zero(tag),), tag)
    theta = theta_coeffs(m, zero, trunc)
    listed = []
    search = field._lattice_points

    def counted(*args):
        points = search(*args)
        listed.append(len(points))
        return points

    monkeypatch.setattr(hermitian, "_lattice_points", counted)
    assert _class_points(1, m, tag, 0, {}) == []
    v = theta_decompose(theta, strict=True)
    assert listed == [len(theta.coeffs)]
    assert [s for s, h in v.components.items() if not h.is_zero()] == [zero]
    listed.clear()
    assert theta_recompose(v, trunc) == theta
    assert listed == [len(theta.coeffs)]
    # components all zero: no search at all
    listed.clear()
    empty = ThetaComponentVector(m, v.classes, {s: FourierSeries(1, 0, tag, h.trunc, {},
                                                                 semi_integral=False)
                                                for s, h in v.components.items()})
    assert theta_recompose(empty, trunc).coeffs == {}
    assert listed == []


def test_norm_levels_equal_the_elimination_of_the_block_gram():
    for d in ALL_D:
        tag = make_field(d)
        s, t = tag._norm_s, tag._norm_t
        for g in (1, 2, 3, 4):
            gram = [[0] * (2 * g) for _ in range(2 * g)]
            for i in range(0, 2 * g, 2):
                gram[i][i], gram[i][i + 1], gram[i + 1][i], gram[i + 1][i + 1] = 2, s, s, 2 * t
            assert _norm_levels(g, tag) == _search_levels(gram)


def test_lattice_points_limit_stops_past_the_count():
    tag = make_field(-1)
    levels = _norm_levels(1, tag)
    every = _lattice_points(levels, (0, 0), 1, 50)
    assert _lattice_points(levels, (0, 0), 1, 50, len(every)) == every
    assert _lattice_points(levels, (0, 0), 1, 50, len(every) - 1) is None
    assert _lattice_points(levels, (0, 0), 1, -1, 0) == []
    # 1200 levels, deeper than the interpreter's recursion limit: the origin
    # and the 4 units of Z[i] in each of 600 coordinates
    assert len(_lattice_points(_norm_levels(600, tag), (0,) * 1200, 1, 2)) == 1 + 4 * 600


def _components(rng, tag, g: int, m: int, trunc: int) -> ThetaComponentVector:
    """Random bodies on a few classes, one of them the zero class, with
    every other class zero; truncations as decomposition gives them."""
    classes = delta_classes(g, m, tag)
    keys = enumerate_semi_integral(g, trunc, tag)
    chosen = {0} | set(rng.sample(range(len(classes)), min(3, len(classes))))
    comps = {}
    for i, s in enumerate(classes):
        h_trunc = trunc - shift_matrix(small_rep(s), m).trace()
        body = {}
        if i in chosen:
            for n in keys:
                if n.trace() <= h_trunc and rng.random() < 0.6:
                    body[n] = (FieldElement(rng.randint(1, 4), rng.randint(-1, 1), tag),)
        comps[s] = FourierSeries(g, 9, tag, h_trunc, body, semi_integral=False)
    return ThetaComponentVector(m, classes, comps)


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except ConsistencyError as exc:
        return "error", str(exc), exc.witness


def _variants(rng, table: JacobiTable):
    """Tables off `table` by one change each, with keys in shuffled order:
    one coefficient changed, the deepest key of a class (largest r norm)
    removed, a random key removed, and two coefficients changed."""
    keys = list(table.coeffs)

    def build(coeffs):
        items = list(coeffs.items())
        rng.shuffle(items)
        return JacobiTable(table.g, table.k, table.m, table.tag, table.trunc, dict(items))

    def bumped(coeffs, key):
        coeffs[key] = (coeffs[key][0] + 1,)

    one = dict(table.coeffs)
    bumped(one, rng.choice(keys))
    yield build(one)
    deepest = max(keys, key=lambda key: (sum(x.norm() for x in key[1]), rng.random()))
    yield build({k: v for k, v in table.coeffs.items() if k != deepest})
    dropped = rng.choice(keys)
    yield build({k: v for k, v in table.coeffs.items() if k != dropped})
    two = dict(table.coeffs)
    for key in rng.sample(keys, min(2, len(keys))):
        bumped(two, key)
    yield build(two)


@pytest.mark.parametrize("d", ALL_D)
def test_decompose_and_recompose_match_the_class_by_class_code(d):
    tag = make_field(d)
    rng = random.Random(5000 - d)
    for g, m in CASES:
        trunc = TRUNC[g]
        v = _components(rng, tag, g, m, trunc)
        table = theta_recompose(v, trunc)
        assert table == theta_recompose_by_classes(v, trunc), (g, m)
        for strict in (False, True):
            assert theta_decompose(table, strict) == v
        # the probes take 0.2 s a call on 1,936 classes (g = 2, m = 2, d = -11)
        # and 0.9 s on 9,801 (m = 3)
        few = len(v.classes) > 1000
        for variant in islice(_variants(rng, table), 1 if few else None):
            for strict in (False, True):
                want = _outcome(theta_decompose_by_probes, variant, strict)
                got = _outcome(theta_decompose, variant, strict)
                assert got == want, (g, m, strict, want[:2])


@pytest.mark.parametrize("d", ALL_D)
def test_one_key_removed_matches_the_probes(d):
    """Removing one key of a consistent table: strict decomposition
    fails with the witness of the probes, or both succeed alike when the
    key alone carried its n'; plain decomposition agrees with them too."""
    tag = make_field(d)
    rng = random.Random(7000 - d)
    m, trunc = 2, 3
    v = _components(rng, tag, 1, m, trunc)
    table = theta_recompose(v, trunc)
    failed = 0
    for key in rng.sample(list(table.coeffs), min(25, len(table.coeffs))):
        coeffs = {k: x for k, x in table.coeffs.items() if k != key}
        broken = JacobiTable(1, table.k, m, tag, trunc, coeffs)
        for strict in (False, True):
            want = _outcome(theta_decompose_by_probes, broken, strict)
            assert _outcome(theta_decompose, broken, strict) == want
        # a key that alone carries its n' leaves a smaller consistent table
        failed += want[0] == "error"
    assert failed


def test_decompose_names_the_first_witness_in_key_order():
    """With several failures in one class, the witness is the first n'
    in the order the keys first give it, whatever the order of the keys
    at r0."""
    tag = make_field(-3)
    rng = random.Random(11)
    m, trunc = 1, 4
    v = _components(rng, tag, 1, m, trunc)
    table = theta_recompose(v, trunc)
    for _ in range(20):
        coeffs = dict(table.coeffs)
        for key in rng.sample(list(coeffs), min(4, len(coeffs))):
            del coeffs[key]
        items = list(coeffs.items())
        rng.shuffle(items)
        broken = JacobiTable(1, table.k, m, tag, Fraction(trunc), dict(items))
        for strict in (False, True):
            assert _outcome(theta_decompose, broken, strict) == \
                _outcome(theta_decompose_by_probes, broken, strict)
