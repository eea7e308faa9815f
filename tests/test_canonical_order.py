"""The canonical order and the truncation test run on integer traces.

`HermMatrix._trace` is the trace as an int pair, `_trace_within` is the
truncation test by cross-multiplication, and `_canonical_order` sorts keys
on ints.  Each is checked against its predecessor on `Fraction`s in
`util`: the order of `_records()`, `indices()`, `enumerate_semi_integral`
and `write_family`, and `<=` on random signed rationals.
"""

import random
from fractions import Fraction
from math import lcm

from hermfj.ffj import assemble, disassemble, rearrange_cogenus
from hermfj.field import FieldElement, make_field
from hermfj.formats import _rmat_text, write_family
from hermfj.hermitian import (
    HermMatrix,
    _canonical_order,
    _entries_text,
    _text_order,
    _trace_sum,
    _trace_within,
    delta_classes,
    enumerate_semi_integral,
)
from hermfj.jacobi import theta_coeffs, theta_decompose, theta_recompose
from util import (
    all_tags,
    build_degree3_family,
    canonical_pair_order,
    family_key_order_by_fractions,
    key_order_by_fractions,
    matrix_order_by_fractions,
    random_component_vector,
    table_support,
    trace_by_fractions,
)

TAG = make_field(-3)


def fe(a, b=0, tag=TAG):
    return FieldElement(Fraction(a), Fraction(b), tag)


def diag(*values, tag=TAG):
    return HermMatrix.diagonal([Fraction(v) for v in values], tag)


def assert_trace_pair(t):
    num, den = t._trace
    assert Fraction(num, den) == trace_by_fractions(t) == t.trace()
    assert (num, den) == trace_by_fractions(t).as_integer_ratio()


def assert_order(keys, oracle):
    keys = list(keys)
    # (n, r) pairs keep their former order in `util`; tables sort on y
    order = _canonical_order if isinstance(keys[0], HermMatrix) else canonical_pair_order
    assert order(keys) == sorted(keys, key=oracle)
    assert order(reversed(keys)) == sorted(keys, key=oracle)
    if isinstance(keys[0], HermMatrix):
        order = _text_order(keys)
        assert sorted(reversed(keys), key=order.__getitem__) == sorted(keys, key=oracle)
        assert all(order[t][1] == t.to_text() for t in keys)


def test_trace_pairs_match_fractions():
    rng = random.Random(11)
    for tag in all_tags():
        for _ in range(40):
            a, b = (Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(2))
            x = FieldElement(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 6)), tag)
            s = HermMatrix([[fe(a, 0, tag), x], [x.conj(), fe(b, 0, tag)]], tag)
            t = diag(Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                     Fraction(rng.randint(-40, 40), rng.randint(1, 12)), tag=tag)
            for u in (s, t, s.add(t), s.sub(t), t.sub(s), s.sub(s)):
                assert_trace_pair(u)


def test_trace_within_agrees_with_fraction_comparison():
    rng = random.Random(12)
    for _ in range(3000):
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 24))
        bound = Fraction(rng.randint(-60, 60), rng.randint(1, 24))
        if rng.random() < 0.1:
            bound = x
        t = diag(x)
        assert _trace_within(t, bound.as_integer_ratio()) == (x <= bound)
        y = Fraction(rng.randint(-60, 60), rng.randint(1, 24))
        for sign in (1, -1):
            assert _trace_sum(x.as_integer_ratio(), y.as_integer_ratio(), sign) == \
                (x + sign * y).as_integer_ratio()


def hand_built_matrices():
    """Traces with denominators 1, 3, 4 and 6, equal traces with different
    text, and negative traces from `sub`."""
    out = [diag(v) for v in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), 1, Fraction(2, 3),
                             Fraction(5, 6), Fraction(3, 4), Fraction(7, 6), 2, 0)]
    out += [diag(Fraction(1, 4)).sub(diag(1)), diag(0).sub(diag(Fraction(1, 6))),
            diag(Fraction(1, 3)).sub(diag(Fraction(4, 3))), diag(-2).sub(diag(Fraction(-1, 4)))]
    w = fe(0, 1)
    for off in (fe(0), fe(Fraction(1, 3)), fe(Fraction(-1, 3)), w * Fraction(1, 3),
                fe(Fraction(-1, 2), Fraction(1, 3))):
        for a, b in ((1, 1), (Fraction(1, 2), Fraction(3, 2)), (Fraction(4, 3), Fraction(2, 3)),
                     (Fraction(-1, 4), Fraction(3, 4)), (Fraction(1, 6), Fraction(1, 3))):
            out.append(HermMatrix([[fe(a), off], [off.conj(), fe(b)]], TAG))
    return out


def test_hand_built_matrices_sort_as_by_fractions():
    mats = hand_built_matrices()
    assert {trace_by_fractions(t).denominator for t in mats} >= {1, 2, 3, 4, 6}
    assert any(trace_by_fractions(t) < 0 for t in mats)
    for t in mats:
        assert_trace_pair(t)
    ones = [t for t in mats if t.g == 1]
    twos = [t for t in mats if t.g == 2]
    assert len({trace_by_fractions(t) for t in twos}) < len(twos)  # ties on the trace
    assert_order(ones, matrix_order_by_fractions)
    assert_order(twos, matrix_order_by_fractions)


def test_hand_built_keys_sort_as_by_fractions():
    # equal (n, text) with r of different denominators, signs and lengths
    rs = [fe(0), fe(1), fe(-1), fe(Fraction(1, 3)), fe(Fraction(-1, 3)), fe(Fraction(1, 2)),
          fe(Fraction(-2, 3), Fraction(1, 3)), fe(Fraction(1, 6), Fraction(-1, 6)),
          fe(-2), fe(-3, -4), fe(-4, -3), fe(0, Fraction(-1, 3))]
    ns = [t for t in hand_built_matrices() if t.g == 1][:8]
    keys = [(n, (r,)) for n in ns for r in rs]
    assert_order(keys, key_order_by_fractions)
    twos = [t for t in hand_built_matrices() if t.g == 2][:6]
    keys2 = [(n, (r1, r2)) for n in twos for r1 in rs[:6] for r2 in rs[5:]]
    assert_order(keys2, key_order_by_fractions)
    # FJFAM records order r by its text, which differs from its coordinates;
    # `write_family` renders r over the key's denominator by `_entries_text`
    rows = [(n, ((r,),)) for n in ns for r in rs]
    den = 12 * lcm(*(r.den for r in rs))
    order = _text_order(n for n, _r in rows)

    def record_key(key):
        (x,), = key[1]
        r_text = _entries_text([(x.p * (den // x.den), x.q * (den // x.den))], den)
        assert r_text == _rmat_text(key[1])
        return order[key[0]], r_text

    assert sorted(reversed(rows), key=record_key) == sorted(rows, key=family_key_order_by_fractions)
    assert sorted(rows, key=family_key_order_by_fractions) != \
        sorted(rows, key=lambda key: key_order_by_fractions((key[0], key[1][0])))


def test_theta_supports_sort_as_by_fractions():
    rng = random.Random(13)
    for tag in all_tags():
        for m in (1, 2, 3):
            classes = delta_classes(1, m, tag)
            for s in (classes[0], classes[-1], rng.choice(classes)):
                table = theta_coeffs(m, s, 3)
                assert table_support(table) == sorted(table.coeffs, key=key_order_by_fractions)
            table = theta_recompose(random_component_vector(rng, tag, m, 3), 3)
            assert table_support(table) == sorted(table.coeffs, key=key_order_by_fractions)
            for h in theta_decompose(table).components.values():
                assert _canonical_order(h.coeffs) == sorted(h.coeffs, key=matrix_order_by_fractions)
                for t in h.coeffs:
                    assert_trace_pair(t)


def test_enumeration_sorts_as_by_fractions():
    for tag in all_tags():
        for g, bound in ((1, 4), (2, 2), (3, 1)):
            keys = enumerate_semi_integral(g, bound, tag)
            assert keys == sorted(keys, key=matrix_order_by_fractions)


def write_family_by_fractions(fam) -> str:
    """`formats.write_family` with its former `Fraction` sort keys."""
    lines = ["FJFAM v1; d=%d; g=%d; l=%d; k=%d; trunc=%s; dim=%d"
             % (fam.tag.d, fam.g, fam.l, fam.k, fam.trunc, fam.dim)]
    for m in sorted(fam.tables, key=matrix_order_by_fractions):
        lines.append("[index m = %s]" % m.to_text())
        body = fam.tables[m]
        for n, r in sorted(body, key=family_key_order_by_fractions):
            lines.append("(%s ; %s) = %s" % (n.to_text(), _rmat_text(r),
                                             ",".join(x.to_text() for x in body[(n, r)])))
    return "\n".join(lines) + "\n"


def test_family_order_and_text_as_by_fractions():
    for d in (-1, -3, -7):
        fam1 = build_degree3_family(random.Random(d), make_field(d), trunc=3)
        fam2 = disassemble(assemble(fam1), 2)
        for fam in (fam1, fam2, rearrange_cogenus(fam2, 1)):
            assert fam.indices() == sorted(fam.tables, key=matrix_order_by_fractions)
            assert write_family(fam) == write_family_by_fractions(fam)
