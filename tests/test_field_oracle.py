"""`FieldElement` on integer storage against its `Fraction` predecessor.

`util.FractionFieldElement` keeps the coordinates a, b as `Fraction`s; the
library stores (p + q*w)/den in ints.  On seeded random elements of all five
fields every method must agree with the oracle, every result must be in
canonical form, and the text form must round-trip, including the tokens
that only the `Fraction` fallback of `from_text` reads.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from hermfj.field import FieldElement
from util import FractionFieldElement, all_tags


def sample(rng, tag, count):
    """Pairs (x, X) of equal values: zero, units of the basis, integers and
    fractions with denominators up to 2|D|, some of them large."""
    coords = [(0, 0), (1, 0), (0, 1), (-1, 1)]
    bound = 2 * abs(tag.disc)
    while len(coords) < count:
        span = rng.choice((3, 40, 10 ** 12))
        coords.append(tuple(Fraction(rng.randint(-span, span), rng.randint(1, bound))
                            for _ in range(2)))
    return [(FieldElement(Fraction(a), Fraction(b), tag), FractionFieldElement(a, b, tag))
            for a, b in coords]


def assert_canonical(x):
    assert isinstance(x, FieldElement)
    assert all(type(v) is int for v in (x.p, x.q, x.den))
    assert x.den > 0 and gcd(x.p, x.q, x.den) == 1


def assert_same(x, oracle):
    assert_canonical(x)
    assert (x.a, x.b) == (oracle.a, oracle.b)
    assert x.to_text() == oracle.to_text()


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_arithmetic_matches_fraction_oracle(tag):
    rng = random.Random(800 + tag.d)
    pairs = sample(rng, tag, 24)
    scalars = [0, 1, -3, Fraction(5, 6), Fraction(-7, 4)]
    for x, ox in pairs:
        assert_same(-x, -ox)
        assert_same(x.conj(), ox.conj())
        assert x.norm() == ox.norm() and x.trace() == ox.trace()
        assert x.is_zero() == ox.is_zero()
        assert x.is_integral() == ox.is_integral()
        assert x.is_dual_integral() == ox.is_dual_integral()
        assert x.sort_key() == ox.sort_key()
        if ox.b:
            with pytest.raises(ValueError):
                x.as_rational()
        else:
            assert x.as_rational() == ox.as_rational()
        if not ox.is_zero():
            assert_same(x.inv(), ox.inv())
            assert_same(x ** -2, ox ** -2)
        assert_same(x ** 3, ox ** 3)
        for c in scalars:
            assert_same(x + c, ox + c)
            assert_same(c + x, c + ox)
            assert_same(x - c, ox - c)
            assert_same(c - x, c - ox)
            assert_same(x * c, ox * c)
            assert_same(c * x, c * ox)
            if c:
                assert_same(x / c, ox / c)
            if not ox.is_zero():
                assert_same(c / x, c / ox)
        for c in scalars + [ox.a, x.p, Fraction(x.p, x.den + 1)]:
            assert (x == c) == (ox == c)
        for y, oy in pairs:
            assert_same(x + y, ox + oy)
            assert_same(x - y, ox - oy)
            assert_same(x * y, ox * oy)
            if not oy.is_zero():
                assert_same(x / y, ox / oy)
            assert (x == y) == (ox == oy)


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_equal_values_have_equal_coordinates_and_hashes(tag):
    rng = random.Random(900 + tag.d)
    pairs = sample(rng, tag, 30)
    for x, _ in pairs:
        for y, _ in pairs[:8]:
            again = (x + y) - y
            assert (again.p, again.q, again.den) == (x.p, x.q, x.den)
            assert again == x and hash(again) == hash(x)
            if not y.is_zero():
                again = (x * y) / y
                assert again == x and hash(again) == hash(x)
        k = rng.randint(2, 9)
        scaled = "%d/%d+%d/%d*w" % (k * x.a.numerator, k * x.a.denominator,
                                    k * x.b.numerator, k * x.b.denominator)
        again = FieldElement.from_text(scaled, tag)
        assert again == x and hash(again) == hash(x)
        assert_canonical(again)
    values = {x for x, _ in pairs}
    assert len(values) == len({ox.to_text() for _, ox in pairs})


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_text_round_trips(tag):
    rng = random.Random(1000 + tag.d)
    for x, ox in sample(rng, tag, 60):
        text = x.to_text()
        back = FieldElement.from_text(text, tag)
        assert back == x and back.to_text() == text
        assert_same(back, FractionFieldElement.from_text(text, tag))


NON_CANONICAL = ("2/4", "+1/2", "1.5", "-0/3", "1/0", "1_0/3", " 1/2", "1/-2", "007/010",
                 "1/2 ", "3", "-", "", "1/2/3", "1e2", "0x1/2", "١/2")


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_non_canonical_tokens_behave_as_the_oracle(tag):
    texts = []
    for part in NON_CANONICAL:
        texts += [part + "+1/3*w", "-1/3+" + part + "*w", part + "+" + part + "*w"]
    texts += ["1/2+1/3", "1/2+1/3*w*w", "1/2-1/3*w", "1/2+1/3*W", "1/2+1/3*w\n"]
    for text in texts:
        try:
            want = FractionFieldElement.from_text(text, tag)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                FieldElement.from_text(text, tag)
            assert str(got.value) == str(exc), text
            continue
        assert_same(FieldElement.from_text(text, tag), want)
