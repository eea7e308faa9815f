"""The int helpers on coordinate pairs of O against `Fraction` arithmetic.

`field._pair_*` and `field._clear_dens` are the one definition of each
coordinate operation.  On seeded random pairs of all five fields, with
negative and large coordinates, each must agree with the same operation
done by `util.FractionFieldElement`, which shares no code with them.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from hermfj.field import (FieldElement, _clear_dens, _pair_conj, _pair_dot, _pair_mul,
                          _pair_norm, _pair_sqrt_disc, _pair_trace)
from hermfj.hermitian import _from_y, _y_coords
from util import FractionFieldElement, all_tags


def pairs(rng, count):
    """Int pairs: the basis, small, negative and very large coordinates."""
    out = [(0, 0), (1, 0), (0, 1), (-1, 1), (-7, -3)]
    while len(out) < count:
        span = rng.choice((3, 1000, 10 ** 15))
        out.append((rng.randint(-span, span), rng.randint(-span, span)))
    return out


def oracle_sqrt_disc(tag):
    """sqrt(D) = 2w - 1 for w = (1+sqrt(d))/2, else 2w; checked by its square."""
    root = FractionFieldElement(-1 if tag.half_basis else 0, 2, tag)
    assert root * root == tag.disc
    return root


def coords(x):
    return x.a, x.b


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_pair_helpers_agree_with_fraction_arithmetic(tag):
    rng = random.Random(tag.d)
    sample = pairs(rng, 60)
    root = oracle_sqrt_disc(tag)
    for a, b in sample:
        x = FractionFieldElement(a, b, tag)
        assert _pair_conj(a, b, tag) == coords(x.conj())
        assert _pair_norm(a, b, tag) == x.norm()
        assert _pair_trace(a, b, tag) == x.trace()
        assert _pair_sqrt_disc(a, b, tag) == coords(x * root)
        c, e = rng.choice(sample)
        assert _pair_mul(a, b, c, e, tag) == coords(x * FractionFieldElement(c, e, tag))
    for length in range(5):
        xs, ys = rng.sample(sample, length), rng.sample(sample, length)
        total = FractionFieldElement(0, 0, tag)
        for (a, b), (c, e) in zip(xs, ys):
            total = total + FractionFieldElement(a, b, tag) * FractionFieldElement(c, e, tag)
        assert _pair_dot(xs, ys, tag) == coords(total)


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_sqrt_disc_map_inverts_on_the_inverse_different(tag):
    # y/sqrt(D) is the negated image of y over |D|: mapping that back gives y
    rng = random.Random(10 + tag.d)
    disc = abs(tag.disc)
    root = oracle_sqrt_disc(tag)
    for a, b in pairs(rng, 40):
        c, e = _pair_sqrt_disc(a, b, tag)
        assert _pair_sqrt_disc(-c, -e, tag) == (disc * a, disc * b)
        x = _from_y(a, b, tag)
        assert coords(FractionFieldElement(a, b, tag) / root) == (x.a, x.b)
        assert x.is_dual_integral()
        assert _y_coords(x) == (a, b)
        # and every x in O^# comes back from its y
        assert _from_y(*_y_coords(x), tag) == x


@pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)
def test_clear_dens_on_mixed_denominators(tag):
    rng = random.Random(20 + tag.d)
    for length in range(1, 6):
        xs = [FieldElement(Fraction(a, rng.choice((1, 2, 3, 4, 6, 7, 11, 35))),
                           Fraction(b, rng.choice((1, 5, 8, 9, 12))), tag)
              for a, b in pairs(rng, 5 + length)[5:]]
        den, flat = _clear_dens(xs)
        assert den == lcm(*(x.den for x in xs))
        assert len(flat) == 2 * length and all(type(c) is int for c in flat)
        for i, x in enumerate(xs):
            assert FractionFieldElement(Fraction(flat[2 * i], den), Fraction(flat[2 * i + 1], den),
                                        tag) == FractionFieldElement(x.a, x.b, tag)
        # a given common multiple scales every coordinate with it
        big = den * rng.randint(2, 9)
        assert _clear_dens(xs, big) == (big, [c * (big // den) for c in flat])
