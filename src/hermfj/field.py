"""Exact arithmetic in the norm-Euclidean imaginary quadratic fields.

The five fields Q(sqrt(d)) with d in {-1, -2, -3, -7, -11} are the only
imaginary quadratic fields whose ring of integers O admits division with
remainder under the norm.  Elements are stored in coordinates with respect
to the integral basis {1, w}, where

    w = sqrt(d)        if d = 2, 3 (mod 4)   (discriminant D = 4d)
    w = (1+sqrt(d))/2  if d = 1 (mod 4)      (discriminant D = d)

All coordinates are `fractions.Fraction`; every operation is exact and every
value is immutable, so the whole module is safe for concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import ceil, floor
from typing import Union

RationalLike = Union[int, Fraction]

#: The admissible values of d, in the conventional order.
NORM_EUCLIDEAN_D = (-1, -2, -3, -7, -11)


class Immutable:
    """Slotted base of the value classes: constructors set each slot once
    with `object.__setattr__`, and assignment afterwards raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class FieldTag(Immutable):
    """Identifies one of the five fields and fixes its integral basis.

    `half_basis` is True exactly when d = 1 (mod 4), i.e. when the second
    basis element is (1+sqrt(d))/2 rather than sqrt(d).
    """

    __slots__ = ("d", "disc", "half_basis")

    def __init__(self, d: int):
        if d not in NORM_EUCLIDEAN_D:
            raise ValueError(
                "d must be one of %s (norm-Euclidean imaginary quadratic); got %r"
                % (list(NORM_EUCLIDEAN_D), d)
            )
        object.__setattr__(self, "d", d)
        half = d % 4 == 1
        object.__setattr__(self, "half_basis", half)
        object.__setattr__(self, "disc", d if half else 4 * d)

    def __eq__(self, other):
        return isinstance(other, FieldTag) and other.d == self.d

    def __hash__(self):
        return hash(("FieldTag", self.d))

    def __repr__(self):
        return "FieldTag(d=%d, D=%d)" % (self.d, self.disc)

    # Coefficients of the rational quadratic form N(a + b*w) = a^2 + s*a*b + t*b^2.
    @property
    def _norm_s(self) -> int:
        return 1 if self.half_basis else 0

    @property
    def _norm_t(self) -> int:
        return (1 - self.d) // 4 if self.half_basis else -self.d


@cache
def make_field(d: int) -> FieldTag:
    """Return the field tag for Q(sqrt(d)), rejecting non-norm-Euclidean d."""
    return FieldTag(d)


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


class FieldElement(Immutable):
    """An element a + b*w of E = Q(sqrt(d)), in exact basis coordinates."""

    __slots__ = ("a", "b", "tag", "_hash")

    def __init__(self, a: RationalLike, b: RationalLike, tag: FieldTag):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_hash", None)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_rational(cls, x: RationalLike, tag: FieldTag) -> "FieldElement":
        return cls(x, 0, tag)

    @classmethod
    def zero(cls, tag: FieldTag) -> "FieldElement":
        return cls(0, 0, tag)

    @classmethod
    def one(cls, tag: FieldTag) -> "FieldElement":
        return cls(1, 0, tag)

    @classmethod
    def omega(cls, tag: FieldTag) -> "FieldElement":
        return cls(0, 1, tag)

    # ------------------------------------------------------------------
    # structure

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def as_rational(self) -> Fraction:
        if self.b:
            raise ValueError("%r is not rational" % (self,))
        return self.a

    def conj(self) -> "FieldElement":
        """The image under the nontrivial field automorphism."""
        if self.tag.half_basis:
            # conj(w) = 1 - w
            return FieldElement(self.a + self.b, -self.b, self.tag)
        return FieldElement(self.a, -self.b, self.tag)

    def norm(self) -> Fraction:
        """N(x) = x * conj(x), a nonnegative rational."""
        a, b, tag = self.a, self.b, self.tag
        if tag.half_basis:
            return a * a + a * b + b * b * tag._norm_t
        return a * a + b * b * tag._norm_t

    def trace(self) -> Fraction:
        """Tr(x) = x + conj(x), a rational."""
        if self.tag.half_basis:
            return 2 * self.a + self.b
        return 2 * self.a

    def is_integral(self) -> bool:
        """Membership in the ring of integers O."""
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_dual_integral(self) -> bool:
        """Membership in the inverse different O^# = (1/sqrt(D)) O."""
        return (self * sqrt_disc(self.tag)).is_integral()

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.tag != self.tag:
                raise ValueError("field mismatch: d=%d vs d=%d" % (self.tag.d, other.tag.d))
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(other, 0, self.tag)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.a + other.a, self.b + other.b, self.tag)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.a - other.a, self.b - other.b, self.tag)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(-self.a, -self.b, self.tag)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        tag = self.tag
        if tag.half_basis:
            # w^2 = w - (1-d)/4
            t = tag._norm_t
            return FieldElement(a * c - b * e * t, a * e + b * c + b * e, tag)
        return FieldElement(a * c + b * e * tag.d, a * e + b * c, tag)

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero field element")
        co = self.conj()
        return FieldElement(co.a / n, co.b / n, self.tag)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int) -> "FieldElement":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = FieldElement.one(self.tag)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # ------------------------------------------------------------------
    # comparison, hashing, text form

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return (
            isinstance(other, FieldElement)
            and other.tag == self.tag
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.a, self.b, self.tag.d))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self) -> tuple:
        return (self.a, self.b)

    def to_text(self) -> str:
        """Serialize as "a/b+c/d*w"; always lowest terms, positive denominators."""
        return "%d/%d+%d/%d*w" % (
            self.a.numerator,
            self.a.denominator,
            self.b.numerator,
            self.b.denominator,
        )

    @classmethod
    def from_text(cls, text: str, tag: FieldTag) -> "FieldElement":
        """Parse the exact output of `to_text`; round-trips bit-identically."""
        body, sep, w_part = text.partition("*w")
        if sep != "*w" or w_part != "":
            raise ValueError("malformed field element %r" % text)
        plus = body.find("+", 1)
        if plus < 0:
            raise ValueError("malformed field element %r" % text)
        try:
            a = Fraction(body[:plus])
            b = Fraction(body[plus + 1 :])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("malformed field element %r" % text) from exc
        return cls(a, b, tag)

    def __repr__(self):
        return "FieldElement(%s, d=%d)" % (self.to_text(), self.tag.d)

    __str__ = __repr__


@cache
def sqrt_disc(tag: FieldTag) -> FieldElement:
    """The element sqrt(D) generating the different: 2w-1 if d=1 (mod 4), else 2w."""
    return FieldElement(-1, 2, tag) if tag.half_basis else FieldElement(0, 2, tag)


def unit_group(tag: FieldTag) -> tuple[FieldElement, ...]:
    """All units of O, found by solving N(u)=1 within coordinate bound 1."""
    found = []
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            u = FieldElement(a, b, tag)
            if u.norm() == 1:
                found.append(u)
    found.sort(key=FieldElement.sort_key)
    return tuple(found)


def euclidean_round(beta: FieldElement) -> FieldElement:
    """The integer alpha minimizing N(beta - alpha); ties broken to the
    lexicographically smallest (a, b) coordinates.

    Any minimizer satisfies N < 1, which pins its coordinates to the
    floor/ceil of beta's (after shearing off the w-coordinate), so four
    candidates always suffice.
    """
    tag = beta.tag
    best = None
    b_floor = floor(beta.b)
    for q in (b_floor, b_floor + 1):
        # given q, the first coordinate minimizes a perfect square in p
        c = beta.a + Fraction(beta.b - q, 2) if tag.half_basis else beta.a
        c_floor = floor(c)
        for p in (c_floor, c_floor + 1):
            alpha = FieldElement(p, q, tag)
            n = (beta - alpha).norm()
            key = (n, p, q)
            if best is None or key < best[0]:
                best = (key, alpha)
    return best[1]


class EuclideanConstant(Immutable):
    """The deep-hole norm mu of the lattice O and the derived constants.

    `c` is the uniform constant adopted as 1 - mu, so that rounding proves
    the componentwise small-representative bound; `c_squared` = 1 - mu^2 is
    the alternate squared-norm reading, exposed for comparison.
    """

    __slots__ = ("tag", "mu", "c", "c_squared", "deep_hole")

    def __init__(self, tag: FieldTag, mu: Fraction, deep_hole: FieldElement):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "c", 1 - mu)
        object.__setattr__(self, "c_squared", 1 - mu * mu)
        object.__setattr__(self, "deep_hole", deep_hole)

    def __repr__(self):
        return "EuclideanConstant(d=%d, mu=%s, c=%s)" % (self.tag.d, self.mu, self.c)


def euclidean_constant(tag: FieldTag) -> EuclideanConstant:
    """Exact mu and c = 1 - mu from the circumcenter of the fundamental cell.

    The Delaunay cells of O are translates of the cell on {0, 1, w}
    (a rectangle when w = sqrt(d), and then the fourth vertex lies on the
    same circumcircle), so the deepest hole is the circumcenter p solving
    2*B(p, e_i) = N(e_i) for the polarization B of the norm form.
    """
    s = Fraction(tag._norm_s)  # 2*B12
    t = Fraction(tag._norm_t)  # B22
    # Solve [[2, s], [s, 2t]] p = (1, t).
    det = 4 * t - s * s
    p1 = (2 * t - s * t) / det
    p2 = (2 * t - s) / det
    hole = FieldElement(p1, p2, tag)
    return EuclideanConstant(tag, hole.norm(), hole)


def _isqrt_upper(x: Fraction) -> int:
    """An integer >= sqrt(x) for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    from math import isqrt

    return isqrt(x.numerator * x.denominator) // x.denominator + 1


def coset_points(shift: FieldElement, m: int, bound: Fraction) -> list[FieldElement]:
    """All x in shift + m*O with N(x) <= bound, sorted by (norm, a, b).

    Coordinate ranges are over-approximated from the positive definite norm
    form and every candidate is filtered by the exact norm.
    """
    tag = shift.tag
    bound = _as_fraction(bound)
    out = []
    if bound < 0:
        return out
    t = Fraction(tag._norm_t)
    # N(a + b*w) >= (t - s^2/4) b^2 with s, t as in the norm form
    b_quad = t - Fraction(tag._norm_s, 2) ** 2
    rb = _isqrt_upper(bound / b_quad)
    q_lo = ceil((-Fraction(rb) - shift.b) / m)
    q_hi = floor((Fraction(rb) - shift.b) / m)
    for q in range(q_lo, q_hi + 1):
        b = shift.b + m * q
        rem = bound - b_quad * b * b
        if rem < 0:
            continue
        # center of the perfect square in a: a = -s*b/2
        center = -Fraction(tag._norm_s) * b / 2
        ra = _isqrt_upper(rem) if rem > 0 else 0
        p_lo = ceil((center - ra - shift.a) / m)
        p_hi = floor((center + ra - shift.a) / m)
        for p in range(p_lo, p_hi + 1):
            x = FieldElement(shift.a + m * p, b, tag)
            if x.norm() <= bound:
                out.append(x)
    out.sort(key=lambda x: (x.norm(), x.a, x.b))
    return out
