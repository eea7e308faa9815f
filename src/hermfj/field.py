"""Exact arithmetic in the norm-Euclidean imaginary quadratic fields.

The five fields Q(sqrt(d)) with d in {-1, -2, -3, -7, -11} are the only
imaginary quadratic fields whose ring of integers O admits division with
remainder under the norm.  Elements are stored in coordinates with respect
to the integral basis {1, w}, where

    w = sqrt(d)        if d = 2, 3 (mod 4)   (discriminant D = 4d)
    w = (1+sqrt(d))/2  if d = 1 (mod 4)      (discriminant D = d)

An element is held as three ints, (p + q*w)/den in lowest terms, so that
arithmetic, equality and hashing are integer operations; `Fraction` appears
only where a rational leaves the module (norms, traces, the coordinates
`a` and `b`).  Every operation is exact and every value is immutable, so
the whole module is safe for concurrent use.

The `_pair_*` helpers define, once each, the int arithmetic of O on pairs
(a, b) = a + b*w: conjugate, product, dot, norm, trace and the sqrt(D) map;
`_clear_dens` brings elements to one denominator.  Other modules use these,
and `hermitian` the Fincke-Pohst search `_lattice_points`, which here lists
the cosets of `coset_points`.

Two fraction-free (Bareiss) eliminations share one Sylvester step.
`_herm_psd_rank` decides semidefiniteness and rank of a Hermitian matrix
on its g rows over O.  `_ldl_pivots` eliminates a symmetric integer
matrix, the 2g x 2g trace form when a point search follows: its pivot rows
give the levels of `_search_levels` and `_lattice_points`, which O^g as a
lattice in Z^{2g} needs and the g rows over O do not.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import floor, gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]

#: The admissible values of d, in the conventional order.
NORM_EUCLIDEAN_D = (-1, -2, -3, -7, -11)


class Immutable:
    """Slotted base of the value classes: each slot is set once, and
    assignment afterwards raises.  `_setters` holds the setters of a
    subclass's slot descriptors, which bypass `__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _fill(self, *values):
        """Sets the slots to `values`, in `__slots__` order; returns self.
        Public constructors call it after validating, and trusted builders
        on `object.__new__(cls)`, without running `__init__`."""
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError("%d values for %d slots" % (len(values), len(setters)))
        for set_slot, value in zip(setters, values):
            set_slot(self, value)
        return self


class FieldTag(Immutable):
    """Identifies one of the five fields and fixes its integral basis.

    `half_basis` is True exactly when d = 1 (mod 4), i.e. when the second
    basis element is (1+sqrt(d))/2 rather than sqrt(d).  `_norm_s` and
    `_norm_t` are the coefficients of the rational quadratic form
    N(a + b*w) = a^2 + s*a*b + t*b^2, so that w^2 = s*w - t.
    """

    __slots__ = ("d", "disc", "half_basis", "_norm_s", "_norm_t")

    def __init__(self, d: int):
        if d not in NORM_EUCLIDEAN_D:
            raise ValueError(
                "d must be one of %s (norm-Euclidean imaginary quadratic); got %r"
                % (list(NORM_EUCLIDEAN_D), d)
            )
        half = d % 4 == 1
        self._fill(d, d if half else 4 * d, half, 1 if half else 0, (1 - d) // 4 if half else -d)

    def __eq__(self, other):
        return isinstance(other, FieldTag) and other.d == self.d

    def __hash__(self):
        return hash(("FieldTag", self.d))

    def __repr__(self):
        return "FieldTag(d=%d, D=%d)" % (self.d, self.disc)


@cache
def make_field(d: int) -> FieldTag:
    """Return the field tag for Q(sqrt(d)), rejecting non-norm-Euclidean d."""
    return FieldTag(d)


# ----------------------------------------------------------------------
# coordinate arithmetic of O: a + b*w as the int pair (a, b)


def _pair_conj(a: int, b: int, tag: FieldTag) -> tuple[int, int]:
    """conj(a + b*w) = (a + s*b) - b*w, as conj(w) = s - w."""
    return a + tag._norm_s * b, -b


def _pair_mul(a: int, b: int, c: int, e: int, tag: FieldTag) -> tuple[int, int]:
    """(a + b*w)(c + e*w), as w^2 = s*w - t."""
    be = b * e
    return a * c - tag._norm_t * be, a * e + b * c + tag._norm_s * be


def _pair_dot(xs: Sequence[tuple], ys: Sequence[tuple], tag: FieldTag) -> tuple[int, int]:
    """sum_k x_k y_k over pairs: `_pair_mul` summed, written out for per-key loops."""
    s, t = tag._norm_s, tag._norm_t
    p = q = 0
    for (a, b), (c, e) in zip(xs, ys):
        be = b * e
        p += a * c - t * be
        q += a * e + b * c + s * be
    return p, q


def _pair_norm(a: int, b: int, tag: FieldTag) -> int:
    """N(a + b*w) = a^2 + s*a*b + t*b^2."""
    return a * a + tag._norm_s * a * b + tag._norm_t * b * b


def _pair_trace(a: int, b: int, tag: FieldTag) -> int:
    """Tr(a + b*w) = 2a + s*b."""
    return 2 * a + tag._norm_s * b


def _pair_sqrt_disc(a: int, b: int, tag: FieldTag) -> tuple[int, int]:
    """(a + b*w) sqrt(D) = -(s*a + 2t*b) + (2a + s*b)*w, as sqrt(D) = 2w - s;
    and y/sqrt(D) is the negated image of y over |D|, as sqrt(D)^2 = -|D|."""
    s = tag._norm_s
    return -(s * a + 2 * tag._norm_t * b), 2 * a + s * b


def _clear_dens(xs: Sequence["FieldElement"], den: int | None = None) -> tuple[int, list[int]]:
    """(den, [p_1, q_1, p_2, q_2, ...]) with x_i = (p_i + q_i*w)/den, for den
    the lcm of the denominators of `xs`, or a given multiple of each."""
    if den is None:
        den = lcm(*(x.den for x in xs))
    return den, [c * (den // x.den) for x in xs for c in (x.p, x.q)]


def _in_field(xs: Iterable["FieldElement"], tag: "FieldTag", what: str) -> None:
    """Raises ValueError, naming it as a `what`, at the first of `xs` over a
    field other than that of `tag`, whose ints would be misread under tag."""
    for x in xs:
        if x.tag.d != tag.d:
            raise ValueError("%s %r is not in the field d=%d" % (what, x, tag.d))


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


#: a `to_text` token, up to lowest terms
_TOKEN = re.compile(r"(-?\d+)/(\d+)\+(-?\d+)/(\d+)\*w", re.ASCII)


class FieldElement(Immutable):
    """An element (p + q*w)/den of E = Q(sqrt(d)), in exact basis coordinates.

    p, q and den are ints with den > 0 and gcd(p, q, den) = 1.  This form is
    canonical, so equality and hashing compare ints.  `a` = p/den and
    `b` = q/den are the basis coordinates as `Fraction`s.
    """

    __slots__ = ("p", "q", "den", "tag")

    def __init__(self, a: RationalLike, b: RationalLike, tag: FieldTag):
        if type(a) is int and type(b) is int:
            _init(self, a, b, 1, tag)
            return
        a, b = _as_fraction(a), _as_fraction(b)
        da, db = a.denominator, b.denominator
        den = da * db // gcd(da, db)
        # lowest terms for a and b make (p, q, den) canonical
        _init(self, a.numerator * (den // da), b.numerator * (den // db), den, tag)

    @staticmethod
    def _from_ints(p: int, q: int, den: int, tag: FieldTag) -> "FieldElement":
        """(p + q*w)/den for ints with den > 0, brought to canonical form by
        one gcd; skips the checks of `__init__`."""
        if den != 1:
            g = gcd(p, q, den)
            if g != 1:
                p, q, den = p // g, q // g, den // g
        x = object.__new__(FieldElement)
        _init(x, p, q, den, tag)
        return x

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.den)

    # ------------------------------------------------------------------
    # constructors

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
        return not self.p and not self.q

    def as_rational(self) -> Fraction:
        if self.q:
            raise ValueError("%r is not rational" % (self,))
        return Fraction(self.p, self.den)

    def conj(self) -> "FieldElement":
        """The image under the nontrivial field automorphism; conj(w) = s - w."""
        return FieldElement._from_ints(*_pair_conj(self.p, self.q, self.tag), self.den, self.tag)

    def norm(self) -> Fraction:
        """N(x) = x * conj(x), a nonnegative rational."""
        return Fraction(_pair_norm(self.p, self.q, self.tag), self.den * self.den)

    def trace(self) -> Fraction:
        """Tr(x) = x + conj(x), a rational."""
        return Fraction(_pair_trace(self.p, self.q, self.tag), self.den)

    def is_integral(self) -> bool:
        """Membership in the ring of integers O."""
        return self.den == 1

    def is_dual_integral(self) -> bool:
        """Membership in the inverse different O^# = (1/sqrt(D)) O, read off den*sqrt(D)*x."""
        a, b = _pair_sqrt_disc(self.p, self.q, self.tag)
        return not a % self.den and not b % self.den

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.tag is not self.tag and other.tag != self.tag:
                raise ValueError("field mismatch: d=%d vs d=%d" % (self.tag.d, other.tag.d))
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(other, 0, self.tag)
        return NotImplemented

    def _sum(self, other, sign: int):
        """self + sign*other, over one denominator."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        return FieldElement._from_ints(self.p * d2 + sign * other.p * d1,
                                       self.q * d2 + sign * other.q * d1, d1 * d2, self.tag)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement._from_ints(-self.p, -self.q, self.den, self.tag)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = _pair_mul(self.p, self.q, other.p, other.q, self.tag)
        return FieldElement._from_ints(p, q, self.den * other.den, self.tag)

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        """conj(x) / N(x), with N(x) = n/den^2."""
        p, q, den, tag = self.p, self.q, self.den, self.tag
        n = _pair_norm(p, q, tag)
        if not n:
            raise ZeroDivisionError("inverse of zero field element")
        a, b = _pair_conj(p, q, tag)
        return FieldElement._from_ints(den * a, den * b, n, tag)

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
        if isinstance(other, FieldElement):
            return (other.p == self.p and other.q == self.q and other.den == self.den
                    and other.tag.d == self.tag.d)
        if isinstance(other, int):
            return not self.q and self.den == 1 and self.p == other
        if isinstance(other, Fraction):
            return not self.q and self.den == other.denominator and self.p == other.numerator
        return False

    def __hash__(self):
        return hash((self.p, self.q, self.den))

    def sort_key(self) -> tuple:
        return (self.a, self.b)

    def to_text(self) -> str:
        """Serialize as "a/b+c/d*w"; always lowest terms, positive denominators."""
        p, q, den = self.p, self.q, self.den
        if den == 1:
            return "%d/1+%d/1*w" % (p, q)
        ga, gb = gcd(p, den), gcd(q, den)
        return "%d/%d+%d/%d*w" % (p // ga, den // ga, q // gb, den // gb)

    @classmethod
    def from_text(cls, text: str, tag: FieldTag) -> "FieldElement":
        """Parse the exact output of `to_text`; round-trips bit-identically."""
        return cls._from_ints(*_parse_token(text), tag)

    def __repr__(self):
        return "FieldElement(%s, d=%d)" % (self.to_text(), self.tag.d)

    __str__ = __repr__


def _init(x: FieldElement, p: int, q: int, den: int, tag: FieldTag):
    """Stores the slots of x: `Immutable._fill` unrolled, on the same setters."""
    set_p, set_q, set_den, set_tag = FieldElement._setters
    set_p(x, p)
    set_q(x, q)
    set_den(x, den)
    set_tag(x, tag)


def _parse_token(text: str) -> tuple[int, int, int]:
    """(p, q, den), den > 0, with (p + q*w)/den the element `text` names, up
    to lowest terms.  A token of the `to_text` shape, in lowest terms or not,
    is read straight into ints; any other goes through `Fraction`, which
    fixes the accepted language and the errors."""
    match = _TOKEN.fullmatch(text)
    if match:
        n1, d1, n2, d2 = map(int, match.groups())
        if d1 and d2:
            return n1 * d2, n2 * d1, d1 * d2
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
    return a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator


def unit_group(tag: FieldTag) -> tuple[FieldElement, ...]:
    """All units of O: the (a, b) with N = 1 within coordinate bound 1, in (a, b) order."""
    return tuple(FieldElement(a, b, tag) for a in (-1, 0, 1) for b in (-1, 0, 1)
                 if _pair_norm(a, b, tag) == 1)


def euclidean_round(beta: FieldElement) -> FieldElement:
    """The integer alpha minimizing N(beta - alpha); ties broken to the
    lexicographically smallest (a, b) coordinates.

    Any minimizer satisfies N < 1, which pins its coordinates to the
    floor/ceil of beta's (after shearing off the w-coordinate), so four
    candidates always suffice.  They are compared on ints, by
    den^2 N(beta - alpha).
    """
    tag = beta.tag
    p, q, den = beta.p, beta.q, beta.den
    best = None
    b_floor = q // den
    for qq in (b_floor, b_floor + 1):
        # given qq, the first coordinate minimizes a perfect square in it:
        # floor(a + (b - qq)/2) for w = (1+sqrt(d))/2, else floor(a)
        c_floor = (2 * p + q - qq * den) // (2 * den) if tag.half_basis else p // den
        y = q - qq * den
        for pp in (c_floor, c_floor + 1):
            x = p - pp * den
            key = (_pair_norm(x, y, tag), pp, qq)
            if best is None or key < best:
                best = key
    return FieldElement(best[1], best[2], tag)


class EuclideanConstant(Immutable):
    """The deep-hole norm mu of the lattice O and the derived constants.

    `c` is the uniform constant adopted as 1 - mu, so that rounding proves
    the componentwise small-representative bound; `c_squared` = 1 - mu^2 is
    the alternate squared-norm reading, exposed for comparison.
    """

    __slots__ = ("tag", "mu", "c", "c_squared", "deep_hole")

    def __init__(self, tag: FieldTag, mu: Fraction, deep_hole: FieldElement):
        self._fill(tag, mu, 1 - mu, 1 - mu * mu, deep_hole)

    def __repr__(self):
        return "EuclideanConstant(d=%d, mu=%s, c=%s)" % (self.tag.d, self.mu, self.c)


def euclidean_constant(tag: FieldTag) -> EuclideanConstant:
    """Exact mu and c = 1 - mu from the circumcenter of the fundamental cell.

    The Delaunay cells of O are translates of the cell on {0, 1, w}
    (a rectangle when w = sqrt(d), and then the fourth vertex lies on the
    same circumcircle), so the deepest hole is the circumcenter p solving
    2*B(p, e_i) = N(e_i) for the polarization B of the norm form.
    """
    s, t = tag._norm_s, tag._norm_t
    # Solve [[2, s], [s, 2t]] p = (1, t) by Cramer's rule; the determinant is |D|.
    hole = FieldElement(Fraction(2 * t - s * t, -tag.disc), Fraction(2 * t - s, -tag.disc), tag)
    return EuclideanConstant(tag, hole.norm(), hole)


def _ldl_pivots(gram: list[list[int]]) -> list[tuple[int, int, list[int]]] | None:
    """The fraction-free (Bareiss) LDL^T of a symmetric integer `gram`, read
    from its upper triangle: the pivot rows (k, p_k, U_k), or None when
    `gram` is not positive semidefinite.

    The pivot p_k = U_kk is the leading principal minor on the kept indices
    up to k; the rows below become p_k/p_prev times their Schur complement,
    in integers by Sylvester's identity.  A negative pivot rules out
    semidefiniteness, and so does a zero pivot with a nonzero U_kj (the 2x2
    minor on k, j of the Schur complement is negative).  A zero pivot over a
    zero row is dropped, so the pivot count is the rank.
    """
    n = len(gram)
    rows = [list(row) for row in gram]
    prev = 1
    pivots = []
    for k in range(n):
        row = rows[k]
        piv = row[k]
        if piv <= 0:
            if piv or any(row[k + 1:]):
                return None
            continue
        pivots.append((k, piv, row))
        for i in range(k + 1, n):
            target, f = rows[i], row[i]
            for j in range(i, n):
                target[j] = (piv * target[j] - f * row[j]) // prev
        prev = piv
    return pivots


def _herm_psd_rank(key: Sequence[int], g: int, tag: FieldTag) -> int | None:
    """The rank of a g x g Hermitian matrix T over E if it is positive
    semidefinite, else None, from the fraction-free (Bareiss) LDL* of D*T
    over O.  `key` is laid out as `hermitian.HermMatrix._key`: D, then the
    pair (p, q) of D*t_ij = p + q*w for i <= j, row by row; D is not read.

    Step k replaces t_ij, k < i <= j, by (p_k t_ij - conj(t_ki) t_kj) / p_prev
    for the pivot p_k = t_kk and the last nonzero pivot p_prev (1 before
    the first).  That is the Sylvester step of `_ldl_pivots`, on g rows of
    O instead of the 2g rows of the trace form: each entry becomes a minor
    of D*T on the kept indices, in O, so both coordinates divide exactly,
    and each diagonal entry stays in Z.  Pivots, zero rows and the rank are
    read as in `_ldl_pivots`.  The pair products are written out.
    """
    s, t = tag._norm_s, tag._norm_t
    rows, at = [], 1
    for n in range(2 * g, 0, -2):  # rows[i] holds the pairs of t_ij for j >= i
        rows.append(list(key[at:at + n]))
        at += n
    prev, rank = 1, 0
    for k, row in enumerate(rows):
        piv = row[0]
        if piv <= 0:
            if piv or any(row):
                return None
            continue
        rank += 1
        n = len(row)
        for i in range(2, n, 2):  # row k + i/2 from conj(t_ki) t_kj
            a, b = row[i], row[i + 1]
            c, e = a + s * b, -b
            target = rows[k + i // 2]
            for j in range(i, n, 2):
                x, y = row[j], row[j + 1]
                ey = e * y
                target[j - i] = (piv * target[j - i] - c * x + t * ey) // prev
                target[j - i + 1] = (piv * target[j - i + 1] - c * y - e * x - s * ey) // prev
        prev = piv
    return rank


def _search_levels(gram: list[list[int]],
                   pivots: list | None = None) -> tuple[int, list[tuple[int, int, list]]]:
    """The LDL^T of a positive definite integer `gram`, cleared to ints, from
    its `_ldl_pivots` (passed as `pivots` by a caller that has them).

    Returns (scale, levels) with levels[i] = (c_i, K_i, [(j, l_ji) for j > i,
    l_ji != 0]), such that scale * v^T gram v = sum_i K_i x_i^2 with
    x_i = c_i v_i + sum_j l_ji v_j.  L_jk = U_kj/p_k and D_k = p_k/p_(k-1);
    dividing row k by its gcd g_k gives c_k = p_k/g_k, l_jk = U_kj/g_k and
    D_k/c_k^2 = g_k^2/(p_(k-1) p_k), each in lowest terms.
    """
    n = len(gram)
    prev = 1
    cleared = []
    for k, piv, row in _ldl_pivots(gram) if pivots is None else pivots:
        g = gcd(piv, *row[k + 1:])
        num, den = g * g, prev * piv
        h = gcd(num, den)
        cleared.append((piv // g, num // h, den // h,
                        [(j, row[j] // g) for j in range(k + 1, n) if row[j]]))
        prev = piv
    scale = lcm(*(den for _c, _num, den, _terms in cleared))
    return scale, [(c, scale // den * num, terms) for c, num, den, terms in cleared]


def _lattice_points(ldl: tuple[int, list[tuple[int, int, list]]], shift: tuple[int, ...],
                    step: int, bound: int,
                    limit: int | None = None) -> list[tuple[int, tuple[int, ...]]] | None:
    """Every (Q(v), v) with v = shift + step*z for z in Z^n and Q(v) =
    v^T gram v <= bound, unordered, for a positive definite integer gram
    with `_search_levels` (scale, levels) = `ldl`.  With a `limit`, None as
    soon as more than `limit` points are found, so that no more are listed.

    Fincke-Pohst in integers on that cleared LDL^T, with
    scale * Q(v) = sum_i K_i x_i^2.  Coordinates are fixed from the last
    down; given those above it, x_i = c_i step z_i + off_i with off_i an
    integer, and K_i x_i^2 within the remaining budget bounds z_i by `isqrt`
    and floor division.  The levels are walked in a loop, not by recursion,
    so n is not bounded by the interpreter's recursion limit.
    """
    if bound < 0:
        return []
    scale, cleared = ldl
    levels = [(c * step, c * shift[i], k, terms) for i, (c, k, terms) in enumerate(cleared)]
    n = len(levels)
    top = scale * bound
    v = list(shift)
    out = []
    full = 0 if limit is None else limit + 1  # len(out) is never 0 after an append
    # level i resumes at (z, end, off) with the budget rem[i + 1] the levels above left
    rem = [0] * n + [top]
    saved = [None] * n
    i = n - 1
    while True:
        c, off, k, terms = levels[i]
        for j, l in terms:
            off += l * v[j]
        r = isqrt(rem[i + 1] // k)
        z, end = -((r + off) // c), (r - off) // c
        while True:
            if z > end:  # level i is done: resume the level above
                i += 1
                if i == n:
                    return out
                c, _o, k, _t = levels[i]
                z, end, off = saved[i]
                z += 1
                continue
            x = c * z + off
            v[i] = shift[i] + step * z
            left = rem[i + 1] - k * x * x
            if i:
                saved[i] = (z, end, off)
                rem[i] = left
                i -= 1
                break
            out.append(((top - left) // scale, tuple(v)))
            if len(out) == full:
                return None
            z += 1


def _norm_levels(g: int, tag: FieldTag) -> tuple[int, list[tuple[int, int, list]]]:
    """The `_search_levels` of twice the norm form sum_i N(y_i) on O^g, in
    the coordinates (a_1, b_1, ..., a_g, b_g): g diagonal blocks [[2, s],
    [s, 2t]], so the levels of one block, shifted to each coordinate pair."""
    s, t = tag._norm_s, tag._norm_t
    scale, block = _search_levels([[2, s], [s, 2 * t]])
    return scale, [(c, k, [(j + i, l) for j, l in terms])
                   for i in range(0, 2 * g, 2) for c, k, terms in block]


def coset_points(shift: FieldElement, m: int, bound: RationalLike) -> list[FieldElement]:
    """All x in shift + m*O with N(x) <= bound, for any shift in E and
    m >= 1, sorted by (norm, a, b): one `_lattice_points` search on den*x."""
    if m < 1:
        raise ValueError("m must be >= 1, got %r" % (m,))
    tag, den = shift.tag, shift.den
    points = sorted(_lattice_points(_norm_levels(1, tag), (shift.p, shift.q), m * den,
                                    floor(2 * den * den * _as_fraction(bound))))
    return [FieldElement._from_ints(p, q, den, tag) for _q, (p, q) in points]
