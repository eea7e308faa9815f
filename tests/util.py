"""Shared brute-force oracles and fixture builders for the test suite.

Everything here is deliberately independent of the library's own algorithms:
oracles recompute expected values by enumeration or direct linear algebra.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hermfj.field import FieldElement, FieldTag, Immutable, make_field

ALL_D = (-1, -2, -3, -7, -11)


def norm_form(tag: FieldTag):
    """Integer coefficients (s, t) with N(a + b*w) = a^2 + s*a*b + t*b^2."""
    if tag.half_basis:
        return 1, (1 - tag.d) // 4
    return 0, -tag.d


def qval(tag: FieldTag, a, b) -> Fraction:
    s, t = norm_form(tag)
    return Fraction(a * a + s * a * b + t * b * b)


def qbil(tag: FieldTag, a1, b1, a2, b2) -> Fraction:
    """Polarization: B(x, y) with Q(x) = B(x, x)."""
    s, t = norm_form(tag)
    return Fraction(2 * a1 * a2 + s * (a1 * b2 + a2 * b1) + 2 * t * b1 * b2, 2)


def min_dist_to_lattice(tag: FieldTag, a: Fraction, b: Fraction, window: int = 3) -> Fraction:
    """min over alpha in O of N((a, b) - alpha), brute force over a box."""
    best = None
    for p in range(int(a) - window, int(a) + window + 1):
        for q in range(int(b) - window, int(b) + window + 1):
            v = qval(tag, a - p, b - q)
            if best is None or v < best:
                best = v
    return best


def deep_hole_oracle(tag: FieldTag) -> Fraction:
    """Covering radius squared of O by brute force over Delaunay circumcenters.

    Enumerates every triple of lattice points around the fundamental square,
    computes the circumcenter of each nondegenerate triple with respect to
    the norm form by Cramer's rule, and takes the largest min-distance over
    centers landing near the fundamental domain.  All arithmetic is integral
    (coordinates scaled by the Cramer determinant).
    """
    s, t = norm_form(tag)
    pts = [(p, q) for p in range(-1, 3) for q in range(-1, 3)]
    best = Fraction(0)
    n = len(pts)
    for i in range(n):
        p1 = pts[i]
        for j in range(i + 1, n):
            p2 = pts[j]
            v2 = (p2[0] - p1[0], p2[1] - p1[1])
            a11 = 2 * v2[0] + s * v2[1]
            a12 = s * v2[0] + 2 * t * v2[1]
            r2 = v2[0] * v2[0] + s * v2[0] * v2[1] + t * v2[1] * v2[1]
            for k in range(j + 1, n):
                p3 = pts[k]
                v3 = (p3[0] - p1[0], p3[1] - p1[1])
                a21 = 2 * v3[0] + s * v3[1]
                a22 = s * v3[0] + 2 * t * v3[1]
                det = a11 * a22 - a12 * a21
                if det == 0:
                    continue
                r3 = v3[0] * v3[0] + s * v3[0] * v3[1] + t * v3[1] * v3[1]
                # center * det, in coordinates
                ca = (r2 * a22 - r3 * a12) + p1[0] * det
                cb = (a11 * r3 - a21 * r2) + p1[1] * det
                if det < 0:
                    ca, cb, det = -ca, -cb, -det
                if not (-det <= ca <= 2 * det and -det <= cb <= 2 * det):
                    continue
                h_num = None
                for pa in range(-3, 5):
                    xa = ca - pa * det
                    for pb in range(-3, 5):
                        xb = cb - pb * det
                        v = xa * xa + s * xa * xb + t * xb * xb
                        if h_num is None or v < h_num:
                            h_num = v
                h = Fraction(h_num, det * det)
                if h > best:
                    best = h
    return best


def grid_max_min_dist(tag: FieldTag, steps: int = 200) -> Fraction:
    """Max over an (steps x steps) rational grid of the min distance to O.

    Pure integer arithmetic: coordinates k/steps are scaled by steps and the
    quadratic form by steps^2.  Grid points lie in [0,1)^2, so the nearest
    lattice point has coordinates in {-1,0,1,2} x {0,1}.
    """
    s, t = norm_form(tag)
    n = steps
    best = 0
    cands = [(p * n, q * n) for p in (-1, 0, 1, 2) for q in (0, 1)]
    for i in range(n):
        for j in range(n):
            m = None
            for pn, qn in cands:
                x = i - pn
                y = j - qn
                v = x * x + s * x * y + t * y * y
                if m is None or v < m:
                    m = v
            if m > best:
                best = m
    return Fraction(best, n * n)


def random_field_element(rng: random.Random, tag: FieldTag, den: int = 4, span: int = 8) -> FieldElement:
    a = Fraction(rng.randint(-span, span), rng.randint(1, den))
    b = Fraction(rng.randint(-span, span), rng.randint(1, den))
    return FieldElement(a, b, tag)


def random_integral_element(rng: random.Random, tag: FieldTag, span: int = 3) -> FieldElement:
    return FieldElement(rng.randint(-span, span), rng.randint(-span, span), tag)


def all_tags():
    return [make_field(d) for d in ALL_D]


def sqrt_disc(tag: FieldTag) -> FieldElement:
    """The element sqrt(D) generating the different (the former
    `field.sqrt_disc`): 2w - 1 for w = (1+sqrt(d))/2, else 2w."""
    return FieldElement(-1 if tag.half_basis else 0, 2, tag)


# ----------------------------------------------------------------------
# field element oracle (the library's predecessor, on Fractions)


class FractionFieldElement(Immutable):
    """An element a + b*w of E = Q(sqrt(d)) with `Fraction` coordinates a, b:
    the predecessor of `field.FieldElement`, which stores (p + q*w)/den in
    ints.  Same methods, same text form; results stay in this class."""

    __slots__ = ("a", "b", "tag", "_hash")

    def __init__(self, a, b, tag: FieldTag):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_hash", None)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def one(cls, tag: FieldTag) -> "FractionFieldElement":
        return cls(1, 0, tag)

    # ------------------------------------------------------------------
    # structure

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def as_rational(self) -> Fraction:
        if self.b:
            raise ValueError("%r is not rational" % (self,))
        return self.a

    def conj(self) -> "FractionFieldElement":
        """The image under the nontrivial field automorphism."""
        if self.tag.half_basis:
            # conj(w) = 1 - w
            return FractionFieldElement(self.a + self.b, -self.b, self.tag)
        return FractionFieldElement(self.a, -self.b, self.tag)

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
        """Membership in the inverse different O^# = (1/sqrt(D)) O, read off
        sqrt(D) (a + b*w), which is 2db + 2a*w if w = sqrt(d), else
        -(a + 2tb) + (2a + b)*w with t = N(w)."""
        a, b = self.a, self.b
        tag = self.tag
        if tag.half_basis:
            return (a + 2 * tag._norm_t * b).denominator == 1 and (2 * a + b).denominator == 1
        return (2 * a).denominator == 1 and (2 * tag.d * b).denominator == 1

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "FractionFieldElement":
        if isinstance(other, FractionFieldElement):
            if other.tag != self.tag:
                raise ValueError("field mismatch: d=%d vs d=%d" % (self.tag.d, other.tag.d))
            return other
        if isinstance(other, (int, Fraction)):
            return FractionFieldElement(other, 0, self.tag)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionFieldElement(self.a + other.a, self.b + other.b, self.tag)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionFieldElement(self.a - other.a, self.b - other.b, self.tag)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FractionFieldElement(-self.a, -self.b, self.tag)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        tag = self.tag
        if tag.half_basis:
            # w^2 = w - (1-d)/4
            t = tag._norm_t
            return FractionFieldElement(a * c - b * e * t, a * e + b * c + b * e, tag)
        return FractionFieldElement(a * c + b * e * tag.d, a * e + b * c, tag)

    __rmul__ = __mul__

    def inv(self) -> "FractionFieldElement":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero field element")
        co = self.conj()
        return FractionFieldElement(co.a / n, co.b / n, self.tag)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int) -> "FractionFieldElement":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = FractionFieldElement.one(self.tag)
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
            isinstance(other, FractionFieldElement)
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
    def from_text(cls, text: str, tag: FieldTag) -> "FractionFieldElement":
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
        return "FractionFieldElement(%s, d=%d)" % (self.to_text(), self.tag.d)

    __str__ = __repr__


# ----------------------------------------------------------------------
# definiteness and hermicity oracles (the library's predecessors)


def principal_minor(m, idx) -> Fraction:
    """det of the principal submatrix of the HermMatrix m on the index tuple
    idx, by cofactor expansion; rational since the submatrix is Hermitian."""
    return _minor_of_rows(m.entries, idx)


def _minor_of_rows(rows, idx) -> Fraction:
    sub = tuple(tuple(rows[i][j] for j in idx) for i in idx)
    return det_by_cofactors(sub).as_rational()


def det_by_cofactors(x):
    """det of a nonempty square matrix of field elements by Laplace expansion
    along the first row: n! terms (the former `linalg.det`)."""
    n = len(x)
    if n == 1:
        return x[0][0]
    total = None
    for j in range(n):
        minor = tuple(tuple(row[c] for c in range(n) if c != j) for row in x[1:])
        term = x[0][j] * det_by_cofactors(minor)
        term = term if j % 2 == 0 else -term
        total = term if total is None else total + term
    return total


def adjugate_by_cofactors(x):
    """The adjugate, entry (i, j) the signed (j, i) cofactor, so that
    x adj(x) = det(x) I (the former `linalg.adjugate`)."""
    from hermfj import linalg

    n = len(x)
    if n == 1:
        return linalg.identity(1, x[0][0].tag)

    def cofactor(i, j):
        minor = tuple(tuple(x[r][c] for c in range(n) if c != j) for r in range(n) if r != i)
        m = det_by_cofactors(minor)
        return m if (i + j) % 2 == 0 else -m

    return tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n))


def psd_by_minors(m) -> bool:
    """Positive semidefinite: all 2^g - 1 principal minors are >= 0."""
    g, rows = m.g, m.entries
    for mask in range(1, 1 << g):
        idx = tuple(i for i in range(g) if mask >> i & 1)
        if _minor_of_rows(rows, idx) < 0:
            return False
    return True


def psd_rank_by_trace_form(t):
    """The rank of the HermMatrix t if it is positive semidefinite, else
    None, as half the pivot count of `field._ldl_pivots` on its 2g x 2g
    integral trace form `t._gram()` (the former `HermMatrix._psd_rank`)."""
    from hermfj.field import _ldl_pivots

    pivots = _ldl_pivots(t._gram()[0])
    return None if pivots is None else len(pivots) // 2


def pd_by_leading_minors(m) -> bool:
    """Positive definite: the g leading principal minors are > 0."""
    rows = m.entries
    return all(_minor_of_rows(rows, tuple(range(k))) > 0 for k in range(1, m.g + 1))


def det_by_fractions(rows) -> Fraction:
    """det of a square rational matrix by Gaussian elimination in Fractions
    (1 for the empty matrix)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def psd_rank_by_minors(gram):
    """The rank of a symmetric rational matrix if it is positive
    semidefinite, else None: PSD when all 2^n - 1 principal minors are >= 0,
    and the rank of a symmetric matrix is the largest order of a nonzero
    principal minor (the oracle of `field._ldl_pivots`)."""
    n = len(gram)
    rank = 0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        minor = det_by_fractions([[gram[i][j] for j in idx] for i in idx])
        if minor < 0:
            return None
        if minor:
            rank = max(rank, len(idx))
    return rank


def dual_integral_by_product(x) -> bool:
    """x in O^# = O/sqrt(D), tested as sqrt(D) * x in O by a field-element
    product (the predecessor of `FieldElement.is_dual_integral`)."""
    return (x * sqrt_disc(x.tag)).is_integral()


def hermitian_by_conj(x) -> bool:
    """x_ij == conj(x_ji) for every entry, comparing whole field elements."""
    n = len(x)
    if any(len(row) != n for row in x):
        return False
    return all(x[i][j] == x[j][i].conj() for i in range(n) for j in range(i, n))


# ----------------------------------------------------------------------
# lattice kernel oracles (the library's predecessors, on field elements and
# Fractions)


def gl_action_rows_by_mat_mul(u, rows):
    """The rows of u* t u for t with field-element `rows`, as two generic
    matrix products."""
    from hermfj import linalg

    return linalg.mat_mul(linalg.mat_mul(linalg.conj_transpose(u.entries), rows), u.entries)


def gl_action_by_mat_mul(u, t):
    """u* t u as two generic field-element matrix products."""
    from hermfj.hermitian import HermMatrix

    return HermMatrix(gl_action_rows_by_mat_mul(u, t.entries), t.tag)


def gl_action_by_int_coords(u, t):
    """The former `hermitian.gl_action`: V = t u from `t._int_coords()` and
    the int columns of u, then the upper triangle of u* V over the
    denominator of t, each entry a `_pair_dot`."""
    from hermfj.field import _pair_conj, _pair_dot
    from hermfj.hermitian import HermMatrix

    if u.g != t.g or u.tag != t.tag:
        raise ValueError("matrix size or field mismatch")
    g, tag = t.g, t.tag
    rows, den = t._int_coords()
    vcols = [[_pair_dot(row, col, tag) for row in rows] for col in u._cols]
    raw = [den]
    for i, col in enumerate(u._cols):
        ustar_row = [_pair_conj(a, b, tag) for a, b in col]
        for j in range(i, g):
            raw += _pair_dot(ustar_row, vcols[j], tag)
    return HermMatrix._trusted(g, raw, tag)


def real_gram_by_fractions(t):
    """The rational Gram matrix of omega* t omega on the coordinate lattice
    Z^{2g}, with basis e_i and w*e_i interleaved."""
    tag = t.tag
    w = FieldElement.omega(tag)
    basis = []
    for i in range(t.g):
        basis.append((i, FieldElement.one(tag)))
        basis.append((i, w))
    n = 2 * t.g
    rows = t.entries
    gram = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        i, x = basis[r]
        for c in range(r, n):
            j, y = basis[c]
            # Re(conj(x) t_ij y) = Tr(.)/2
            val = (x.conj() * rows[i][j] * y).trace() / 2
            gram[r][c] = val
            gram[c][r] = val
    return gram


def ldl_by_fractions(gram):
    """LDL^T of a positive definite rational matrix; L unit lower triangular."""
    n = len(gram)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        s = gram[j][j]
        for k in range(j):
            s -= L[j][k] * L[j][k] * D[k]
        D[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            v = gram[i][j]
            for k in range(j):
                v -= L[i][k] * L[j][k] * D[k]
            L[i][j] = v / D[j]
    return L, D


def search_levels_by_fractions(gram):
    """(scale, levels) as `field._search_levels` returns them, from the
    rational LDL^T of `ldl_by_fractions` with each column of L cleared to
    the lcm of its denominators: the predecessor of the fraction-free
    elimination."""
    from math import lcm

    n = len(gram)
    L, D = ldl_by_fractions([[Fraction(x) for x in row] for row in gram])
    col_dens = [lcm(*(L[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    scale = lcm(*((D[i] / (c * c)).denominator for i, c in enumerate(col_dens)))
    return scale, [
        (c, int(scale * D[i] / (c * c)), [(j, int(L[j][i] * c)) for j in range(i + 1, n) if L[j][i]])
        for i, c in enumerate(col_dens)
    ]


def short_vectors_by_fractions(L, D, bound):
    """All nonzero integer vectors u with q(u) <= bound for q = L D L^T, as
    (q(u), u)."""
    from math import ceil, floor, isqrt

    n = len(D)
    u = [0] * n

    def recurse(i, rem):
        if i < 0:
            if any(u):
                yield (bound - rem, tuple(u))
            return
        s = Fraction(0)
        for j in range(i + 1, n):
            s += L[j][i] * u[j]
        radius2 = rem / D[i]
        r_int = isqrt(radius2.numerator * radius2.denominator) // radius2.denominator + 1
        for v in range(ceil(-s - r_int), floor(-s + r_int) + 1):
            used = D[i] * (v + s) ** 2
            if used <= rem:
                u[i] = v
                yield from recurse(i - 1, rem - used)

    yield from recurse(n - 1, bound)


def min_represented_by_fractions(t) -> Fraction:
    """min over nonzero omega in O^g of omega* t omega: ValueError unless t
    is PSD by its minors, 0 when det t = 0, else the least value of a
    Fincke-Pohst search in Fractions below the smallest diagonal entry."""
    if not psd_by_minors(t):
        raise ValueError("matrix is not positive semidefinite")
    if principal_minor(t, tuple(range(t.g))) == 0:
        return Fraction(0)
    rows = t.entries
    bound = min(rows[i][i].as_rational() for i in range(t.g))
    L, D = ldl_by_fractions(real_gram_by_fractions(t))
    return min([bound] + [q for q, _u in short_vectors_by_fractions(L, D, bound)])


def coset_points_by_fractions(shift, m: int, bound) -> list:
    """All x in shift + m*O with N(x) <= bound, sorted by (norm, a, b): the
    predecessor of `field.coset_points`, over-approximating coordinate
    ranges in Fractions and filtering each candidate by its exact norm."""
    from math import ceil, floor, isqrt

    def isqrt_upper(x: Fraction) -> int:
        return isqrt(x.numerator * x.denominator) // x.denominator + 1

    tag = shift.tag
    bound = Fraction(bound)
    out = []
    if bound < 0:
        return out
    s, t = norm_form(tag)
    # N(a + b*w) >= (t - s^2/4) b^2
    b_quad = t - Fraction(s, 2) ** 2
    rb = isqrt_upper(bound / b_quad)
    for q in range(ceil((-rb - shift.b) / m), floor((rb - shift.b) / m) + 1):
        b = shift.b + m * q
        rem = bound - b_quad * b * b
        if rem < 0:
            continue
        center = -Fraction(s) * b / 2
        ra = isqrt_upper(rem) if rem > 0 else 0
        for p in range(ceil((center - ra - shift.a) / m), floor((center + ra - shift.a) / m) + 1):
            x = FieldElement(shift.a + m * p, b, tag)
            if x.norm() <= bound:
                out.append(x)
    out.sort(key=lambda x: (x.norm(), x.a, x.b))
    return out


def class_points_by_recursion(s, norm_bound) -> list:
    """All r in the class s with |r|^2 <= norm_bound, ordered by (|r|^2,
    sort keys): the predecessor of `_coset_vectors` on the rep and
    modulus of s, a recursion over the per-component
    `coset_points_by_fractions`."""
    norm_bound = Fraction(norm_bound)
    per_component = [coset_points_by_fractions(x, s.m, norm_bound) for x in s.rep]
    out = []

    def build(i, prefix, used):
        if i == len(per_component):
            out.append((used, prefix))
            return
        for x in per_component[i]:
            n = x.norm()
            if used + n > norm_bound:
                break  # points are sorted by norm
            build(i + 1, prefix + (x,), used + n)

    build(0, (), Fraction(0))
    out.sort(key=lambda point: (point[0], tuple(x.sort_key() for x in point[1])))
    return [r for _norm, r in out]


def _coset_vectors(shift, m: int, bound, limit: int | None = None):
    """All x in shift + m*O^g with sum_i N(x_i) <= bound, g = len(shift),
    sorted by that sum and then by the coordinates (a_1, b_1, ..., b_g), so
    that the points within a smaller bound form a prefix.  With a `limit`,
    None when there are more than `limit` of them, found without listing
    the rest.

    One call of `field._lattice_points` on `_norm_levels`, in the
    coordinates of den*x, den the common denominator of the shift: the
    predecessor of `hermitian._class_points` in `jacobi.theta_coeffs` and
    the strict walk of `jacobi.theta_decompose`, kept as their oracle.
    """
    from math import floor

    from hermfj.field import _clear_dens, _lattice_points, _norm_levels

    tag = shift[0].tag
    den, start = _clear_dens(shift)
    points = _lattice_points(_norm_levels(len(shift), tag), start, m * den,
                             floor(2 * den * den * Fraction(bound)), limit)
    if points is None:
        return None
    points.sort()
    build = FieldElement._from_ints
    return [tuple(build(v[i], v[i + 1], den, tag) for i in range(0, len(v), 2)) for _q, v in points]


def min_represented_by_best_budget(t) -> Fraction:
    """min over nonzero omega in O^g of omega* t omega for PSD t: the
    predecessor of `hermitian.min_represented`, an integer Fincke-Pohst
    search that keeps the most budget a nonzero vector leaves below the
    smallest diagonal entry.  Semidefiniteness and rank come from the
    minors: ValueError unless t is PSD by its minors, 0 unless it is
    definite by its leading minors."""
    from math import isqrt

    if not psd_by_minors(t):
        raise ValueError("matrix is not positive semidefinite")
    if not pd_by_leading_minors(t):
        return Fraction(0)
    s, n = t.tag._norm_s, -t.tag._norm_t
    rows, den = int_coords_by_elements(t.entries)
    dim = 2 * t.g
    gram = [[0] * dim for _ in range(dim)]
    for i, row in enumerate(rows):
        for j, (a, b) in enumerate(row):
            tr = 2 * a + s * b
            gram[2 * i][2 * j] = tr
            gram[2 * i][2 * j + 1] = 2 * n * b + s * (a + s * b)
            gram[2 * i + 1][2 * j] = s * a - 2 * n * b
            gram[2 * i + 1][2 * j + 1] = -n * tr
    scale, levels = search_levels_by_fractions(gram)
    z = [0] * dim
    best = 0

    def search(i, rem):
        nonlocal best
        if i < 0:
            if rem > best and any(z):
                best = rem
            return
        c, k, terms = levels[i]
        off = sum(l * z[j] for j, l in terms)
        r = isqrt(rem // k)
        for v in range(-((r + off) // c), (r - off) // c + 1):
            z[i] = v
            x = c * v + off
            search(i - 1, rem - k * x * x)
        z[i] = 0

    top = scale * min(gram[i][i] for i in range(0, dim, 2))
    search(dim - 1, top)
    return Fraction(top - best, 2 * den * scale)


# ----------------------------------------------------------------------
# integer key oracles (the library's predecessors, on field-element rows)


def random_hermitian_rows(rng: random.Random, g: int, tag: FieldTag, den: int = 6):
    """The rows of a random g x g Hermitian matrix, entry denominators drawn
    from 1 to `den`: a rational diagonal and conjugate pairs."""
    rows = [[None] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = FieldElement(Fraction(rng.randint(-6, 6), rng.randint(1, den)), 0, tag)
        for j in range(i + 1, g):
            x = random_field_element(rng, tag, den=den, span=6)
            rows[i][j], rows[j][i] = x, x.conj()
    return tuple(tuple(row) for row in rows)


def int_coords_by_elements(rows):
    """The former `HermMatrix._int_coords` on field-element rows: (coords,
    den) with den the lcm of the entry denominators and entry (i, j) equal to
    (A + B*w)/den for coords[i][j] = (A, B)."""
    from math import lcm

    den = lcm(*(e.den for row in rows for e in row))
    return [[(e.p * (den // e.den), e.q * (den // e.den)) for e in row] for row in rows], den


def gram_by_elements(rows, tag: FieldTag):
    """The former `HermMatrix._gram` on field-element rows: the trace form
    on the coordinate lattice, taken integral, as (gram, den)."""
    s, n = tag._norm_s, -tag._norm_t
    coords, den = int_coords_by_elements(rows)
    gram = []
    for row in coords:
        even, odd = [], []
        for a, b in row:
            tr = 2 * a + s * b
            even += (tr, 2 * n * b + s * (a + s * b))
            odd += (s * a - 2 * n * b, -n * tr)
        gram += (even, odd)
    return gram, den


def shift_rows_by_elements(r, m: int):
    """The rows of r m^-1 r* by field-element products (the former
    `jacobi._shift_matrix`)."""
    inv_m = Fraction(1, m)
    return tuple(tuple((x * y.conj()) * inv_m for y in r) for x in r)


def join_rows_by_elements(n_rows, r, m_rows):
    """The rows of (n r; r* m) (the former `ffj.join_block`, and
    `jacobi.block_key` for a 1 x 1 m)."""
    from hermfj import linalg

    rows = [tuple(n_row) + tuple(r_row) for n_row, r_row in zip(n_rows, r)]
    rows.extend(r_col + tuple(m_row) for r_col, m_row in zip(linalg.conj_transpose(r), m_rows))
    return tuple(rows)


def split_rows_by_elements(rows, l: int):
    """The rows of n, the matrix r and the rows of m with (n r; r* m) =
    `rows` and m of size l (the former `ffj.split_block`)."""
    a = len(rows) - l
    return (tuple(row[:a] for row in rows[:a]), tuple(row[a:] for row in rows[:a]),
            tuple(row[a:] for row in rows[a:]))


def semi_integral_by_elements(rows) -> bool:
    """An integer diagonal and off-diagonal entries in O^#, read entry by
    entry (the former `HermMatrix.is_semi_integral`)."""
    return all(e.is_integral() and not e.q if i == j else e.is_dual_integral()
               for i, row in enumerate(rows) for j, e in enumerate(row))


# ----------------------------------------------------------------------
# canonical order oracles (the library's predecessors, on Fractions)


def trace_by_fractions(t) -> Fraction:
    """The trace of a Hermitian matrix, summed as `Fraction`s of its diagonal."""
    rows = t.entries
    return sum((rows[i][i].as_rational() for i in range(t.g)), Fraction(0))


def matrix_order_by_fractions(t) -> tuple:
    """(trace, text) on a `Fraction` trace (the former `HermMatrix.sort_key`):
    the order of `hermitian._canonical_order`, `FJFamily.indices` and
    enumeration."""
    return (trace_by_fractions(t), t.to_text())


def key_order_by_fractions(key) -> tuple:
    """The order of `JacobiTable._records`: the former `jacobi._key_sort`."""
    n, r = key
    return matrix_order_by_fractions(n) + (tuple((x.a, x.b) for x in r),)


def family_key_order_by_fractions(key) -> tuple:
    """The record order of `formats.write_family` within an index: r by its
    text, not its coordinates."""
    n, r = key
    return matrix_order_by_fractions(n) + (",".join(x.to_text() for row in r for x in row),)


# ----------------------------------------------------------------------
# enumeration oracle (the predecessor of `hermitian.enumerate_semi_integral`)


def diagonal_tuples(g: int, total: int):
    """The g-tuples of nonnegative ints with sum <= total, in lexicographic order."""
    from itertools import product

    return (diag for diag in product(range(total + 1), repeat=g) if sum(diag) <= total)


def dual_points_bounded(tag: FieldTag, bound) -> list:
    """All x in O^# with N(x) <= bound: y/sqrt(D) for the y in O with
    N(y) <= bound |D|, found by `coset_points_by_fractions`."""
    inv_sd = sqrt_disc(tag).inv()
    return [y * inv_sd for y in coset_points_by_fractions(FieldElement.zero(tag), 1,
                                                          Fraction(bound) * abs(tag.disc))]


def enumerate_by_psd_tests(g: int, trace_bound: int, tag: FieldTag) -> list:
    """The former `enumerate_semi_integral`: every Hermitian matrix with a
    nonnegative integer diagonal of trace <= trace_bound and off-diagonal
    entries x_ij in O^# with N(x_ij) <= t_ii t_jj (the 2x2 minor bound),
    built by the public constructor and kept when `is_psd`, in the order of
    `matrix_order_by_fractions`."""
    from itertools import product

    from hermfj.hermitian import HermMatrix

    zero = FieldElement.zero(tag)
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    points = {}  # per bound t_ii t_jj
    found = []
    for diag in diagonal_tuples(g, trace_bound):
        for i, j in pairs:
            if diag[i] * diag[j] not in points:
                points[diag[i] * diag[j]] = dual_points_bounded(tag, diag[i] * diag[j])
        slots = [points[diag[i] * diag[j]] for i, j in pairs]
        for choice in product(*slots):
            rows = [[zero] * g for _ in range(g)]
            for i in range(g):
                rows[i][i] = FieldElement(diag[i], 0, tag)
            for (i, j), x in zip(pairs, choice):
                rows[i][j], rows[j][i] = x, x.conj()
            t = HermMatrix(rows, tag)
            if t.is_psd():
                found.append(t)
    return sorted(found, key=matrix_order_by_fractions)


# ----------------------------------------------------------------------
# unit arithmetic oracles (the former bodies of `UnitMatrix.mul` and
# `UnitMatrix.inverse`: field-element rows through the validating constructor)


def unit_mul_by_mat_mul(u, v):
    """u v as a generic field-element matrix product."""
    from hermfj import linalg
    from hermfj.hermitian import UnitMatrix

    return UnitMatrix(linalg.mat_mul(u.entries, v.entries), u.tag)


def unit_inverse_by_constructor(u):
    """u^-1 by `linalg.inverse`, its determinant found again."""
    from hermfj import linalg
    from hermfj.hermitian import UnitMatrix

    return UnitMatrix(linalg.inverse(u.entries), u.tag)


# ----------------------------------------------------------------------
# former library functions that no library path reached


def in_same_class(r1, r2, m: int) -> bool:
    """Whether r1 - r2 lies in m O^g, for vectors of equal length and m >= 1
    (the former `hermitian.in_same_class`)."""
    assert m >= 1 and len(r1) == len(r2)
    return all(((x - y) / m).is_integral() for x, y in zip(r1, r2))


def block_key(n, r, m):
    """The assembly (n r; r* m) for a column r and a rational m, by
    `join_block` (the former `jacobi.block_key`)."""
    from hermfj.hermitian import HermMatrix, join_block

    return join_block(n, tuple((x,) for x in r), HermMatrix.from_rational(m, n.tag))


def table_support(table) -> list:
    """The keys (n, r) of a Jacobi table in the order of its
    `JacobiTable._records` (the former `JacobiTable.support`)."""
    from hermfj.jacobi import _r_of

    return [(n, _r_of(y, table.tag)) for _n_order, _x, n, y, _vec in table._records()]


# ----------------------------------------------------------------------
# group element builders (guaranteed members by construction)


def random_unit_matrix(rng: random.Random, g: int, tag: FieldTag):
    from hermfj.field import unit_group
    from hermfj.hermitian import UnitMatrix

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


def random_heisenberg(rng: random.Random, l: int, g: int, tag: FieldTag):
    from hermfj import linalg
    from hermfj.unitary import HeisenbergElement

    def rand_mat(rows, cols):
        return [
            [FieldElement(rng.randint(-2, 2), rng.randint(-2, 2), tag) for _ in range(cols)]
            for _ in range(rows)
        ]

    lam = rand_mat(l, g)
    mu = rand_mat(l, g)
    herm = [[FieldElement.zero(tag) for _ in range(l)] for _ in range(l)]
    for i in range(l):
        herm[i][i] = FieldElement(rng.randint(-2, 2), 0, tag)
        for j in range(i + 1, l):
            x = FieldElement(rng.randint(-2, 2), rng.randint(-2, 2), tag)
            herm[i][j] = x
            herm[j][i] = x.conj()
    kappa = linalg.mat_sub(
        linalg.freeze(herm),
        linalg.mat_mul(linalg.freeze(mu), linalg.conj_transpose(linalg.freeze(lam))),
    )
    return HeisenbergElement(lam, mu, kappa, tag)


def random_unitary(rng: random.Random, g: int, tag: FieldTag):
    from hermfj.unitary import UnitaryElement, jacobi_embed, rot

    out = UnitaryElement.identity(g, tag)
    for _ in range(rng.randint(1, 5)):
        kind = rng.randint(0, 2)
        if kind == 0:
            out = out.mul(rot(random_unit_matrix(rng, g, tag)))
        elif kind == 1:
            out = out.mul(UnitaryElement.j_element(g, tag))
        elif g >= 2:
            gamma = UnitaryElement.identity(g - 1, tag)
            out = out.mul(jacobi_embed(gamma, random_heisenberg(rng, 1, g - 1, tag)))
        else:
            out = out.mul(UnitaryElement.j_element(1, tag))
    return out


def theta_built_psi_body(rng: random.Random, tag: FieldTag, m_val: int, trunc: int,
                         g1: int = 2, classes_used: int = 3):
    """A Bob-consistent cogenus-1 table body at index m_val: coefficients are
    spread over whole coset classes with the matching shifts."""
    from hermfj.hermitian import delta_classes, enumerate_semi_integral, small_rep
    from hermfj.jacobi import shift_matrix

    classes = delta_classes(g1, m_val, tag)
    body = {}
    for s in rng.sample(classes, min(classes_used, len(classes))):
        r0 = small_rep(s)
        shift0 = shift_matrix(r0, m_val)
        room = trunc - m_val
        seen = set()
        for target in enumerate_semi_integral(g1, int(room), tag):
            nprime = target.sub(shift0)
            if nprime in seen:
                continue
            if not nprime.is_psd() or rng.random() < 0.6:
                continue
            seen.add(nprime)
            value = (FieldElement(rng.randint(1, 5), 0, tag),)
            budget = (room - nprime.trace()) * m_val
            for r in _coset_vectors(s.rep, s.m, budget):
                body[(nprime.add(shift_matrix(r, m_val)), tuple((x,) for x in r))] = value
    return body


def psi0_body(rng: random.Random, tag: FieldTag, trunc: int, g1: int = 2):
    from hermfj.hermitian import enumerate_semi_integral

    zero_col = tuple((FieldElement.zero(tag),) for _ in range(g1))
    body = {}
    for n in enumerate_semi_integral(g1, trunc, tag):
        if rng.random() < 0.4:
            c = rng.randint(-3, 3)
            if c:
                body[(n, zero_col)] = (FieldElement(c, 0, tag),)
    return body


def degree3_tables(rng: random.Random, tag: FieldTag, trunc: int = 4) -> dict:
    """The cogenus-1 tables of `build_degree3_family`."""
    from hermfj.hermitian import HermMatrix

    return {
        HermMatrix.from_rational(0, tag): psi0_body(rng, tag, trunc),
        HermMatrix.from_rational(1, tag): theta_built_psi_body(rng, tag, 1, trunc),
    }


def build_degree3_family(rng: random.Random, tag: FieldTag, trunc: int = 4, k: int = 8):
    """A theta-built symmetric-style fixture: degree 3, cogenus 1, indices 0, 1."""
    from hermfj.ffj import FJFamily

    return FJFamily(3, 1, k, tag, trunc, degree3_tables(rng, tag, trunc))


# ----------------------------------------------------------------------
# split-table family oracle (the former `ffj` store and its views)


class SplitTableFamily:
    """The store `ffj.FJFamily` kept before it held assembled keys: per
    cogenus-l index m, a table {(n, r): vec}, every assembled key checked
    as the family constructor checks it."""

    def __init__(self, g: int, l: int, k: int, tag: FieldTag, trunc, tables, dim: int = 1):
        from hermfj import linalg
        from hermfj.hermitian import join_block

        self.g, self.l, self.k, self.tag, self.trunc, self.dim = g, l, k, tag, Fraction(trunc), dim
        self.tables = {}
        for m, table in tables.items():
            if m.g != l or m.tag != tag:
                raise ValueError("index size or field mismatch at %r" % (m,))
            body = {}
            for (n, r), vec in table.items():
                r, vec = linalg.freeze(r), tuple(vec)
                if all(v.is_zero() for v in vec):
                    continue
                block = join_block(n, r, m)
                if not (n.g == g - l and block.is_semi_integral() and block.is_psd()
                        and block.trace() <= self.trunc):
                    raise ValueError("invalid assembled key %r" % (block,))
                body[(n, r)] = vec
            if body:
                self.tables[m] = body

    def matches(self, fam) -> bool:
        """Same header and the same tables as the `FJFamily` fam."""
        return ((fam.g, fam.l, fam.k, fam.tag, fam.trunc, fam.dim) ==
                (self.g, self.l, self.k, self.tag, self.trunc, self.dim)
                and fam.tables == self.tables)


def assemble_by_tables(fam: SplitTableFamily):
    """The former `ffj.assemble`: join every (n, r) with its index."""
    from hermfj.hermitian import join_block
    from hermfj.series import FourierSeries

    coeffs = {join_block(n, r, m): vec for m, body in fam.tables.items()
              for (n, r), vec in body.items()}
    return FourierSeries(fam.g, fam.k, fam.tag, fam.trunc, coeffs, fam.dim)


def disassemble_by_tables(f, l: int) -> SplitTableFamily:
    """The former `ffj.disassemble`: split every key of f."""
    from hermfj.hermitian import split_block

    tables = {}
    for t, vec in f.coeffs.items():
        n, r, m = split_block(t, l)
        tables.setdefault(m, {})[(n, r)] = vec
    return SplitTableFamily(f.g, l, f.k, f.tag, f.trunc, tables, f.dim)


def rearrange_by_tables(fam: SplitTableFamily, l_prime: int) -> SplitTableFamily:
    """The former `ffj.rearrange_cogenus`: through the assembled series."""
    return disassemble_by_tables(assemble_by_tables(fam), l_prime)


def extract_psi0_by_tables(fam: SplitTableFamily) -> SplitTableFamily:
    """The former `ffj.extract_psi0`, with its two checks that the dropped
    corner row and column vanish."""
    from hermfj.errors import ConsistencyError
    from hermfj.hermitian import HermMatrix

    l, zero = fam.l, FieldElement.zero(fam.tag)
    tables = {}
    for m, body in fam.tables.items():
        rows = m.entries
        if rows[l - 1][l - 1] != 0:
            continue
        for i in range(l):
            if rows[i][l - 1] != zero or rows[l - 1][i] != zero:
                raise ConsistencyError("degenerate index with nonzero corner row", witness=m)
        new_body = tables.setdefault(
            HermMatrix(tuple(row[:l - 1] for row in rows[:l - 1]), fam.tag), {})
        for (n, r), vec in body.items():
            if any(row[l - 1] != zero for row in r):
                raise ConsistencyError("nonzero coefficient in the removed column",
                                       witness=(m, n, r))
            new_body[(n, tuple(row[:l - 1] for row in r))] = vec
    return SplitTableFamily(fam.g - 1, l - 1, fam.k, fam.tag, fam.trunc, tables, fam.dim)


def zero_pad_by_tables(fam: SplitTableFamily) -> SplitTableFamily:
    """The former `ffj.zero_pad`: a zero corner row and column on every
    index and a zero column on every r."""
    from hermfj.hermitian import HermMatrix

    zero = FieldElement.zero(fam.tag)
    tables = {}
    for m, body in fam.tables.items():
        m_new = HermMatrix(tuple(row + (zero,) for row in m.entries) + ((zero,) * (m.g + 1),),
                           fam.tag)
        new_body = tables.setdefault(m_new, {})
        for (n, r), vec in body.items():
            new_body[(n, tuple(row + (zero,) for row in r))] = vec
    return SplitTableFamily(fam.g + 1, fam.l + 1, fam.k, fam.tag, fam.trunc, tables, fam.dim)


def cogenus_one_slice_by_tables(fam: SplitTableFamily, m: int):
    """The former `ffj._cogenus_one_slice`, through the public table
    constructor: the keys of the indices with corner m, joined and split
    by their last row and column."""
    from hermfj.hermitian import join_block, split_block
    from hermfj.jacobi import JacobiTable

    coeffs = {}
    for idx, body in fam.tables.items():
        if idx.entries[-1][-1] != m:
            continue
        for (n, r), vec in body.items():
            n1, r1, _m1 = split_block(join_block(n, r, idx), 1)
            coeffs[(n1, tuple(row[0] for row in r1))] = vec
    return JacobiTable(fam.g - 1, fam.k, m, fam.tag, fam.trunc - m, coeffs, fam.dim)


def leading_block_by_key_walk(t):
    """t without its last row and column: each row of the key's upper
    triangle without its last entry (the former `ffj._leading_block`)."""
    from hermfj.hermitian import HermMatrix

    g, key = t.g, t._key
    raw, k = [key[0]], 1
    for i in range(g - 1):
        raw += key[k:k + 2 * (g - 1 - i)]
        k += 2 * (g - i)
    return HermMatrix._trusted(g - 1, raw, t.tag)


def extract_psi0_by_key_walk(fam):
    """The former `ffj.extract_psi0` on an `FJFamily`: the leading block of
    each key with a zero corner, by `leading_block_by_key_walk`."""
    from hermfj.ffj import FJFamily, _split_tables

    kept = {leading_block_by_key_walk(t): vec for t, vec in fam.coeffs.items() if not t._key[-2]}
    return FJFamily(fam.g - 1, fam.l - 1, fam.k, fam.tag, fam.trunc,
                    _split_tables(kept, fam.l - 1), fam.dim)


def index_blocks_by_split(fam) -> set:
    """The distinct index blocks m of the keys of an `FJFamily`, each key
    split once more (the former `FJFamily._index_blocks`)."""
    from hermfj.hermitian import HermMatrix, _split_raw

    l, tag = fam.l, fam.tag
    return {HermMatrix._trusted(l, raw, tag) for raw in {_split_raw(t, l)[2] for t in fam.coeffs}}


def shear_generators_by_identity_rows(g: int, l: int, tag: FieldTag) -> list:
    """The former `ffj.shear_generators`: each shear (I 0; lambda* I) from
    the identity rows with one entry set, through the public constructor."""
    from hermfj import linalg
    from hermfj.hermitian import UnitMatrix

    gens, a, w = [], g - l, FieldElement.omega(tag)
    for p in range(a):
        for q in range(l):
            for v in (FieldElement.one(tag), w):
                rows = [list(row) for row in linalg.identity(g, tag)]
                rows[a + q][p] = v.conj()
                gens.append(UnitMatrix(rows, tag))
    return gens


def write_family_by_tables(fam) -> str:
    """The former `formats.write_family`: through the `tables` view, which
    splits every key into its n and m matrices and the field elements of r,
    and with the former r_key sort of `_canonical_order`, by the text of r."""
    from math import lcm

    from hermfj.formats import _header_line, _rmat_text, _vec_text
    from hermfj.hermitian import _canonical_order

    lines = [_header_line("FJFAM v1", fam.tag.d, fam.g, fam.l, fam.k, fam.trunc, fam.dim)]
    tables = fam.tables
    for m in _canonical_order(tables):
        lines.append("[index m = %s]" % m.to_text())
        body = tables[m]
        big = lcm(*(n._trace[1] for n, _r in body))
        for (n, r) in sorted(body, key=lambda key: (key[0]._trace[0] * (big // key[0]._trace[1]),
                                                    key[0].to_text(), _rmat_text(key[1]))):
            lines.append("(%s ; %s) = %s" % (n.to_text(), _rmat_text(r), _vec_text(body[(n, r)])))
    return "\n".join(lines) + "\n"


def random_component_vector(rng: random.Random, tag: FieldTag, m: int, total_trunc, k: int = 10):
    """Genus-1 theta components: per-class polynomial series whose truncations
    match what decomposition reproduces."""
    from hermfj.hermitian import HermMatrix, delta_classes, small_rep
    from hermfj.jacobi import ThetaComponentVector, shift_matrix
    from hermfj.series import FourierSeries

    classes = delta_classes(1, m, tag)
    comps = {}
    for s in classes:
        shift = shift_matrix(small_rep(s), m).trace()
        h_trunc = Fraction(total_trunc) - shift
        coeffs = {}
        for n in range(int(h_trunc) + 1):
            if rng.random() < 0.5:
                c = rng.randint(-4, 4)
                if c:
                    coeffs[HermMatrix.from_rational(n, tag)] = (
                        FieldElement(Fraction(c), 0, tag),
                    )
        comps[s] = FourierSeries(1, k - 1, tag, h_trunc, coeffs, semi_integral=False)
    return ThetaComponentVector(m, classes, comps)


def distant_break(tag: FieldTag, m: int, largest_trace: bool, trunc: int = 4):
    """A genus-1 table that is consistent except for one deleted key, and
    the witness strict decomposition must report for it.

    One class s of Delta_1(m) carries h_s = q^0 + 2 q^1.  The deleted key
    is (n' + r m^-1 r*, r) with n' the largest (or smallest) trace of h_s,
    and r the farthest representative of s inside the truncation for that
    n' that neither plain probe reads (the small rep r0, the spare r0 + m).
    """
    from hermfj.hermitian import HermMatrix, delta_classes, small_rep
    from hermfj.jacobi import (
        JacobiTable,
        ThetaComponentVector,
        shift_matrix,
        theta_recompose,
    )
    from hermfj.series import FourierSeries

    classes = delta_classes(1, m, tag)
    target = classes[len(classes) // 2]
    comps = {}
    for s in classes:
        body = {}
        if s == target:
            body = {HermMatrix.from_rational(n, tag): (FieldElement(n + 1, 0, tag),)
                    for n in (0, 1)}
        h_trunc = trunc - shift_matrix(small_rep(s), m).trace()
        comps[s] = FourierSeries(1, 9, tag, h_trunc, body, semi_integral=False)
    table = theta_recompose(ThetaComponentVector(m, classes, comps), trunc)
    nprime = HermMatrix.from_rational(1 if largest_trace else 0, tag)
    r0 = small_rep(target)
    spare = (r0[0] + m,)
    inside = [r for r in _coset_vectors(target.rep, target.m, (trunc - nprime.trace()) * m)
              if r not in (r0, spare)]
    r_far = inside[-1]
    coeffs = dict(table.coeffs)
    del coeffs[(nprime.add(shift_matrix(r_far, m)), r_far)]
    return JacobiTable(1, table.k, m, tag, trunc, coeffs), (nprime, r0, r_far)


# ----------------------------------------------------------------------
# theta decomposition and recomposition class by class (before class buckets)


def euclidean_round_by_norms(beta: FieldElement) -> FieldElement:
    """The integer nearest beta, ties to the smallest (a, b): the four
    floor/ceil candidates as field elements, compared by `Fraction` norm;
    the predecessor of `field.euclidean_round`, which compares on ints."""
    tag = beta.tag
    p, q, den = beta.p, beta.q, beta.den
    best = None
    b_floor = q // den
    for qq in (b_floor, b_floor + 1):
        c_floor = (2 * p + q - qq * den) // (2 * den) if tag.half_basis else p // den
        for pp in (c_floor, c_floor + 1):
            alpha = FieldElement(pp, qq, tag)
            key = ((beta - alpha).norm(), pp, qq)
            if best is None or key < best[0]:
                best = (key, alpha)
    return best[1]


def small_rep_by_rounding(s) -> tuple:
    """x - round(x/m) m for each component x of the class rep, in field
    arithmetic: the predecessor of `hermitian.small_rep`."""
    return tuple(x - euclidean_round_by_norms(x / s.m) * s.m for x in s.rep)


def theta_recompose_by_classes(v, trunc):
    """`jacobi.theta_recompose` class by class: one `_coset_vectors`
    search per class with a nonzero component."""
    from hermfj.hermitian import _trace_sum, _trace_within
    from hermfj.jacobi import JacobiTable, shift_matrix

    m = v.m
    trunc = Fraction(trunc)
    bound = trunc.as_integer_ratio()
    sample = next(iter(v.components.values()))
    tag, g, dim, weight = sample.tag, sample.g, sample.dim, sample.k
    coeffs = {}
    for s in v.classes:
        h = v.components[s]
        if (h.g, h.tag, h.dim, h.k) != (g, tag, dim, weight):
            raise ValueError("inconsistent components")
        shift0 = shift_matrix(small_rep_by_rounding(s), m).trace()
        if h.trunc < trunc - shift0:
            raise ValueError(
                "component truncation %s insufficient for target %s" % (h.trunc, trunc))
        if h.is_zero():
            continue
        for r in _coset_vectors(s.rep, s.m, trunc * m):
            shift = shift_matrix(r, m)
            room = _trace_sum(bound, shift._trace, -1)
            for nprime, vec in h.coeffs.items():
                if _trace_within(nprime, room):
                    coeffs[(nprime.add(shift), r)] = vec
    return JacobiTable(g, weight + 1, m, tag, trunc, coeffs, dim)


def theta_decompose_by_probes(phi, strict: bool = False):
    """`jacobi.theta_decompose` by probes: each key is compared with the
    table's key at the small representative r0 of its class, each n' with
    the spare representative r0 + m e_1, and with `strict` each n' with
    every representative inside the truncation, listed per class by
    `_coset_vectors`.  Raises the same ConsistencyError, with the same
    witness, at the same first failure."""
    from math import lcm

    from hermfj.errors import ConsistencyError
    from hermfj.hermitian import _trace_sum, _trace_within, delta_classes, reduce_class
    from hermfj.jacobi import ThetaComponentVector, shift_matrix
    from hermfj.series import FourierSeries, _zero_vec

    m, tag, g = phi.m, phi.tag, phi.g
    classes = delta_classes(g, m, tag)
    slots = {s: ({}, small_rep_by_rounding(s)) for s in classes}
    seen = {}
    bound = phi.trunc.as_integer_ratio()
    zero = _zero_vec(phi.dim, tag)
    coeffs = phi.coeffs
    for (n, r), vec in coeffs.items():
        info = seen.get(r)
        if info is None:
            body, r0 = slots[reduce_class(r, m)]
            info = seen[r] = (body, r0, shift_matrix(r, m), shift_matrix(r0, m))
        body, r0, shift, shift0 = info
        nprime = n.sub(shift)
        key0 = nprime.add(shift0)
        if _trace_within(key0, bound) and coeffs.get((key0, r0), zero) != vec:
            raise ConsistencyError("well-definedness violation: representatives disagree",
                                   witness=(nprime, r, r0))
        body[nprime] = vec
    components = {}
    for s, (body, r0) in slots.items():
        shift0 = shift_matrix(r0, m)
        r1 = (r0[0] + m,) + r0[1:]
        shift1 = shift_matrix(r1, m)
        for nprime, vec in body.items():
            key1 = nprime.add(shift1)
            if _trace_within(key1, bound) and phi.coefficient(key1, r1) != vec:
                raise ConsistencyError("well-definedness violation at spare representative",
                                       witness=(nprime, r0, r1))
        if strict and body:
            big = lcm(*(n._trace[1] for n in body))
            least = Fraction(min(n._trace[0] * (big // n._trace[1]) for n in body), big)
            points = [(shift_matrix(r, m), r)
                      for r in _coset_vectors(s.rep, s.m, (phi.trunc - least) * m)]
            for nprime, vec in body.items():
                room = _trace_sum(bound, nprime._trace, -1)
                for shift, r_any in points:
                    if not _trace_within(shift, room):
                        break
                    if phi.coefficient(nprime.add(shift), r_any) != vec:
                        raise ConsistencyError(
                            "well-definedness violation at representative %r" % (r_any,),
                            witness=(nprime, r0, r_any))
        components[s] = FourierSeries._trusted(g, phi.k - 1, tag, phi.trunc - shift0.trace(),
                                               body, phi.dim, semi_integral=False)
    return ThetaComponentVector(m, classes, components)


def theta_coeffs_by_coset_vectors(m: int, s, trunc, max_keys: int | None = None):
    """`jacobi.theta_coeffs` on `_coset_vectors`: one search of the coset
    of the rep of s, in den*r coordinates, keys in its order."""
    from hermfj.jacobi import JacobiTable, shift_matrix

    trunc = Fraction(trunc)
    points = _coset_vectors(s.rep, s.m, trunc * m, max_keys)
    if points is None:
        return None
    one = FieldElement.one(s.tag)
    coeffs = {(shift_matrix(r, m), r): (one,) for r in points}
    return JacobiTable(s.g, 1, m, s.tag, trunc, coeffs)


def series_times_theta_by_small_rep(h, theta):
    """`jacobi.series_times_theta` with its minimal shift read as the trace
    of `shift_matrix(small_rep(reduce_class(r, m)), m)`, r of one key."""
    from hermfj.hermitian import _trace_within, reduce_class, small_rep
    from hermfj.jacobi import JacobiTable, shift_matrix

    m = theta.m
    if not theta.coeffs:
        raise ValueError("empty theta table")
    cls = reduce_class(next(iter(theta.coeffs))[1], m)
    out_trunc = h.trunc + shift_matrix(small_rep(cls), m).trace()
    if theta.trunc < out_trunc:
        raise ValueError("theta truncation %s below product target %s" % (theta.trunc, out_trunc))
    bound = out_trunc.as_integer_ratio()
    coeffs = {}
    for (n_theta, r), _one in theta.coeffs.items():
        for nprime, vec in h.coeffs.items():
            n = nprime.add(n_theta)
            if _trace_within(n, bound):
                coeffs[(n, r)] = vec
    return JacobiTable(h.g, h.k + 1, m, h.tag, out_trunc, coeffs, h.dim)


# ----------------------------------------------------------------------
# unimodular symmetry oracles (the orbit walks before one action per edge),
# acting by `gl_action_by_int_coords`, not by the library's congruence maps


def symmetrize_by_all_steps(f, units):
    """`series.symmetrize` stepping from every orbit key by every unit and
    every inverse, repeats included, and checking the factor on each
    directed edge inside the window."""
    from hermfj.hermitian import _canonical_order, _trace_within
    from hermfj.series import FourierSeries

    steps = [(u, u.det_unit.conj() ** f.k) for u in list(units) + [u.inverse() for u in units]]
    bound = f.trunc.as_integer_ratio()
    out = {}
    done = set()
    for seed in _canonical_order(f.coeffs):
        if seed in done:
            continue
        vec = f.coeffs[seed]
        factors = {seed: FieldElement.one(f.tag)}
        frontier = [seed]
        consistent = True
        while frontier:
            nxt = []
            for t in frontier:
                base = factors[t]
                for u, det_pow in steps:
                    image = gl_action_by_int_coords(u, t)
                    if not _trace_within(image, bound):
                        continue
                    fac = base * det_pow
                    prev = factors.get(image)
                    if prev is None:
                        factors[image] = fac
                        nxt.append(image)
                    elif prev != fac:
                        consistent = False
            frontier = nxt
        done.update(factors)
        if not consistent:
            continue
        for t, fac in factors.items():
            contrib = tuple(fac * v for v in vec)
            prev = out.get(t)
            out[t] = tuple(a + b for a, b in zip(prev, contrib)) if prev is not None else contrib
    return FourierSeries._trusted(f.g, f.k, f.tag, f.trunc, out, f.dim, f.semi_integral)


def check_symmetry_by_candidates(f, units, rho=None):
    """`series.check_symmetry` per unit over every candidate key, the support
    and its preimages, sorted by the canonical order, each acted on anew."""
    from hermfj import linalg
    from hermfj.hermitian import _canonical_order, _trace_within

    violations = []
    bound = f.trunc.as_integer_ratio()
    for u in units:
        if u.g != f.g or u.tag != f.tag:
            raise ValueError("generator size or field mismatch")
        u_inv = u.inverse()
        det_pow = u.det_unit.conj() ** f.k
        rho_mat = None
        if f.dim > 1:
            if rho is None:
                raise ValueError("vector-valued series need an explicit rho")
            rho_mat = linalg.freeze(rho(u))
        candidates = set(f.coeffs) | {gl_action_by_int_coords(u_inv, t) for t in f.coeffs}
        for t in _canonical_order(candidates):
            if not _trace_within(t, bound):
                continue
            image = gl_action_by_int_coords(u, t)
            if not _trace_within(image, bound):
                continue
            lhs = f.coefficient(image)
            if rho_mat is not None:
                zero = FieldElement.zero(f.tag)
                lhs = tuple(sum((a * b for a, b in zip(row, lhs)), zero) for row in rho_mat)
            rhs = tuple(det_pow * v for v in f.coefficient(t))
            if lhs != rhs:
                violations.append((u, t))
    return violations


# ----------------------------------------------------------------------
# per-line reader oracle (the readers before per-read interning)


def read_by_lines(text: str):
    """The series, table, family or bundle a canonical file of any of the
    four formats holds: every record line parsed on its own through
    `HermMatrix.from_text` and `FieldElement.from_text`, with no text
    shared between lines, and handed to the public constructors."""
    from hermfj.ffj import FJFamily
    from hermfj.hermitian import CosetClass, HermMatrix
    from hermfj.jacobi import JacobiTable, ThetaComponentVector
    from hermfj.series import FourierSeries

    lines = [line.strip() for line in text.splitlines() if line.strip()]
    magic, *fields = [p.strip() for p in lines[0].split(";")]
    head = dict(f.split("=") for f in fields)
    tag = make_field(int(head["d"]))
    g, k, dim, trunc = int(head["g"]), int(head["k"]), int(head["dim"]), Fraction(head["trunc"])

    def mat(text, size):
        return HermMatrix.from_text(text.strip(), size, tag)

    def vec(text):
        return tuple(FieldElement.from_text(x, tag) for x in text.strip().split(","))

    def record(line):  # "(<n> ; <r>) = <values>"
        key, value = line[1:].split(") = ")
        n, r = key.split(" ; ")
        return n, vec(r), vec(value)

    if magic == "FJS v1":
        coeffs = {}
        for line in lines[1:]:
            t, c = line[len("t = "):].split(" ; c = ")
            coeffs[mat(t, g)] = vec(c)
        return FourierSeries(g, k, tag, trunc, coeffs, dim)
    if magic == "HJF v1":
        coeffs = {}
        for line in lines[1:]:
            n, r, value = record(line)
            coeffs[(mat(n, g), r)] = value
        return JacobiTable(g, k, int(head["m"]), tag, trunc, coeffs, dim)
    if magic == "FJFAM v1":
        l = int(head["l"])
        tables = {}
        for line in lines[1:]:
            if line.startswith("[index m = "):
                body = tables[mat(line[len("[index m = "):-1], l)] = {}
                continue
            n, flat, value = record(line)
            body[(mat(n, g - l), tuple(flat[i * l:(i + 1) * l] for i in range(g - l)))] = value
        return FJFamily(g, l, k, tag, trunc, tables, dim)
    assert magic == "HJC v1", magic
    m, sections = int(head["m"]), []
    for line in lines[1:]:
        if line.startswith("[class "):
            _index, rep, htrunc = line[1:-1].split("; ")
            body = {}
            sections.append((CosetClass(m, vec(rep[len("rep = "):]), tag),
                             Fraction(htrunc[len("htrunc = "):]), body))
            continue
        n, c = line[len("n = "):].split(" ; c = ")
        body[mat(n, g)] = vec(c)
    return ThetaComponentVector(m, [s for s, _t, _b in sections], {
        s: FourierSeries(g, k, tag, h_trunc, body, dim, semi_integral=False)
        for s, h_trunc, body in sections})


# ----------------------------------------------------------------------
# the theta path and HJF I/O on r as `FieldElement`s (the library before
# tables held r as the integer vector y = sqrt(D) r)


def canonical_pair_order(keys) -> list:
    """(n, r) pairs in the canonical order of the text formats: the former
    pair branch of `hermitian._canonical_order`, n by
    `matrix_order_by_fractions`, then r by coordinates over their common
    denominator."""
    from math import lcm

    from hermfj.field import _clear_dens

    keys = list(keys)
    big = lcm(*(n._trace[1] for n, _r in keys))
    rbig = lcm(*(x.den for _n, r in keys for x in r))
    return sorted(keys, key=lambda key: (key[0]._trace[0] * (big // key[0]._trace[1]),
                                         key[0].to_text(), _clear_dens(key[1], rbig)[1]))


def shift_by_elements(r, m: int):
    from hermfj.hermitian import HermMatrix

    return HermMatrix(shift_rows_by_elements(r, m), r[0].tag)


def theta_coeffs_by_elements(m: int, s, trunc, max_keys: int | None = None):
    """The former `jacobi.theta_coeffs`: each point y of
    `hermitian._class_points` mapped to r = y/sqrt(D) and to its sort key,
    the key built from r by field-element products, through the public
    constructor."""
    from hermfj.field import _pair_sqrt_disc
    from hermfj.hermitian import _class_points, _from_y, _sublattice, _y_coords
    from hermfj.jacobi import JacobiTable

    tag, trunc, pairs = s.tag, Fraction(trunc), range(0, 2 * s.g, 2)
    top, den = trunc.as_integer_ratio()
    index = _sublattice(tag, m).class_index([c for x in s.rep for c in _y_coords(x)])
    points = _class_points(s.g, m, tag, top * abs(tag.disc) * m // den, (index,), max_keys)
    if points is None:
        return None
    order = sorted((norm, [-c for i in pairs for c in _pair_sqrt_disc(y[i], y[i + 1], tag)],
                    tuple(_from_y(y[i], y[i + 1], tag) for i in pairs)) for _i, norm, y in points)
    one = (FieldElement.one(tag),)
    return JacobiTable(s.g, 1, m, tag, trunc,
                       {(shift_by_elements(r, m), r): one for _n, _x, r in order})


def theta_decompose_by_elements(phi, strict: bool = False):
    """The former `jacobi.theta_decompose`, on the `coeffs` view: per
    distinct r its class index from the y of each component, r0 and
    r0 + m e_1 as field elements, shifts by field-element products."""
    from bisect import bisect_right

    from hermfj.errors import ConsistencyError
    from hermfj.hermitian import (_class_points, _delta_cells, _from_y, _sublattice, _trace_sum,
                                  _trace_within, _y_coords, delta_classes)
    from hermfj.jacobi import ThetaComponentVector
    from hermfj.series import FourierSeries

    m, tag, g, trunc = phi.m, phi.tag, phi.g, phi.trunc
    cells, sub, scale = _delta_cells(m, tag), _sublattice(tag, m), abs(tag.disc) * m
    coeffs = phi.coeffs
    found, seen, off_r0 = {}, {}, []
    for (n, r), vec in coeffs.items():
        info = seen.get(r)
        if info is None:
            index = sub.class_index([c for x in r for c in _y_coords(x)])
            if index not in found:
                found[index] = [{}, 0, tuple(_from_y(*cells[i][0], tag)
                                             for i in sub.digits(index, g))]
            info = seen[r] = (found[index], shift_by_elements(r, m), r == found[index][2])
        entry, shift, at_r0 = info
        nprime = n.sub(shift)
        if at_r0:
            entry[0][nprime] = vec
        else:
            entry[0].setdefault(nprime, None)
            entry[1] += 1
            off_r0.append((nprime, r, vec, entry))
    for nprime, r, vec, (body, _off, r0) in off_r0:
        if body[nprime] != vec:
            raise ConsistencyError("well-definedness violation: representatives disagree",
                                   witness=(nprime, r, r0))
    top, den = trunc.as_integer_ratio()
    norms = {}
    if strict:
        for index, norm, _y in _class_points(g, m, tag, top * scale // den, found):
            norms.setdefault(index, []).append(norm)
        for ns in norms.values():
            ns.sort()
    classes, components = delta_classes(g, m, tag), {}
    for index, s in enumerate(classes):
        norm0 = sum(cells[i][1] for i in sub.digits(index, g))
        h_trunc = Fraction(top * scale - den * norm0, den * scale)
        body, off, r0 = found.get(index) or ({}, 0, ())
        components[s] = FourierSeries._trusted(g, phi.k - 1, tag, h_trunc, body, phi.dim,
                                               semi_integral=False)
        if not body:
            continue
        r1 = (r0[0] + m,) + r0[1:]
        shift1 = shift_by_elements(r1, m)
        for nprime, vec in body.items():
            key1 = nprime.add(shift1)
            if _trace_within(key1, (top, den)) and phi.coefficient(key1, r1) != vec:
                raise ConsistencyError("well-definedness violation at spare representative",
                                       witness=(nprime, r0, r1))
        if strict and len(body) + off != sum(
                bisect_right(norms.get(index, ()), (top * d - num * den) * scale // (den * d))
                for num, d in (nprime._trace for nprime in body)):
            points = theta_coeffs_by_elements(m, s, trunc).coeffs
            for nprime, vec in body.items():
                room = _trace_sum((top, den), nprime._trace, -1)
                for shift, r_any in points:
                    if not _trace_within(shift, room):
                        break
                    if phi.coefficient(nprime.add(shift), r_any) != vec:
                        raise ConsistencyError(
                            "well-definedness violation at representative %r" % (r_any,),
                            witness=(nprime, r0, r_any))
    return ThetaComponentVector(m, classes, components)


def theta_recompose_by_elements(v, trunc):
    """The former `jacobi.theta_recompose`: each point y of the classes with
    a nonzero component mapped to r = y/sqrt(D), its shift by field-element
    products, through the public constructor."""
    from hermfj.hermitian import _class_points, _delta_cells, _from_y, _sublattice
    from hermfj.jacobi import JacobiTable

    m, trunc = v.m, Fraction(trunc)
    sample = next(iter(v.components.values()))
    tag, g, dim, weight = sample.tag, sample.g, sample.dim, sample.k
    cells, sub, scale = _delta_cells(m, tag), _sublattice(tag, m), abs(tag.disc) * m
    top, den = trunc.as_integer_ratio()
    live = {}
    for index, s in enumerate(v.classes):
        h = v.components[s]
        if (h.g, h.tag, h.dim, h.k) != (g, tag, dim, weight):
            raise ValueError("inconsistent components")
        norm0, (num, d) = sum(cells[i][1] for i in sub.digits(index, g)), h.trunc.as_integer_ratio()
        if num * den * scale < (top * scale - den * norm0) * d:
            raise ValueError("component truncation %s insufficient for target %s"
                             % (h.trunc, trunc))
        if h.coeffs:
            live[index] = [(nprime, nprime._trace, vec) for nprime, vec in h.coeffs.items()]
    coeffs = {}
    for index, norm, y in _class_points(g, m, tag, top * scale // den, live):
        r = tuple(_from_y(y[i], y[i + 1], tag) for i in range(0, 2 * g, 2))
        shift = shift_by_elements(r, m)
        room = top * scale - norm * den
        for nprime, (num, d), vec in live[index]:
            if num * den * scale <= room * d:
                coeffs[(nprime.add(shift), r)] = vec
    return JacobiTable(g, weight + 1, m, tag, trunc, coeffs, dim)


def cogenus_one_slice_by_split_block(fam, m: int):
    """The former `ffj._cogenus_one_slice`: each selected key split by
    `split_block`, which builds the m block and r as field elements."""
    from hermfj.hermitian import split_block
    from hermfj.jacobi import JacobiTable

    coeffs = {}
    for t, vec in fam.coeffs.items():
        if t._key[-2] == m * t._key[0]:
            n, r, _m = split_block(t, 1)
            coeffs[(n, tuple(row[0] for row in r))] = vec
    return JacobiTable(fam.g - 1, fam.k, m, fam.tag, fam.trunc - m, coeffs, fam.dim)


def read_jacobi_by_elements(text: str):
    """The former `formats.read_jacobi`: each distinct r text parsed to
    field elements, the table built by the public constructor."""
    from functools import partial

    from hermfj.errors import ParseError
    from hermfj.formats import (_body, _construct, _interned, _parse_header, _parse_matrix,
                                _parse_vector, _split_pair, _vec_text)
    from hermfj.jacobi import JacobiTable

    lines = text.splitlines()
    tag, g, k, m, trunc, dim = _parse_header(lines, "HJF v1")
    make = partial(JacobiTable, g, k, m, tag, trunc, dim=dim)
    _construct(make, {}, [])
    matrix, vector = _interned(_parse_matrix, tag, tokens={}), _interned(_parse_vector, tag)
    r_vector = _interned(_parse_vector, tag)
    coeffs, record_lines = {}, []
    for i, raw in _body(lines):
        n_text, r_text, value = _split_pair(raw, i)
        key = (matrix(n_text, g, i), r_vector(r_text, g, i))
        if key in coeffs:
            raise ParseError("repeated key (%s ; %s)" % (key[0].to_text(), _vec_text(key[1])), i)
        coeffs[key] = vector(value, dim, i)
        record_lines.append(i)
    return _construct(make, coeffs, record_lines)


def write_jacobi_by_elements(t) -> str:
    """The former `formats.write_jacobi`: the `coeffs` view in
    `canonical_pair_order`, every n and r rendered per record."""
    from hermfj.formats import _header_line, _vec_text

    lines = [_header_line("HJF v1", t.tag.d, t.g, t.k, t.m, t.trunc, t.dim)]
    coeffs = t.coeffs
    for key in canonical_pair_order(coeffs):
        n, r = key
        lines.append("(%s ; %s) = %s" % (n.to_text(), _vec_text(r), _vec_text(coeffs[key])))
    return "\n".join(lines) + "\n"


def write_series_by_support(f) -> str:
    """The former `formats.write_series`: the keys by `_canonical_order`,
    then each t rendered per record."""
    from hermfj.formats import _header_line, _vec_text
    from hermfj.hermitian import _canonical_order

    lines = [_header_line("FJS v1", f.tag.d, f.g, f.k, f.trunc, f.dim)]
    for t in _canonical_order(f.coeffs):
        lines.append("t = %s ; c = %s" % (t.to_text(), _vec_text(f.coeffs[t])))
    return "\n".join(lines) + "\n"


def write_components_by_support(v) -> str:
    """The former `formats.write_components`: each section by
    `_canonical_order`, each n rendered per record."""
    from hermfj.formats import _header_line, _vec_text
    from hermfj.hermitian import _canonical_order

    sample = v.components[v.classes[0]]
    lines = [_header_line("HJC v1", sample.tag.d, sample.g, sample.k, v.m, sample.trunc,
                          sample.dim)]
    for i, s in enumerate(v.classes):
        h = v.components[s]
        lines.append("[class %d; rep = %s; htrunc = %s]" % (i, s.to_text(), h.trunc))
        for n in _canonical_order(h.coeffs):
            lines.append("n = %s ; c = %s" % (n.to_text(), _vec_text(h.coeffs[n])))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the theta path before each key sum, class and coefficient text was built
# once per call


def theta_recompose_by_point_sums(v, trunc):
    """The former `jacobi.theta_recompose`: n' + r m^-1 r* built for every
    point y and every n' its room admits."""
    from hermfj.hermitian import _class_points, _delta_cells, _sublattice
    from hermfj.jacobi import JacobiTable, _shift_matrix

    m = v.m
    trunc = Fraction(trunc)
    sample = next(iter(v.components.values()))
    tag, g, dim, weight = sample.tag, sample.g, sample.dim, sample.k
    cells, sub, scale = _delta_cells(m, tag), _sublattice(tag, m), abs(tag.disc) * m
    top, den = trunc.as_integer_ratio()
    live = {}
    for index, s in enumerate(v.classes):
        h = v.components[s]
        if (h.g, h.tag, h.dim, h.k) != (g, tag, dim, weight):
            raise ValueError("inconsistent components")
        norm0, (num, d) = sum(cells[i][1] for i in sub.digits(index, g)), h.trunc.as_integer_ratio()
        if num * den * scale < (top * scale - den * norm0) * d:
            raise ValueError("component truncation %s insufficient for target %s"
                             % (h.trunc, trunc))
        if h.coeffs:
            live[index] = [(nprime, nprime._trace, vec) for nprime, vec in h.coeffs.items()]
    coeffs = {}
    for index, norm, y in _class_points(g, m, tag, top * scale // den, live):
        shift = _shift_matrix(y, m, tag.d)
        room = top * scale - norm * den
        for nprime, (num, d), vec in live[index]:
            if num * den * scale <= room * d:
                coeffs[(nprime.add(shift), y)] = vec
    return JacobiTable._trusted(g, weight + 1, m, tag, trunc, coeffs, dim)


def theta_decompose_by_key_diffs(phi, strict: bool = False):
    """The former `jacobi.theta_decompose`: n - r m^-1 r* built for every
    key of phi, and with `strict` the pairs (n', r) of each class counted
    against its keys, a class short of keys walked on the keys of its
    `theta_coeffs` table to the witness."""
    from bisect import bisect_right

    from hermfj.errors import ConsistencyError
    from hermfj.field import _pair_sqrt_disc
    from hermfj.hermitian import (_class_points, _delta_cells, _sublattice, _trace_sum,
                                  _trace_within, delta_classes)
    from hermfj.jacobi import ThetaComponentVector, _r_of, _shift_matrix, theta_coeffs
    from hermfj.series import FourierSeries

    m = phi.m
    if m < 1:
        raise ValueError("decomposition requires index >= 1")
    tag, g, trunc = phi.tag, phi.g, phi.trunc
    cells, sub, scale = _delta_cells(m, tag), _sublattice(tag, m), abs(tag.disc) * m
    found, seen, off_y0 = {}, {}, []
    for (n, y), vec in phi._coeffs.items():
        info = seen.get(y)
        if info is None:
            index = sub.class_index(y)
            if index not in found:
                y0 = tuple([c for i in sub.digits(index, g) for c in cells[i][0]])
                found[index] = [{}, 0, y0]
            info = seen[y] = (found[index], _shift_matrix(y, m, tag.d), y == found[index][2])
        entry, shift, at_y0 = info
        nprime = n.sub(shift)
        if at_y0:
            entry[0][nprime] = vec
        else:
            entry[0].setdefault(nprime, None)
            entry[1] += 1
            off_y0.append((nprime, y, vec, entry))
    for nprime, y, vec, (body, _off, y0) in off_y0:
        if body[nprime] != vec:
            raise ConsistencyError("well-definedness violation: representatives disagree",
                                   witness=(nprime, _r_of(y, tag), _r_of(y0, tag)))
    top, den = trunc.as_integer_ratio()
    norms = {}
    if strict:
        for index, norm, _y in _class_points(g, m, tag, top * scale // den, found):
            norms.setdefault(index, []).append(norm)
        for ns in norms.values():
            ns.sort()
    step = _pair_sqrt_disc(m, 0, tag)
    classes, components = delta_classes(g, m, tag), {}
    for index, s in enumerate(classes):
        norm0 = sum(cells[i][1] for i in sub.digits(index, g))
        h_trunc = Fraction(top * scale - den * norm0, den * scale)
        body, off, y0 = found.get(index) or ({}, 0, ())
        components[s] = FourierSeries._trusted(g, phi.k - 1, tag, h_trunc, body, phi.dim,
                                               semi_integral=False)
        if not body:
            continue
        y1 = (y0[0] + step[0], y0[1] + step[1]) + y0[2:]
        shift1 = _shift_matrix(y1, m, tag.d)
        room1 = _trace_sum((top, den), shift1._trace, -1)
        for nprime, vec in body.items():
            if _trace_within(nprime, room1) and \
                    phi._coeffs.get((nprime.add(shift1), y1)) != vec:
                raise ConsistencyError("well-definedness violation at spare representative",
                                       witness=(nprime, _r_of(y0, tag), _r_of(y1, tag)))
        if strict and len(body) + off != sum(
                bisect_right(norms.get(index, ()), (top * d - num * den) * scale // (den * d))
                for num, d in (nprime._trace for nprime in body)):
            points = theta_coeffs(m, s, trunc)._coeffs
            for nprime, vec in body.items():
                room = _trace_sum((top, den), nprime._trace, -1)
                for shift, y_any in points:
                    if not _trace_within(shift, room):
                        break
                    if phi._coeffs.get((nprime.add(shift), y_any)) != vec:
                        r_any = _r_of(y_any, tag)
                        raise ConsistencyError(
                            "well-definedness violation at representative %r" % (r_any,),
                            witness=(nprime, _r_of(y0, tag), r_any))
    return ThetaComponentVector(m, classes, components)


def write_jacobi_by_record_vecs(t) -> str:
    """The former `formats.write_jacobi`: each coefficient vector rendered
    per record."""
    from hermfj.formats import _header_line, _vec_text
    from hermfj.hermitian import _entries_text

    lines = [_header_line("HJF v1", t.tag.d, t.g, t.k, t.m, t.trunc, t.dim)]
    disc, r_texts = abs(t.tag.disc), {}
    for (_trace, n_text), x, _n, y, vec in t._records():
        r_text = r_texts.get(y)
        if r_text is None:
            r_text = r_texts[y] = _entries_text(zip(x[::2], x[1::2]), disc)
        lines.append("(%s ; %s) = %s" % (n_text, r_text, _vec_text(vec)))
    return "\n".join(lines) + "\n"


def read_components_by_parsed_reps(text: str):
    """The former `formats.read_components`: every class rep parsed and
    built by the `CosetClass` constructor."""
    from functools import partial

    from hermfj.errors import ParseError
    from hermfj.formats import (_body, _construct, _interned, _parse_header, _parse_matrix,
                                _parse_q, _parse_vector, _split_labelled)
    from hermfj.hermitian import CosetClass
    from hermfj.jacobi import ThetaComponentVector
    from hermfj.series import FourierSeries

    lines = text.splitlines()
    tag, g, k, m, trunc, dim = _parse_header(lines, "HJC v1")
    if m < 1:
        raise ParseError("index m must be >= 1", 1)

    def component(h_trunc):
        return partial(FourierSeries, g, k, tag, h_trunc, dim=dim, semi_integral=False)

    _construct(component(trunc), {}, [])
    matrix, vector = _interned(_parse_matrix, tag, tokens={}), _interned(_parse_vector, tag)
    rep_elements, htruncs, classes, class_lines, components = {}, {}, [], [], {}
    for i, raw in _body(lines):
        if raw.startswith("[class "):
            if classes:
                components[classes[-1]] = _construct(component(h_trunc), body, body_lines)
            if not raw.endswith("]"):
                raise ParseError("unterminated class header", i)
            parts = [p.strip() for p in raw[1:-1].split(";")]
            if len(parts) != 3 or not parts[1].startswith("rep = ") \
                    or not parts[2].startswith("htrunc = "):
                raise ParseError("bad class header", i)
            if parts[0] != "class %d" % len(classes):
                raise ParseError("expected section 'class %d'" % len(classes), i)
            rep = _parse_vector(parts[1][len("rep = "):], g, tag, i, rep_elements)
            try:
                classes.append(CosetClass(m, rep, tag))
            except ValueError as exc:
                raise ParseError(str(exc), i) from exc
            class_lines.append(i)
            h_text = parts[2][len("htrunc = "):]
            h_trunc = htruncs.get(h_text)
            if h_trunc is None:
                h_trunc = htruncs[h_text] = _parse_q(h_text, i)
            body, body_lines = {}, []
            continue
        if not classes:
            raise ParseError("record before any [class ...] section", i)
        n_text, value = _split_labelled(raw, "n", i)
        n = matrix(n_text, g, i)
        if n in body:
            raise ParseError("repeated key n = %s in class %d" % (n.to_text(), len(classes) - 1), i)
        body[n] = vector(value, dim, i)
        body_lines.append(i)
    if not classes:
        raise ParseError("bundle holds no classes", 1)
    components[classes[-1]] = _construct(component(h_trunc), body, body_lines)
    bundle = _construct(partial(ThetaComponentVector, m, classes), components, class_lines,
                        range(len(classes)))
    if trunc != components[classes[0]].trunc:
        raise ParseError("header trunc=%s must equal the class 0 htrunc %s"
                         % (trunc, components[classes[0]].trunc), 1)
    return bundle


# ----------------------------------------------------------------------
# the series-ring path before the trace window, the strict cap, the
# per-read token map and the per-call entry map


def mul_by_all_pairs(f, h):
    """The former `FourierSeries.__mul__` on scalar series of one degree and
    field: every pair of keys tested against the room tr t1 leaves."""
    from hermfj.hermitian import _trace_sum, _trace_within
    from hermfj.series import FourierSeries

    trunc = min(f.trunc, h.trunc)
    bound = trunc.as_integer_ratio()
    out = {}
    for t1, v1 in f.coeffs.items():
        room = _trace_sum(bound, t1._trace, -1)
        for t2, v2 in h.coeffs.items():
            if not _trace_within(t2, room):
                continue
            t = t1.add(t2)
            prod = v1[0] * v2[0]
            prev = out.get(t)
            out[t] = ((prev[0] + prod),) if prev is not None else (prod,)
    return FourierSeries._trusted(f.g, f.k + h.k, f.tag, trunc, out, 1,
                                  f.semi_integral and h.semi_integral)


def min_represented_by_inclusive_bound(t) -> Fraction:
    """The former `hermitian.min_represented`: one key searched up to and
    including its least diagonal entry, with no bound shared between keys."""
    from hermfj.field import _lattice_points, _ldl_pivots, _search_levels

    gram, den = t._gram()
    pivots = _ldl_pivots(gram)
    if pivots is None:
        raise ValueError("matrix is not positive semidefinite")
    dim = len(gram)
    if len(pivots) < dim:
        return Fraction(0)
    points = _lattice_points(_search_levels(gram, pivots), (0,) * dim, 1,
                             min(gram[i][i] for i in range(0, dim, 2)))
    return Fraction(min(q for q, _v in points if q), 2 * den)


def vanishing_order_by_keys(keys):
    """The former vanishing orders: the least `min_represented_by_inclusive_bound`
    over `keys`, +inf for none."""
    from math import inf

    return min((min_represented_by_inclusive_bound(t) for t in keys), default=inf)


def text_order_by_full_text(mats) -> dict:
    """The former `hermitian._text_order`: (trace, `to_text`) per distinct
    matrix, each text rendered whole."""
    from math import lcm

    mats = set(mats)
    big = lcm(*(t._trace[1] for t in mats))
    return {t: (t._trace[0] * (big // t._trace[1]), t.to_text()) for t in mats}


def from_text_by_whole_tokens(text: str, g: int, tag: FieldTag):
    """The former `HermMatrix.from_text`: every entry of the text parsed by
    `field._parse_token`, then the hermicity check and the key build."""
    from math import lcm

    from hermfj.field import _pair_conj, _parse_token
    from hermfj.hermitian import HermMatrix

    parts = text.split(",")
    if len(parts) != g * g:
        raise ValueError("expected %d entries, got %d" % (g * g, len(parts)))
    cells = [_parse_token(p) for p in parts]
    if g == 1:
        p, q, den = cells[0]
        if q:
            raise ValueError("matrix is not Hermitian")
        return HermMatrix._trusted(1, (den, p, 0), tag)
    if g < 1:
        return HermMatrix((), tag)
    upper = []
    for i in range(g):
        for j in range(i, g):
            (p, q, den), (pc, qc, dc) = cells[i * g + j], cells[j * g + i]
            pc, qc = _pair_conj(pc, qc, tag)
            if p * dc != pc * den or q * dc != qc * den:
                raise ValueError("matrix is not Hermitian")
            upper.append((p, q, den))
    den = lcm(*(d for _p, _q, d in upper))
    return HermMatrix._trusted(g, [den] + [c * (den // d) for p, q, d in upper for c in (p, q)],
                               tag)


# ----------------------------------------------------------------------
# block and diagonal matrices written entry by entry (the former bodies of
# `unitary._j_matrix`, `UnitaryElement.from_blocks`, `jacobi_embed`,
# `diag_embed`, `heisenberg_transform`, `UnitaryElement.inverse`,
# `linalg.identity`, `HermMatrix.diagonal` and `UnitMatrix.diagonal_units`)


def identity_by_entries(n: int, tag: FieldTag):
    one = FieldElement.one(tag)
    z = FieldElement.zero(tag)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def j_matrix_by_entries(g: int, tag: FieldTag):
    one = FieldElement.one(tag)
    z = FieldElement.zero(tag)
    rows = []
    for i in range(2 * g):
        row = [z] * (2 * g)
        if i < g:
            row[i + g] = one
        else:
            row[i - g] = -one
        rows.append(tuple(row))
    return tuple(rows)


def from_blocks_by_rows(a, b, c, d, tag: FieldTag):
    from hermfj.unitary import UnitaryElement

    g = len(a)
    rows = []
    for i in range(g):
        rows.append(tuple(a[i]) + tuple(b[i]))
    for i in range(g):
        rows.append(tuple(c[i]) + tuple(d[i]))
    return UnitaryElement(rows, tag)


def block_by_index(gamma, which: str):
    """The former `UnitaryElement.block`, for which in "abcd"."""
    g = gamma.g
    r0 = 0 if which in ("a", "b") else g
    c0 = 0 if which in ("a", "c") else g
    return tuple(tuple(gamma.entries[r0 + i][c0 + j] for j in range(g)) for i in range(g))


def unitary_inverse_by_blocks(gamma):
    from hermfj import linalg

    a, b = block_by_index(gamma, "a"), block_by_index(gamma, "b")
    c, d = block_by_index(gamma, "c"), block_by_index(gamma, "d")
    ct = linalg.conj_transpose
    return from_blocks_by_rows(ct(d), linalg.mat_neg(ct(b)), linalg.mat_neg(ct(c)), ct(a),
                               gamma.tag)


def heisenberg_transform_by_blocks(h, gamma):
    from hermfj import linalg
    from hermfj.unitary import HeisenbergElement

    a, b = block_by_index(gamma, "a"), block_by_index(gamma, "b")
    c, d = block_by_index(gamma, "c"), block_by_index(gamma, "d")
    lam = linalg.mat_add(linalg.mat_mul(h.lam, a), linalg.mat_mul(h.mu, c))
    mu = linalg.mat_add(linalg.mat_mul(h.lam, b), linalg.mat_mul(h.mu, d))
    return HeisenbergElement(lam, mu, h.kappa, h.tag)


def jacobi_embed_by_entries(gamma, h):
    from hermfj import linalg
    from hermfj.unitary import UnitaryElement, is_unitary

    if not is_unitary(gamma):
        raise ValueError("gamma is not in U(g,g)(Z)")
    if h.g != gamma.g or h.tag != gamma.tag:
        raise ValueError("size or field mismatch")
    g, l = gamma.g, h.l
    tag = gamma.tag
    n = g + l
    one = FieldElement.one(tag)
    z = FieldElement.zero(tag)

    def blank():
        return [[z] * (2 * n) for _ in range(2 * n)]

    # block coordinates: [0:g] tau-part, [g:g+l] jacobi part, then duals
    m1 = blank()
    a, b = block_by_index(gamma, "a"), block_by_index(gamma, "b")
    c, d = block_by_index(gamma, "c"), block_by_index(gamma, "d")
    for i in range(g):
        for j in range(g):
            m1[i][j] = a[i][j]
            m1[i][n + j] = b[i][j]
            m1[n + i][j] = c[i][j]
            m1[n + i][n + j] = d[i][j]
    for i in range(l):
        m1[g + i][g + i] = one
        m1[n + g + i][n + g + i] = one

    m2 = blank()
    for i in range(2 * n):
        m2[i][i] = one
    lam_ct = linalg.conj_transpose(h.lam)
    mu_ct = linalg.conj_transpose(h.mu)
    for i in range(g):
        for j in range(l):
            m2[i][n + g + j] = mu_ct[i][j]  # mu* block
            m2[n + i][n + g + j] = -lam_ct[i][j]  # -lambda* block
    for i in range(l):
        for j in range(g):
            m2[g + i][j] = h.lam[i][j]
            m2[g + i][n + j] = h.mu[i][j]
        for j in range(l):
            m2[g + i][n + g + j] = h.kappa[i][j]

    product = linalg.mat_mul(linalg.freeze(m1), linalg.freeze(m2))
    return UnitaryElement(product, tag)


def diag_embed_by_entries(j: int, gamma1, g: int):
    from hermfj.unitary import UnitaryElement

    if gamma1.g != 1:
        raise ValueError("expected a degree-1 element")
    if not 1 <= j <= g:
        raise ValueError("index out of range: j=%d, g=%d" % (j, g))
    tag = gamma1.tag
    rows = [list(r) for r in identity_by_entries(2 * g, tag)]
    i = j - 1
    rows[i][i] = gamma1.entries[0][0]
    rows[i][i + g] = gamma1.entries[0][1]
    rows[i + g][i] = gamma1.entries[1][0]
    rows[i + g][i + g] = gamma1.entries[1][1]
    return UnitaryElement(rows, tag)


def herm_diagonal_by_entries(values, tag: FieldTag):
    from hermfj.hermitian import HermMatrix

    g = len(values)
    rows = [[FieldElement.zero(tag)] * g for _ in range(g)]
    for i, v in enumerate(values):
        rows[i][i] = v if isinstance(v, FieldElement) else FieldElement(Fraction(v), 0, tag)
    return HermMatrix(rows, tag)


def diagonal_units_by_entries(units, tag: FieldTag):
    from hermfj.hermitian import UnitMatrix

    z = FieldElement.zero(tag)
    return UnitMatrix([[u if i == j else z for j in range(len(units))]
                       for i, u in enumerate(units)], tag)
