"""Exact Hermitian matrices over E and the lattice machinery built on them.

Covers semi-integrality and definiteness tests, the GL_g(O) action,
deterministic enumeration of semi-integral positive semidefinite matrices,
minimal represented values, and the coset groups O^#^g / m O^g with their
small canonical representatives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterator, Sequence

from . import linalg
from .field import (
    FieldElement,
    FieldTag,
    Immutable,
    coset_points,
    euclidean_round,
    sqrt_disc,
)

Vector = tuple[FieldElement, ...]


class HermMatrix(Immutable):
    """A g x g Hermitian matrix over E with exact entries.

    The constructor checks hermicity (and hence rationality of the
    diagonal).  Semi-integrality (integer diagonal, off-diagonal entries in
    the inverse different) is a separate queryable property, since theta
    supports carry rational diagonals.
    """

    __slots__ = ("g", "entries", "tag", "_hash", "_trace")

    def __init__(self, entries: Sequence[Sequence[FieldElement]], tag: FieldTag):
        rows = linalg.freeze(entries)
        n, m = linalg.shape(rows)
        if n != m or n == 0:
            raise ValueError("expected a nonempty square matrix, got %dx%d" % (n, m))
        if not linalg.is_hermitian(rows):
            raise ValueError("matrix is not Hermitian")
        object.__setattr__(self, "g", n)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_trace", None)

    @classmethod
    def from_rational(cls, x, tag: FieldTag) -> "HermMatrix":
        """The 1x1 matrix [x] for a rational x."""
        return cls(((FieldElement(Fraction(x), 0, tag),),), tag)

    @classmethod
    def zero(cls, g: int, tag: FieldTag) -> "HermMatrix":
        return cls(linalg.zeros(g, g, tag), tag)

    @classmethod
    def identity(cls, g: int, tag: FieldTag) -> "HermMatrix":
        return cls(linalg.identity(g, tag), tag)

    @classmethod
    def diagonal(cls, values: Sequence, tag: FieldTag) -> "HermMatrix":
        g = len(values)
        rows = [[FieldElement.zero(tag)] * g for _ in range(g)]
        for i, v in enumerate(values):
            rows[i][i] = v if isinstance(v, FieldElement) else FieldElement(Fraction(v), 0, tag)
        return cls(rows, tag)

    def trace(self) -> Fraction:
        t = self._trace
        if t is None:
            t = linalg.trace_rational(self.entries)
            object.__setattr__(self, "_trace", t)
        return t

    def is_semi_integral(self) -> bool:
        for i in range(self.g):
            e = self.entries[i][i]
            if e.b or e.a.denominator != 1:
                return False
            for j in range(i + 1, self.g):
                if not self.entries[i][j].is_dual_integral():
                    return False
        return True

    def _psd_rank(self) -> int | None:
        """The rank if the matrix is positive semidefinite, else None.

        Exact Hermitian LDL*: row k is eliminated with its current diagonal
        entry p as the pivot, and the rows below it are replaced by the Schur
        complement, whose diagonal stays rational (a_ii - N(a_ki)/p).  A
        negative p rules out semidefiniteness, and so does p = 0 with a
        nonzero entry a_kj left in its row (the 2x2 principal minor on k, j
        is -N(a_kj) < 0); p = 0 over a zero row drops the row.  Only the
        upper triangle is kept.
        """
        g, tag = self.g, self.tag
        upper = [list(row) for row in self.entries]
        diag = [row[i].a for i, row in enumerate(self.entries)]
        rank = 0
        for k in range(g):
            p = diag[k]
            row = upper[k]
            if p < 0:
                return None
            if not p:
                for j in range(k + 1, g):
                    if not row[j].is_zero():
                        return None
                continue
            rank += 1
            for i in range(k + 1, g):
                x = row[i]
                if x.is_zero():
                    continue
                diag[i] -= x.norm() / p
                xc = x.conj()  # a_ik
                ratio = FieldElement(xc.a / p, xc.b / p, tag)
                target = upper[i]
                for j in range(i + 1, g):
                    y = row[j]
                    if not y.is_zero():
                        target[j] = target[j] - ratio * y
        return rank

    def _int_coords(self) -> tuple[list[list[tuple[int, int]]], int]:
        """The entries as integer coordinate pairs over one denominator.

        Returns (rows, den) with den the lcm of all coordinate denominators
        and entry (i, j) equal to (A + B*w) / den for rows[i][j] = (A, B).
        Exact, so integer kernels on these pairs give exact results.
        """
        den = lcm(*(x.denominator for row in self.entries for e in row for x in (e.a, e.b)))
        return [
            [(e.a.numerator * (den // e.a.denominator), e.b.numerator * (den // e.b.denominator))
             for e in row]
            for row in self.entries
        ], den

    def is_psd(self) -> bool:
        """Positive semidefinite, tested by exact LDL* with O(g^3) field
        operations (see `_psd_rank`)."""
        return self._psd_rank() is not None

    def is_pd(self) -> bool:
        """Positive definite: semidefinite with all g pivots positive, i.e.
        no row dropped by the elimination."""
        return self._psd_rank() == self.g

    def add(self, other: "HermMatrix") -> "HermMatrix":
        if other.g != self.g or other.tag != self.tag:
            raise ValueError("matrix size or field mismatch")
        return HermMatrix(linalg.mat_add(self.entries, other.entries), self.tag)

    def sub(self, other: "HermMatrix") -> "HermMatrix":
        if other.g != self.g or other.tag != self.tag:
            raise ValueError("matrix size or field mismatch")
        return HermMatrix(linalg.mat_sub(self.entries, other.entries), self.tag)

    def __eq__(self, other):
        return (
            isinstance(other, HermMatrix)
            and other.tag == self.tag
            and other.entries == self.entries
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.entries, self.tag.d))
            object.__setattr__(self, "_hash", h)
        return h

    def to_text(self) -> str:
        """Row-major entries in the field-element text format."""
        return ",".join(e.to_text() for row in self.entries for e in row)

    @classmethod
    def from_text(cls, text: str, g: int, tag: FieldTag) -> "HermMatrix":
        parts = text.split(",")
        if len(parts) != g * g:
            raise ValueError("expected %d entries, got %d" % (g * g, len(parts)))
        vals = [FieldElement.from_text(p, tag) for p in parts]
        rows = [vals[i * g : (i + 1) * g] for i in range(g)]
        return cls(rows, tag)

    def sort_key(self) -> tuple:
        return (self.trace(), self.to_text())

    def __repr__(self):
        return "HermMatrix(%s, g=%d, d=%d)" % (self.to_text(), self.g, self.tag.d)


class UnitMatrix(Immutable):
    """An element of GL_g(O): integral entries and unit determinant.

    `_coords` holds the entries as integer coordinate pairs (a, b)."""

    __slots__ = ("g", "entries", "tag", "det_unit", "_coords")

    def __init__(self, entries: Sequence[Sequence[FieldElement]], tag: FieldTag):
        rows = linalg.freeze(entries)
        n, m = linalg.shape(rows)
        if n != m or n == 0:
            raise ValueError("expected a nonempty square matrix")
        for row in rows:
            for e in row:
                if not e.is_integral():
                    raise ValueError("unit matrix entries must lie in O")
        d = linalg.det(rows)
        if d.norm() != 1:
            raise ValueError("determinant is not a unit of O")
        object.__setattr__(self, "g", n)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "det_unit", d)
        object.__setattr__(self, "_coords", tuple(
            tuple((e.a.numerator, e.b.numerator) for e in row) for row in rows))

    @classmethod
    def identity(cls, g: int, tag: FieldTag) -> "UnitMatrix":
        return cls(linalg.identity(g, tag), tag)

    @classmethod
    def permutation(cls, perm: Sequence[int], tag: FieldTag) -> "UnitMatrix":
        g = len(perm)
        one = FieldElement.one(tag)
        z = FieldElement.zero(tag)
        return cls(
            tuple(tuple(one if perm[i] == j else z for j in range(g)) for i in range(g)),
            tag,
        )

    @classmethod
    def elementary(cls, g: int, i: int, j: int, value: FieldElement) -> "UnitMatrix":
        """I + value * E_ij for i != j."""
        if i == j:
            raise ValueError("elementary matrix requires i != j")
        rows = [list(r) for r in linalg.identity(g, value.tag)]
        rows[i][j] = value
        return cls(rows, value.tag)

    @classmethod
    def diagonal_units(cls, units: Sequence[FieldElement], tag: FieldTag) -> "UnitMatrix":
        g = len(units)
        z = FieldElement.zero(tag)
        return cls(
            tuple(tuple(units[i] if i == j else z for j in range(g)) for i in range(g)),
            tag,
        )

    def inverse(self) -> "UnitMatrix":
        # det is a unit, so det^-1 = conj(det)/N(det) stays integral
        inv_det = self.det_unit.inv()
        adj = linalg.adjugate(self.entries)
        return UnitMatrix(linalg.scalar_mul(inv_det, adj), self.tag)

    def mul(self, other: "UnitMatrix") -> "UnitMatrix":
        if other.g != self.g or other.tag != self.tag:
            raise ValueError("matrix size or field mismatch")
        return UnitMatrix(linalg.mat_mul(self.entries, other.entries), self.tag)

    __mul__ = mul

    def conj_transpose_entries(self) -> linalg.Matrix:
        return linalg.conj_transpose(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, UnitMatrix)
            and other.tag == self.tag
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.entries, self.tag.d))

    def __repr__(self):
        return "UnitMatrix(%s, g=%d, d=%d)" % (
            ",".join(e.to_text() for row in self.entries for e in row),
            self.g,
            self.tag.d,
        )


def _int_dot(xs, ys, s: int, n: int) -> tuple[int, int]:
    """sum_k x_k * y_k over integer coordinate pairs, with w^2 = s*w + n,
    where s = tag._norm_s and n = -tag._norm_t = -N(w).  Then
    conj(a + b*w) = (a + s*b) - b*w."""
    p = q = 0
    for (a, b), (c, e) in zip(xs, ys):
        be = b * e
        p += a * c + n * be
        q += a * e + b * c + s * be
    return p, q


def gl_action(u: UnitMatrix, t: HermMatrix) -> HermMatrix:
    """u* t u; preserves semi-integrality and positive semidefiniteness.

    Exact, on integer coordinates: V = t u is formed from
    `t._int_coords()` and the integral coordinates of u, then only the
    upper triangle of u* V; the lower triangle is its conjugate.  Each
    entry is divided by the common denominator of t once, as it is built.
    """
    if u.g != t.g or u.tag != t.tag:
        raise ValueError("matrix size or field mismatch")
    g, tag = t.g, t.tag
    s, n = tag._norm_s, -tag._norm_t
    rows, den = t._int_coords()
    ucols = list(zip(*u._coords))
    vcols = [[_int_dot(row, col, s, n) for row in rows] for col in ucols]
    out = [[None] * g for _ in range(g)]
    for i in range(g):
        ustar_row = [(a + s * b, -b) for a, b in ucols[i]]
        for j in range(i, g):
            a, b = _int_dot(ustar_row, vcols[j], s, n)
            out[i][j] = FieldElement(Fraction(a, den), Fraction(b, den), tag)
            if j != i:
                out[j][i] = FieldElement(Fraction(a + s * b, den), Fraction(-b, den), tag)
    return HermMatrix(out, tag)


# ----------------------------------------------------------------------
# enumeration of semi-integral PSD matrices


def _dual_points_bounded(tag: FieldTag, bound: Fraction) -> list[FieldElement]:
    """All x in O^# with N(x) <= bound."""
    sd = sqrt_disc(tag)
    inv_sd = sd.inv()
    scaled = coset_points(FieldElement.zero(tag), 1, bound * abs(tag.disc))
    return [y * inv_sd for y in scaled]


def _diagonal_tuples(g: int, total: int) -> Iterator[tuple[int, ...]]:
    if g == 1:
        for v in range(total + 1):
            yield (v,)
        return
    for v in range(total + 1):
        for rest in _diagonal_tuples(g - 1, total - v):
            yield (v,) + rest


def enumerate_semi_integral(g: int, trace_bound: int, tag: FieldTag) -> list[HermMatrix]:
    """All semi-integral PSD matrices with trace <= trace_bound, each once,
    ordered by (trace, lexicographic serialization)."""
    if trace_bound < 0:
        raise ValueError("trace_bound must be >= 0")
    zero = FieldElement.zero(tag)
    results: list[HermMatrix] = []
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    for diag in _diagonal_tuples(g, trace_bound):
        # candidates per off-diagonal slot, limited by the 2x2 minor bound
        slot_candidates = []
        feasible = True
        for (i, j) in pairs:
            cap = Fraction(diag[i] * diag[j])
            cands = _dual_points_bounded(tag, cap) if cap > 0 else [zero]
            if not cands:
                feasible = False
                break
            slot_candidates.append(cands)
        if not feasible:
            continue

        def fill(k: int, rows):
            if k == len(pairs):
                mat = HermMatrix(rows, tag)
                if mat.is_psd():
                    results.append(mat)
                return
            i, j = pairs[k]
            for x in slot_candidates[k]:
                rows[i][j] = x
                rows[j][i] = x.conj()
                fill(k + 1, rows)
            rows[i][j] = zero
            rows[j][i] = zero

        base = [[zero] * g for _ in range(g)]
        for i in range(g):
            base[i][i] = FieldElement(diag[i], 0, tag)
        fill(0, base)
    results.sort(key=HermMatrix.sort_key)
    return results


# ----------------------------------------------------------------------
# minimal represented values


def _ldl(gram: list[list[int]]):
    """LDL^T of a positive definite integer matrix, in Fractions; L unit
    lower triangular."""
    n = len(gram)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        s = Fraction(gram[j][j])
        for k in range(j):
            s -= L[j][k] * L[j][k] * D[k]
        if s <= 0:
            raise ValueError("matrix is not positive definite")
        D[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            v = Fraction(gram[i][j])
            for k in range(j):
                v -= L[i][k] * L[j][k] * D[k]
            L[i][j] = v / D[j]
    return L, D


def min_represented(t: HermMatrix) -> Fraction:
    """min over nonzero omega in O^g of omega* t omega, for PSD t.

    Exact.  Degenerate t (rank < g by `HermMatrix._psd_rank`) represents 0:
    a kernel vector over E scales to an integral one by clearing
    denominators.  A t that is not positive semidefinite raises ValueError.
    For definite t the search is certified by the smallest diagonal entry,
    which e_i attains.

    The search is Fincke-Pohst on the coordinate lattice Z^{2g} of O^g
    (basis e_i and w*e_i interleaved), in integers: the Gram matrix is
    taken times 2*den, with den from `t._int_coords()`, and its rational
    LDL^T is cleared to one denominator c_i per column of L and scaled
    pivots K_i, so that coordinate i contributes K_i * (c_i z_i + off_i)^2
    with off_i an integer fixed by the coordinates above it.
    """
    rank = t._psd_rank()
    if rank is None:
        raise ValueError("matrix is not positive semidefinite")
    if rank < t.g:
        return Fraction(0)
    s, n = t.tag._norm_s, -t.tag._norm_t
    rows, den = t._int_coords()
    dim = 2 * t.g
    # Tr(x), Tr(x w), Tr(conj(w) x) and N(w) Tr(x) for x = den * t_ij
    gram = [[0] * dim for _ in range(dim)]
    for i, row in enumerate(rows):
        for j, (a, b) in enumerate(row):
            tr = 2 * a + s * b
            gram[2 * i][2 * j] = tr
            gram[2 * i][2 * j + 1] = 2 * n * b + s * (a + s * b)
            gram[2 * i + 1][2 * j] = s * a - 2 * n * b
            gram[2 * i + 1][2 * j + 1] = -n * tr
    L, D = _ldl(gram)
    col_dens = [lcm(*(L[j][i].denominator for j in range(i + 1, dim))) for i in range(dim)]
    scale = lcm(*((D[i] / (c * c)).denominator for i, c in enumerate(col_dens)))
    levels = [
        (c, int(scale * D[i] / (c * c)),
         [(j, int(L[j][i] * c)) for j in range(i + 1, dim) if L[j][i]])
        for i, c in enumerate(col_dens)
    ]
    z = [0] * dim
    best = 0  # the most budget a nonzero vector leaves; 0 means the bound

    def search(i: int, rem: int):
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
# coset classes Delta_g(m) = (O^#)^g / m O^g


class _SublatticeData(Immutable):
    """Reduction data for m*sqrt(D)*O inside O, in basis coordinates.

    Basis of the sublattice brought to the shape v1 = (p, q), v2 = (ell, 0)
    with q, ell > 0; the canonical box is 0 <= a < ell, 0 <= b < q.
    """

    __slots__ = ("p", "q", "ell")

    def __init__(self, tag: FieldTag, m: int):
        sd = sqrt_disc(tag)
        w = FieldElement.omega(tag)
        c1 = (sd * m).a, (sd * m).b
        gen2 = sd * w * m
        c2 = gen2.a, gen2.b
        a1, b1 = int(c1[0]), int(c1[1])
        a2, b2 = int(c2[0]), int(c2[1])
        # zero the b-component of the second generator via Bezout
        x, y = _bezout(b1, b2)
        gcd = x * b1 + y * b2
        v1 = (x * a1 + y * a2, gcd)
        k1, k2 = b2 // gcd, -b1 // gcd
        v2 = (k1 * a1 + k2 * a2, 0)
        ell = abs(v2[0])
        q = v1[1]
        p = v1[0] % ell
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ell", ell)

    def reduce(self, a: int, b: int) -> tuple[int, int]:
        k = b // self.q
        a1 = a - k * self.p
        b1 = b - k * self.q
        return a1 % self.ell, b1

    def box(self) -> Iterator[tuple[int, int]]:
        for a in range(self.ell):
            for b in range(self.q):
                yield a, b


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_s, old_t


# keyed by (tag, m); a batch touches at most 15 keys
_sublattice = lru_cache(maxsize=64)(_SublatticeData)


class CosetClass(Immutable):
    """A class in (O^#)^g / m O^g, held by its canonical representative."""

    __slots__ = ("m", "rep", "tag")

    def __init__(self, m: int, rep: Vector, tag: FieldTag):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rep", tuple(rep))
        object.__setattr__(self, "tag", tag)

    @property
    def g(self) -> int:
        return len(self.rep)

    def __eq__(self, other):
        return (
            isinstance(other, CosetClass)
            and other.m == self.m
            and other.tag == self.tag
            and other.rep == self.rep
        )

    def __hash__(self):
        return hash((self.m, self.rep, self.tag.d))

    def sort_key(self) -> tuple:
        return tuple(e.sort_key() for e in self.rep)

    def to_text(self) -> str:
        return ",".join(e.to_text() for e in self.rep)

    def __repr__(self):
        return "CosetClass(m=%d, rep=[%s], d=%d)" % (self.m, self.to_text(), self.tag.d)


def _reduce_component(x: FieldElement, m: int) -> FieldElement:
    tag = x.tag
    y = x * sqrt_disc(tag)
    if not y.is_integral():
        raise ValueError("%r does not lie in the inverse different" % (x,))
    data = _sublattice(tag, m)
    a, b = data.reduce(int(y.a), int(y.b))
    return FieldElement(a, b, tag) * sqrt_disc(tag).inv()


def reduce_class(r: Sequence[FieldElement], m: int) -> CosetClass:
    """Canonical representative of the class of r in (O^#)^g / m O^g."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rep = tuple(_reduce_component(x, m) for x in r)
    return CosetClass(m, rep, rep[0].tag)


@lru_cache(maxsize=64)
def delta_classes(g: int, m: int, tag: FieldTag) -> tuple[CosetClass, ...]:
    """All classes of Delta_g(m), duplicate-free and in canonical order;
    |result| = (m^2 |D|)^g.

    The tuple is shared between calls: an LRU cache of 64 (g, m, tag) keys
    holds it, well above the at most 15 keys a batch asks for.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    data = _sublattice(tag, m)
    inv_sd = sqrt_disc(tag).inv()
    component = [FieldElement(a, b, tag) * inv_sd for a, b in data.box()]

    def build(k: int):
        if k == 0:
            yield ()
            return
        for prefix in build(k - 1):
            for x in component:
                yield prefix + (x,)

    return tuple(CosetClass(m, rep, tag) for rep in build(g))


@lru_cache(maxsize=4096)
def small_rep(s: CosetClass) -> Vector:
    """A representative r of s with |r_i|^2 <= (1 - c) m^2 componentwise,
    built by rounding each coordinate of rep/m back into the fundamental
    cell.  Rounding minimizes each component norm over the class.

    Memoised per class in an LRU cache of 4096 entries; a benchmark batch
    needs at most 462.
    """
    m = s.m
    return tuple(x - euclidean_round(x / m) * m for x in s.rep)


def in_same_class(r1: Sequence[FieldElement], r2: Sequence[FieldElement], m: int) -> bool:
    """Whether r1 - r2 lies in m O^g."""
    for x, y in zip(r1, r2):
        diff = (x - y) / m
        if not diff.is_integral():
            return False
    return True
