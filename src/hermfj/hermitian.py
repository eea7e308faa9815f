"""Exact Hermitian matrices over E and the lattice machinery built on them.

Covers semi-integrality and definiteness tests, the GL_g(O) action,
deterministic enumeration of semi-integral positive semidefinite matrices,
minimal represented values, and the coset groups O^#^g / m O^g with their
small canonical representatives.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import ceil, gcd, inf, lcm
from typing import Iterable, Sequence

from . import linalg
from .field import (
    FieldElement,
    FieldTag,
    Immutable,
    _clear_dens,
    _herm_psd_rank,
    _in_field,
    _lattice_points,
    _ldl_pivots,
    _norm_levels,
    _pair_conj, _pair_dot, _pair_mul, _pair_norm, _pair_sqrt_disc, _pair_trace,
    _parse_token,
    _search_levels,
    euclidean_round,
)

Vector = tuple[FieldElement, ...]


class HermMatrix(Immutable):
    """A g x g Hermitian matrix over E with exact entries, held as ints.

    `_key` = (D, p_11, q_11, p_12, q_12, ..., p_gg, q_gg) is the upper
    triangle row by row, t_ij = (p_ij + q_ij*w)/D for i <= j, D > 0; the
    lower triangle is its conjugate, so hermicity holds by construction.  In
    lowest terms (gcd 1) the key is canonical: equality and hashing compare
    it.  `entries` is a view built on demand; `_trace` is the trace as ints
    (num, den), den > 0, in lowest terms.

    Validation happens once, at the public boundary: the constructor and
    `from_text`, so every reader, check hermicity, and the constructor
    checks that every entry lies in the field of `tag`.  `_trusted` takes a key
    and skips the checks for `add`, `sub`, `_congruent`, `join_block` and
    `_join_raw`, `split_block`, `enumerate_semi_integral`, the shift
    matrices of `jacobi._shift_matrix` (cached on the ints (y, m, d), y =
    sqrt(D) r), the n blocks of `ffj._corner`, which `ffj.extract_psi0`
    and `ffj._cogenus_one_slice` read, and the blocks that `FJFamily`
    reads off its keys for its views and the FJFAM writer.
    Semi-integrality is a separate query, as theta supports carry rational
    diagonals.  Definiteness and rank come from the LDL* of the key over O
    (`_psd_rank`); the 2g x 2g trace form `_gram` is built only for the
    point search of `min_represented`.
    """

    __slots__ = ("g", "tag", "_key", "_trace")

    def __init__(self, entries: Sequence[Sequence[FieldElement]], tag: FieldTag):
        rows = linalg.freeze(entries)
        n, m = linalg.shape(rows)
        if n != m or n == 0:
            raise ValueError("expected a nonempty square matrix, got %dx%d" % (n, m))
        if not linalg.is_hermitian(rows):
            raise ValueError("matrix is not Hermitian")
        upper = [e for i, row in enumerate(rows) for e in row[i:]]
        # `linalg.is_hermitian` ties each lower entry to its upper one
        _in_field(upper, tag, "entry")
        den, coords = _clear_dens(upper)
        _store(self, n, [den] + coords, tag)

    @classmethod
    def _trusted(cls, g: int, raw: Sequence[int], tag: FieldTag) -> "HermMatrix":
        """The g x g matrix on `raw`, a `_key` up to lowest terms, of a
        matrix Hermitian by construction; skips the checks of `__init__`."""
        return _store(object.__new__(cls), g, raw, tag)

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
        return cls(linalg.diagonal(values, tag), tag)

    @property
    def entries(self) -> linalg.Matrix:
        rows, den = self._int_coords()
        tag, build = self.tag, FieldElement._from_ints
        return tuple(tuple(build(a, b, den, tag) for a, b in row) for row in rows)

    def trace(self) -> Fraction:
        return Fraction(*self._trace)

    def _int_coords(self) -> tuple[list[list[tuple[int, int]]], int]:
        """(rows, D) with entry (i, j) equal to (a + b*w)/D for rows[i][j] =
        (a, b), read off the key, and the conjugates below the diagonal."""
        g, key, tag = self.g, self._key, self.tag
        rows = [[None] * g for _ in range(g)]
        k = 1
        for i in range(g):
            for j in range(i, g):
                a, b = key[k], key[k + 1]
                rows[i][j], rows[j][i] = (a, b), _pair_conj(a, b, tag)
                k += 2
        return rows, key[0]

    def is_semi_integral(self) -> bool:
        """An integer diagonal, and off-diagonal entries in O^# (as in
        `FieldElement.is_dual_integral`), read off the key row by row."""
        key, g, tag = self._key, self.g, self.tag
        den, k = key[0], 1
        for i in range(g):
            if key[k] % den:
                return False
            for j in range(k + 2, k + 2 * (g - i), 2):
                a, b = _pair_sqrt_disc(key[j], key[j + 1], tag)
                if a % den or b % den:
                    return False
            k += 2 * (g - i)
        return True

    def _gram(self) -> tuple[list[list[int]], int]:
        """The trace form of the matrix on the coordinate lattice Z^{2g} of
        O^g (basis e_i and w*e_i interleaved), taken integral: (gram, den)
        with den from `_int_coords` and v^T gram v = 2*den * omega* t omega
        for omega with coordinates v.  `min_represented` searches it; a
        PSD test needs only the g rows of `_psd_rank`.

        Entries are Tr(x), Tr(x w), Tr(conj(w) x) = Tr(w) Tr(x) - Tr(x w) and
        N(w) Tr(x) for x = den * t_ij = a + b*w.  Tr is linear, so Tr(x) and
        Tr(x w) come from Tr(w) and Tr(w^2), found once by the field helpers.
        """
        tag = self.tag
        tw, tw2 = _pair_trace(0, 1, tag), _pair_trace(*_pair_mul(0, 1, 0, 1, tag), tag)
        nw = _pair_norm(0, 1, tag)
        rows, den = self._int_coords()
        gram = []
        for row in rows:
            even, odd = [], []
            for a, b in row:
                tr, trw = 2 * a + b * tw, a * tw + b * tw2
                even += (tr, trw)
                odd += (tw * tr - trw, nw * tr)
            gram += (even, odd)
        return gram, den

    def _psd_rank(self) -> int | None:
        """The rank if the matrix is positive semidefinite, else None.

        A 1x1 key (D, p, 0), D > 0, is the sign of p.  A larger one is the
        pivot count of `field._herm_psd_rank`, the fraction-free LDL* of D*t
        over O read off the key: O(g^3) operations on pairs of ints, and no
        trace form.
        """
        if self.g == 1:
            p = self._key[1]
            return None if p < 0 else int(p > 0)
        return _herm_psd_rank(self._key, self.g, self.tag)

    def is_psd(self) -> bool:
        """Positive semidefinite, tested by the exact elimination of
        `_psd_rank`."""
        return self._psd_rank() is not None

    def is_pd(self) -> bool:
        """Positive definite: semidefinite of full rank g."""
        return self._psd_rank() == self.g

    def add(self, other: "HermMatrix") -> "HermMatrix":
        return self._combine(other, operator.add)

    def sub(self, other: "HermMatrix") -> "HermMatrix":
        return self._combine(other, operator.sub)

    def _combine(self, other: "HermMatrix", op) -> "HermMatrix":
        """op (add or sub) of the keys, over one denominator."""
        if other.g != self.g or other.tag.d != self.tag.d:
            raise ValueError("matrix size or field mismatch")
        x, y = self._key, other._key
        if x[0] != y[0]:
            x, y = [c * y[0] for c in x], [c * x[0] for c in y]
        raw = list(map(op, x, y))
        raw[0] = x[0]
        return _store(object.__new__(HermMatrix), self.g, raw, self.tag)

    def __eq__(self, other):
        return (isinstance(other, HermMatrix) and other._key == self._key
                and other.tag.d == self.tag.d)

    def __hash__(self):
        return hash(self._key)

    def to_text(self) -> str:
        """Row-major entries in the field-element text format."""
        if self.g == 1:  # gcd(p, D) = 1 in a 1x1 key (D, p, 0)
            return "%d/%d+0/1*w" % (self._key[1], self._key[0])
        rows, den = self._int_coords()
        return _entries_text(chain.from_iterable(rows), den)

    @classmethod
    def from_text(cls, text: str, g: int, tag: FieldTag) -> "HermMatrix":
        """Parse `to_text` output straight into the key, with the errors of
        `FieldElement.from_text` on each entry, then those of `_from_cells`."""
        parts = text.split(",")
        if len(parts) != g * g:
            raise ValueError("expected %d entries, got %d" % (g * g, len(parts)))
        return cls._from_cells([_parse_token(p) for p in parts], g, tag)

    @classmethod
    def _from_cells(cls, cells: Sequence[tuple], g: int, tag: FieldTag) -> "HermMatrix":
        """The matrix on the g*g row-major entries (p, q, den) of `_parse_token`,
        checked Hermitian: the one body of `from_text` and the readers."""
        if g == 1:
            p, q, den = cells[0]
            if q:
                raise ValueError("matrix is not Hermitian")
            return cls._trusted(1, (den, p, 0), tag)
        if g < 1:
            return cls((), tag)
        upper = []
        for i in range(g):
            for j in range(i, g):
                (p, q, den), (pc, qc, dc) = cells[i * g + j], cells[j * g + i]
                pc, qc = _pair_conj(pc, qc, tag)  # t_ij = conj(t_ji)
                if p * dc != pc * den or q * dc != qc * den:
                    raise ValueError("matrix is not Hermitian")
                upper.append((p, q, den))
        den = lcm(*(d for _p, _q, d in upper))
        return cls._trusted(g, [den] + [c * (den // d) for p, q, d in upper for c in (p, q)], tag)

    def __repr__(self):
        return "HermMatrix(%s, g=%d, d=%d)" % (self.to_text(), self.g, self.tag.d)


def _store(x: HermMatrix, g: int, raw: Sequence[int], tag: FieldTag) -> HermMatrix:
    """Sets the slots of x, by their setters as `field._init` does, to the
    g x g matrix on `raw`, a key that one gcd brings to lowest terms."""
    c = gcd(*raw)
    key = tuple(raw) if c == 1 else tuple([v // c for v in raw])
    num, den = key[1], key[0]
    if g > 1:  # a 1x1 key (D, p, 0) has gcd(p, D) = 1 already
        num = sum(key[1 + 2 * (i * g - i * (i - 1) // 2)] for i in range(g))
        c = gcd(num, den)
        num, den = num // c, den // c
    set_g, set_tag, set_key, set_trace = HermMatrix._setters
    set_g(x, g)
    set_tag(x, tag)
    set_key(x, key)
    set_trace(x, (num, den))
    return x


def join_block(n: HermMatrix, r: linalg.Matrix, m: HermMatrix) -> HermMatrix:
    """The block matrix (n r; r* m), for an n.g x m.g matrix r; Hermitian
    by construction, by `_join_raw` on the coordinates of r.  Rejects an m
    or an entry of r over another field than n."""
    if len(r) != n.g or any(len(row) != m.g for row in r):
        raise ValueError("r must be %d x %d" % (n.g, m.g))
    flat = [x for row in r for x in row]
    _in_field((m,), n.tag, "block")
    _in_field(flat, n.tag, "r component")
    den = lcm(n._key[0], m._key[0], *(x.den for x in flat))
    return _join_raw(n, _clear_dens(flat, den)[1], den, m)


def _join_raw(n: HermMatrix, r: Sequence[int], rden: int, m: HermMatrix) -> HermMatrix:
    """(n r; r* m) for r given as the coordinates a_11, b_11, a_12, ... of
    its entries (a_ij + b_ij*w)/rden, row by row.  The key holds each row of
    the key of n followed by that row of r, then the key of m."""
    a, width, nkey, mkey = n.g, 2 * m.g, n._key, m._key
    den = lcm(nkey[0], mkey[0], rden)
    fn, fm = den // nkey[0], den // mkey[0]
    if den != rden:
        r = [c * (den // rden) for c in r]
    raw, k = [den], 1
    for i in range(a):
        raw += [c * fn for c in nkey[k:k + 2 * (a - i)]]
        raw += r[i * width:(i + 1) * width]
        k += 2 * (a - i)
    return HermMatrix._trusted(a + m.g, raw + [c * fm for c in mkey[1:]], n.tag)


def _split_raw(t: HermMatrix, l: int) -> tuple[tuple[int, ...], list[int], tuple[int, ...]]:
    """(n, r, m) with t = (n r; r* m) and m the lower-right l x l block, as
    ints read off the key as `join_block` writes it: the keys of n and m,
    over the D of t and so up to lowest terms, and the coordinates
    a_11, b_11, a_12, ... of the entries (a_ij + b_ij*w)/D of r, row by row."""
    a, key = t.g - l, t._key
    n_raw, r, k = key[:1], [], 1
    for i in range(a):
        k += 2 * (a - i)
        n_raw += key[k - 2 * (a - i):k]
        r += key[k:k + 2 * l]
        k += 2 * l
    return n_raw, r, key[:1] + key[k:]


def split_block(t: HermMatrix, l: int) -> tuple[HermMatrix, linalg.Matrix, HermMatrix]:
    """(n, r, m) with t = (n r; r* m) and m the lower-right l x l block,
    split by `_split_raw`."""
    if not 1 <= l < t.g:
        raise ValueError("split size must satisfy 1 <= l < %d" % t.g)
    n_raw, c, m_raw = _split_raw(t, l)
    den, tag, build = t._key[0], t.tag, FieldElement._from_ints
    r = tuple([tuple([build(c[j], c[j + 1], den, tag) for j in range(i, i + 2 * l, 2)])
               for i in range(0, len(c), 2 * l)])
    return HermMatrix._trusted(t.g - l, n_raw, tag), r, HermMatrix._trusted(l, m_raw, tag)


def _entry_text(a: int, b: int, den: int) -> str:
    """The entry (a + b*w)/den in the form of `FieldElement.to_text`: each
    coordinate in lowest terms, over a positive denominator."""
    if a % den or b % den:
        ga, gb = gcd(a, den), gcd(b, den)
        return "%d/%d+%d/%d*w" % (a // ga, den // ga, b // gb, den // gb)
    return "%d/1+%d/1*w" % (a // den, b // den)


def _entries_text(pairs: Iterable[tuple[int, int]], den: int) -> str:
    """The entries (a + b*w)/den of `pairs` by `_entry_text`, comma-joined."""
    return ",".join([_entry_text(a, b, den) for a, b in pairs])


def _trace_sum(x: tuple[int, int], y: tuple[int, int], sign: int) -> tuple[int, int]:
    """x + sign*y for rationals held as `_trace` pairs, in lowest terms."""
    (n1, d1), (n2, d2) = x, y
    num, den = (n1 + sign * n2, d1) if d1 == d2 else (n1 * d2 + sign * n2 * d1, d1 * d2)
    g = gcd(num, den)
    return num // g, den // g


def _trace_within(t: HermMatrix, bound: tuple[int, int]) -> bool:
    """tr t <= num/den for bound = (num, den), den > 0, by cross-multiplication."""
    num, den = t._trace
    return num * bound[1] <= bound[0] * den


def _text_order(mats: Iterable[HermMatrix]) -> dict[HermMatrix, tuple[int, str]]:
    """{t: (trace, text)} for the distinct matrices of `mats`: the canonical
    order of the text formats as a sort key, by trace, then by `to_text`,
    on ints (traces scale by the lcm of their denominators).  The writers
    print that whole text; for g > 1 each entry (a, b, den) is rendered once
    per call, into a map that dies with it."""
    mats, texts = set(mats), {}
    big = lcm(*(t._trace[1] for t in mats))

    def text(t: HermMatrix) -> str:
        if t.g == 1:
            return t.to_text()
        rows, den = t._int_coords()
        cells = [(a, b, den) for a, b in chain.from_iterable(rows)]
        return ",".join([texts.get(c) or texts.setdefault(c, _entry_text(*c)) for c in cells])

    return {t: (t._trace[0] * (big // t._trace[1]), text(t)) for t in mats}


def _canonical_order(keys: Iterable[HermMatrix]) -> list[HermMatrix]:
    """The distinct matrices `keys` sorted by `_text_order`."""
    order = _text_order(keys)
    return sorted(order, key=order.__getitem__)


class UnitMatrix(Immutable):
    """An element of GL_g(O): integral entries and unit determinant.

    Held as ints: `_cols` holds the columns as coordinate pairs (a, b) of
    a + b*w.  `entries` is a view built on demand, as `HermMatrix.entries`
    is, and equality and hashing compare `_cols`.  The public constructors
    check integrality and the unit determinant; GL_g(O) is closed under
    products and inverses, so `mul` and `inverse` build through `_trusted`."""

    __slots__ = ("g", "tag", "det_unit", "_cols")

    def __init__(self, entries: Sequence[Sequence[FieldElement]], tag: FieldTag):
        rows = linalg.freeze(entries)
        n, m = linalg.shape(rows)
        if n != m or n == 0:
            raise ValueError("expected a nonempty square matrix")
        linalg._integral_entries((rows,), tag, "unit matrix entries must lie in O")
        d = linalg.det(rows)
        if d.norm() != 1:
            raise ValueError("determinant is not a unit of O")
        self._fill(n, tag, d, tuple(tuple((e.p, e.q) for e in col) for col in zip(*rows)))

    @classmethod
    def _trusted(cls, cols: tuple, tag: FieldTag, det_unit: FieldElement) -> "UnitMatrix":
        """The matrix on the int columns `cols` of a member of GL_g(O) with
        determinant `det_unit`; skips the checks of `__init__`."""
        return object.__new__(cls)._fill(len(cols), tag, det_unit, cols)

    @classmethod
    def identity(cls, g: int, tag: FieldTag) -> "UnitMatrix":
        return cls(linalg.identity(g, tag), tag)

    @classmethod
    def permutation(cls, perm: Sequence[int], tag: FieldTag) -> "UnitMatrix":
        one, z = FieldElement.one(tag), FieldElement.zero(tag)
        return cls([[one if p == j else z for j in range(len(perm))] for p in perm], tag)

    @classmethod
    def elementary(cls, g: int, i: int, j: int, value: FieldElement) -> "UnitMatrix":
        """I + value * E_ij for 0 <= i, j < g and i != j."""
        if not (0 <= i < g and 0 <= j < g) or i == j:
            raise ValueError("elementary matrix requires 0 <= i, j < %d and i != j, got %r, %r"
                             % (g, i, j))
        rows = [list(r) for r in linalg.identity(g, value.tag)]
        rows[i][j] = value
        return cls(rows, value.tag)

    @classmethod
    def diagonal_units(cls, units: Sequence[FieldElement], tag: FieldTag) -> "UnitMatrix":
        return cls(linalg.diagonal(units, tag), tag)

    @property
    def entries(self) -> linalg.Matrix:
        tag, build = self.tag, FieldElement._from_ints
        return tuple(tuple(build(a, b, 1, tag) for a, b in row) for row in zip(*self._cols))

    def inverse(self) -> "UnitMatrix":
        """By `linalg.inverse`; the determinant of the inverse is
        1/det = conj(det), as N(det) = 1."""
        cols = tuple(tuple((e.p, e.q) for e in col) for col in zip(*linalg.inverse(self.entries)))
        return UnitMatrix._trusted(cols, self.tag, self.det_unit.conj())

    def mul(self, other: "UnitMatrix") -> "UnitMatrix":
        """The product on the int columns: column j is u times column j of
        other, a `_pair_dot` of each row of u with it."""
        if other.g != self.g or other.tag != self.tag:
            raise ValueError("matrix size or field mismatch")
        tag, rows = self.tag, tuple(zip(*self._cols))
        cols = tuple(tuple(_pair_dot(row, col, tag) for row in rows) for col in other._cols)
        return UnitMatrix._trusted(cols, tag, self.det_unit * other.det_unit)

    __mul__ = mul

    def __eq__(self, other):
        return (isinstance(other, UnitMatrix) and other._cols == self._cols
                and other.tag.d == self.tag.d)

    def __hash__(self):
        return hash((self._cols, self.tag.d))

    def __repr__(self):
        return "UnitMatrix(%s, g=%d, d=%d)" % (
            _entries_text(chain.from_iterable(zip(*self._cols)), 1), self.g, self.tag.d)


def gl_action(u: UnitMatrix, t: HermMatrix) -> HermMatrix:
    """u* t u by the map of `_congruence`; keeps semi-integrality and PSD."""
    if u.g != t.g or u.tag != t.tag:
        raise ValueError("matrix size or field mismatch")
    return _congruent(_congruence(u), t)


def _congruence(u: UnitMatrix) -> tuple:
    """t -> u* t u as an int-linear map on the key after D: (g, tag, rows,
    trace), rows[c] the (key position, coefficient) pairs of coordinate c,
    `trace` the sum of the diagonal rows.  A pair of nonzero u_ik, u_jl adds
    c p + c x q to s_kl, c = conj(u_ik) u_jl, for t_ij = p + q*x (x = w above
    the diagonal, conj(w) below): O(g^2) with 2 nonzeros per column."""
    g, tag = u.g, u.tag
    cells = [(k, l) for k in range(g) for l in range(k, g)]
    at = {ij: 2 * n + 1 for n, (k, l) in enumerate(cells) for ij in ((k, l), (l, k))}
    xs = ((0, 1), _pair_conj(0, 1, tag))
    nz = [[(i, a, b) for i, (a, b) in enumerate(col) if a or b] for col in u._cols]
    rows, trace = [], Counter()
    for k, l in cells:
        re, im = Counter(), Counter()
        for (i, a, b), (j, e, f) in product(nz[k], nz[l]):
            c = _pair_mul(*_pair_conj(a, b, tag), e, f, tag)
            for p, (x, y) in ((at[i, j], c), (at[i, j] + 1, _pair_mul(*c, *xs[i > j], tag))):
                re[p] += x
                im[p] += y
        if k == l:  # s_kk is rational: its w-coordinate is 0
            trace.update(re)
        rows += [tuple((p, c) for p, c in row.items() if c) for row in (re, im if k < l else {})]
    return g, tag, rows, tuple((p, c) for p, c in trace.items() if c)


def _congruent(cmap: tuple, t: HermMatrix, bound: tuple | None = None) -> HermMatrix | None:
    """The image of t under `cmap` from `_congruence`; None, before any key
    is built, when its trace is over bound = (num, den)."""
    (g, tag, rows, trace), key = cmap, t._key
    if bound is not None and sum([c * key[p] for p, c in trace]) * bound[1] > bound[0] * key[0]:
        return None
    return HermMatrix._trusted(g, [key[0]] + [sum([c * key[p] for p, c in r]) for r in rows], tag)


# ----------------------------------------------------------------------
# enumeration of semi-integral PSD matrices


def enumerate_semi_integral(g: int, trace_bound: int, tag: FieldTag) -> list[HermMatrix]:
    """All semi-integral PSD matrices with trace <= trace_bound, each once,
    ordered by (trace, lexicographic serialization).

    An exact Schur-complement search (Fincke-Pohst on the matrix entries) on
    M = |D| t, an integral matrix whose off-diagonal entries range over
    sqrt(D) O = |D| O^#.  The integer diagonal is fixed first; then row k of
    the current Schur complement S is filled, for k = 0, ..., g-2.  S is PSD
    only if N(S_kj) <= S_kk S_jj, so entry (k, j) ranges over a disc.  Each
    row updates S by the fraction-free Sylvester step of
    `field._herm_psd_rank`, M^(k+1)_ij = (p_k M^(k)_ij - conj(M^(k)_ki)
    M^(k)_kj) / prev, with p_k = M^(k)_kk and prev the last nonzero pivot
    (1 before the first).  So row k reads M^(k)_kj = prev M_kj + C_kj, with
    C_kj fixed by the rows above, and `field._lattice_points` finds the
    points of that translate of sqrt(D) O with N(M^(k)_kj) <=
    M^(k)_kk M^(k)_jj.  A zero pivot gives a disc of radius
    0: its row is forced to the centre, and the branch is empty when the
    centre is not in the lattice.

    Every leaf is PSD, as each Schur complement keeps a nonnegative
    diagonal, so no candidate is built to be rejected: keys returned over
    `HermMatrix` builds (the accept ratio) is 1.  Every PSD matrix meets each
    disc bound, so none is missed, and the result is that of testing every
    matrix within the 2x2 minor bounds N(t_ij) <= t_ii t_jj.  The cost is
    one point search in the plane per disc and O(g^2) integer operations
    per prefix, then a key build and the canonical sort per result.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if trace_bound < 0:
        raise ValueError("trace_bound must be >= 0")
    if g == 1:
        return [HermMatrix._trusted(1, (1, d, 0), tag) for d in range(trace_bound + 1)]
    disc = abs(tag.disc)
    form = _norm_levels(1, tag)  # v^T gram v = 2 N(v)
    results: list[HermMatrix] = []

    def disc_points(prev, c, bound):
        """Each x in c + prev sqrt(D) O with N(x) <= bound, as (a, b): the
        v = -x sqrt(D) in -c sqrt(D) + prev |D| O with 2 N(v) <= 2 |D| bound,
        mapped back by x = v sqrt(D)/|D|."""
        a, b = _pair_sqrt_disc(*c, tag)
        points = _lattice_points(form, (-a, -b), prev * disc, 2 * disc * bound)
        return [(a // disc, b // disc) for _q, v in points for a, b in (_pair_sqrt_disc(*v, tag),)]

    def fill(k, prev, rows, raw):
        """Rows k.. of the key `raw` of the matrix with diagonal `top`, from
        the current Schur complement: rows[i] = [M^(k)_ii, C_ij for j > i],
        as (a, b) in O, on the indices k + i; k <= g - 2."""
        raw = raw + [disc * top[k], 0]
        piv, lead = rows[0][0][0], rows[0][1:]
        q = piv or prev  # a zero pivot has a zero row, and eliminating it changes nothing
        for xs in product(*(disc_points(prev, c, piv * r[0][0]) for c, r in zip(lead, rows[1:]))):
            key = raw + [(e - f) // prev for x, c in zip(xs, lead) for e, f in zip(x, c)]
            if k == g - 2:  # the last row: only t_gg is left
                results.append(HermMatrix._trusted(g, key + [disc * top[-1], 0], tag))
                continue
            conj = [_pair_conj(a, b, tag) for a, b in xs]
            # M^(k+1)_ij = (q M^(k)_ij - conj(x_i) x_j) / prev, x_j = M^(k)_kj
            fill(k + 1, q, [[[(q * e - f) // prev for e, f in zip(c, _pair_mul(*x, *y, tag))]
                             for c, y in zip(r, xs[i:])]
                            for i, (r, x) in enumerate(zip(rows[1:], conj))], key)

    for top in product(range(trace_bound + 1), repeat=g):
        if sum(top) <= trace_bound:
            fill(0, 1, [[(disc * d, 0)] + [(0, 0)] * (g - 1 - i) for i, d in enumerate(top)],
                 [disc])
    return _canonical_order(results)


# ----------------------------------------------------------------------
# minimal represented values


def min_represented(t: HermMatrix) -> Fraction:
    """min over nonzero omega in O^g of omega* t omega, for PSD t: the
    one-key case of `_least_represented`."""
    return _least_represented((t,))


def _least_represented(keys: Iterable[HermMatrix]) -> Fraction | float:
    """min over `keys` of `min_represented`, +inf for none: the search of both
    vanishing orders.  `_ldl_pivots` of a key's trace form `_gram()` rejects
    a non-PSD key, and a degenerate one represents 0 (scale a kernel vector
    into O^g).  A definite key lists only the points strictly below cap =
    min(least diagonal, ceil(2*den*best)), which e_i attains or which cannot
    improve best: its value is the least nonzero one, else the diagonal."""
    best = inf
    for t in keys:
        gram, den = t._gram()
        pivots = _ldl_pivots(gram)
        if pivots is None:
            raise ValueError("matrix is not positive semidefinite")
        if len(pivots) < len(gram):
            best = Fraction(0)
            continue
        diag = min(gram[i][i] for i in range(0, len(gram), 2))
        cap = diag if best == inf else min(diag, ceil(2 * den * best))
        points = _lattice_points(_search_levels(gram, pivots), (0,) * len(gram), 1, cap - 1)
        best = min(best, Fraction(min((q for q, _v in points if q), default=diag), 2 * den))
    return best


# ----------------------------------------------------------------------
# coset classes Delta_g(m) = (O^#)^g / m O^g


class _SublatticeData(Immutable):
    """Reduction data for m*sqrt(D)*O inside O, in basis coordinates.

    Basis of the sublattice brought to the shape v1 = (p, q), v2 = (ell, 0)
    with q, ell > 0; the canonical box is 0 <= a < ell, 0 <= b < q, and its
    cell (a, b) has the box index a*q + b.  As sqrt(D) = 2w - s, the
    sublattice is spanned by m*sqrt(D) = (-s*m, 2m) and m*sqrt(D)*w =
    (-2t*m, s*m): q = gcd(2m, s*m) is the b-coordinate of one of them, which
    gives p, and ell = m^2 |D| / q, the index over q.

    A class of Delta_g(m) has index sum_i c_i B^(g-1-i) in `delta_classes`,
    B = m^2 |D|, for the box indices c_i of y = sqrt(D) r_i: its digits.
    """

    __slots__ = ("p", "q", "ell")

    def __init__(self, tag: FieldTag, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        p, q = _pair_sqrt_disc(0, m, tag) if tag.half_basis else _pair_sqrt_disc(m, 0, tag)
        ell = m * m * abs(tag.disc) // q
        self._fill(p % ell, q, ell)

    def index(self, a: int, b: int) -> int:
        """The box index of the class of a + b*w modulo the sublattice."""
        k, b = divmod(b, self.q)
        return (a - k * self.p) % self.ell * self.q + b

    def class_index(self, y: Sequence[int]) -> int:
        """The class index of y = sqrt(D) r given as (a_1, b_1, ..., a_g, b_g)."""
        base, index = self.ell * self.q, 0
        for i in range(0, len(y), 2):
            index = index * base + self.index(y[i], y[i + 1])
        return index

    def digits(self, index: int, g: int) -> list[int]:
        """The box indices of the g components of class `index`."""
        base, at = self.ell * self.q, []
        for _ in range(g):
            index, i = divmod(index, base)
            at.append(i)
        return at[::-1]


# keyed by (tag, m); a batch touches at most 15 keys
_sublattice = lru_cache(maxsize=64)(_SublatticeData)


class CosetClass(Immutable):
    """A class in (O^#)^g / m O^g, held by a representative.

    The constructor rejects m < 1 and a rep that is empty or has a
    component outside O^# of `tag`; `_trusted` skips the checks for
    `reduce_class` and `delta_classes`.  Both store the hash, so a class
    used as a key is not hashed again.
    """

    __slots__ = ("m", "rep", "tag", "_hash")

    def __init__(self, m: int, rep: Vector, tag: FieldTag):
        rep = tuple(rep)
        if m < 1:
            raise ValueError("class modulus must be >= 1, got %r" % (m,))
        if not rep:
            raise ValueError("class representative must have at least one component")
        _in_field(rep, tag, "class component")
        for x in rep:
            if not x.is_dual_integral():
                raise ValueError("class component %r is not in the inverse different" % (x,))
        self._fill(m, rep, tag, hash((m, rep, tag.d)))

    @classmethod
    def _trusted(cls, m: int, rep: Vector, tag: FieldTag) -> "CosetClass":
        """The class of `rep`, a nonempty tuple over O^# of `tag`, modulo
        m O^g for m >= 1; skips the checks of `__init__`."""
        return object.__new__(cls)._fill(m, rep, tag, hash((m, rep, tag.d)))

    @property
    def g(self) -> int:
        return len(self.rep)

    def __eq__(self, other):
        return (isinstance(other, CosetClass)
                and (other.m, other.tag, other.rep) == (self.m, self.tag, self.rep))

    def __hash__(self):
        return self._hash

    def to_text(self) -> str:
        return ",".join(e.to_text() for e in self.rep)

    def __repr__(self):
        return "CosetClass(m=%d, rep=[%s], d=%d)" % (self.m, self.to_text(), self.tag.d)


def _y_coords(x: FieldElement) -> tuple[int, int]:
    """y = sqrt(D) x in O as its basis coordinates (a, b), for x in O^#,
    from den*x*sqrt(D).  Raises ValueError for x outside O^#."""
    (a, b), den = _pair_sqrt_disc(x.p, x.q, x.tag), x.den
    if a % den or b % den:
        raise ValueError("%r does not lie in the inverse different" % (x,))
    return a // den, b // den


def _from_y(a: int, b: int, tag: FieldTag) -> FieldElement:
    """y/sqrt(D) for y = a + b*w in O, which is -y sqrt(D)/|D|."""
    c, e = _pair_sqrt_disc(a, b, tag)
    return FieldElement._from_ints(-c, -e, -tag.disc, tag)


def reduce_class(r: Sequence[FieldElement], m: int) -> CosetClass:
    """Canonical representative of the class of r in (O^#)^g / m O^g: each
    y = sqrt(D) r_i reduced to its cell of the `_sublattice` box.  Rejects
    a component over another field than the first."""
    if not r:
        raise ValueError("r must have at least one component")
    tag = r[0].tag
    _in_field(r, tag, "component")
    sub = _sublattice(tag, m)
    rep = tuple(_from_y(*divmod(sub.index(*_y_coords(x)), sub.q), tag) for x in r)
    return CosetClass._trusted(m, rep, tag)


@lru_cache(maxsize=64)
def delta_classes(g: int, m: int, tag: FieldTag) -> tuple[CosetClass, ...]:
    """All classes of Delta_g(m), duplicate-free and in canonical order;
    |result| = (m^2 |D|)^g.  Component i of a class is y/sqrt(D) for the
    cell y of box index i, by the digits of the class index
    (`_SublatticeData`).

    The tuple is shared between calls: an LRU cache of 64 (g, m, tag) keys
    holds it, well above the at most 15 keys a batch asks for.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    sub = _sublattice(tag, m)
    component = [_from_y(*divmod(i, sub.q), tag) for i in range(sub.ell * sub.q)]
    return tuple(CosetClass._trusted(m, rep, tag) for rep in product(component, repeat=g))


def delta_class(g: int, m: int, tag: FieldTag, index: int) -> CosetClass:
    """`delta_classes(g, m, tag)[index]` without listing the classes, from
    the digits of index: O(g) work.  An index outside [0, (m^2 |D|)^g)
    raises IndexError."""
    if g < 1:
        raise ValueError("g must be >= 1")
    sub = _sublattice(tag, m)
    if not 0 <= index < (sub.ell * sub.q) ** g:
        raise IndexError("class index %d out of range" % index)
    return CosetClass._trusted(m, tuple(_from_y(*divmod(i, sub.q), tag)
                                        for i in sub.digits(index, g)), tag)


def _small_cell(a: int, b: int, m: int, tag: FieldTag) -> tuple[tuple[int, int], int]:
    """(y0, N(y0)) for the small representative r0 = x - m*alpha of
    x + m O, x = y/sqrt(D) and y = a + b*w, with y0 = sqrt(D) r0 as ints
    and N(y0) = |D| N(r0).  alpha is the integer nearest x/m, which makes
    N(r0) least over the coset, and y0 = y - m sqrt(D) alpha."""
    c, e = _pair_sqrt_disc(a, b, tag)
    alpha = euclidean_round(FieldElement._from_ints(-c, -e, -tag.disc * m, tag))
    c, e = _pair_sqrt_disc(alpha.p, alpha.q, tag)
    c, e = a - m * c, b - m * e
    return (c, e), _pair_norm(c, e, tag)


def small_rep(s: CosetClass) -> Vector:
    """A representative r of s with |r_i|^2 <= (1 - c) m^2 componentwise:
    the `_small_cell` of each component."""
    return tuple(_from_y(*_small_cell(*_y_coords(x), s.m, s.tag)[0], s.tag) for x in s.rep)


def _delta_cells(m: int, tag: FieldTag) -> list[tuple[tuple[int, int], int]]:
    """`_small_cell` of each box index: the small representative of a
    class has y0 = sqrt(D) r0 the cells of its digits, and its shift
    r0 m^-1 r0* has trace sum_i N(y0_i) / (|D| m) over them."""
    q = _sublattice(tag, m).q
    return [_small_cell(*divmod(i, q), m, tag) for i in range(m * m * abs(tag.disc))]


def _class_points(g: int, m: int, tag: FieldTag, bound: int, wanted,
                  limit: int | None = None) -> list[tuple[int, int, tuple[int, ...]]] | None:
    """(class index, N(y), y) for each y = sqrt(D) r in O^g, as (a_1, b_1,
    ..., a_g, b_g), with N(y) = |D| N(r) <= bound and class index in
    `wanted`, unordered: the one search for the points of classes.

    With no `limit` and at least half of the (m^2 |D|)^g classes wanted, one
    lattice search lists O^g and each point goes to its class; otherwise each
    wanted class's coset is searched, on X = |D| r in X_s + m|D| Z^2g with
    N(X) = |D| N(y), so few classes cost in proportion to their points, and
    the search stops with None one point past `limit`.
    """
    sub, levels = _sublattice(tag, m), _norm_levels(g, tag)
    if limit is None and 2 * len(wanted) >= (sub.ell * sub.q) ** g:
        points = _lattice_points(levels, (0,) * (2 * g), 1, 2 * bound)
        return [(index, q2 // 2, v) for q2, v in points if (index := sub.class_index(v)) in wanted]
    disc = abs(tag.disc)
    out = []
    for index in wanted:
        # X_s = -sqrt(D) y_s for the cells y_s of the class
        start = tuple(-c for i in sub.digits(index, g)
                      for c in _pair_sqrt_disc(*divmod(i, sub.q), tag))
        points = _lattice_points(levels, start, m * disc, 2 * disc * bound,
                                 None if limit is None else limit - len(out))
        if points is None:
            return None
        for q2, x in points:
            y = []
            for i in range(0, 2 * g, 2):  # y = sqrt(D) X / |D|
                a, b = _pair_sqrt_disc(x[i], x[i + 1], tag)
                y += (a // disc, b // disc)
            out.append((index, q2 // (2 * disc), tuple(y)))
    return out

