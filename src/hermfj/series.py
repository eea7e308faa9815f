"""Truncated formal Fourier series with Hermitian positive semidefinite
support, the graded ring structure, unimodular symmetry checking, and the
vanishing order.

The series of the graded ring itself are supported on semi-integral keys
(integer diagonal, off-diagonal in the inverse different).  Theta components
produced by the decomposition routines carry class-dependent rational shifts
on the diagonal; they reuse this container with `semi_integral=False`, which
relaxes the key validation but changes nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import linalg
from .errors import RecordError
from .field import FieldElement, FieldTag, Immutable, _in_field, unit_group
from .hermitian import (HermMatrix, UnitMatrix, _canonical_order, _congruence, _congruent,
                        _least_represented, _trace_sum, _trace_within)

Vec = tuple[FieldElement, ...]


def _zero_vec(dim: int, tag: FieldTag) -> Vec:
    z = FieldElement.zero(tag)
    return (z,) * dim


def _nonzero(coeffs: Mapping) -> dict:
    """`coeffs` without its all-zero coefficient vectors."""
    return {key: vec for key, vec in coeffs.items() if not all(v.is_zero() for v in vec)}


def _all_zero(vec: Vec, tag: FieldTag) -> bool:
    """Whether every entry of `vec` is zero.  Rejects an entry of another
    field, which the writers would print as coordinates under tag's d."""
    _in_field(vec, tag, "coefficient")
    return all(v.is_zero() for v in vec)


class FourierSeries(Immutable):
    """A truncated formal expansion sum_t c(t) e(t tau) of degree g.

    Coefficients are vectors of field elements (dimension 1 = scalar
    valued); absent keys denote zero.  Keys are Hermitian PSD with trace at
    most `trunc`, semi-integral unless the series was built as a shifted
    theta component.

    Validation happens once, at the public boundary: the constructor, and
    so `formats.read_series` and `read_components`, checks every key, and
    raises `errors.RecordError` naming a key it rejects.
    `_trusted` skips the checks for the outputs of `__add__`, `scale`,
    `__mul__`, `symmetrize`, `jacobi.theta_decompose` and `ffj.assemble`.
    """

    __slots__ = ("g", "k", "tag", "trunc", "dim", "coeffs", "semi_integral")

    def __init__(
        self,
        g: int,
        k: int,
        tag: FieldTag,
        trunc,
        coeffs: Mapping[HermMatrix, Sequence[FieldElement]],
        dim: int = 1,
        semi_integral: bool = True,
    ):
        if g < 1:
            raise ValueError("degree must be >= 1")
        if dim < 1:
            raise ValueError("coefficient dimension must be >= 1")
        if type(trunc) is not Fraction:  # a reader hands over one Fraction per text
            trunc = Fraction(trunc)
        bound = trunc.as_integer_ratio()
        clean: dict[HermMatrix, Vec] = {}
        for t, vec in coeffs.items():
            vec = tuple(vec)
            if len(vec) != dim:
                raise RecordError("coefficient dimension mismatch at %r" % (t,), t)
            if _all_zero(vec, tag):
                continue
            if t.g != g or t.tag != tag:
                raise RecordError("key size or field mismatch at %r" % (t,), t)
            if not _trace_within(t, bound):
                raise RecordError("key %r exceeds truncation %s" % (t, trunc), t)
            if semi_integral and not t.is_semi_integral():
                raise RecordError("key %r is not semi-integral" % (t,), t)
            if not t.is_psd():
                raise RecordError("key %r is not positive semidefinite" % (t,), t)
            clean[t] = vec
        self._fill(g, k, tag, trunc, dim, clean, semi_integral)

    @classmethod
    def _trusted(cls, g: int, k: int, tag: FieldTag, trunc: Fraction, coeffs: Mapping,
                 dim: int = 1, semi_integral: bool = True) -> "FourierSeries":
        """A series on `coeffs`, keyed by matrices that are valid by
        construction; skips the key checks of `__init__` but still drops
        all-zero coefficient vectors."""
        return object.__new__(cls)._fill(g, k, tag, trunc, dim, _nonzero(coeffs), semi_integral)

    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value: FieldElement, g: int, k: int, trunc: int) -> "FourierSeries":
        tag = value.tag
        return cls(g, k, tag, trunc, {HermMatrix.zero(g, tag): (value,)})

    @classmethod
    def zero(cls, g: int, k: int, tag: FieldTag, trunc, dim: int = 1) -> "FourierSeries":
        return cls(g, k, tag, trunc, {}, dim=dim)

    def coefficient(self, t: HermMatrix) -> Vec:
        vec = self.coeffs.get(t)
        return vec if vec is not None else _zero_vec(self.dim, self.tag)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FourierSeries)
            and (other.g, other.k, other.trunc, other.dim) == (self.g, self.k, self.trunc, self.dim)
            and other.tag == self.tag
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.g, self.k, self.tag.d, self.trunc, self.dim,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        return "FourierSeries(g=%d, k=%d, d=%d, trunc=%s, %d terms)" % (
            self.g, self.k, self.tag.d, self.trunc, len(self.coeffs)
        )

    # ------------------------------------------------------------------
    # graded module / ring structure

    def _check_compatible(self, other: "FourierSeries", need_weight: bool):
        if other.g != self.g or other.tag != self.tag:
            raise ValueError("degree or field mismatch")
        if other.dim != self.dim:
            raise ValueError("coefficient dimension mismatch")
        if need_weight and other.k != self.k:
            raise ValueError("weight mismatch: %d vs %d" % (self.k, other.k))

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._check_compatible(other, need_weight=True)
        trunc = min(self.trunc, other.trunc)
        bound = trunc.as_integer_ratio()
        out: dict[HermMatrix, Vec] = {}
        for t in set(self.coeffs) | set(other.coeffs):
            if not _trace_within(t, bound):
                continue
            a = self.coefficient(t)
            b = other.coefficient(t)
            out[t] = tuple(x + y for x, y in zip(a, b))
        return FourierSeries._trusted(self.g, self.k, self.tag, trunc, out, self.dim,
                                      self.semi_integral and other.semi_integral)

    def scale(self, x) -> "FourierSeries":
        if not isinstance(x, FieldElement):
            x = FieldElement(Fraction(x), 0, self.tag)
        out = {t: tuple(x * v for v in vec) for t, vec in self.coeffs.items()}
        return FourierSeries._trusted(self.g, self.k, self.tag, self.trunc, out, self.dim,
                                      self.semi_integral)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "FourierSeries") -> "FourierSeries":
        """Cauchy product on the support; scalar-valued factors only.  A sum
        of two valid keys is valid, so the product skips re-validation.  Each
        t1 walks `other`'s keys, sorted by trace once per call, up to the first
        over the room tr t1 leaves; exact sums do not depend on their order."""
        if not isinstance(other, FourierSeries):
            return NotImplemented
        self._check_compatible(other, need_weight=False)
        if self.dim != 1 or other.dim != 1:
            raise ValueError("product requires scalar-valued series")
        trunc = min(self.trunc, other.trunc)
        bound = trunc.as_integer_ratio()
        right = sorted(other.coeffs.items(), key=lambda item: Fraction(*item[0]._trace))
        out: dict[HermMatrix, Vec] = {}
        for t1, v1 in self.coeffs.items():
            room = _trace_sum(bound, t1._trace, -1)
            for t2, v2 in right:
                if not _trace_within(t2, room):
                    break
                t = t1.add(t2)
                prod = v1[0] * v2[0]
                prev = out.get(t)
                out[t] = ((prev[0] + prod),) if prev is not None else (prod,)
        return FourierSeries._trusted(self.g, self.k + other.k, self.tag, trunc, out, 1,
                                      self.semi_integral and other.semi_integral)

    # ------------------------------------------------------------------

    def vanishing_order(self):
        """min over supported t of the minimal represented value; +inf for
        the zero series.  Truncation-relative: only stored keys enter, by the
        strict-cap search `hermitian._least_represented`."""
        return _least_represented(self.coeffs)


# ----------------------------------------------------------------------
# unimodular symmetry


RhoMap = Callable[[UnitMatrix], Sequence[Sequence[FieldElement]]]


def _apply_rho(rho_mat, vec: Vec) -> Vec:
    zero = FieldElement.zero(vec[0].tag)
    return tuple(sum((a * b for a, b in zip(row, vec)), zero) for row in rho_mat)


def _steps(units: Iterable[UnitMatrix]) -> tuple[dict[UnitMatrix, int], list[int]]:
    """(index, inv): `index` numbers the distinct matrices among `units` and
    their inverses, in first-seen order of `units` then the inverses, and
    inv[i] is the number of the inverse of matrix i."""
    distinct = list(dict.fromkeys(units))
    inverses = [u.inverse() for u in distinct]
    index: dict[UnitMatrix, int] = {}
    for u in distinct + inverses:
        index.setdefault(u, len(index))
    inv = [0] * len(index)
    for u, v in zip(distinct, inverses):
        inv[index[u]], inv[index[v]] = index[v], index[u]
    return index, inv


def check_symmetry(
    f: FourierSeries,
    units: Iterable[UnitMatrix],
    rho: Optional[RhoMap] = None,
) -> list[tuple[UnitMatrix, HermMatrix]]:
    """Violations of rho(rot(u)) c(f; u* t u) = (det u*)^k c(f; t).

    For every u and every key t whose image also lies inside the
    truncation, both sides are compared exactly; the returned list is empty
    precisely when the series is symmetric at this truncation.  Only a
    support key t, or a preimage t = u^-1 s outside the support of a support
    key s, can fail; each u's violations come in the canonical key order.
    Vector-valued series require `rho` giving the explicit matrix per
    generator.  One call maps each support key once by the `_congruence`
    map of each distinct matrix among `units` and their inverses, under the
    truncation bound; the maps die with the call.
    """
    units = list(units)
    checks = []
    for u in units:
        if u.g != f.g or u.tag != f.tag:
            raise ValueError("generator size or field mismatch")
        rho_mat = None
        if f.dim > 1:
            if rho is None:
                raise ValueError("vector-valued series need an explicit rho")
            rho_mat = linalg.freeze(rho(u))
        checks.append((u, u.det_unit.conj() ** f.k, rho_mat))
    if not f.coeffs:  # no key to act on: no map is built
        return []
    index, inv = _steps(units)
    keys = list(f.coeffs)
    bound = f.trunc.as_integer_ratio()
    images = [[_congruent(cmap, t, bound) for t in keys] for cmap in map(_congruence, index)]
    violations = []
    for u, det_pow, rho_mat in checks:
        i = index[u]
        pairs = [(t, s) for t, s in zip(keys, images[i]) if s is not None]  # (t, u* t u)
        pairs += [(t, s) for s, t in zip(keys, images[inv[i]])
                  if t is not None and t not in f.coeffs]
        bad = []
        for t, image in pairs:
            lhs = f.coefficient(image)
            if rho_mat is not None:
                lhs = _apply_rho(rho_mat, lhs)
            if lhs != tuple(det_pow * v for v in f.coefficient(t)):
                bad.append(t)
        violations += [(u, t) for t in _canonical_order(bad)]
    return violations


def gl_generators(g: int, tag: FieldTag) -> list[UnitMatrix]:
    """A generating set for GL_g(O): diagonal units, adjacent transpositions,
    and elementary matrices over an integral basis (O is Euclidean, so these
    generate)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    gens: list[UnitMatrix] = []
    units = [u for u in unit_group(tag) if u != FieldElement.one(tag)]
    for u in units:
        vals = [FieldElement.one(tag)] * g
        vals[0] = u
        gens.append(UnitMatrix.diagonal_units(vals, tag))
    for i in range(g - 1):
        perm = list(range(g))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(UnitMatrix.permutation(perm, tag))
    w = FieldElement.omega(tag)
    if g >= 2:
        for val in (FieldElement.one(tag), w):
            gens.append(UnitMatrix.elementary(g, 0, 1, val))
            gens.append(UnitMatrix.elementary(g, 1, 0, val))
    return gens


def symmetrize(f: FourierSeries, units: Iterable[UnitMatrix]) -> FourierSeries:
    """Spreads each seed coefficient over the orbit of its key under the
    group generated by `units`, restricted to the truncation window, with
    the (det u*)^k factor tracked along paths.

    The generated group is infinite, but each orbit meets the window in
    finitely many keys.  If two paths to the same key force different
    factors, only the zero coefficient is symmetric and the orbit is
    dropped.  The result passes `check_symmetry` for these generators.
    GL_g(O) preserves semi-integrality and semidefiniteness, so the result
    skips re-validation.

    The walk steps by the distinct matrices among `units` and their
    inverses.  When u maps t to x inside the window, the call records that
    u^-1 maps x back to t and skips that edge, whose factor check repeats
    this one.  So it applies a step's `_congruence` map once per edge inside
    the window and once, building no key, per step out of it; the maps and
    the record die with the call, and an empty support builds no map.
    """
    units = list(units)
    if any(u.g != f.g or u.tag != f.tag for u in units):  # as check_symmetry rejects them
        raise ValueError("generator size or field mismatch")
    index, inv = _steps(units)
    steps = [(_congruence(u), u.det_unit.conj() ** f.k) for u in index] if f.coeffs else []
    bound = f.trunc.as_integer_ratio()
    out: dict[HermMatrix, Vec] = {}
    done: set[HermMatrix] = set()
    known: dict[HermMatrix, set[int]] = {}  # key -> steps that lead back into the walk
    for seed in _canonical_order(f.coeffs):
        if seed in done:
            continue
        vec = f.coeffs[seed]
        one = FieldElement.one(f.tag)
        factors: dict[HermMatrix, FieldElement] = {seed: one}
        frontier = [seed]
        consistent = True
        while frontier:
            nxt = []
            for t in frontier:
                base = factors[t]
                skip = known.setdefault(t, set())
                for j, (cmap, det_pow) in enumerate(steps):
                    if j in skip:
                        continue
                    image = _congruent(cmap, t, bound)
                    if image is None:
                        continue
                    known.setdefault(image, set()).add(inv[j])
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
            out[t] = (
                tuple(a + b for a, b in zip(prev, contrib)) if prev is not None else contrib
            )
    return FourierSeries._trusted(f.g, f.k, f.tag, f.trunc, out, f.dim, f.semi_integral)
