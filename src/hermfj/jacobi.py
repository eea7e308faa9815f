"""Cogenus-1 Hermitian Jacobi coefficient tables and the theta machinery.

A table of genus g and index m holds coefficients c(n, r), where r is a
length-g column over the inverse different and n is a g x g Hermitian PSD
matrix (a plain rational when g = 1).  The block matrix

    (n  r )
    (r* m )

must be positive semidefinite for every key.  Theta tables are supported on
n = r m^-1 r*, so diagonals of n are rational rather than integral; the
decomposition components are series with class-dependent rational shifts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf
from typing import Mapping, Sequence

from .errors import ConsistencyError
from .field import FieldElement, FieldTag, Immutable, coset_points
from .hermitian import (
    CosetClass,
    HermMatrix,
    delta_classes,
    min_represented,
    reduce_class,
    small_rep,
)
from .series import FourierSeries, Vec, _zero_vec

Vector = tuple[FieldElement, ...]


def shift_matrix(r: Sequence[FieldElement], m: int) -> HermMatrix:
    """r m^-1 r* as a g x g Hermitian matrix, for a column vector r given
    as any sequence.

    Memoised on (tuple(r), m) in an LRU cache of 4096 entries; a benchmark
    batch needs at most 1,882.  Equal inputs share one matrix.
    """
    return _shift_matrix(tuple(r), m)


@lru_cache(maxsize=4096)
def _shift_matrix(r: Vector, m: int) -> HermMatrix:
    g = len(r)
    inv_m = Fraction(1, m)
    rows = [[(r[i] * r[j].conj()) * inv_m for j in range(g)] for i in range(g)]
    return HermMatrix(rows, r[0].tag)


def block_key(n: HermMatrix, r: Sequence[FieldElement], m: int) -> HermMatrix:
    """The (g+1) x (g+1) assembly (n r; r* m)."""
    tag = n.tag
    g = n.g
    rows = []
    for i in range(g):
        rows.append(tuple(n.entries[i]) + (r[i],))
    rows.append(tuple(x.conj() for x in r) + (FieldElement(Fraction(m), 0, tag),))
    return HermMatrix(rows, tag)


def _as_key_matrix(n, g: int, tag: FieldTag) -> HermMatrix:
    if isinstance(n, HermMatrix):
        return n
    if g != 1:
        raise ValueError("rational keys are only available at genus 1")
    return HermMatrix.from_rational(n, tag)


class JacobiTable(Immutable):
    """Coefficient table of a cogenus-1 Hermitian Jacobi form."""

    __slots__ = ("g", "k", "m", "tag", "trunc", "dim", "coeffs")

    def __init__(
        self,
        g: int,
        k: int,
        m: int,
        tag: FieldTag,
        trunc,
        coeffs: Mapping,
        dim: int = 1,
    ):
        if g < 1:
            raise ValueError("genus must be >= 1")
        if m < 0:
            raise ValueError("index must be >= 0")
        trunc = trunc if isinstance(trunc, Fraction) else Fraction(trunc)
        clean: dict[tuple[HermMatrix, Vector], Vec] = {}
        for (n, r), vec in coeffs.items():
            n = _as_key_matrix(n, g, tag)
            r = tuple(r)
            vec = tuple(vec)
            if len(vec) != dim:
                raise ValueError("coefficient dimension mismatch")
            if all(v.is_zero() for v in vec):
                continue
            if n.g != g or len(r) != g or n.tag != tag:
                raise ValueError("key size or field mismatch")
            if n.trace() > trunc:
                raise ValueError("key exceeds truncation %s" % trunc)
            for x in r:
                if not x.is_dual_integral():
                    raise ValueError("r component %r is not in the inverse different" % (x,))
            if g == 1:
                # 2x2 block: psd iff n >= 0, and n*m >= |r|^2 with r = 0 when m = 0
                n_val = n.entries[0][0].as_rational()
                ok = n_val >= 0 and n_val * m >= r[0].norm()
            else:
                ok = block_key(n, r, m).is_psd()
            if not ok:
                raise ValueError("block key (n r; r* m) is not positive semidefinite")
            clean[(n, r)] = vec
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, n, r: Sequence[FieldElement]) -> Vec:
        n = _as_key_matrix(n, self.g, self.tag)
        vec = self.coeffs.get((n, tuple(r)))
        return vec if vec is not None else _zero_vec(self.dim, self.tag)

    def support(self) -> list[tuple[HermMatrix, Vector]]:
        return sorted(self.coeffs, key=_key_sort)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, JacobiTable)
            and (other.g, other.k, other.m, other.trunc, other.dim) ==
                (self.g, self.k, self.m, self.trunc, self.dim)
            and other.tag == self.tag
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.g, self.k, self.m, self.tag.d, self.trunc, self.dim,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        return "JacobiTable(g=%d, k=%d, m=%d, d=%d, trunc=%s, %d terms)" % (
            self.g, self.k, self.m, self.tag.d, self.trunc, len(self.coeffs)
        )

    def add(self, other: "JacobiTable") -> "JacobiTable":
        if (other.g, other.m, other.k, other.dim) != (self.g, self.m, self.k, self.dim) \
                or other.tag != self.tag:
            raise ValueError("table shape mismatch")
        trunc = min(self.trunc, other.trunc)
        out: dict[tuple[HermMatrix, Vector], Vec] = {}
        for key in set(self.coeffs) | set(other.coeffs):
            if key[0].trace() > trunc:
                continue
            a = self.coeffs.get(key, _zero_vec(self.dim, self.tag))
            b = other.coeffs.get(key, _zero_vec(other.dim, other.tag))
            out[key] = tuple(x + y for x, y in zip(a, b))
        return JacobiTable(self.g, self.k, self.m, self.tag, trunc, out, self.dim)

    def vanishing_order(self):
        """min over supported keys of the minimal value represented by the
        n-block; +inf on empty support."""
        if not self.coeffs:
            return inf
        return min(min_represented(n) for (n, _r) in self.coeffs)

    def vanishing_order_at(self, r: Sequence[FieldElement]):
        """Smallest corner entry n[g-1][g-1] over supported keys with second
        component r; +inf when r never occurs."""
        r = tuple(r)
        best = inf
        for (n, rr) in self.coeffs:
            if rr == r:
                corner = n.entries[n.g - 1][n.g - 1].as_rational()
                if corner < best:
                    best = corner
        return best


def _key_sort(key: tuple[HermMatrix, Vector]):
    n, r = key
    return (n.trace(), n.to_text(), tuple(x.sort_key() for x in r))


# ----------------------------------------------------------------------
# theta tables


def _class_points(s: CosetClass, norm_bound: Fraction) -> list[Vector]:
    """All vectors r in s + m O^g with sum |r_i|^2 <= norm_bound, ordered."""
    per_component = [coset_points(x, s.m, norm_bound) for x in s.rep]
    out: list[Vector] = []

    def build(i: int, prefix: Vector, used: Fraction):
        if i == len(per_component):
            out.append(prefix)
            return
        for x in per_component[i]:
            n = x.norm()
            if used + n > norm_bound:
                break  # points are sorted by norm
            build(i + 1, prefix + (x,), used + n)

    build(0, (), Fraction(0))
    out.sort(key=lambda vec: (sum(x.norm() for x in vec), tuple(x.sort_key() for x in vec)))
    return out


def theta_coeffs(m: int, s: CosetClass, trunc) -> JacobiTable:
    """The theta table of index m and shift s: coefficient 1 exactly at the
    keys (r m^-1 r*, r) for r in the class; weight recorded as the cogenus."""
    if m < 1:
        raise ValueError("theta index must be >= 1")
    if s.m != m:
        raise ValueError("class has modulus %d, expected %d" % (s.m, m))
    tag = s.tag
    trunc = trunc if isinstance(trunc, Fraction) else Fraction(trunc)
    one = FieldElement.one(tag)
    coeffs = {}
    for r in _class_points(s, trunc * m):
        coeffs[(shift_matrix(r, m), r)] = (one,)
    return JacobiTable(s.g, 1, m, tag, trunc, coeffs)


class ThetaComponentVector(Immutable):
    """The components (h_s)_s of a theta decomposition: one shifted series
    per class of Delta_g(m), in the canonical class order."""

    __slots__ = ("m", "classes", "components")

    def __init__(self, m: int, classes: Sequence[CosetClass],
                 components: Mapping[CosetClass, FourierSeries]):
        classes = tuple(classes)
        if set(classes) != set(components):
            raise ValueError("exactly one component per class is required")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "components", dict(components))

    def __eq__(self, other):
        return (
            isinstance(other, ThetaComponentVector)
            and other.m == self.m
            and other.classes == self.classes
            and other.components == self.components
        )

    def __repr__(self):
        nonzero = sum(1 for h in self.components.values() if not h.is_zero())
        return "ThetaComponentVector(m=%d, %d classes, %d nonzero)" % (
            self.m, len(self.classes), nonzero
        )


def theta_decompose(phi: JacobiTable, strict: bool = False) -> ThetaComponentVector:
    """Splits phi into components c(h_s; n') = c(phi; n' + r m^-1 r*, r).

    Reads through the canonical small representative of each class and
    probes well-definedness: every stored key is compared against the
    canonical read, and the spare representative r + m e_1 is cross-checked.
    With `strict`, every representative inside the truncation is compared.
    Raises ConsistencyError with a witness if the input is not a Jacobi-form
    table.
    """
    m = phi.m
    if m < 1:
        raise ValueError("decomposition requires index >= 1")
    tag = phi.tag
    g = phi.g
    classes = delta_classes(g, m, tag)
    by_class: dict[CosetClass, dict[HermMatrix, Vec]] = {s: {} for s in classes}
    reps = {s: small_rep(s) for s in classes}

    for (n, r), vec in phi.coeffs.items():
        s = reduce_class(r, m)
        nprime = n.sub(shift_matrix(r, m))
        r0 = reps[s]
        key0 = nprime.add(shift_matrix(r0, m))
        canonical = phi.coefficient(key0, r0) if key0.trace() <= phi.trunc else None
        if canonical is not None and canonical != vec:
            raise ConsistencyError(
                "well-definedness violation: representatives disagree",
                witness=(nprime, r, r0),
            )
        by_class[s][nprime] = vec

    components = {}
    for s in classes:
        r0 = reps[s]
        shift0 = shift_matrix(r0, m)
        h_trunc = phi.trunc - shift0.trace()
        body = by_class[s]
        # spare-representative probe per stored index
        e1 = tuple(
            FieldElement(m if i == 0 else 0, 0, tag) for i in range(g)
        )
        r1 = tuple(x + y for x, y in zip(r0, e1))
        shift1 = shift_matrix(r1, m)
        for nprime, vec in body.items():
            key1 = nprime.add(shift1)
            if key1.trace() <= phi.trunc and phi.coefficient(key1, r1) != vec:
                raise ConsistencyError(
                    "well-definedness violation at spare representative",
                    witness=(nprime, r0, r1),
                )
        if strict:
            for nprime, vec in body.items():
                budget = phi.trunc - nprime.trace()
                for r_any in _class_points(CosetClass(m, r0, tag), budget * m):
                    key_any = nprime.add(shift_matrix(r_any, m))
                    if key_any.trace() <= phi.trunc and phi.coefficient(key_any, r_any) != vec:
                        raise ConsistencyError(
                            "well-definedness violation at representative %r" % (r_any,),
                            witness=(nprime, r0, r_any),
                        )
        components[s] = FourierSeries(
            g, phi.k - 1, tag, h_trunc, body, phi.dim, semi_integral=False
        )
    return ThetaComponentVector(m, classes, components)


def theta_recompose(v: ThetaComponentVector, trunc) -> JacobiTable:
    """phi(n, r) = c(h_class(r); n - r m^-1 r*): the exact sum of h_s theta_s.

    Component truncations must reach trunc minus the minimal class shift;
    raises ValueError otherwise.
    """
    m = v.m
    trunc = trunc if isinstance(trunc, Fraction) else Fraction(trunc)
    sample = next(iter(v.components.values()))
    tag, g, dim = sample.tag, sample.g, sample.dim
    weight = sample.k
    coeffs: dict[tuple[HermMatrix, Vector], Vec] = {}
    for s in v.classes:
        h = v.components[s]
        if (h.g, h.tag, h.dim, h.k) != (g, tag, dim, weight):
            raise ValueError("inconsistent components")
        shift0 = shift_matrix(small_rep(s), m).trace()
        if h.trunc < trunc - shift0:
            raise ValueError(
                "component truncation %s insufficient for target %s" % (h.trunc, trunc)
            )
        if h.is_zero():
            continue
        for r in _class_points(s, trunc * m):
            shift = shift_matrix(r, m)
            room = trunc - shift.trace()
            for nprime, vec in h.coeffs.items():
                if nprime.trace() > room:
                    continue
                coeffs[(nprime.add(shift), r)] = vec
    return JacobiTable(g, weight + 1, m, tag, trunc, coeffs, dim)


def series_times_theta(h: FourierSeries, theta: JacobiTable) -> JacobiTable:
    """The product table h(tau) * theta(tau, w, z), exact.

    The output truncation is h.trunc plus the minimal class shift; the theta
    table must be truncated at least there.
    """
    m = theta.m
    cls = None
    for (_n, r) in theta.coeffs:
        cls = reduce_class(r, m)
        break
    if cls is None:
        raise ValueError("empty theta table")
    shift0 = shift_matrix(small_rep(cls), m).trace()
    out_trunc = h.trunc + shift0
    if theta.trunc < out_trunc:
        raise ValueError("theta truncation %s below product target %s" % (theta.trunc, out_trunc))
    coeffs: dict[tuple[HermMatrix, Vector], Vec] = {}
    for (n_theta, r), _one in theta.coeffs.items():
        for nprime, vec in h.coeffs.items():
            n = nprime.add(n_theta)
            if n.trace() > out_trunc:
                continue
            coeffs[(n, r)] = vec
    return JacobiTable(h.g, h.k + 1, m, h.tag, out_trunc, coeffs, h.dim)
