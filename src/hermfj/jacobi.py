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

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import inf
from typing import Mapping, Sequence

from .errors import ConsistencyError, RecordError
from .field import (FieldElement, FieldTag, Immutable, _clear_dens, _pair_conj, _pair_mul,
                    _pair_norm, _pair_sqrt_disc)
from .hermitian import (
    CosetClass,
    HermMatrix,
    Vector,
    _canonical_order, _class_points, _delta_cells, _from_y, _small_cell, _sublattice,
    _trace_sum, _trace_within, _y_coords,
    delta_classes,
    join_block,
    min_represented,
)
from .series import FourierSeries, Vec, _all_zero, _nonzero, _zero_vec


def shift_matrix(r: Sequence[FieldElement], m: int) -> HermMatrix:
    """r m^-1 r* as a g x g Hermitian matrix, for a column vector r given
    as any sequence and an index m >= 1.

    Memoised on (tuple(r), m) in an LRU cache of 4096 entries; equal inputs
    share one matrix.
    """
    return _shift_matrix(tuple(r), m)


@lru_cache(maxsize=4096)
def _shift_matrix(r: Vector, m: int) -> HermMatrix:
    """On ints: entry (i, j) is x conj(y)/(D^2 m) for x = D*r_i and
    y = D*r_j in O, D the lcm of the denominators of r."""
    if m < 1:
        raise ValueError("index m must be >= 1, got %r" % (m,))
    tag = r[0].tag
    den, xs = _clear_dens(r)
    raw = [den * den * m]
    for i in range(0, len(xs), 2):
        for j in range(i, len(xs), 2):
            raw += _pair_mul(xs[i], xs[i + 1], *_pair_conj(xs[j], xs[j + 1], tag), tag)
    return HermMatrix._trusted(len(r), raw, tag)


def block_key(n: HermMatrix, r: Sequence[FieldElement], m: int) -> HermMatrix:
    """The (g+1) x (g+1) assembly (n r; r* m), Hermitian by construction
    for a Hermitian n and a rational m."""
    return join_block(n, tuple((x,) for x in r), HermMatrix.from_rational(m, n.tag))


def _as_key_matrix(n, g: int, tag: FieldTag) -> HermMatrix:
    if isinstance(n, HermMatrix):
        return n
    if g != 1:
        raise ValueError("rational keys are only available at genus 1")
    return HermMatrix.from_rational(n, tag)


class JacobiTable(Immutable):
    """Coefficient table of a cogenus-1 Hermitian Jacobi form.

    Validation happens once, at the public boundary: the constructor, and
    so `formats.read_jacobi`, checks every key (each distinct r once), and
    raises `errors.RecordError` naming an (n, r) it rejects.  `_trusted`
    skips the checks for the outputs of `add`, `theta_coeffs`,
    `theta_recompose`, `series_times_theta` and `ffj._cogenus_one_slice`.
    """

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
        if dim < 1:
            raise ValueError("coefficient dimension must be >= 1")
        trunc = Fraction(trunc)
        bound = trunc.as_integer_ratio()
        clean: dict[tuple[HermMatrix, Vector], Vec] = {}
        good_r: set[Vector] = set()  # each distinct r is checked once
        index = None  # the 1x1 matrix [m] of the block keys, built at the first one
        for key, vec in coeffs.items():
            n, r = key
            n = _as_key_matrix(n, g, tag)
            r = tuple(r)
            vec = tuple(vec)
            if len(vec) != dim:
                raise RecordError("coefficient dimension mismatch", key)
            if _all_zero(vec, tag):
                continue
            if n.g != g or len(r) != g or n.tag != tag:
                raise RecordError("key size or field mismatch", key)
            if not _trace_within(n, bound):
                raise RecordError("key exceeds truncation %s" % trunc, key)
            if r not in good_r:
                for x in r:
                    if x.tag != tag:
                        raise RecordError("r component %r is not in the field d=%d"
                                          % (x, tag.d), key)
                    if not x.is_dual_integral():
                        raise RecordError("r component %r is not in the inverse different"
                                          % (x,), key)
                good_r.add(r)
            if g == 1:
                # 2x2 block: psd iff n = p/D >= 0 and n*m >= |r|^2 = N_num/den_r^2
                (den, p, _q), x = n._key, r[0]
                ok = p >= 0 and p * m * x.den * x.den >= _pair_norm(x.p, x.q, tag) * den
            else:
                if index is None:
                    index = HermMatrix.from_rational(m, tag)
                ok = join_block(n, tuple((x,) for x in r), index).is_psd()  # block_key(n, r, m)
            if not ok:
                raise RecordError("block key (n r; r* m) is not positive semidefinite", key)
            clean[(n, r)] = vec
        self._fill(g, k, m, tag, trunc, dim, clean)

    @classmethod
    def _trusted(cls, g: int, k: int, m: int, tag: FieldTag, trunc: Fraction,
                 coeffs: Mapping, dim: int = 1) -> "JacobiTable":
        """A table on `coeffs`, keyed by (HermMatrix, tuple) pairs that are
        valid by construction; skips the key checks of `__init__` but still
        drops all-zero coefficient vectors."""
        return object.__new__(cls)._fill(g, k, m, tag, trunc, dim, _nonzero(coeffs))

    def coefficient(self, n, r: Sequence[FieldElement]) -> Vec:
        n = _as_key_matrix(n, self.g, self.tag)
        vec = self.coeffs.get((n, tuple(r)))
        return vec if vec is not None else _zero_vec(self.dim, self.tag)

    def support(self) -> list[tuple[HermMatrix, Vector]]:
        return _canonical_order(self.coeffs)

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
        bound = trunc.as_integer_ratio()
        out: dict[tuple[HermMatrix, Vector], Vec] = {}
        for key in set(self.coeffs) | set(other.coeffs):
            if not _trace_within(key[0], bound):
                continue
            a = self.coeffs.get(key, _zero_vec(self.dim, self.tag))
            b = other.coeffs.get(key, _zero_vec(other.dim, other.tag))
            out[key] = tuple(x + y for x, y in zip(a, b))
        return JacobiTable._trusted(self.g, self.k, self.m, self.tag, trunc, out, self.dim)

    def vanishing_order(self):
        """min over supported keys of the minimal value represented by the
        n-block; +inf on empty support."""
        return min((min_represented(n) for (n, _r) in self.coeffs), default=inf)

    def vanishing_order_at(self, r: Sequence[FieldElement]):
        """Smallest corner entry n[g-1][g-1] over supported keys with second
        component r; +inf when r never occurs."""
        r = tuple(r)
        return min((Fraction(n._key[-2], n._key[0]) for n, rr in self.coeffs if rr == r),
                   default=inf)


# ----------------------------------------------------------------------
# theta tables


def theta_coeffs(m: int, s: CosetClass, trunc,
                 max_keys: int | None = None) -> JacobiTable | None:
    """The theta table of index m and shift s: coefficient 1 exactly at the
    keys (r m^-1 r*, r) for r in the class, any rep, from
    `hermitian._class_points`; weight recorded as the cogenus.  Keys are in
    the order of N(r), then of the coordinates of |D| r = -sqrt(D) y.  None
    if there are more than `max_keys`, found before any key is built."""
    if s.m != m:
        raise ValueError("class has modulus %d, expected %d" % (s.m, m))
    tag, trunc, pairs = s.tag, Fraction(trunc), range(0, 2 * s.g, 2)
    top, den = trunc.as_integer_ratio()
    index = _sublattice(tag, m).class_index([c for x in s.rep for c in _y_coords(x)])
    # each key has trace |r|^2/m <= trunc and a rank-one PSD block
    points = _class_points(s.g, m, tag, top * abs(tag.disc) * m // den, (index,), max_keys)
    if points is None:
        return None
    order = sorted((norm, [-c for i in pairs for c in _pair_sqrt_disc(y[i], y[i + 1], tag)],
                    tuple(_from_y(y[i], y[i + 1], tag) for i in pairs)) for _i, norm, y in points)
    one = (FieldElement.one(tag),)
    return JacobiTable._trusted(s.g, 1, m, tag, trunc,
                                {(shift_matrix(r, m), r): one for _n, _x, r in order})


class ThetaComponentVector(Immutable):
    """The components (h_s)_s of a theta decomposition: one shifted series
    per class of Delta_g(m).  The classes are exactly `delta_classes(g, m)`,
    in that canonical order; each has modulus m and g components, which lie
    in O^# by `CosetClass`.  A class out of place raises `errors.RecordError`
    naming its position in `classes`."""

    __slots__ = ("m", "classes", "components")

    def __init__(self, m: int, classes: Sequence[CosetClass],
                 components: Mapping[CosetClass, FourierSeries]):
        classes = tuple(classes)
        if not classes:
            raise ValueError("at least one class is required")
        if set(classes) != set(components):
            raise ValueError("exactly one component per class is required")
        for s in classes:
            if s.m != m or s.g != components[s].g:
                raise ValueError("class %r does not fit modulus %d and its series" % (s, m))
        g, tag = classes[0].g, classes[0].tag
        # compare counts before listing Delta_g(m), which has (m^2 |D|)^g classes
        want = (m * m * abs(tag.disc)) ** g
        if len(classes) != want:
            raise ValueError("expected %d class sections, got %d" % (want, len(classes)))
        canonical = delta_classes(g, m, tag)
        if classes != canonical:
            i = next(i for i, (got, s) in enumerate(zip(classes, canonical)) if got != s)
            raise RecordError("class %d: rep must be the canonical %s"
                              % (i, canonical[i].to_text()), i)
        self._fill(m, classes, dict(components))

    def __eq__(self, other):
        return (isinstance(other, ThetaComponentVector)
                and (other.m, other.classes, other.components)
                == (self.m, self.classes, self.components))

    def __repr__(self):
        nonzero = sum(1 for h in self.components.values() if not h.is_zero())
        return "ThetaComponentVector(m=%d, %d classes, %d nonzero)" % (
            self.m, len(self.classes), nonzero
        )


def theta_decompose(phi: JacobiTable, strict: bool = False) -> ThetaComponentVector:
    """Splits phi into components c(h_s; n') = c(phi; n' + r m^-1 r*, r).

    The body of h_s is read off the keys at the small representative r0 of
    s, and every other key (n, r) of s must find its coefficient there, at
    n' = n - r m^-1 r*; then each n' is probed at r0 + m e_1.  With
    `strict`, every r of s with tr(n' + r m^-1 r*) <= phi.trunc must give
    body[n'].  The keys of s, all matched, map one-to-one into these pairs
    (n', r), so it is enough that s has as many keys as pairs, counted on
    the points of the classes with keys (`hermitian._class_points`); a
    class short of keys is walked on the keys of its theta table.

    Raises ConsistencyError with a witness (n', r, r') at the first failed
    probe, by key in the order of phi.coeffs, then by class: r0 + m e_1
    for each n' in the order the keys first give it, then the r of each n'
    in the key order of `theta_coeffs`.  Each n' is the Schur complement of
    a PSD block, within its class's truncation, so the components skip
    re-validation.
    """
    m = phi.m
    if m < 1:
        raise ValueError("decomposition requires index >= 1")
    tag, g, trunc = phi.tag, phi.g, phi.trunc
    cells, sub, scale = _delta_cells(m, tag), _sublattice(tag, m), abs(tag.disc) * m
    # per class index: [body, keys off r0, r0]; per distinct r: (its class's
    # entry, r m^-1 r*, whether r = r0)
    found: dict[int, list] = {}
    seen: dict[Vector, tuple] = {}
    off_r0 = []
    for (n, r), vec in phi.coeffs.items():
        info = seen.get(r)
        if info is None:
            index = sub.class_index([c for x in r for c in _y_coords(x)])
            if index not in found:
                found[index] = [{}, 0, tuple(cells[i][0] for i in sub.digits(index, g))]
            info = seen[r] = (found[index], shift_matrix(r, m), r == found[index][2])
        entry, shift, at_r0 = info
        nprime = n.sub(shift)
        if at_r0:
            entry[0][nprime] = vec
        else:  # hold the place of n' in the body, in the order of the keys
            entry[0].setdefault(nprime, None)
            entry[1] += 1
            off_r0.append((nprime, r, vec, entry))
    # Rounding makes each r0_i least in norm over its coset, so
    # tr(r0 m^-1 r0*) <= tr(r m^-1 r*): the read n' + r0 m^-1 r0* of a key
    # is always within the truncation.
    for nprime, r, vec, (body, _off, r0) in off_r0:
        if body[nprime] != vec:
            raise ConsistencyError("well-definedness violation: representatives disagree",
                                   witness=(nprime, r, r0))

    top, den = trunc.as_integer_ratio()
    norms: dict[int, list[int]] = {}
    if strict:
        for index, norm, _y in _class_points(g, m, tag, top * scale // den, found):
            norms.setdefault(index, []).append(norm)
        for ns in norms.values():
            ns.sort()
    classes, components = delta_classes(g, m, tag), {}
    for index, s in enumerate(classes):
        # trunc less the trace of the shift of r0
        norm0 = sum(cells[i][1] for i in sub.digits(index, g))
        h_trunc = Fraction(top * scale - den * norm0, den * scale)
        body, off, r0 = found.get(index) or ({}, 0, ())
        components[s] = FourierSeries._trusted(g, phi.k - 1, tag, h_trunc, body, phi.dim,
                                               semi_integral=False)
        if not body:
            continue
        r1 = (r0[0] + m,) + r0[1:]
        shift1 = shift_matrix(r1, m)
        for nprime, vec in body.items():
            key1 = nprime.add(shift1)
            if _trace_within(key1, (top, den)) and phi.coefficient(key1, r1) != vec:
                raise ConsistencyError("well-definedness violation at spare representative",
                                       witness=(nprime, r0, r1))
        # the pairs (n', r) with N(y) <= (trunc - tr n') |D| m, against the
        # keys; short of keys, walk the keys of theta_s to the witness
        if strict and len(body) + off != sum(
                bisect_right(norms.get(index, ()), (top * d - num * den) * scale // (den * d))
                for num, d in (nprime._trace for nprime in body)):
            points = theta_coeffs(m, s, trunc).coeffs
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


def theta_recompose(v: ThetaComponentVector, trunc) -> JacobiTable:
    """phi(n, r) = c(h_class(r); n - r m^-1 r*): the exact sum of h_s theta_s.

    Component truncations must reach trunc minus the minimal class shift;
    raises ValueError otherwise.  The r of the classes with a nonzero
    component come from `hermitian._class_points`.  Each key
    has the PSD n' as its Schur complement and r in O^#, so the table skips
    re-validation.
    """
    m = v.m
    trunc = Fraction(trunc)
    sample = next(iter(v.components.values()))
    tag, g, dim, weight = sample.tag, sample.g, sample.dim, sample.k
    cells, sub, scale = _delta_cells(m, tag), _sublattice(tag, m), abs(tag.disc) * m
    top, den = trunc.as_integer_ratio()
    live: dict[int, list] = {}
    for index, s in enumerate(v.classes):
        h = v.components[s]
        if (h.g, h.tag, h.dim, h.k) != (g, tag, dim, weight):
            raise ValueError("inconsistent components")
        # h.trunc >= trunc less the trace of the shift of r0, on ints
        norm0, (num, d) = sum(cells[i][1] for i in sub.digits(index, g)), h.trunc.as_integer_ratio()
        if num * den * scale < (top * scale - den * norm0) * d:
            raise ValueError("component truncation %s insufficient for target %s"
                             % (h.trunc, trunc))
        if h.coeffs:
            live[index] = [(nprime, nprime._trace, vec) for nprime, vec in h.coeffs.items()]
    coeffs: dict[tuple[HermMatrix, Vector], Vec] = {}
    for index, norm, y in _class_points(g, m, tag, top * scale // den, live):
        r = tuple(_from_y(y[i], y[i + 1], tag) for i in range(0, 2 * g, 2))
        shift = shift_matrix(r, m)
        # tr n' <= trunc - N(y)/(|D| m), on ints
        room = top * scale - norm * den
        for nprime, (num, d), vec in live[index]:
            if num * den * scale <= room * d:
                coeffs[(nprime.add(shift), r)] = vec
    return JacobiTable._trusted(g, weight + 1, m, tag, trunc, coeffs, dim)


def series_times_theta(h: FourierSeries, theta: JacobiTable) -> JacobiTable:
    """The product table h(tau) * theta(tau, w, z), exact.

    The output truncation is h.trunc plus the minimal class shift; the theta
    table must be truncated at least there.  A PSD n' plus a valid key of
    theta is a valid key, so the table skips re-validation.
    """
    m, tag = theta.m, theta.tag
    if not theta.coeffs:
        raise ValueError("empty theta table")
    if m < 1:
        raise ValueError("m must be >= 1")
    # tr(r0 m^-1 r0*) for r0 the small representative of the class of the keys
    shift0 = Fraction(sum(_small_cell(*_y_coords(x), m, tag)[1]
                          for x in next(iter(theta.coeffs))[1]), abs(tag.disc) * m)
    out_trunc = h.trunc + shift0
    if theta.trunc < out_trunc:
        raise ValueError("theta truncation %s below product target %s" % (theta.trunc, out_trunc))
    bound = out_trunc.as_integer_ratio()
    coeffs: dict[tuple[HermMatrix, Vector], Vec] = {}
    for (n_theta, r), _one in theta.coeffs.items():
        for nprime, vec in h.coeffs.items():
            n = nprime.add(n_theta)
            if not _trace_within(n, bound):
                continue
            coeffs[(n, r)] = vec
    return JacobiTable._trusted(h.g, h.k + 1, m, h.tag, out_trunc, coeffs, h.dim)
