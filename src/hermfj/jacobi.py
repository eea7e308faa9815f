"""Cogenus-1 Hermitian Jacobi coefficient tables and the theta machinery.

A table of genus g and index m holds coefficients c(n, r), where r is a
length-g column over the inverse different and n is a g x g Hermitian PSD
matrix (a plain rational when g = 1).  The block matrix

    (n  r )
    (r* m )

must be positive semidefinite for every key.  Theta tables are supported on
n = r m^-1 r*, so diagonals of n are rational rather than integral; the
decomposition components are series with class-dependent rational shifts.

Every r lies in O^# = (1/sqrt(D)) O, so a table holds it as the integer
vector y = sqrt(D) r in O^g, the int tuple (a_1, b_1, ..., a_g, b_g) of
y_i = a_i + b_i*w: its class in Delta_g(m) is `_SublatticeData.class_index`
of y, and its shift r m^-1 r* is y y* / (|D| m).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from typing import Mapping, Sequence

from .errors import ConsistencyError, RecordError
from .field import (FieldElement, FieldTag, Immutable, _clear_dens, _in_field, _pair_conj,
                    _pair_mul, _pair_norm, _pair_sqrt_disc, make_field)
from .hermitian import (CosetClass, HermMatrix, Vector, _class_points, _delta_cells, _from_y,
                        _join_raw, _least_represented, _small_cell, _sublattice, _text_order,
                        _trace_sum, _trace_within, _y_coords, delta_classes)
from .series import FourierSeries, Vec, _all_zero, _nonzero, _zero_vec

#: y = sqrt(D) r in O^g as (a_1, b_1, ..., a_g, b_g)
Y = tuple[int, ...]


def shift_matrix(r: Sequence[FieldElement], m: int) -> HermMatrix:
    """r m^-1 r* as a g x g Hermitian matrix, for a column vector r given
    as any sequence and an index m >= 1.

    Memoised on ints by `_shift_matrix`, keyed on (y, m, d) for y =
    sqrt(D) r, which the library calls with the y of its tables: equal
    inputs share one matrix.  An r outside (O^#)^g has sqrt(D) r = y/e for
    an integral y and the least e > 1, and the shift of y at index e^2 m.
    An empty r, or a component over another field than the first, is rejected.
    """
    if m < 1:
        raise ValueError("index m must be >= 1, got %r" % (m,))
    r = tuple(r)
    if not r:
        raise ValueError("r must have at least one component")
    tag = r[0].tag
    _in_field(r, tag, "component")
    den, xs = _clear_dens(r)
    y = [c for i in range(0, len(xs), 2) for c in _pair_sqrt_disc(xs[i], xs[i + 1], tag)]
    e = gcd(den, *y)
    return _shift_matrix(tuple([c // e for c in y]), m * (den // e) ** 2, tag.d)


@lru_cache(maxsize=4096)
def _shift_matrix(y: Y, m: int, d: int) -> HermMatrix:
    """The shift r m^-1 r* of y = sqrt(D) r in O^g, for m >= 1, on ints:
    entry (i, j) is y_i conj(y_j) / (|D| m), as sqrt(D) conj(sqrt(D)) = |D|."""
    tag = make_field(d)
    raw = [abs(tag.disc) * m]
    for i in range(0, len(y), 2):
        for j in range(i, len(y), 2):
            raw += _pair_mul(y[i], y[i + 1], *_pair_conj(y[j], y[j + 1], tag), tag)
    return HermMatrix._trusted(len(y) // 2, raw, tag)


def _r_of(y: Y, tag: FieldTag) -> Vector:
    """r = y/sqrt(D) as a tuple of `FieldElement`s."""
    return tuple(_from_y(y[i], y[i + 1], tag) for i in range(0, len(y), 2))


def _x_of(y: Y, tag: FieldTag) -> Y:
    """X = |D| r = -sqrt(D) y, the coordinates the canonical order compares."""
    return tuple([-c for i in range(0, len(y), 2) for c in _pair_sqrt_disc(y[i], y[i + 1], tag)])


def _as_key_matrix(n, g: int, tag: FieldTag) -> HermMatrix:
    if isinstance(n, HermMatrix):
        return n
    if g != 1:
        raise ValueError("rational keys are only available at genus 1")
    return HermMatrix.from_rational(n, tag)


def _element_y(r: Vector, tag: FieldTag, key=None) -> Y | None:
    """y of r given as `FieldElement`s over `tag` in O^#; for any other r,
    None, or with a `key` the `errors.RecordError` naming it."""
    y = []
    for x in r:
        if x.tag != tag or not x.is_dual_integral():
            if key is None:
                return None
            where = "the field d=%d" % tag.d if x.tag != tag else "the inverse different"
            raise RecordError("r component %r is not in %s" % (x, where), key)
        y += _y_coords(x)
    return tuple(y)


def _parsed_y(r: tuple[tuple[int, int, int], ...], tag: FieldTag, key) -> Y:
    """y of r given as parsed ints, ((p, q, den), ...) for the components
    (p + q*w)/den over `tag`; a component outside O^# is rejected as by
    `_element_y`, its `FieldElement` built only for the message."""
    y = []
    for p, q, den in r:
        a, b = _pair_sqrt_disc(p, q, tag)
        if a % den or b % den:
            raise RecordError("r component %r is not in the inverse different"
                              % (FieldElement._from_ints(p, q, den, tag),), key)
        y += (a // den, b // den)
    return tuple(y)


class JacobiTable(Immutable):
    """Coefficient table of a cogenus-1 Hermitian Jacobi form.

    The store `_coeffs` is keyed by (n, y), y = sqrt(D) r as ints (see the
    module docstring).  `coeffs` is a view keyed by (n, r), r a tuple of
    `FieldElement`s, one per distinct y, built on each access as
    `HermMatrix.entries` is; `coefficient` and `vanishing_order_at` take r
    that way too.  `_records` gives the keys in the canonical order of the
    text formats.

    Validation happens once, at the public boundary: `_checked`, the one
    checking body of the constructor (r as `FieldElement`s) and of
    `formats.read_jacobi` (`_from_parsed`, r as parsed ints), checks every
    key (each distinct r once) and raises `errors.RecordError` naming an
    (n, r) it rejects.  `_trusted` takes y keys and skips the checks for
    the outputs of `add`, `theta_coeffs`, `theta_recompose`,
    `series_times_theta` and `ffj._cogenus_one_slice`.
    """

    __slots__ = ("g", "k", "m", "tag", "trunc", "dim", "_coeffs")

    def __init__(self, g: int, k: int, m: int, tag: FieldTag, trunc, coeffs: Mapping,
                 dim: int = 1):
        _checked(self, g, k, m, tag, trunc, coeffs, dim, _element_y)

    @classmethod
    def _from_parsed(cls, g: int, k: int, m: int, tag: FieldTag, trunc, coeffs: Mapping,
                     dim: int = 1) -> "JacobiTable":
        """The table of `coeffs` keyed by (n, r), r as the parsed ints of
        `_parsed_y`, through the checks of the constructor."""
        return _checked(object.__new__(cls), g, k, m, tag, trunc, coeffs, dim, _parsed_y)

    @classmethod
    def _trusted(cls, g: int, k: int, m: int, tag: FieldTag, trunc: Fraction,
                 coeffs: Mapping, dim: int = 1) -> "JacobiTable":
        """A table on `coeffs`, keyed by (HermMatrix, y) pairs that are
        valid by construction; skips the key checks of `__init__` but still
        drops all-zero coefficient vectors."""
        return object.__new__(cls)._fill(g, k, m, tag, trunc, dim, _nonzero(coeffs))

    @property
    def coeffs(self) -> dict[tuple[HermMatrix, Vector], Vec]:
        rs = {y: _r_of(y, self.tag) for y in {y for _n, y in self._coeffs}}
        return {(n, rs[y]): vec for (n, y), vec in self._coeffs.items()}

    def coefficient(self, n, r: Sequence[FieldElement]) -> Vec:
        n = _as_key_matrix(n, self.g, self.tag)
        vec = self._coeffs.get((n, _element_y(r, self.tag)))
        return vec if vec is not None else _zero_vec(self.dim, self.tag)

    def _records(self) -> list[tuple[tuple[int, str], Y, HermMatrix, Y, Vec]]:
        """(`_text_order` of n, X = -sqrt(D) y, n, y, vec) for each key, in
        the canonical order of the text formats: n by that order, then r by
        the coordinates of |D| r = X.  Each distinct n and y is mapped once;
        (n, X) differ between keys, so the sort never compares n, y or vec."""
        order = _text_order(n for n, _y in self._coeffs)
        xs = {y: _x_of(y, self.tag) for y in {y for _n, y in self._coeffs}}
        return sorted((order[n], xs[y], n, y, vec) for (n, y), vec in self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        return (
            isinstance(other, JacobiTable)
            and (other.g, other.k, other.m, other.trunc, other.dim) ==
                (self.g, self.k, self.m, self.trunc, self.dim)
            and other.tag == self.tag
            and other._coeffs == self._coeffs
        )

    def __hash__(self):
        return hash((self.g, self.k, self.m, self.tag.d, self.trunc, self.dim,
                     frozenset(self._coeffs.items())))

    def __repr__(self):
        return "JacobiTable(g=%d, k=%d, m=%d, d=%d, trunc=%s, %d terms)" % (
            self.g, self.k, self.m, self.tag.d, self.trunc, len(self._coeffs)
        )

    def add(self, other: "JacobiTable") -> "JacobiTable":
        if (other.g, other.m, other.k, other.dim) != (self.g, self.m, self.k, self.dim) \
                or other.tag != self.tag:
            raise ValueError("table shape mismatch")
        trunc = min(self.trunc, other.trunc)
        bound = trunc.as_integer_ratio()
        out: dict[tuple[HermMatrix, Y], Vec] = {}
        for key in set(self._coeffs) | set(other._coeffs):
            if not _trace_within(key[0], bound):
                continue
            a = self._coeffs.get(key, _zero_vec(self.dim, self.tag))
            b = other._coeffs.get(key, _zero_vec(other.dim, other.tag))
            out[key] = tuple(x + y for x, y in zip(a, b))
        return JacobiTable._trusted(self.g, self.k, self.m, self.tag, trunc, out, self.dim)

    def vanishing_order(self):
        """min over supported keys of the minimal value represented by the
        n-block, by `hermitian._least_represented`; +inf on empty support."""
        return _least_represented(n for n, _y in self._coeffs)

    def vanishing_order_at(self, r: Sequence[FieldElement]):
        """Smallest corner entry n[g-1][g-1] over supported keys with second
        component r; +inf when r never occurs."""
        y = _element_y(r, self.tag)
        return min((Fraction(n._key[-2], n._key[0]) for n, yy in self._coeffs if yy == y),
                   default=inf)


def _checked(table: JacobiTable, g: int, k: int, m: int, tag: FieldTag, trunc,
             coeffs: Mapping, dim: int, y_of) -> JacobiTable:
    """Fills `table` with `coeffs` after the checks of the public boundary:
    the one checking body of the constructor and the HJF reader.  Each
    distinct r is checked once, by `y_of(r, tag, key)`, which gives its y
    or raises `errors.RecordError`."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if m < 0:
        raise ValueError("index must be >= 0")
    if dim < 1:
        raise ValueError("coefficient dimension must be >= 1")
    trunc = Fraction(trunc)
    bound, scale = trunc.as_integer_ratio(), abs(tag.disc) * m
    clean: dict[tuple[HermMatrix, Y], Vec] = {}
    ys: dict = {}  # each distinct r is checked once
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
        y = ys.get(r)
        if y is None:
            y = ys[r] = y_of(r, tag, key)
        if g == 1:
            # 2x2 block: psd iff n = p/D >= 0 and n*m >= |r|^2 = N(y)/|D|
            den, p, _q = n._key
            ok = p >= 0 and p * scale >= _pair_norm(y[0], y[1], tag) * den
        else:
            if index is None:
                index = HermMatrix.from_rational(m, tag)
            # the block key (n r; r* m), with the column r = X/|D|
            ok = _join_raw(n, _x_of(y, tag), abs(tag.disc), index).is_psd()
        if not ok:
            raise RecordError("block key (n r; r* m) is not positive semidefinite", key)
        clean[(n, y)] = vec
    return table._fill(g, k, m, tag, trunc, dim, clean)


# ----------------------------------------------------------------------
# theta tables


def theta_coeffs(m: int, s: CosetClass, trunc,
                 max_keys: int | None = None) -> JacobiTable | None:
    """The theta table of index m and shift s: coefficient 1 exactly at the
    keys (r m^-1 r*, r) for r in the class, any rep, each built from the y
    = sqrt(D) r of `hermitian._class_points`; weight recorded as the
    cogenus.  Keys are in the order of N(r), then of the coordinates of
    |D| r = -sqrt(D) y.  None if there are more than `max_keys`, found
    before any key is built."""
    if s.m != m:
        raise ValueError("class has modulus %d, expected %d" % (s.m, m))
    tag, trunc = s.tag, Fraction(trunc)
    top, den = trunc.as_integer_ratio()
    index = _sublattice(tag, m).class_index([c for x in s.rep for c in _y_coords(x)])
    # each key has trace |r|^2/m <= trunc and a rank-one PSD block
    points = _class_points(s.g, m, tag, top * abs(tag.disc) * m // den, (index,), max_keys)
    if points is None:
        return None
    order = sorted((norm, _x_of(y, tag), y) for _i, norm, y in points)
    one = (FieldElement.one(tag),)
    return JacobiTable._trusted(s.g, 1, m, tag, trunc,
                                {(_shift_matrix(y, m, tag.d), y): one for _n, _x, y in order})


class ThetaComponentVector(Immutable):
    """The components (h_s)_s of a theta decomposition: one shifted series
    per class of Delta_g(m).  The classes are exactly `delta_classes(g, m)`,
    in that canonical order; each has modulus m and g components, which lie
    in O^# by `CosetClass`; each series has the field, weight and dimension
    of the first.  A class out of place raises `errors.RecordError`."""

    __slots__ = ("m", "classes", "components")

    def __init__(self, m: int, classes: Sequence[CosetClass],
                 components: Mapping[CosetClass, FourierSeries]):
        classes = tuple(classes)
        if not classes:
            raise ValueError("at least one class is required")
        if set(classes) != set(components):
            raise ValueError("exactly one component per class is required")
        if len({(h.tag, h.k, h.dim) for h in components.values()}) > 1:
            raise ValueError("inconsistent components")
        for s in classes:
            if s.m != m or s.g != components[s].g or s.tag != components[s].tag:
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
    (n', r), so each pair must be among the (n', y) of the keys: the pairs
    are walked on the points of the classes with keys, from one
    `hermitian._class_points` search, and no theta table is built.  Every
    r is its y = sqrt(D) r throughout, and r0 + m e_1 is y0 + m sqrt(D)
    e_1.  Each n' is built once per distinct (n, r m^-1 r*) pair of the
    call.

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
    # per class index: (body, y0); per distinct y: (its class's entry,
    # r m^-1 r*, whether y = y0, the n' of its shift); per distinct shift
    # key: {n key: n' = n - shift}
    found: dict[int, tuple] = {}
    seen: dict[Y, tuple] = {}
    diffs: dict[tuple[int, ...], dict] = {}
    off_y0 = []
    for (n, y), vec in phi._coeffs.items():
        info = seen.get(y)
        if info is None:
            index = sub.class_index(y)
            if index not in found:
                found[index] = ({}, tuple([c for i in sub.digits(index, g) for c in cells[i][0]]))
            shift = _shift_matrix(y, m, tag.d)
            info = seen[y] = (found[index], shift, y == found[index][1],
                              diffs.setdefault(shift._key, {}))
        entry, shift, at_y0, diff = info
        nprime = diff.get(n._key)
        if nprime is None:
            nprime = diff[n._key] = n.sub(shift)
        if at_y0:
            entry[0][nprime] = vec
        else:  # hold the place of n' in the body, in the order of the keys
            entry[0].setdefault(nprime, None)
            off_y0.append((nprime, y, vec, entry))
    # Rounding makes each r0_i least in norm over its coset, so
    # tr(r0 m^-1 r0*) <= tr(r m^-1 r*): the read n' + r0 m^-1 r0* of a key
    # is always within the truncation.
    for nprime, y, vec, (body, y0) in off_y0:
        if body[nprime] != vec:
            raise ConsistencyError("well-definedness violation: representatives disagree",
                                   witness=(nprime, _r_of(y, tag), _r_of(y0, tag)))

    top, den = trunc.as_integer_ratio()
    if strict:  # (n', y) of each key, off the maps above; (N(y), X, y) of the points by class
        pairs = {(seen[y][3][n._key]._key, y) for n, y in phi._coeffs}
        points = {index: [] for index in found}
        for index, norm, y in _class_points(g, m, tag, top * scale // den, found):
            points[index].append((norm, _x_of(y, tag), y))
    step = _pair_sqrt_disc(m, 0, tag)  # m e_1 as y
    classes, components = delta_classes(g, m, tag), {}
    for index, s in enumerate(classes):
        # trunc less the trace of the shift of r0
        norm0 = sum(cells[i][1] for i in sub.digits(index, g))
        h_trunc = Fraction(top * scale - den * norm0, den * scale)
        body, y0 = found.get(index) or ({}, ())
        components[s] = FourierSeries._trusted(g, phi.k - 1, tag, h_trunc, body, phi.dim,
                                               semi_integral=False)
        if not body:
            continue
        y1 = (y0[0] + step[0], y0[1] + step[1]) + y0[2:]
        shift1 = _shift_matrix(y1, m, tag.d)
        room1 = _trace_sum((top, den), shift1._trace, -1)  # tr n' + tr shift1 <= trunc
        for nprime, vec in body.items():
            # only a key within the truncation is built; vec is nonzero, so
            # an absent key differs from it
            if _trace_within(nprime, room1) and \
                    phi._coeffs.get((nprime.add(shift1), y1)) != vec:
                raise ConsistencyError("well-definedness violation at spare representative",
                                       witness=(nprime, _r_of(y0, tag), _r_of(y1, tag)))
        if strict:  # each pair (n', r) with N(y) <= (trunc - tr n') |D| m is a key
            walk = sorted(points[index])
            for nprime in body:
                num, d = nprime._trace
                bound = (top * d - num * den) * scale // (den * d)
                for norm, _x, y in walk:
                    if norm > bound:
                        break
                    if (nprime._key, y) not in pairs:
                        r_any = _r_of(y, tag)
                        raise ConsistencyError("well-definedness violation at representative %r"
                                               % (r_any,), witness=(nprime, _r_of(y0, tag), r_any))
    return ThetaComponentVector(m, classes, components)


def theta_recompose(v: ThetaComponentVector, trunc) -> JacobiTable:
    """phi(n, r) = c(h_class(r); n - r m^-1 r*): the exact sum of h_s theta_s.

    Component truncations must reach trunc minus the minimal class shift;
    raises ValueError otherwise.  The y = sqrt(D) r of the classes with a
    nonzero component come from `hermitian._class_points` and key the
    table as they are.  Each n = n' + r m^-1 r* is built once per distinct
    (n', r m^-1 r*) pair of the call and shared by every y that gives it;
    at genus 1 the shift depends only on N(y).  Each key has the PSD n' as
    its Schur complement and r in O^#, so the table skips re-validation.
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
        # h.trunc >= trunc less the trace of the shift of r0, on ints
        norm0, (num, d) = sum(cells[i][1] for i in sub.digits(index, g)), h.trunc.as_integer_ratio()
        if num * den * scale < (top * scale - den * norm0) * d:
            raise ValueError("component truncation %s insufficient for target %s"
                             % (h.trunc, trunc))
        if h.coeffs:
            live[index] = [(nprime, nprime._trace, vec) for nprime, vec in h.coeffs.items()]
    coeffs: dict[tuple[HermMatrix, Y], Vec] = {}
    sums: dict[tuple[int, ...], dict] = {}  # per shift key: {n' key: n' + shift}
    for index, norm, y in _class_points(g, m, tag, top * scale // den, live):
        shift = _shift_matrix(y, m, tag.d)
        total = sums.setdefault(shift._key, {})
        # tr n' <= trunc - N(y)/(|D| m), on ints
        room = top * scale - norm * den
        for nprime, (num, d), vec in live[index]:
            if num * den * scale <= room * d:
                n = total.get(nprime._key)
                if n is None:
                    n = total[nprime._key] = nprime.add(shift)
                coeffs[(n, y)] = vec
    return JacobiTable._trusted(g, weight + 1, m, tag, trunc, coeffs, dim)


def series_times_theta(h: FourierSeries, theta: JacobiTable) -> JacobiTable:
    """The product table h(tau) * theta(tau, w, z), exact, for theta a theta
    table: each key (r m^-1 r*, r) of one class with coefficient 1, or
    ValueError names the key.  The output truncation is h.trunc plus the
    minimal class shift; theta must be truncated at least there.  A PSD n'
    plus a key of theta is a valid key, so the table skips re-validation.
    """
    m, tag = theta.m, theta.tag
    if not theta._coeffs:
        raise ValueError("empty theta table")
    if m < 1:
        raise ValueError("m must be >= 1")
    y = next(iter(theta._coeffs))[1]
    one, sub = (FieldElement.one(tag),), _sublattice(tag, m)
    for (n, y_any), vec in theta._coeffs.items():
        if (vec, n, sub.class_index(y_any)) != (one, _shift_matrix(y_any, m, tag.d),
                                                 sub.class_index(y)):
            raise ValueError("not a theta table of one class at key %r" % ((n, _r_of(y_any, tag)),))
    # tr(r0 m^-1 r0*) for r0 the small representative of the class of the keys
    shift0 = Fraction(sum(_small_cell(y[i], y[i + 1], m, tag)[1] for i in range(0, len(y), 2)),
                      abs(tag.disc) * m)
    out_trunc = h.trunc + shift0
    if theta.trunc < out_trunc:
        raise ValueError("theta truncation %s below product target %s" % (theta.trunc, out_trunc))
    bound = out_trunc.as_integer_ratio()
    coeffs: dict[tuple[HermMatrix, Y], Vec] = {}
    for (n_theta, y), _one in theta._coeffs.items():
        for nprime, vec in h.coeffs.items():
            n = nprime.add(n_theta)
            if _trace_within(n, bound):
                coeffs[(n, y)] = vec
    return JacobiTable._trusted(h.g, h.k + 1, m, h.tag, out_trunc, coeffs, h.dim)
