"""Symmetric formal Fourier-Jacobi families.

A family of degree g and cogenus l is indexed, as in Bruinier-Raum, by the
full degree-g Fourier indices: it stores one coefficient per semi-integral
PSD g x g matrix

    T = (n  r)
        (r* m)

with m the lower-right l x l block, n a (g-l) x (g-l) block and r a
(g-l) x l matrix over E.  The cogenus-l tables {m: {(n, r): vec}} are a
view split from these keys on demand.  So the full series and the other
cogenus arrangements wrap the same keys, and the psi_0 slice and formal
theta components select and split them.  The formal theta components of a
cogenus-2 family are `jacobi.theta_decompose` of its cogenus-1 slice at the
chosen index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import linalg
from .errors import RecordError
from .field import FieldElement, FieldTag, Immutable, _clear_dens, _pair_sqrt_disc
from .hermitian import CosetClass, HermMatrix, UnitMatrix, join_block
from .hermitian import _canonical_order, _delta_cells, _join_raw, _split_raw, _sublattice, \
    _trace_within, _y_coords, split_block
from .jacobi import JacobiTable, _shift_matrix, theta_decompose
from .series import FourierSeries, RhoMap, Vec, _all_zero, _nonzero, _zero_vec, check_symmetry

RMat = tuple[tuple[FieldElement, ...], ...]


class FJFamily(Immutable):
    """A symmetric formal Fourier-Jacobi series of cogenus l.

    `coeffs` maps each assembled degree-g key (n r; r* m) to its
    coefficient vector, as `FourierSeries.coeffs` does; `tables` and
    `indices` are the cogenus-l views.  The constructor takes the tables.
    `indices`, `repr` and `formats.write_family` read `_blocks`, and
    `extract_psi0` and the cogenus-1 slice read `_corner`: both split the
    assembled keys as ints (`hermitian._split_raw`) and build no table.

    Validation happens once, at the public boundary: the constructor, and
    so `formats.read_family`, checks every assembled key, and raises
    `errors.RecordError` naming the (m, (n, r)) of one it rejects.
    `_trusted` takes assembled keys and skips the checks for `disassemble`
    of a semi-integral series and for `rearrange_cogenus`.
    """

    __slots__ = ("g", "l", "k", "tag", "trunc", "dim", "coeffs")

    def __init__(
        self,
        g: int,
        l: int,
        k: int,
        tag: FieldTag,
        trunc,
        tables: Mapping[HermMatrix, Mapping],
        dim: int = 1,
    ):
        if not 1 <= l <= g - 1:
            raise ValueError("cogenus must satisfy 1 <= l <= g-1")
        if dim < 1:
            raise ValueError("coefficient dimension must be >= 1")
        trunc = Fraction(trunc)
        bound = trunc.as_integer_ratio()
        coeffs: dict[HermMatrix, Vec] = {}
        for m, table in tables.items():
            if m.g != l or m.tag != tag:
                raise ValueError("index size or field mismatch at %r" % (m,))
            for key, vec in table.items():
                n, r = key
                r = linalg.freeze(r)
                vec = tuple(vec)
                if len(vec) != dim:
                    raise RecordError("coefficient dimension mismatch", (m, key))
                if _all_zero(vec, tag):
                    continue
                if n.g != g - l or n.tag != tag:
                    raise RecordError("key size or field mismatch at %r" % (n,), (m, key))
                flat = [x for row in r for x in row]
                for x in flat:
                    if x.tag != tag:
                        raise RecordError("r component %r is not in the field d=%d"
                                          % (x, tag.d), (m, key))
                if len(r) != g - l or any(len(row) != l for row in r):
                    raise ValueError("r must be %d x %d" % (g - l, l))
                den, coords = _clear_dens(flat)  # each component's field checked above
                block = _join_raw(n, coords, den, m)
                if not block.is_semi_integral():
                    raise RecordError("assembled key %r is not semi-integral" % (block,),
                                      (m, key))
                if not block.is_psd():
                    raise RecordError("assembled key %r is not positive semidefinite"
                                      % (block,), (m, key))
                if not _trace_within(block, bound):
                    raise RecordError("assembled key exceeds truncation %s" % trunc, (m, key))
                coeffs[block] = vec
        self._fill(g, l, k, tag, trunc, dim, coeffs)

    @classmethod
    def _trusted(cls, g: int, l: int, k: int, tag: FieldTag, trunc: Fraction,
                 coeffs: Mapping, dim: int = 1) -> "FJFamily":
        """A family on `coeffs`, keyed by assembled degree-g matrices that
        are valid family keys by construction; skips the key checks of
        `__init__` but still drops all-zero coefficient vectors."""
        return object.__new__(cls)._fill(g, l, k, tag, trunc, dim, _nonzero(coeffs))

    @property
    def tables(self) -> dict[HermMatrix, dict[tuple[HermMatrix, RMat], Vec]]:
        """The cogenus-l tables {m: {(n, r): vec}}, split from the keys on
        each access."""
        return _split_tables(self.coeffs, self.l)

    def indices(self) -> list[HermMatrix]:
        return _canonical_order(self._blocks())

    def _blocks(self) -> dict[HermMatrix, list[tuple[HermMatrix, list[int], int, Vec]]]:
        """The keys t = (n r; r* m) by index: {m: [(n, r, D, vec)]}, with r
        the coordinates of its entries over the D of t, as `_split_raw`
        reads them.  One `HermMatrix` is built per distinct n or m key over
        D, and no `FieldElement`."""
        a, l, tag = self.g - self.l, self.l, self.tag
        made: dict[tuple[int, ...], HermMatrix] = {}
        blocks: dict[HermMatrix, list] = {}
        for t, vec in self.coeffs.items():
            n_raw, r, m_raw = _split_raw(t, l)
            n = made.get(n_raw)
            if n is None:
                n = made[n_raw] = HermMatrix._trusted(a, n_raw, tag)
            m = made.get(m_raw)
            if m is None:
                m = made[m_raw] = HermMatrix._trusted(l, m_raw, tag)
            blocks.setdefault(m, []).append((n, r, n_raw[0], vec))
        return blocks

    def coefficient(self, m: HermMatrix, n: HermMatrix, r) -> Vec:
        vec = self.coeffs.get(join_block(n, linalg.freeze(r), m))
        return vec if vec is not None else _zero_vec(self.dim, self.tag)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FJFamily)
            and (other.g, other.l, other.k, other.trunc, other.dim) ==
                (self.g, self.l, self.k, self.trunc, self.dim)
            and other.tag == self.tag
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.g, self.l, self.k, self.tag.d, self.trunc, self.dim,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        return "FJFamily(g=%d, l=%d, k=%d, d=%d, trunc=%s, %d indices)" % (
            self.g, self.l, self.k, self.tag.d, self.trunc, len(self._blocks())
        )


def _split_tables(coeffs: Mapping[HermMatrix, Vec], l: int) -> dict:
    """{m: {(n, r): vec}} for the keys t = (n r; r* m) of `coeffs`, m of size l."""
    tables: dict[HermMatrix, dict] = {}
    for t, vec in coeffs.items():
        n, r, m = split_block(t, l)
        tables.setdefault(m, {})[(n, r)] = vec
    return tables


def assemble(fam: FJFamily) -> FourierSeries:
    """The degree-g series with c(f; (n r; r* m)) = c(phi_m; n, r): the
    family's own keys, which it validated, so the series skips
    re-validation."""
    return FourierSeries._trusted(fam.g, fam.k, fam.tag, fam.trunc, fam.coeffs, fam.dim)


def disassemble(f: FourierSeries, l: int) -> FJFamily:
    """The cogenus-l family of f.  The keys of a semi-integral series are
    valid family keys, so that family takes them as they are; any other
    series is split and goes through the public constructor."""
    if not 1 <= l <= f.g - 1:
        raise ValueError("cogenus must satisfy 1 <= l <= g-1")
    if f.semi_integral:
        return FJFamily._trusted(f.g, l, f.k, f.tag, f.trunc, f.coeffs, f.dim)
    return FJFamily(f.g, l, f.k, f.tag, f.trunc, _split_tables(f.coeffs, l), f.dim)


def rearrange_cogenus(fam: FJFamily, l_prime: int) -> FJFamily:
    """The cogenus-l' arrangement of the same coefficients: the same keys
    split at another corner."""
    if not 1 <= l_prime < fam.l:
        raise ValueError("target cogenus must satisfy 1 <= l' < l")
    return FJFamily._trusted(fam.g, l_prime, fam.k, fam.tag, fam.trunc, fam.coeffs, fam.dim)


def extract_psi0(fam: FJFamily) -> FJFamily:
    """The index-0 coefficient of the cogenus-1 rearrangement, re-identified
    as a family of degree g-1 and cogenus l-1.

    Keeps the n of the `_corner` at 0: each key whose last diagonal entry
    vanishes, without its last row and column.  Nothing nonzero is dropped:
    every key t is positive semidefinite, so each 2x2 principal minor
    t_ii t_gg - |t_ig|^2 >= 0, and t_gg = 0 forces the whole last row and
    column to vanish.  The shorter keys go through the public constructor
    of the smaller family.
    """
    if fam.l < 2:
        raise ValueError("psi_0 extraction needs cogenus >= 2")
    kept = {n: vec for n, _r, _den, vec in _corner(fam, 0)}
    return FJFamily(fam.g - 1, fam.l - 1, fam.k, fam.tag, fam.trunc,
                    _split_tables(kept, fam.l - 1), fam.dim)


def zero_pad(fam: FJFamily) -> FJFamily:
    """Inverse of extract_psi0 on its image: raises degree and cogenus by one
    by adjoining a zero corner row and column."""
    zero = FieldElement.zero(fam.tag)
    column, corner = ((zero,),) * fam.g, HermMatrix.zero(1, fam.tag)
    padded = {join_block(t, column, corner): vec for t, vec in fam.coeffs.items()}
    return FJFamily(fam.g + 1, fam.l + 1, fam.k, fam.tag, fam.trunc,
                    _split_tables(padded, fam.l + 1), fam.dim)


# ----------------------------------------------------------------------
# formal theta decomposition (cogenus step l -> l' = l - 1 = 1)


def _index_value(m_prime, tag: FieldTag) -> int:
    if isinstance(m_prime, HermMatrix):
        if m_prime.g != 1:
            raise ValueError("only 1x1 decomposition indices are supported "
                             "(coset classes are built for cogenus 1)")
        value = m_prime.trace()
    else:
        value = Fraction(m_prime)
    if value.denominator != 1 or value <= 0:
        raise ValueError("decomposition index must be a positive integer")
    return int(value)


def _corner(fam: FJFamily, m: int):
    """(n, r, D, vec) for each key t = (n r; r* m) of `fam` whose last
    diagonal entry is m, split by `_split_raw(t, 1)`: one `HermMatrix` per
    distinct n key, and r the ints of its last column over the D of t.  The
    corner is read off the key before the split, so keys at other indices
    cost one comparison."""
    a, tag = fam.g - 1, fam.tag
    made: dict[tuple[int, ...], HermMatrix] = {}
    for t, vec in fam.coeffs.items():
        den = t._key[0]
        if t._key[-2] == m * den:
            n_raw, r, _m = _split_raw(t, 1)
            n = made.get(n_raw)
            if n is None:
                n = made[n_raw] = HermMatrix._trusted(a, n_raw, tag)
            yield n, r, den, vec


def _cogenus_one_slice(fam: FJFamily, m: int) -> JacobiTable:
    """The index-m coefficient of the cogenus-1 rearrangement, as a genus
    g-1 Jacobi table truncated at trunc - m: the `_corner` at m, each key
    keyed by its n and the y = sqrt(D) r of its last column, as ints.  No m
    block and no `FieldElement` is built.
    """
    a, tag = fam.g - 1, fam.tag
    coeffs = {}
    for n, r, den, vec in _corner(fam, m):
        # r = (a_i + b_i*w)/D lies in O^#, as the key is semi-integral
        coeffs[(n, tuple([c // den for i in range(0, 2 * a, 2)
                          for c in _pair_sqrt_disc(r[i], r[i + 1], tag)]))] = vec
    # each key re-splits a valid family key, so the table skips re-validation
    return JacobiTable._trusted(a, fam.k, m, tag, fam.trunc - m, coeffs, fam.dim)


def formal_theta_coeffs(
    fam: FJFamily, m_prime, strict: bool = False
) -> dict[CosetClass, FourierSeries]:
    """Theta components of the cogenus-1 coefficient of index m' > 0.

    This is `theta_decompose` of the cogenus-1 slice at index m': one shifted
    series per class of the (g-1)-component coset group, with the same
    well-definedness probes; violations raise ConsistencyError with the
    witness (n', r', r'').
    """
    if fam.l < 2:
        raise ValueError("formal theta decomposition needs cogenus >= 2")
    if fam.l != 2:
        raise ValueError("only the cogenus step 2 -> 1 is supported "
                         "(coset classes are built for cogenus 1)")
    m_val = _index_value(m_prime, fam.tag)
    return theta_decompose(_cogenus_one_slice(fam, m_val), strict).components


def partial_decomposition_check(fam: FJFamily, m_prime, s2: CosetClass, r_prime: FieldElement) -> bool:
    """Verifies the partial theta decomposition identity for the fixed shift
    class s2 and representative r': every stored coefficient whose index
    block ends in r' must agree with the read through the canonical
    representative of its full class, and conversely.  Any representative
    of s2 gives the same verdict.  True exactly when the identity holds at
    this truncation."""
    tag = fam.tag
    m_val = _index_value(m_prime, tag)
    if s2.m != m_val or s2.g != 1 or s2.tag != tag:
        raise ValueError("shift class does not match the index and field")
    if not ((r_prime - s2.rep[0]) / m_val).is_integral():
        raise ValueError("r' is not a representative of the shift class")
    phi = _cogenus_one_slice(fam, m_val)
    bound, d = phi.trunc.as_integer_ratio(), tag.d
    sub, cells, zero = _sublattice(tag, m_val), _delta_cells(m_val, tag), _zero_vec(fam.dim, tag)
    # r' - s2.rep[0] above raises on another field, so r' is over `tag` too
    y_prime, box_s2 = _y_coords(r_prime), sub.index(*_y_coords(s2.rep[0]))

    def value(n: HermMatrix, y) -> Optional[Vec]:
        return phi._coeffs.get((n, y), zero) if _trace_within(n, bound) else None

    for (n, y), vec in phi._coeffs.items():
        # the small representative r0 of the class of r, as y0
        y0 = tuple([c for i in range(0, len(y), 2) for c in cells[sub.index(y[i], y[i + 1])][0]])
        shift_r = _shift_matrix(y, m_val, d)
        if y[-2:] == y_prime:
            # phi-side key; compare against the canonical read
            canonical = value(n.sub(shift_r).add(_shift_matrix(y0, m_val, d)), y0)
            if canonical is not None and canonical != vec:
                return False
        if y == y0 and sub.index(*y[-2:]) == box_s2:
            # canonical h-data (r_last reduces to the rep of s2); compare
            # against the r'-side read
            y_side = y[:-2] + y_prime
            got = value(n.sub(shift_r).add(_shift_matrix(y_side, m_val, d)), y_side)
            if got is not None and got != vec:
                return False
    return True


# ----------------------------------------------------------------------
# symmetry report


def shear_generators(g: int, l: int, tag: FieldTag) -> list[UnitMatrix]:
    """The index-preserving unit matrices (I 0; lambda* I) for lambda a
    single-entry matrix over the integral basis."""
    a, units = g - l, (FieldElement.one(tag), FieldElement.omega(tag))
    return [UnitMatrix.elementary(g, a + q, p, v.conj())
            for p in range(a) for q in range(l) for v in units]


class FamilyReport(Immutable):
    """Outcome of check_family: empty lists mean a symmetric family."""

    __slots__ = ("symmetry_violations", "subaction_violations")

    def __init__(self, symmetry_violations, subaction_violations):
        self._fill(list(symmetry_violations), list(subaction_violations))

    @property
    def ok(self) -> bool:
        return not self.symmetry_violations and not self.subaction_violations

    def __repr__(self):
        return "FamilyReport(symmetry=%d, subaction=%d)" % (
            len(self.symmetry_violations), len(self.subaction_violations)
        )


def check_family(
    fam: FJFamily,
    units: Sequence[UnitMatrix],
    rho: Optional[RhoMap] = None,
) -> FamilyReport:
    """Runs the unimodular symmetry check on the assembled series and the
    index-preserving sub-action instances; collects all violations."""
    f = assemble(fam)
    sym = check_symmetry(f, units, rho)
    shears = shear_generators(fam.g, fam.l, fam.tag)
    sub = check_symmetry(f, shears, rho)
    return FamilyReport(sym, sub)
