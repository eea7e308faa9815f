"""Symmetric formal Fourier-Jacobi families.

A family of degree g and cogenus l stores, per semi-integral PSD l x l
index matrix m, a coefficient table keyed by pairs (n, r) with n a
(g-l) x (g-l) semi-integral PSD matrix and r a (g-l) x l matrix over E; the
assembled block

    (n  r)
    (r* m)

is the corresponding full degree-g Fourier index.  The family is the single
source of truth; the full series, other cogenus arrangements, the psi_0
slice and formal theta components are all derived views.  The formal theta
components of a cogenus-2 family are `jacobi.theta_decompose` of its
cogenus-1 slice at the chosen index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import linalg
from .errors import ConsistencyError
from .field import FieldElement, FieldTag, Immutable
from .hermitian import CosetClass, HermMatrix, UnitMatrix, join_block, reduce_class, small_rep
from .hermitian import _canonical_order, _trace_within, split_block
from .jacobi import JacobiTable, shift_matrix, theta_decompose
from .series import FourierSeries, RhoMap, Vec, _nonzero, _zero_vec, check_symmetry

RMat = tuple[tuple[FieldElement, ...], ...]


class FJFamily(Immutable):
    """A symmetric formal Fourier-Jacobi series held by its cogenus-l tables.

    Validation happens once, at the public boundary: the constructor, and
    so `formats.read_family`, checks every assembled key.  `_trusted` skips
    the checks for `disassemble` of a semi-integral series, and so for
    `rearrange_cogenus`.
    """

    __slots__ = ("g", "l", "k", "tag", "trunc", "dim", "tables")

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
        trunc = trunc if isinstance(trunc, Fraction) else Fraction(trunc)
        bound = trunc.as_integer_ratio()
        clean: dict[HermMatrix, dict[tuple[HermMatrix, RMat], Vec]] = {}
        for m, table in tables.items():
            if m.g != l or m.tag != tag:
                raise ValueError("index size or field mismatch at %r" % (m,))
            body: dict[tuple[HermMatrix, RMat], Vec] = {}
            for (n, r), vec in table.items():
                r = linalg.freeze(r)
                vec = tuple(vec)
                if len(vec) != dim:
                    raise ValueError("coefficient dimension mismatch")
                if all(v.is_zero() for v in vec):
                    continue
                if n.g != g - l or n.tag != tag:
                    raise ValueError("key size or field mismatch at %r" % (n,))
                block = join_block(n, r, m)
                if not block.is_semi_integral():
                    raise ValueError("assembled key %r is not semi-integral" % (block,))
                if not block.is_psd():
                    raise ValueError("assembled key %r is not positive semidefinite" % (block,))
                if not _trace_within(block, bound):
                    raise ValueError("assembled key exceeds truncation %s" % trunc)
                body[(n, r)] = vec
            if body:
                clean[m] = body
        self._fill(g, l, k, tag, trunc, dim, clean)

    @classmethod
    def _trusted(cls, g: int, l: int, k: int, tag: FieldTag, trunc: Fraction,
                 tables: Mapping, dim: int = 1) -> "FJFamily":
        """A family on `tables`, whose (n, r) keys, r frozen, assemble to
        valid keys by construction; skips the key checks of `__init__` but
        still drops all-zero coefficient vectors and then empty indices."""
        clean = {m: body for m, table in tables.items() if (body := _nonzero(table))}
        return object.__new__(cls)._fill(g, l, k, tag, trunc, dim, clean)

    def indices(self) -> list[HermMatrix]:
        return _canonical_order(self.tables)

    def table(self, m: HermMatrix) -> dict:
        return dict(self.tables.get(m, {}))

    def coefficient(self, m: HermMatrix, n: HermMatrix, r) -> Vec:
        body = self.tables.get(m)
        if body is None:
            return _zero_vec(self.dim, self.tag)
        vec = body.get((n, linalg.freeze(r)))
        return vec if vec is not None else _zero_vec(self.dim, self.tag)

    def is_zero(self) -> bool:
        return not self.tables

    def __eq__(self, other):
        return (
            isinstance(other, FJFamily)
            and (other.g, other.l, other.k, other.trunc, other.dim) ==
                (self.g, self.l, self.k, self.trunc, self.dim)
            and other.tag == self.tag
            and other.tables == self.tables
        )

    def __repr__(self):
        return "FJFamily(g=%d, l=%d, k=%d, d=%d, trunc=%s, %d indices)" % (
            self.g, self.l, self.k, self.tag.d, self.trunc, len(self.tables)
        )


def assemble(fam: FJFamily) -> FourierSeries:
    """The degree-g series with c(f; (n r; r* m)) = c(phi_m; n, r).  The
    family validated these keys, so the series skips re-validation."""
    coeffs: dict[HermMatrix, Vec] = {}
    for m, body in fam.tables.items():
        for (n, r), vec in body.items():
            coeffs[join_block(n, r, m)] = vec
    return FourierSeries._trusted(fam.g, fam.k, fam.tag, fam.trunc, coeffs, fam.dim)


def disassemble(f: FourierSeries, l: int) -> FJFamily:
    """Partition the support of f by the lower-right l x l block.  The keys
    of a semi-integral series are valid family keys, so that family skips
    re-validation; any other series goes through the public constructor."""
    if not 1 <= l <= f.g - 1:
        raise ValueError("cogenus must satisfy 1 <= l <= g-1")
    tables: dict[HermMatrix, dict] = {}
    for t, vec in f.coeffs.items():
        n, r, m = split_block(t, l)
        tables.setdefault(m, {})[(n, r)] = vec
    build = FJFamily._trusted if f.semi_integral else FJFamily
    return build(f.g, l, f.k, f.tag, f.trunc, tables, f.dim)


def rearrange_cogenus(fam: FJFamily, l_prime: int) -> FJFamily:
    """The cogenus-l' arrangement of the same coefficients: an exact
    re-indexing through the assembled series."""
    if not 1 <= l_prime < fam.l:
        raise ValueError("target cogenus must satisfy 1 <= l' < l")
    return disassemble(assemble(fam), l_prime)


def extract_psi0(fam: FJFamily) -> FJFamily:
    """The index-0 coefficient of the cogenus-1 rearrangement, re-identified
    as a family of degree g-1 and cogenus l-1.

    Keeps the indices m whose lower-right corner vanishes; positive
    semidefiniteness forces the rest of the corner row and column of both m
    and every key to vanish, which is re-verified and reported as a
    consistency error on violation.
    """
    if fam.l < 2:
        raise ValueError("psi_0 extraction needs cogenus >= 2")
    l = fam.l
    zero = FieldElement.zero(fam.tag)
    tables: dict[HermMatrix, dict] = {}
    for m, body in fam.tables.items():
        rows = m.entries
        if rows[l - 1][l - 1] != 0:
            continue
        for i in range(l):
            if rows[i][l - 1] != zero or rows[l - 1][i] != zero:
                raise ConsistencyError(
                    "degenerate index with nonzero corner row", witness=m
                )
        m_new = HermMatrix(tuple(row[:l - 1] for row in rows[:l - 1]), fam.tag)
        new_body = tables.setdefault(m_new, {})
        for (n, r), vec in body.items():
            for row in r:
                if row[l - 1] != zero:
                    raise ConsistencyError(
                        "nonzero coefficient in the removed column",
                        witness=(m, n, r),
                    )
            r_new = tuple(row[: l - 1] for row in r)
            new_body[(n, r_new)] = vec
    return FJFamily(fam.g - 1, fam.l - 1, fam.k, fam.tag, fam.trunc, tables, fam.dim)


def zero_pad(fam: FJFamily) -> FJFamily:
    """Inverse of extract_psi0 on its image: raises degree and cogenus by one
    by adjoining a zero corner row and column."""
    zero = FieldElement.zero(fam.tag)
    tables: dict[HermMatrix, dict] = {}
    for m, body in fam.tables.items():
        m_new = HermMatrix(tuple(row + (zero,) for row in m.entries) + ((zero,) * (m.g + 1),),
                           fam.tag)
        new_body = tables.setdefault(m_new, {})
        for (n, r), vec in body.items():
            r_new = tuple(row + (zero,) for row in r)
            new_body[(n, r_new)] = vec
    return FJFamily(fam.g + 1, fam.l + 1, fam.k, fam.tag, fam.trunc, tables, fam.dim)


# ----------------------------------------------------------------------
# formal theta decomposition (cogenus step l -> l' = l - 1 = 1)


def _index_value(m_prime, tag: FieldTag) -> int:
    if isinstance(m_prime, HermMatrix):
        if m_prime.g != 1:
            raise ValueError("only 1x1 decomposition indices are supported "
                             "(coset classes are built for cogenus 1)")
        value = Fraction(m_prime._key[1], m_prime._key[0])
    else:
        value = Fraction(m_prime)
    if value.denominator != 1 or value <= 0:
        raise ValueError("decomposition index must be a positive integer")
    return int(value)


def _cogenus_one_slice(fam: FJFamily, m: int) -> JacobiTable:
    """The index-m coefficient of the cogenus-1 rearrangement, as a genus
    g-1 Jacobi table truncated at trunc - m.

    A key's lower-right corner is the corner of its cogenus-l index, so only
    the indices with corner m contribute; their keys are re-split by the last
    row and column.
    """
    coeffs = {}
    for idx, body in fam.tables.items():
        if idx._key[-2] != m * idx._key[0]:
            continue
        for (n, r), vec in body.items():
            n1, r1, _m1 = split_block(join_block(n, r, idx), 1)
            coeffs[(n1, tuple(row[0] for row in r1))] = vec
    # each key re-splits a valid family key, so the table skips re-validation
    return JacobiTable._trusted(fam.g - 1, fam.k, m, fam.tag, fam.trunc - m, coeffs, fam.dim)


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
    representative of its full class, and conversely.  True exactly when the
    identity holds at this truncation."""
    tag = fam.tag
    m_val = _index_value(m_prime, tag)
    if s2.m != m_val or s2.g != 1:
        raise ValueError("shift class does not match the index")
    if not ((r_prime - s2.rep[0]) / m_val).is_integral():
        raise ValueError("r' is not a representative of the shift class")
    phi = _cogenus_one_slice(fam, m_val)
    bound = phi.trunc.as_integer_ratio()

    def value(n: HermMatrix, rv) -> Optional[Vec]:
        return phi.coefficient(n, rv) if _trace_within(n, bound) else None

    for (n, rv), vec in phi.coeffs.items():
        s = reduce_class(rv, m_val)
        r0 = small_rep(s)
        shift_r = shift_matrix(rv, m_val)
        if rv[-1] == r_prime:
            # phi-side key; compare against the canonical read
            canonical = value(n.sub(shift_r).add(shift_matrix(r0, m_val)), r0)
            if canonical is not None and canonical != vec:
                return False
        if rv == r0 and reduce_class(rv[-1:], m_val) == s2:
            # canonical h-data; compare against the r'-side read
            r_side = rv[:-1] + (r_prime,)
            got = value(n.sub(shift_r).add(shift_matrix(r_side, m_val)), r_side)
            if got is not None and got != vec:
                return False
    return True


# ----------------------------------------------------------------------
# symmetry report


def shear_generators(g: int, l: int, tag: FieldTag) -> list[UnitMatrix]:
    """The index-preserving unit matrices (I 0; lambda* I) for lambda a
    single-entry matrix over the integral basis."""
    gens = []
    a = g - l
    w = FieldElement.omega(tag)
    for p in range(a):
        for q in range(l):
            for v in (FieldElement.one(tag), w):
                rows = [list(row) for row in linalg.identity(g, tag)]
                rows[a + q][p] = v.conj()
                gens.append(UnitMatrix(rows, tag))
    return gens


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
