"""Integral unitary groups U(g,g)(Z), the rot embedding, the discrete
Heisenberg group, and the embedding of the Jacobi group into U(g+l, g+l)(Z).

Elements are plain integral matrices; the defining relation gamma* J gamma = J
is an explicit operation (`is_unitary`), not a constructor invariant, so that
perturbed non-members can be represented and tested.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .field import FieldElement, FieldTag, Immutable
from .hermitian import UnitMatrix


def _j_matrix(g: int, tag: FieldTag) -> linalg.Matrix:
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


class UnitaryElement(Immutable):
    """A 2g x 2g matrix over O, a candidate element of U(g,g)(Z)."""

    __slots__ = ("g", "entries", "tag")

    def __init__(self, entries: Sequence[Sequence[FieldElement]], tag: FieldTag):
        rows = linalg.freeze(entries)
        n, m = linalg.shape(rows)
        if n != m or n == 0 or n % 2:
            raise ValueError("expected a 2g x 2g matrix, got %dx%d" % (n, m))
        for row in rows:
            for e in row:
                if not e.is_integral():
                    raise ValueError("entries must lie in O")
        self._fill(n // 2, rows, tag)

    @classmethod
    def from_blocks(cls, a, b, c, d, tag: FieldTag) -> "UnitaryElement":
        g = len(a)
        rows = []
        for i in range(g):
            rows.append(tuple(a[i]) + tuple(b[i]))
        for i in range(g):
            rows.append(tuple(c[i]) + tuple(d[i]))
        return cls(rows, tag)

    @classmethod
    def identity(cls, g: int, tag: FieldTag) -> "UnitaryElement":
        return cls(linalg.identity(2 * g, tag), tag)

    @classmethod
    def j_element(cls, g: int, tag: FieldTag) -> "UnitaryElement":
        return cls(_j_matrix(g, tag), tag)

    def block(self, which: str) -> linalg.Matrix:
        g = self.g
        r0 = 0 if which in ("a", "b") else g
        c0 = 0 if which in ("a", "c") else g
        return tuple(tuple(self.entries[r0 + i][c0 + j] for j in range(g)) for i in range(g))

    def mul(self, other: "UnitaryElement") -> "UnitaryElement":
        if other.g != self.g or other.tag != self.tag:
            raise ValueError("size or field mismatch")
        return UnitaryElement(linalg.mat_mul(self.entries, other.entries), self.tag)

    __mul__ = mul

    def inverse(self) -> "UnitaryElement":
        """J^-1 gamma* J, valid when self is actually unitary."""
        a, b = self.block("a"), self.block("b")
        c, d = self.block("c"), self.block("d")
        ct = linalg.conj_transpose
        return UnitaryElement.from_blocks(
            ct(d), linalg.mat_neg(ct(b)), linalg.mat_neg(ct(c)), ct(a), self.tag
        )

    def __eq__(self, other):
        return (
            isinstance(other, UnitaryElement)
            and other.tag == self.tag
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.entries, self.tag.d))

    def __repr__(self):
        return "UnitaryElement(g=%d, d=%d, %s)" % (
            self.g,
            self.tag.d,
            ",".join(e.to_text() for row in self.entries for e in row),
        )


def is_unitary(gamma: UnitaryElement) -> bool:
    """gamma* J gamma = J, checked exactly."""
    j = _j_matrix(gamma.g, gamma.tag)
    lhs = linalg.mat_mul(linalg.mat_mul(linalg.conj_transpose(gamma.entries), j), gamma.entries)
    return lhs == j


def block_conditions(gamma: UnitaryElement) -> bool:
    """The equivalent three block conditions: a*c = c*a, b*d = d*b,
    a*d - c*b = I."""
    a, b = gamma.block("a"), gamma.block("b")
    c, d = gamma.block("c"), gamma.block("d")
    ct = linalg.conj_transpose
    if linalg.mat_mul(ct(a), c) != linalg.mat_mul(ct(c), a):
        return False
    if linalg.mat_mul(ct(b), d) != linalg.mat_mul(ct(d), b):
        return False
    lhs = linalg.mat_sub(linalg.mat_mul(ct(a), d), linalg.mat_mul(ct(c), b))
    return lhs == linalg.identity(gamma.g, gamma.tag)


def rot(u: UnitMatrix) -> UnitaryElement:
    """The embedding u -> diag(u, (u*)^-1) of GL_g(O) into U(g,g)(Z)."""
    g = u.g
    tag = u.tag
    lower = linalg.conj_transpose(u.inverse().entries)
    zero = linalg.zeros(g, g, tag)
    return UnitaryElement.from_blocks(u.entries, zero, zero, lower, tag)


class HeisenbergElement(Immutable):
    """[(lambda, mu), kappa] with lambda, mu integral l x g and kappa
    integral l x l such that kappa + mu lambda* is Hermitian."""

    __slots__ = ("l", "g", "lam", "mu", "kappa", "tag")

    def __init__(self, lam, mu, kappa, tag: FieldTag):
        lam = linalg.freeze(lam)
        mu = linalg.freeze(mu)
        kappa = linalg.freeze(kappa)
        l, g = linalg.shape(lam)
        if linalg.shape(mu) != (l, g):
            raise ValueError("lambda and mu must have the same shape")
        if linalg.shape(kappa) != (l, l):
            raise ValueError("kappa must be l x l")
        for mat in (lam, mu, kappa):
            for row in mat:
                for e in row:
                    if not e.is_integral():
                        raise ValueError("Heisenberg entries must lie in O")
        test = linalg.mat_add(kappa, linalg.mat_mul(mu, linalg.conj_transpose(lam)))
        if not linalg.is_hermitian(test):
            raise ValueError("kappa + mu lambda* must be Hermitian")
        self._fill(l, g, lam, mu, kappa, tag)

    @classmethod
    def identity(cls, l: int, g: int, tag: FieldTag) -> "HeisenbergElement":
        z = linalg.zeros(l, g, tag)
        return cls(z, z, linalg.zeros(l, l, tag), tag)

    def inverse(self) -> "HeisenbergElement":
        """[(-lambda, -mu), -kappa + lambda mu* - mu lambda*].

        The naive -kappa works only when lambda mu* is Hermitian; the extra
        commutator term makes the product with self the identity in general.
        """
        lm = linalg.mat_mul(self.lam, linalg.conj_transpose(self.mu))
        ml = linalg.mat_mul(self.mu, linalg.conj_transpose(self.lam))
        kappa = linalg.mat_add(linalg.mat_neg(self.kappa), linalg.mat_sub(lm, ml))
        return HeisenbergElement(
            linalg.mat_neg(self.lam), linalg.mat_neg(self.mu), kappa, self.tag
        )

    def __eq__(self, other):
        return (
            isinstance(other, HeisenbergElement)
            and other.tag == self.tag
            and other.lam == self.lam
            and other.mu == self.mu
            and other.kappa == self.kappa
        )

    def __hash__(self):
        return hash((self.lam, self.mu, self.kappa, self.tag.d))

    def __repr__(self):
        return "HeisenbergElement(l=%d, g=%d, d=%d)" % (self.l, self.g, self.tag.d)


def heisenberg_mul(h1: HeisenbergElement, h2: HeisenbergElement) -> HeisenbergElement:
    """[(l+l', m+m'), k+k' + lambda mu'* - mu lambda'*]."""
    if (h1.l, h1.g) != (h2.l, h2.g) or h1.tag != h2.tag:
        raise ValueError("size or field mismatch")
    lam = linalg.mat_add(h1.lam, h2.lam)
    mu = linalg.mat_add(h1.mu, h2.mu)
    cross = linalg.mat_sub(
        linalg.mat_mul(h1.lam, linalg.conj_transpose(h2.mu)),
        linalg.mat_mul(h1.mu, linalg.conj_transpose(h2.lam)),
    )
    kappa = linalg.mat_add(linalg.mat_add(h1.kappa, h2.kappa), cross)
    return HeisenbergElement(lam, mu, kappa, h1.tag)


def heisenberg_transform(h: HeisenbergElement, gamma: UnitaryElement) -> HeisenbergElement:
    """The right action of U(g,g)(Z): (lambda, mu) -> (lambda, mu) gamma as an
    l x 2g row block, kappa unchanged."""
    if h.g != gamma.g or h.tag != gamma.tag:
        raise ValueError("size or field mismatch")
    a, b = gamma.block("a"), gamma.block("b")
    c, d = gamma.block("c"), gamma.block("d")
    lam = linalg.mat_add(linalg.mat_mul(h.lam, a), linalg.mat_mul(h.mu, c))
    mu = linalg.mat_add(linalg.mat_mul(h.lam, b), linalg.mat_mul(h.mu, d))
    return HeisenbergElement(lam, mu, h.kappa, h.tag)


def jacobi_mul(
    x: tuple[UnitaryElement, HeisenbergElement],
    y: tuple[UnitaryElement, HeisenbergElement],
) -> tuple[UnitaryElement, HeisenbergElement]:
    """Group law of the semidirect product U(g,g)(Z) x| H^{(g,l)}."""
    gamma1, h1 = x
    gamma2, h2 = y
    return gamma1.mul(gamma2), heisenberg_mul(heisenberg_transform(h1, gamma2), h2)


def jacobi_embed(gamma: UnitaryElement, h: HeisenbergElement) -> UnitaryElement:
    """The embedding of the Jacobi group into U(g+l, g+l)(Z): the product of
    the block-extended gamma with the Heisenberg block matrix."""
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
    a, b = gamma.block("a"), gamma.block("b")
    c, d = gamma.block("c"), gamma.block("d")
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


def diag_embed(j: int, gamma1: UnitaryElement, g: int) -> UnitaryElement:
    """Places a degree-1 element at the j-th diagonal slot (1-based) of
    I_{2g}: entries land at (j,j), (j,j+g), (j+g,j), (j+g,j+g)."""
    if gamma1.g != 1:
        raise ValueError("expected a degree-1 element")
    if not 1 <= j <= g:
        raise ValueError("index out of range: j=%d, g=%d" % (j, g))
    tag = gamma1.tag
    rows = [list(r) for r in linalg.identity(2 * g, tag)]
    i = j - 1
    rows[i][i] = gamma1.entries[0][0]
    rows[i][i + g] = gamma1.entries[0][1]
    rows[i + g][i] = gamma1.entries[1][0]
    rows[i + g][i + g] = gamma1.entries[1][1]
    return UnitaryElement(rows, tag)
