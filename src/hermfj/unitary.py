"""Integral unitary groups U(g,g)(Z), the rot embedding, the discrete
Heisenberg group, and the embedding of the Jacobi group into U(g+l, g+l)(Z).

Elements are plain integral matrices, each block matrix a grid put together
by `linalg.blocks`; the defining relation gamma* J gamma = J is an explicit
operation (`is_unitary`), not a constructor invariant, so that perturbed
non-members can be represented and tested.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .field import FieldElement, FieldTag, Immutable
from .hermitian import UnitMatrix


def _j_matrix(g: int, tag: FieldTag) -> linalg.Matrix:
    i = linalg.identity(g, tag)
    return linalg.blocks([[0, i], [linalg.mat_neg(i), 0]], tag)


class UnitaryElement(Immutable):
    """A 2g x 2g matrix over O, a candidate element of U(g,g)(Z)."""

    __slots__ = ("g", "entries", "tag")

    def __init__(self, entries: Sequence[Sequence[FieldElement]], tag: FieldTag):
        rows = linalg.freeze(entries)
        n, m = linalg.shape(rows)
        if n != m or n == 0 or n % 2:
            raise ValueError("expected a 2g x 2g matrix, got %dx%d" % (n, m))
        linalg._integral_entries((rows,), tag, "entries must lie in O")
        self._fill(n // 2, rows, tag)

    @classmethod
    def from_blocks(cls, a, b, c, d, tag: FieldTag) -> "UnitaryElement":
        """The element [[a, b], [c, d]]; a block may be 0, the zero block."""
        return cls(linalg.blocks([[a, b], [c, d]], tag), tag)

    @classmethod
    def identity(cls, g: int, tag: FieldTag) -> "UnitaryElement":
        return cls(linalg.identity(2 * g, tag), tag)

    @classmethod
    def j_element(cls, g: int, tag: FieldTag) -> "UnitaryElement":
        return cls(_j_matrix(g, tag), tag)

    def block(self, which: str) -> linalg.Matrix:
        """The g x g block "a", "b", "c" or "d" of [[a, b], [c, d]]."""
        if which not in ("a", "b", "c", "d"):
            raise ValueError("block must be one of a, b, c, d; got %r" % (which,))
        g = self.g
        r0, c0 = (g * k for k in divmod("abcd".index(which), 2))
        return tuple(row[c0:c0 + g] for row in self.entries[r0:r0 + g])

    def mul(self, other: "UnitaryElement") -> "UnitaryElement":
        if other.g != self.g or other.tag != self.tag:
            raise ValueError("size or field mismatch")
        return UnitaryElement(linalg.mat_mul(self.entries, other.entries), self.tag)

    __mul__ = mul

    def inverse(self) -> "UnitaryElement":
        """J^-1 gamma* J, valid when self is actually unitary."""
        a, b, c, d = (linalg.conj_transpose(self.block(x)) for x in "abcd")
        return UnitaryElement.from_blocks(d, linalg.mat_neg(b), linalg.mat_neg(c), a, self.tag)

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
    a, b, c, d = (gamma.block(x) for x in "abcd")
    ct = linalg.conj_transpose
    if linalg.mat_mul(ct(a), c) != linalg.mat_mul(ct(c), a):
        return False
    if linalg.mat_mul(ct(b), d) != linalg.mat_mul(ct(d), b):
        return False
    lhs = linalg.mat_sub(linalg.mat_mul(ct(a), d), linalg.mat_mul(ct(c), b))
    return lhs == linalg.identity(gamma.g, gamma.tag)


def rot(u: UnitMatrix) -> UnitaryElement:
    """The embedding u -> diag(u, (u*)^-1) of GL_g(O) into U(g,g)(Z)."""
    lower = linalg.conj_transpose(u.inverse().entries)
    return UnitaryElement.from_blocks(u.entries, 0, 0, lower, u.tag)


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
        linalg._integral_entries((lam, mu, kappa), tag, "Heisenberg entries must lie in O")
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
    row = linalg.mat_mul(linalg.blocks([[h.lam, h.mu]], h.tag), gamma.entries)
    g = h.g
    return HeisenbergElement(tuple(r[:g] for r in row), tuple(r[g:] for r in row), h.kappa, h.tag)


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
    the block-extended gamma with the Heisenberg block matrix, two 4 x 4 grids
    on the blocks (tau part, Jacobi part, then their duals)."""
    if not is_unitary(gamma):
        raise ValueError("gamma is not in U(g,g)(Z)")
    if h.g != gamma.g or h.tag != gamma.tag:
        raise ValueError("size or field mismatch")
    tag = gamma.tag
    ig, il = linalg.identity(gamma.g, tag), linalg.identity(h.l, tag)
    a, b, c, d = (gamma.block(x) for x in "abcd")
    lam_ct, mu_ct = linalg.conj_transpose(h.lam), linalg.conj_transpose(h.mu)
    m1 = linalg.blocks([[a, 0, b, 0], [0, il, 0, 0], [c, 0, d, 0], [0, 0, 0, il]], tag)
    m2 = linalg.blocks([[ig, 0, 0, mu_ct], [h.lam, il, h.mu, h.kappa],
                        [0, 0, ig, linalg.mat_neg(lam_ct)], [0, 0, 0, il]], tag)
    return UnitaryElement(linalg.mat_mul(m1, m2), tag)


def diag_embed(j: int, gamma1: UnitaryElement, g: int) -> UnitaryElement:
    """Places a degree-1 element at the j-th diagonal slot (1-based) of
    I_{2g}, as four diagonal blocks: at (j,j), (j,j+g), (j+g,j), (j+g,j+g)."""
    if gamma1.g != 1:
        raise ValueError("expected a degree-1 element")
    if not 1 <= j <= g:
        raise ValueError("index out of range: j=%d, g=%d" % (j, g))
    tag = gamma1.tag
    (a, b), (c, d) = gamma1.entries

    def slot(value, rest):
        return linalg.diagonal([value if k == j - 1 else rest for k in range(g)], tag)

    return UnitaryElement.from_blocks(slot(a, 1), slot(b, 0), slot(c, 0), slot(d, 1), tag)
