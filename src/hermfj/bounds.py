"""Certified numeric consequences of the slope machinery, as exact rationals.

All bounds here are one-sided: `slope_lower_bound` returns the proved
12 c^{g-1}, never a claim about the true lower slope, and the thresholds
derived from it are conservative.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .field import FieldTag, Immutable, euclidean_constant


def slope_lower_bound(g: int, tag: FieldTag) -> Fraction:
    """12 c^{g-1}: the degree-1 bound 12 pushed up by the recursion
    w_n >= c * w_{n-1}."""
    if g < 1:
        raise ValueError("degree must be >= 1")
    c = euclidean_constant(tag).c
    return Fraction(12) * c ** (g - 1)


def vanishing_threshold(k: int, g: int, tag: FieldTag) -> Fraction:
    """Orders strictly beyond k / slope_lower_bound force a weight-k form to
    vanish.  Conservative: the true slope bound may be larger."""
    if k < 0:
        raise ValueError("weight must be >= 0")
    return Fraction(k) / slope_lower_bound(g, tag)


def jacobi_index_threshold(k: int, g: int, tag: FieldTag) -> Fraction:
    """Indices strictly beyond c^-1 k / slope_lower_bound kill the space of
    index-m Jacobi forms with order >= m."""
    if k < 0:
        raise ValueError("weight must be >= 0")
    c = euclidean_constant(tag).c
    return vanishing_threshold(k, g, tag) / c


def truncation_budget(k: int, g: int, d_start: int, tag: FieldTag) -> tuple[int, list[int]]:
    """The indices m with d_start <= m <= floor(c^-1 k / w_{g-1}) that can
    carry nonzero high-order coefficients; returns (count, list)."""
    if k < 0:
        raise ValueError("weight must be >= 0")
    if d_start < 0:
        raise ValueError("d_start must be >= 0")
    if g < 2:
        raise ValueError("the budget chain needs degree >= 2")
    limit = Fraction(k) / (euclidean_constant(tag).c * slope_lower_bound(g - 1, tag))
    top = floor(limit)
    if top < d_start:
        return 0, []
    indices = list(range(d_start, top + 1))
    return len(indices), indices


def dimension_exponents(g: int) -> tuple[int, int]:
    """(g^2, g^2 + 1): the reported growth exponents for graded pieces and
    for the total space of weight at most k."""
    if g < 1:
        raise ValueError("degree must be >= 1")
    return g * g, g * g + 1


def trace_formula_constant(k: int, g: int) -> tuple[Fraction, int]:
    """The closed-form prefactor of the dimension formula, with pi symbolic:
    returns (q, e) meaning q * pi^e, where
    q = 2^{-g^2-g} * prod_{0 <= i, j <= g-1} (k - 2g + 1 + i + j) and
    e = -g^2.  The integral factor of the formula is out of scope."""
    if g < 1:
        raise ValueError("degree must be >= 1")
    q = Fraction(1, 2 ** (g * g + g))
    for i in range(g):
        for j in range(g):
            q *= k - 2 * g + 1 + i + j
    return q, -(g * g)


class BoundReport(Immutable):
    """Exact bound data for one (degree, weight, field) triple."""

    __slots__ = ("g", "k", "tag", "slope_lb", "ord_vanish_threshold",
                 "jacobi_index_threshold", "fm_exponent", "graded_exponent")

    def __init__(self, g: int, k: int, tag: FieldTag):
        self._fill(g, k, tag, slope_lower_bound(g, tag), vanishing_threshold(k, g, tag),
                   jacobi_index_threshold(k, g, tag), *dimension_exponents(g))

    def text_block(self) -> str:
        lines = [
            "field_d = %d" % self.tag.d,
            "degree = %d" % self.g,
            "weight = %d" % self.k,
            "slope_lb = %s" % self.slope_lb,
            "ord_vanish_threshold = %s" % self.ord_vanish_threshold,
            "jacobi_index_threshold = %s" % self.jacobi_index_threshold,
            "fm_exponent = %d" % self.fm_exponent,
            "graded_exponent = %d" % self.graded_exponent,
        ]
        return "\n".join(lines)

    def record(self) -> str:
        return "BOUNDS;d=%d;g=%d;k=%d;slope_lb=%s;ord_thr=%s;idx_thr=%s;fm_exp=%d;graded_exp=%d" % (
            self.tag.d, self.g, self.k, self.slope_lb, self.ord_vanish_threshold,
            self.jacobi_index_threshold, self.fm_exponent, self.graded_exponent,
        )
