"""Small exact linear algebra over field elements.

Matrices are immutable tuples of tuples of FieldElement: the entries of
the unitary groups, the rows that the `HermMatrix` and `UnitMatrix`
constructors check (`is_hermitian`, `det`), and the `entries` views of
both.  Block and diagonal matrices have one assembler each, `blocks` and
`diagonal`, and the group elements test their entries by one check,
`_integral_entries`.  Determinants and inverses come from one Gaussian
elimination over E, O(n^3) field operations, so a `UnitMatrix` of any genus
is cheap to build and to invert.  `HermMatrix` and `UnitMatrix` are held as
ints, and their products and actions in `hermitian` work on those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from .field import FieldElement, FieldTag, _in_field, _pair_conj

Matrix = tuple[tuple[FieldElement, ...], ...]


def freeze(rows: Sequence[Sequence[FieldElement]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def zeros(rows: int, cols: int, tag: FieldTag) -> Matrix:
    z = FieldElement.zero(tag)
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def diagonal(values: Sequence, tag: FieldTag) -> Matrix:
    """The square matrix with `values` on the diagonal and 0 elsewhere; a
    value that is not a FieldElement is read as a rational."""
    z = FieldElement.zero(tag)
    vals = [v if isinstance(v, FieldElement) else FieldElement(Fraction(v), 0, tag) for v in values]
    return tuple(tuple(v if i == j else z for j in range(len(vals))) for i, v in enumerate(vals))


def identity(n: int, tag: FieldTag) -> Matrix:
    return diagonal([FieldElement.one(tag)] * n, tag)


def blocks(grid: Sequence[Sequence], tag: FieldTag) -> Matrix:
    """The matrix of a grid of blocks, assembled row by row.  A cell is a
    matrix or 0, the zero block; each block row and each block column holds
    a matrix, whose height or width it takes."""
    z = FieldElement.zero(tag)
    heights = [next(len(m) for m in row if m != 0) for row in grid]
    widths = [next(shape(m)[1] for m in col if m != 0) for col in zip(*grid)]
    return tuple(tuple(chain.from_iterable((z,) * w if m == 0 else m[i]
                                           for m, w in zip(row, widths)))
                 for row, h in zip(grid, heights) for i in range(h))


def _integral_entries(mats: Sequence[Matrix], tag: FieldTag, message: str) -> None:
    """Raises ValueError at an entry of `mats` over another field than that
    of `tag`, else with `message` at an entry outside O."""
    flat = list(chain.from_iterable(chain.from_iterable(mats)))
    _in_field(flat, tag, "entry")
    if not all(e.is_integral() for e in flat):
        raise ValueError(message)


def mat_add(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def mat_sub(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def mat_neg(x: Matrix) -> Matrix:
    return tuple(tuple(-a for a in row) for row in x)


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    rows, inner = shape(x)
    inner2, cols = shape(y)
    if inner != inner2:
        raise ValueError("size mismatch in matrix product: %dx%d by %dx%d" % (rows, inner, inner2, cols))
    yt = tuple(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in yt:
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                acc = acc + a * b
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def conj_transpose(x: Matrix) -> Matrix:
    return tuple(tuple(a.conj() for a in col) for col in zip(*x))


def is_hermitian(x: Matrix) -> bool:
    """Whether x equals its conjugate transpose.

    Compared on the canonical ints (p + q*w)/den: the diagonal has no
    w-part, and the conjugate of v = x_ji over v.den is canonical, so it
    equals u = x_ij exactly when the ints agree.
    """
    n, m = shape(x)
    if n != m:
        return False
    for i in range(n):
        row = x[i]
        if row[i].q:
            return False
        for j in range(i + 1, n):
            u, v = row[j], x[j][i]
            if u.tag.d != v.tag.d or u.den != v.den or (u.p, u.q) != _pair_conj(v.p, v.q, u.tag):
                return False
    return True


def _eliminate(x: Matrix, invert: bool = False) -> tuple[FieldElement, list[tuple]]:
    """Gaussian elimination over E on the square x: (det x, x^-1 if
    `invert`); a singular x gives det 0, or with `invert` raises ValueError.
    Each pivot, the first nonzero entry on or below the diagonal, has its row
    scaled to a leading 1; det x is the product of the pivots, signed by the
    row swaps.  Only rows with a nonzero entry in the pivot column change:
    those below it, or to invert, all of them, on (x | I) (Gauss-Jordan).
    """
    n, m = shape(x)
    if n != m:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        raise ValueError("determinant of empty matrix")
    det = FieldElement.one(x[0][0].tag)
    rows = [list(row) + list(e if invert else ()) for row, e in zip(x, identity(n, det.tag))]
    for k in range(n):
        i = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if i is None:  # singular
            if invert:
                raise ValueError("matrix is singular")
            return rows[k][k], []
        if i != k:
            rows[k], rows[i], det = rows[i], rows[k], -det
        pivot = rows[k]
        det = det * pivot[k]
        if pivot[k] != 1:
            inv = pivot[k].inv()
            pivot[k:] = [inv * e for e in pivot[k:]]
        for i in range(n) if invert else range(k + 1, n):
            row, f = rows[i], rows[i][k]
            if i != k and not f.is_zero():
                row[k:] = [e - f * c for e, c in zip(row[k:], pivot[k:])]
    return det, [tuple(row[n:]) for row in rows]


def det(x: Matrix) -> FieldElement:
    return _eliminate(x)[0]


def inverse(x: Matrix) -> Matrix:
    """x^-1 by Gauss-Jordan elimination; a singular x raises ValueError."""
    return tuple(_eliminate(x, invert=True)[1])
