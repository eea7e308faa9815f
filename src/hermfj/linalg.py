"""Small exact linear algebra over field elements.

Matrices are immutable tuples of tuples of FieldElement: the entries of
`UnitMatrix` and of the unitary groups, and the rows that the `HermMatrix`
constructor checks with `is_hermitian`.  Sizes here are tiny (degree <= 4
in practice), so determinants use cofactor expansion.  Hermitian matrices
are held as ints, and their kernels in `hermitian` work on those.
"""

from __future__ import annotations

from typing import Sequence

from .field import FieldElement, FieldTag

Matrix = tuple[tuple[FieldElement, ...], ...]


def freeze(rows: Sequence[Sequence[FieldElement]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def zeros(rows: int, cols: int, tag: FieldTag) -> Matrix:
    z = FieldElement.zero(tag)
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def identity(n: int, tag: FieldTag) -> Matrix:
    one = FieldElement.one(tag)
    z = FieldElement.zero(tag)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


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


def scalar_mul(c: FieldElement, x: Matrix) -> Matrix:
    return tuple(tuple(c * a for a in row) for row in x)


def conj_transpose(x: Matrix) -> Matrix:
    return tuple(tuple(a.conj() for a in col) for col in zip(*x))


def is_hermitian(x: Matrix) -> bool:
    """Whether x equals its conjugate transpose.

    Compared on the canonical integer coordinates (p + q*w)/den, without
    building conjugates: the diagonal has no w-part, and for each pair
    u = x_ij, v = x_ji of one field, conj(v) = ((v.p + s*v.q) - v.q*w)/v.den
    (conj(w) = s - w) is again canonical, so it equals u exactly when the
    ints agree.
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
            if u.tag.d != v.tag.d or u.q != -v.q or u.den != v.den:
                return False
            if u.p != v.p + u.tag._norm_s * v.q:
                return False
    return True


def det(x: Matrix) -> FieldElement:
    n, m = shape(x)
    if n != m:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        raise ValueError("determinant of empty matrix")
    if n == 1:
        return x[0][0]
    if n == 2:
        return x[0][0] * x[1][1] - x[0][1] * x[1][0]
    total = None
    sign = 1
    for j in range(n):
        minor = tuple(tuple(row[c] for c in range(n) if c != j) for row in x[1:])
        term = x[0][j] * det(minor)
        if sign < 0:
            term = -term
        total = term if total is None else total + term
        sign = -sign
    return total


def adjugate(x: Matrix) -> Matrix:
    n, _ = shape(x)
    if n == 1:
        return identity(1, x[0][0].tag)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(x[r][c] for c in range(n) if c != j) for r in range(n) if r != i
            )
            m = det(minor)
            row.append(m if (i + j) % 2 == 0 else -m)
        cof.append(row)
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))
