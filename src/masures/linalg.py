"""Small exact linear algebra over the rationals.

Everything here works on tuples of :class:`fractions.Fraction`; dimensions in
this package stay tiny (at most a handful), so plain Gaussian elimination is
the right tool.  No floats, ever.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Sequence

Vector = tuple[Q, ...]
Matrix = tuple[Vector, ...]

ZERO = Q(0)
ONE = Q(1)


def vec(entries: Sequence) -> Vector:
    return tuple(Q(e) for e in entries)


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vector:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(basis_vector(n, i) for i in range(n))


def add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(c, v: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in v)


def dot(u: Vector, v: Vector) -> Q:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def matvec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def vecmat(v: Vector, m: Matrix) -> Vector:
    n = len(m[0])
    return tuple(sum((v[i] * m[i][j] for i in range(len(m))), ZERO) for j in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def clear_denominators(vectors: Sequence[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """The least common denominator d of the vectors' entries (ints or
    fractions), and the vectors times d as integer tuples."""
    denom = math.lcm(*(x.denominator for v in vectors for x in v))
    return denom, [tuple(x.numerator * (denom // x.denominator) for x in v) for v in vectors]


def _echelon(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Row-reduce in place; returns (reduced rows, pivot column indices)."""
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m: Sequence[Sequence]) -> int:
    rows = [[Q(x) for x in row] for row in m]
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def det(m: Sequence[Sequence]) -> Q:
    """Determinant of a square matrix by exact elimination."""
    rows = [[Q(x) for x in row] for row in m]
    out = ONE
    for c in range(len(rows)):
        pivot_row = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def solve(a: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the solution is unique exactly when
    the columns of A are independent.
    """
    m = len(a)
    if m == 0:
        return ()
    n = len(a[0])
    rows = [[Q(x) for x in row] + [Q(bb)] for row, bb in zip(a, b, strict=True)]
    rows, pivots = _echelon(rows)
    # after full reduction, any inconsistency appears as a 0 = 1 row
    for row in rows:
        if all(x == 0 for x in row[:n]) and row[n] != 0:
            return None
    x = [ZERO] * n
    for i, c in enumerate(c for c in pivots if c < n):
        x[c] = rows[i][n]
    return tuple(x)


def invert(m: Sequence[Sequence]) -> Matrix | None:
    n = len(m)
    rows = [[Q(x) for x in row] + list(basis_vector(n, i)) for i, row in enumerate(m)]
    rows, pivots = _echelon(rows)
    if [c for c in pivots if c < n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in rows)


def independent(vectors: Sequence[Sequence]) -> bool:
    vs = list(vectors)
    if not vs:
        return True
    return rank(vs) == len(vs)
