"""Exact linear algebra over the rationals on plain lists of Fraction rows."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .polycore import as_rat


def to_matrix(rows: Sequence[Sequence]) -> list:
    return [[as_rat(x) for x in row] for row in rows]


def identity(n: int) -> list:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def rref(rows: Sequence[Sequence]) -> tuple:
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = to_matrix(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: Optional[int] = None) -> list:
    """Canonical nullspace basis: per free column, the reduced-echelon
    back-substituted vector with a 1 in that free coordinate.  Basis vectors
    are ordered by their free column index."""
    m = to_matrix(rows)
    if not m:
        if ncols is None:
            raise ValueError("need ncols for an empty constraint matrix")
        return [row[:] for row in identity(ncols)]
    width = len(m[0])
    if ncols is not None and ncols != width:
        raise ValueError("ncols disagrees with the matrix width")
    reduced, pivots = rref(m)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    m = to_matrix(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return sign * result

