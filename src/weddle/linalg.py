"""Exact linear algebra over the rationals, returned as lists of Fraction rows.

`rref`, `rank`, `nullspace` and `det` share one elimination kernel on
Python ints.  `_integer_rows` first clears each row's denominators
(`polycore.clear_denominators`), which changes neither the row space nor
the pivot columns, and multiplies det by a known integer.  `_eliminate`
then runs fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp.
22, 1968): with p the new pivot and d the previous one, every other row
becomes (p * row - row[c] * pivot_row) / d, and the division is exact.

Exact division is what keeps the entries small.  After k pivots, every
entry is, up to sign, a minor of order at most k + 1 of the integer matrix
(Sylvester's identity), so its size is bounded by Hadamard's inequality
instead of doubling at every step.  Every pivot row then carries the same
pivot value D, the k x k minor on the pivot rows and columns.  D is also
det of a square nonsingular matrix, up to the row scales and the sign of
the row swaps.

The outputs equal those of Gauss-Jordan elimination on Fractions, entry for
entry.  The reduced row echelon form of a matrix is unique, and Fraction
normalises each quotient (entry / D) to lowest terms.  A determinant is a
single number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .polycore import as_matrix, clear_denominators

_ZERO = Fraction(0)
_ONE = Fraction(1)


def to_matrix(rows: Sequence[Sequence]) -> list:
    """The rows as a list of lists of Fractions, coerced by as_matrix."""
    return [list(row) for row in as_matrix(rows)]


def identity(n: int) -> list:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _integer_rows(rows: Sequence[Sequence]) -> tuple:
    """Each row by clear_denominators; returns (rows, product of the row
    lcms).  A matrix of ints and Fractions is taken as it stands; any other
    is coerced by as_matrix first, as by `to_matrix`."""
    if not all(type(x) is int or type(x) is Fraction for row in rows for x in row):
        rows = as_matrix(rows)
    m = []
    den = 1
    for row in rows:
        values, scale = clear_denominators(row)
        m.append(values)
        den *= scale
    return m, den


def _eliminate(m: list) -> tuple:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place;
    returns (pivot_columns, sign of the row permutation).

    Afterwards the rank-many pivot rows come first, each with the common
    pivot value D in its pivot column and 0 in the other pivot columns;
    the remaining rows are zero.  A square nonsingular m had det = sign * D.
    """
    pivots = []
    sign = d = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
            elif p != d and any(row):
                # The same update with row[c] = 0: keeps every entry a minor.
                m[i] = [p * x // d for x in row]
        pivots.append(c)
        d = p
        r += 1
    return pivots, sign


def _reduced(rows: Sequence[Sequence]) -> tuple:
    """(integer rows after `_eliminate`, pivot columns, common pivot D)."""
    m, _ = _integer_rows(rows)
    pivots, _ = _eliminate(m)
    return m, pivots, m[0][pivots[0]] if pivots else 1


def rref(rows: Sequence[Sequence]) -> tuple:
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m, pivots, d = _reduced(rows)
    return [[Fraction(x, d) if x else _ZERO for x in row] for row in m], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_reduced(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: Optional[int] = None) -> list:
    """Canonical nullspace basis: per free column, the reduced-echelon
    back-substituted vector with a 1 in that free coordinate.  Basis vectors
    are ordered by their free column index."""
    m, pivots, d = _reduced(rows)
    if not m:
        if ncols is None:
            raise ValueError("need ncols for an empty constraint matrix")
        return [row[:] for row in identity(ncols)]
    width = len(m[0])
    if ncols is not None and ncols != width:
        raise ValueError("ncols disagrees with the matrix width")
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [_ZERO] * width
        v[f] = _ONE
        for r, c in enumerate(pivots):
            x = m[r][f]
            if x:
                v[c] = Fraction(-x, d)
        basis.append(v)
    return basis


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant, by the same elimination."""
    m, den = _integer_rows(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    pivots, sign = _eliminate(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[0][0], den) if n else Fraction(1)
