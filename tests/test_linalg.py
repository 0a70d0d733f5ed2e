"""Exact rational linear algebra: rref, rank, nullspace, determinants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weddle import linalg

entries = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def _mat_mul(a, b):
    """Exact matrix product, the oracle for the properties below."""
    a, b = linalg.to_matrix(a), linalg.to_matrix(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _mat_vec(a, v):
    return [row[0] for row in _mat_mul(a, [[x] for x in v])]


def test_identity_and_multiplication():
    eye = linalg.identity(3)
    a = [[1, 2, 0], [0, 1, 5], [7, 0, 1]]
    assert _mat_mul(a, eye) == linalg.to_matrix(a)
    assert _mat_mul(eye, a) == linalg.to_matrix(a)
    assert _mat_vec(a, [1, 1, 1]) == [3, 6, 8]


@given(matrices(3, 4))
def test_rref_pivots_are_unit_columns(rows):
    reduced, pivots = linalg.rref(rows)
    for r, c in enumerate(pivots):
        assert reduced[r][c] == 1
        for other in range(len(reduced)):
            if other != r:
                assert reduced[other][c] == 0
    assert linalg.rank(rows) == len(pivots)


@given(matrices(3, 5))
def test_nullspace_vectors_are_killed_by_the_matrix(rows):
    basis = linalg.nullspace(rows)
    assert len(basis) == 5 - linalg.rank(rows)
    for vec in basis:
        assert _mat_vec(rows, vec) == [Fraction(0)] * 3
    assert linalg.rank(basis) == len(basis) if basis else True


def test_nullspace_of_zero_map_needs_explicit_width():
    assert linalg.nullspace([], ncols=3) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    with pytest.raises(ValueError):
        linalg.nullspace([])


@given(matrices(3, 3), matrices(3, 3))
@settings(max_examples=50)
def test_determinant_is_multiplicative(a, b):
    assert linalg.det(_mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


@given(matrices(3, 3))
def test_determinant_detects_invertibility(a):
    assert (linalg.det(a) != 0) == (linalg.rank(a) == 3)


def test_determinant_fixed_values():
    assert linalg.det([[2]]) == 2
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    hilbert = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert linalg.det(hilbert) == Fraction(1, 2160)


@given(matrices(2, 2))
def test_rank_is_invariant_under_row_swap(a):
    assert linalg.rank(a) == linalg.rank([a[1], a[0]])
