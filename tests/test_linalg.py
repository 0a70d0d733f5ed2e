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


def reference_rref(rows):
    """Gauss-Jordan elimination one Fraction at a time, the oracle for the
    integer kernel."""
    m = linalg.to_matrix(rows)
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
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


def reference_det(rows):
    """Determinant by Fraction Gaussian elimination."""
    m = linalg.to_matrix(rows)
    n = len(m)
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
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] / m[c][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return sign * result


def reference_nullspace(rows, width):
    reduced, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


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


# ---- the integer kernel against the Fraction reference ----

wide_entries = st.one_of(
    st.just(0),
    st.integers(-(10**25), 10**25),
    st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 2**65 + 1)),
)


@st.composite
def wide_matrices(draw, square=False):
    """(rows, width): 0-8 rows by 0-16 columns, with zero rows, zero
    columns and rows repeated at a rational multiple, so ranks fall short."""
    nrows = draw(st.integers(0, 8))
    width = nrows if square else draw(st.integers(0, 16))
    rows = [draw(st.lists(wide_entries, min_size=width, max_size=width)) for _ in range(nrows)]
    for i in range(nrows):
        how = draw(st.sampled_from(("keep", "keep", "zero", "multiple")))
        if how == "zero":
            rows[i] = [0] * width
        elif how == "multiple" and i:
            factor = draw(wide_entries)
            rows[i] = [factor * x for x in rows[draw(st.integers(0, i - 1))]]
    for c in draw(st.sets(st.integers(0, width - 1), max_size=3)) if width else ():
        for row in rows:
            row[c] = 0
    return rows, width


@given(wide_matrices())
@settings(max_examples=200, deadline=None)
def test_rref_rank_and_nullspace_equal_fraction_elimination(case):
    rows, width = case
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == reference_rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert linalg.rank(rows) == len(pivots)
    assert linalg.nullspace(rows, ncols=width) == reference_nullspace(rows, width)


@given(wide_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_det_equals_fraction_elimination(case):
    rows, _ = case
    value = linalg.det(rows)
    assert type(value) is Fraction
    assert value == reference_det(rows)


def test_kernel_edge_cases():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[], []]) == ([[], []], [])
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.nullspace([[], []]) == []
    assert linalg.nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert linalg.det([]) == 1
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.det([[0, 0], [0, 5]]) == 0
    mixed = [[Fraction(1, 2), 3], [Fraction(5, 7), Fraction(-1, 3)]]
    assert linalg.det(mixed) == Fraction(-97, 42)
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        linalg.det([[1], [2]])


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False])
@pytest.mark.parametrize("name", ["rref", "rank", "nullspace", "det"])
def test_float_and_bool_entries_raise_type_error(name, bad):
    with pytest.raises(TypeError):
        getattr(linalg, name)([[1, 2], [bad, 4]])


@pytest.mark.parametrize("name", ["rref", "rank", "nullspace", "det"])
def test_string_entries_are_rationals(name):
    # a string row raises (tests/test_polycore.py); a string entry is as_rat's
    strings = [["1/2", "3"], ["5", "-1/3"]]
    fractions = [[Fraction(1, 2), 3], [5, Fraction(-1, 3)]]
    assert getattr(linalg, name)(strings) == getattr(linalg, name)(fractions)
    assert linalg.det(strings) == Fraction(-91, 6)
