"""Exact polynomial arithmetic: ring axioms, parsing, calculus, determinants.

MultiPoly multiplication, PolyMatrix.det and MultiPoly.compose run on
packed monomials and integer coefficients.  The reference product, the
reference determinant and the reference composition below are the loops
they replaced, the last two on the reference product; each pair must give
the same polynomial.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weddle import cubic, fixtures, linalg, loci, polycore, solve, tensor
from weddle.polycore import (
    MAX_DET_SIZE,
    MultiPoly,
    as_rat,
    PolyMatrix,
    clear_denominators,
    divides,
    linear_coefficients,
    linear_form,
    parse_poly,
    primitive_vector,
    projectively_equal,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def polys(nvars=3, max_degree=3, max_terms=5):
    mono = st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)])
    term = st.tuples(mono, rationals)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (MultiPoly.monomial(nvars, m, c) for m, c in terms),
            MultiPoly.zero(nvars),
        )
    )


points = st.tuples(rationals, rationals, rationals)


# ---- ring axioms ----

@given(polys(), polys(), polys())
def test_addition_is_commutative_and_associative(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)


@given(polys(), polys(), polys())
@settings(max_examples=50)
def test_multiplication_is_commutative_associative_distributive(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_additive_and_multiplicative_identities(p):
    zero = MultiPoly.zero(3)
    one = MultiPoly.constant(3, 1)
    assert p + zero == p
    assert p * one == p
    assert p - p == zero
    assert p * zero == zero


@given(polys(), points)
def test_evaluation_is_a_ring_homomorphism(p, pt):
    q = MultiPoly.monomial(3, (1, 1, 0), Fraction(1, 2)) + 1
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


@given(polys(max_degree=2, max_terms=3), st.integers(0, 3))
def test_power_matches_repeated_multiplication(p, n):
    expected = MultiPoly.constant(3, 1)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


# ---- printing and parsing ----

@given(polys())
def test_parse_inverts_str(p):
    assert parse_poly(str(p), nvars=3) == p


def test_parse_fixed_expressions():
    p = parse_poly("x0^2 - 2*x1*x2 + 1/3")
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((0, 1, 1)) == -2
    assert p.coefficient((0, 0, 0)) == Fraction(1, 3)
    assert parse_poly("-x0*x1") == MultiPoly.monomial(2, (1, 1), -1)
    square = parse_poly("x0 + x1") ** 2
    assert square == parse_poly("x0^2 + 2*x0*x1 + x1^2")
    assert parse_poly("0", nvars=2).is_zero()


def test_str_orders_terms_by_degree_then_grlex():
    p = parse_poly("x0*x1 + x1^3 + x0^2 + 1")
    assert str(p) == "x1^3 + x0^2 + x0*x1 + 1"


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_poly("x0 +")
    with pytest.raises(ValueError):
        parse_poly("y1 * 2")


def test_exact_coercion_rejects_floats_and_bools():
    assert as_rat("-3/2") == Fraction(-3, 2)
    assert as_rat(4) == 4
    for value in (1.5, True, False):
        with pytest.raises(TypeError):
            as_rat(value)
    # Exponents are not truncated or read as 1 either.
    for exponents in ((1.5, 0), (2.9, 0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MultiPoly(2, {exponents: 1})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MultiPoly.monomial(2, exponents)


# ---- calculus ----

@given(polys(), polys())
@settings(max_examples=50)
def test_derivative_satisfies_product_rule(p, q):
    for var in range(3):
        assert (p * q).diff(var) == p.diff(var) * q + p * q.diff(var)


@given(polys(max_degree=2, max_terms=4))
def test_euler_identity_for_homogeneous_polynomials(p):
    parts = {}
    for mono, coeff in p.terms.items():
        parts.setdefault(sum(mono), MultiPoly.zero(3))
        parts[sum(mono)] += MultiPoly.monomial(3, mono, coeff)
    for degree, part in parts.items():
        euler = MultiPoly.zero(3)
        for var in range(3):
            euler += MultiPoly.variable(3, var) * part.diff(var)
        assert euler == part.scale(degree)


@given(polys(max_degree=2, max_terms=3), points)
def test_compose_commutes_with_evaluation(p, pt):
    args = [
        parse_poly("x0 + x1", nvars=3),
        parse_poly("x1*x2 - 1", nvars=3),
        parse_poly("x0 - 2*x2", nvars=3),
    ]
    composed = p.compose(args)
    arg_values = [a.evaluate(pt) for a in args]
    assert composed.evaluate(pt) == p.evaluate(arg_values)


# ---- normalization, divisibility, incidence ----

@given(st.lists(st.one_of(rationals, st.integers(-50, 50)), max_size=6))
@example([])
def test_clear_denominators_scales_by_the_lcm_of_the_denominators(values):
    numerators, lcm = clear_denominators(values)
    assert lcm == math.lcm(*(Fraction(q).denominator for q in values))
    assert all(type(n) is int for n in numerators)
    assert [Fraction(n, lcm) for n in numerators] == values
    if not values:
        assert (numerators, lcm) == ([], 1)


@given(st.lists(st.integers(-30, 30), max_size=5), st.data())
@example([0, 0, 0], None)
@example([], None)
def test_primitive_vector_divides_by_the_gcd_and_fixes_the_sign(values, data):
    if not any(values):
        assert primitive_vector(values) is None
        return
    nonzero = [i for i, v in enumerate(values) if v]
    for lead in (None, data.draw(st.sampled_from(nonzero))):
        out = primitive_vector(values, lead)
        index = nonzero[0] if lead is None else lead
        assert type(out) is tuple and out[index] > 0
        assert math.gcd(*out) == 1
        scale = Fraction(values[index], out[index])
        assert [scale * v for v in out] == values


@given(polys())
@example(MultiPoly.zero(3))
def test_content_is_the_gcd_of_numerators_over_the_lcm_of_denominators(p):
    coeffs = p.terms.values()
    content = p.content()
    assert type(content) is Fraction
    assert content == Fraction(
        math.gcd(*(c.numerator for c in coeffs)), math.lcm(*(c.denominator for c in coeffs))
    )
    if p.is_zero():
        assert content == Fraction(0)


@given(polys())
def test_primitive_normalization_is_idempotent_and_proportional(p):
    n = p.primitive_normalized()
    if p.is_zero():
        assert n.is_zero()
        return
    assert n.content() == 1
    assert n.leading_coefficient() > 0
    assert n.proportional(p)
    assert n.primitive_normalized() == n


@given(polys(max_degree=2, max_terms=3), st.tuples(rationals, rationals, rationals))
def test_divides_recovers_the_cofactor(p, coeffs):
    form = linear_form(3, coeffs)
    if form.is_zero():
        return
    quotient = divides(form, form * p)
    assert quotient == p


def test_divides_returns_none_on_nondivisible_input():
    form = parse_poly("x0 + x1")
    assert divides(form, parse_poly("x0^2 + x1^2")) is None
    assert divides(form, parse_poly("x0^2 - x1^2")) == parse_poly("x0 - x1")


def test_linear_coefficients_round_trip():
    form = linear_form(4, [1, Fraction(-2, 3), 0, 5])
    assert linear_coefficients(form) == [1, Fraction(-2, 3), 0, 5]
    with pytest.raises(ValueError):
        linear_coefficients(parse_poly("x0^2"))


def test_projective_equality_ignores_scale():
    assert projectively_equal([2, -4, 6], [1, -2, 3])
    assert not projectively_equal([1, 0, 0], [1, 0, 1])
    with pytest.raises(ValueError):
        projectively_equal([0, 0, 0], [1, 0, 0])


# ---- polynomial matrices ----

def _matrix_from_strings(rows):
    return PolyMatrix(3, [[parse_poly(s, nvars=3) for s in row] for row in rows])


def test_determinant_of_triangular_matrix_is_diagonal_product():
    m = _matrix_from_strings(
        [["x0", "x1^2", "5"], ["0", "x1", "x2"], ["0", "0", "x0 - x2"]]
    )
    assert m.det() == parse_poly("x0^2*x1 - x0*x1*x2")


def test_determinant_is_alternating_and_linear_in_rows():
    rows = [["x0", "x1", "1"], ["x2", "x0", "x1"], ["1", "x2", "x0"]]
    m = _matrix_from_strings(rows)
    swapped = _matrix_from_strings([rows[1], rows[0], rows[2]])
    assert swapped.det() == -m.det()
    scaled = _matrix_from_strings([rows[0], rows[1], rows[2]])
    scaled = PolyMatrix(
        3,
        [
            [scaled.entry(0, j) for j in range(3)],
            [scaled.entry(1, j).scale(7) for j in range(3)],
            [scaled.entry(2, j) for j in range(3)],
        ],
    )
    assert scaled.det() == m.det().scale(7)


@given(points)
@settings(max_examples=30)
def test_polynomial_determinant_agrees_with_scalar_determinant(pt):
    m = _matrix_from_strings(
        [
            ["x0 + 1", "x1", "x2^2"],
            ["x2", "x0*x1", "1"],
            ["x1 - x2", "2", "x0"],
        ]
    )
    evaluated = [
        [m.entry(i, j).evaluate(pt) for j in range(3)] for i in range(3)
    ]
    assert m.det().evaluate(pt) == linalg.det(evaluated)


# ---- the integer multiplication kernel against the Fraction reference ----

def reference_mul(p, q):
    """The product on Fraction coefficients, one pair of terms at a time."""
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
    return MultiPoly(p.nvars, terms)


@st.composite
def _factor_pairs(draw):
    """(p, q) in 0..3 variables, with denominators, of degree up to 4 each;
    either may be zero or constant."""
    nvars = draw(st.integers(0, 3))
    factor = st.one_of(
        polys(nvars, max_degree=4, max_terms=5),
        rationals.map(lambda c: MultiPoly.constant(nvars, c)),
    )
    return draw(factor), draw(factor)


@given(_factor_pairs())
@example((parse_poly("0", 3), parse_poly("x0 - 1/2*x2", 3)))  # a zero operand
@example((parse_poly("x0 - 1/2*x2", 3), parse_poly("0", 3)))
@example((parse_poly("x0 + x1"), parse_poly("x0 - x1")))  # terms cancel
@example((parse_poly("1/6", 0), parse_poly("-4/9", 0)))  # no variables
@settings(max_examples=300, deadline=None)
def test_product_equals_the_reference_product(case):
    p, q = case
    product = p * q
    assert product == reference_mul(p, q)
    _assert_canonical(product)


@pytest.mark.parametrize("a, b", [(0, 1), (1, 1), (2, 1), (2, 2), (4, 3), (4, 4), (8, 7), (8, 8)])
def test_product_exponents_on_a_field_width_boundary(a, b):
    # The degree bound a + b is 1, 2, 3, 4, 7, 8, 15 or 16, a bit length's
    # largest or smallest value: x0^(a+b) fills its field and must not
    # carry into the field of x1.
    p = _y(f"x0^{a} - 1/2")
    q = _y(f"1/3*x0^{b} + x1")
    expected = _y(f"1/3*x0^{a + b} + x0^{a}*x1 - 1/6*x0^{b} - 1/2*x1")
    assert p * q == expected
    assert reference_mul(p, q) == expected


# ---- the integer determinant kernel against the MultiPoly reference ----

def reference_det(matrix):
    """Cofactor expansion on MultiPoly arithmetic, minors memoized by
    column subsets."""
    n = matrix.size
    minors = {0: MultiPoly.constant(matrix.nvars, 1)}
    for mask in sorted(range(1, 1 << n), key=lambda m: m.bit_count()):
        row = mask.bit_count() - 1
        total = MultiPoly.zero(matrix.nvars)
        position = 0
        for col in range(n):
            if not mask & (1 << col):
                continue
            piece = reference_mul(matrix.entry(row, col), minors[mask ^ (1 << col)])
            total = total + (-piece if (row + position) % 2 else piece)
            position += 1
        minors[mask] = total
    return minors[(1 << n) - 1]


# A monomial of total degree 0..3 in three variables.
_monomials = st.lists(st.integers(0, 2), max_size=3).map(
    lambda vs: tuple(vs.count(i) for i in range(3))
)


def _entries(denominator):
    """Non-homogeneous entries whose coefficients share one denominator,
    or zero (one draw in six).  Coefficients are small, or up to 2^40 in
    size, which puts the determinant on Python ints."""
    coefficients = st.one_of(st.integers(-6, 6), st.integers(-(2**40), 2**40)).filter(bool)
    terms = st.lists(st.tuples(_monomials, coefficients), min_size=1, max_size=3)
    nonzero = terms.map(
        lambda ts: sum(
            (MultiPoly.monomial(3, m, Fraction(c, denominator)) for m, c in ts),
            MultiPoly.zero(3),
        )
    )
    return st.integers(0, 5).flatmap(lambda k: st.just(MultiPoly.zero(3)) if k == 2 else nonzero)


def _matrices(n):
    row = st.integers(1, 7).flatmap(lambda d: st.lists(_entries(d), min_size=n, max_size=n))
    zero_row = [MultiPoly.zero(3)] * n
    # One draw in ten is a zero row.
    either = st.integers(0, 9).flatmap(lambda k: st.just(zero_row) if k == 5 else row)
    rows = st.lists(either, min_size=n, max_size=n)
    return rows.map(lambda rs: PolyMatrix(3, rs))


def _assert_canonical(poly):
    """The packed kernels build their result without MultiPoly's checks: its
    terms must be what the checked constructor makes of them."""
    assert MultiPoly(poly.nvars, poly.terms) == poly
    for mono, c in poly.terms.items():
        assert type(mono) is tuple and all(type(e) is int for e in mono)
        assert type(c) is Fraction


@given(st.integers(0, 5).flatmap(_matrices))
@example(_matrix_from_strings([["x0", "x1"], ["x0", "x1"]]))  # a zero determinant
@settings(max_examples=150, deadline=None)
def test_determinant_equals_the_reference_expansion(m):
    det = m.det()
    assert det == reference_det(m)
    _assert_canonical(det)
    primitive = m.primitive_det()
    assert primitive == det.primitive_normalized()
    _assert_canonical(primitive)


def test_determinant_exponents_wider_than_four_bits():
    # The degree bound is 9 + 9 + 9 = 27, five bits per variable: x0^27
    # must not carry into the field of x1.
    m = _matrix_from_strings(
        [["x0^9", "x1", "0"], ["0", "x0^9", "x2^2"], ["x1^3", "0", "x0^9"]]
    )
    assert m.det() == parse_poly("x0^27 + x1^4*x2^2", nvars=3)
    assert m.det() == reference_det(m)


def row_l1_product(matrix):
    """The product of the rows' l1 norms, each row's coefficients scaled by
    the lcm of its denominators: below 2^63 the determinant of a matrix
    with no zero row runs on int64 without measuring a minor; otherwise its
    kernel measures the largest minor coefficient where this bound is too
    loose, and stays on int64 while that times the next row's l1 norm is
    below 2^63."""
    product = 1
    for row in matrix.entries:
        coeffs = [c for e in row for c in e.terms.values()]
        lcm = math.lcm(*(c.denominator for c in coeffs))
        product *= sum(abs(c.numerator) * (lcm // c.denominator) for c in coeffs)
    return product


_TWO31 = 2**31


@pytest.mark.parametrize("rows, below", [
    # Row norms 2^31 and 2^32 - 1: int64, with a coefficient near 2^63.
    ([[f"{_TWO31 - 1}*x0", "x1"], ["x2", f"{2 * _TWO31 - 2}*x0"]], True),
    # The product is exactly 2^63 once the 1/3 is cleared, and so is the
    # cleared coefficient of x0*x1.
    ([[f"{_TWO31}/3*x0", "0"], ["0", f"{2 * _TWO31}*x1"]], False),
    ([[f"{_TWO31}*x0", "1"], ["1", f"{2 * _TWO31}*x1"]], False),
    ([[f"{2**21}*x0", "0", "0"], ["0", f"{2**21}*x1", "0"], ["0", "0", f"{2**21}*x2"]], False),
    # The row l1 norms multiply to 2^63, but the minors of the first row are
    # at most 2^31: the step-wise bound is 2^31 * 2^31 = 2^62, so int64.
    ([[f"{_TWO31}*x0 + {_TWO31}*x1", "0"], ["0", f"{_TWO31}*x2"]], False),
])
def test_determinant_on_either_side_of_the_int64_bound(rows, below):
    m = PolyMatrix(3, [[parse_poly(s, nvars=3) for s in row] for row in rows])
    assert (row_l1_product(m) < 2**63) == below
    det = m.det()
    assert det == reference_det(m)
    _assert_canonical(det)


class _RecordingNumpy:
    """numpy, with the dtype of every array np.zeros makes recorded."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        self.dtypes.append(np.dtype(dtype))
        return np.zeros(shape, dtype)


def _last_minor_dtype(matrix, monkeypatch):
    """(dtype, det): the dtype of the last minors the kernel builds."""
    recorder = _RecordingNumpy()
    monkeypatch.setattr(polycore, "np", recorder)
    det = matrix.det()
    monkeypatch.undo()
    return recorder.dtypes[-1], det


@pytest.mark.parametrize("rows, dtype", [
    ([[f"{_TWO31 - 1}*x0", "x1"], ["x2", f"{2 * _TWO31 - 2}*x0"]], "int64"),
    # Each of the next three reaches a coefficient of exactly 2^63, so the
    # last row must leave int64: the first two at row 1, the third at row 2.
    ([[f"{_TWO31}/3*x0", "0"], ["0", f"{2 * _TWO31}*x1"]], "object"),
    ([[f"{_TWO31}*x0", "1"], ["1", f"{2 * _TWO31}*x1"]], "object"),
    ([[f"{2**21}*x0", "0", "0"], ["0", f"{2**21}*x1", "0"], ["0", "0", f"{2**21}*x2"]], "object"),
    ([[f"{_TWO31}*x0 + {_TWO31}*x1", "0"], ["0", f"{_TWO31}*x2"]], "int64"),
    # Every minor of the first two rows is zero, and row 2's own
    # coefficients do not fit in int64.
    ([["x0", "x1", "0"], ["x0", "x1", "0"], [f"{2**70}*x2", "1", "1"]], "object"),
])
def test_determinant_coefficients_follow_the_stepwise_bound(rows, dtype, monkeypatch):
    m = PolyMatrix(3, [[parse_poly(s, nvars=3) for s in row] for row in rows])
    got, det = _last_minor_dtype(m, monkeypatch)
    assert got == dtype
    assert det == reference_det(m)
    _assert_canonical(det)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_size_eight_weddle_determinants_run_on_int64(seed, monkeypatch):
    # Their row l1 norms multiply past 2^63, but no minor comes near it.
    system = loci.LinearSystem.from_tensor(tensor.random_n1(8, random.Random(seed)))
    m = loci.contraction_matrix(system)
    assert row_l1_product(m) >= 2**63
    dtype, det = _last_minor_dtype(m, monkeypatch)
    assert dtype == "int64"
    point = [Fraction(v) for v in random.Random(seed).sample(range(-9, 10), 8)]
    assert det.evaluate(point) == linalg.det([[e.evaluate(point) for e in row] for row in m.entries])


def test_determinant_with_packed_monomials_wider_than_63_bits():
    # 40 variables with 2-bit fields need 80 bits per packed monomial.
    x = [MultiPoly.variable(40, i) for i in range(40)]
    m = PolyMatrix(40, [[x[0], x[39], x[7]], [x[21], x[2] + x[3], x[0]], [x[5], x[30], x[39]]])
    det = m.det()
    assert det == reference_det(m)
    _assert_canonical(det)


def test_determinant_above_the_size_limit_is_refused():
    n = MAX_DET_SIZE + 1
    identity = [
        [MultiPoly.constant(3, 1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    with pytest.raises(ValueError, match=f"determinant limited to size {MAX_DET_SIZE}"):
        PolyMatrix(3, identity).det()


# ---- determinant plans: one per row-support pattern, reused across values ----

def _supports(matrix):
    """The plan key's supports: each row's monomials, sorted."""
    return tuple(tuple(sorted({m for e in row for m in e.terms})) for row in matrix.entries)


def _on_pattern(supports, rows):
    """The matrix whose row i puts rows[i][m] = {column: coefficient} on
    monomial m of supports[i]; every monomial must reach some column."""
    n = len(supports)
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for i, (support, row) in enumerate(zip(supports, rows)):
        for m in support:
            for col, c in row[m].items():
                entries[i][col][m] = c
    return PolyMatrix(3, [[MultiPoly(3, e) for e in row] for row in entries])


_X0, _X1, _X2, _ONE = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
_PATTERN = ((_X1, _X0), (_ONE, _X2), (_X1, _X0))  # each row's support, sorted


# On _PATTERN, with an entry that lacks a monomial of its row's support
# (column 2 of row 0 has no x1), minors that cancel (row 2 a multiple of
# row 0) and coefficients that leave int64 at row 0, at row 2 or never.
_FIXED_DRAWS = [_on_pattern(_PATTERN, rows) for rows in [
    [{_X0: {0: 1, 2: 3}, _X1: {1: -2}}, {_ONE: {0: 5, 1: 1}, _X2: {2: 1}},
     {_X0: {0: 2, 2: 6}, _X1: {1: -4}}],
    [{_X0: {0: 2**70}, _X1: {1: 1, 2: 1}}, {_ONE: {2: 7}, _X2: {0: 1, 1: -1}},
     {_X0: {1: 3}, _X1: {0: -1}}],
    [{_X0: {0: 2**30}, _X1: {1: 2**30}}, {_ONE: {1: 1}, _X2: {0: 1}},
     {_X0: {2: Fraction(1, 3)}, _X1: {2: 2**40}}],
    [{_X0: {2: 1}, _X1: {0: Fraction(-1, 2)}}, {_ONE: {0: 1}, _X2: {1: 1, 2: 9}},
     {_X0: {0: 1, 1: 1}, _X1: {2: 1}}],
]]


@st.composite
def _draws_on_one_pattern(draw):
    """Two to four matrices whose rows hold the same supports: monomials of
    degree 0..2 in three variables, each on a random nonempty set of
    columns, with small or 2^40- or 2^70-sized coefficients over a random
    denominator per row.  One draw in four copies a row into a later one
    of the same support, and one in four also has a zero row."""
    n = draw(st.integers(1, 4))
    supports = [draw(st.sets(_monomials, min_size=1, max_size=3)) for _ in range(n)]
    copy = n > 1 and draw(st.integers(0, 3)) == 0
    if copy:
        supports[-1] = supports[0]
    supports = [tuple(sorted(s)) for s in supports]
    sizes = st.sampled_from([6, 2**40, 2**70])
    matrices = []
    for _ in range(draw(st.integers(2, 4))):
        rows = []
        for support in supports:
            bound = draw(sizes)
            denominator = draw(st.integers(1, 7))
            coefficient = st.integers(-bound, bound).filter(bool).map(lambda c: Fraction(c, denominator))
            columns = st.sets(st.integers(0, n - 1), min_size=1)
            rows.append({m: {col: draw(coefficient) for col in draw(columns)} for m in support})
        if copy and draw(st.booleans()):
            rows[-1] = {m: {col: 3 * c for col, c in row.items()} for m, row in rows[0].items()}
        matrices.append(_on_pattern(supports, rows))
    if draw(st.integers(0, 3)) == 0:
        matrices.append(PolyMatrix(3, [*matrices[0].entries[:-1], [MultiPoly.zero(3)] * n]))
    return matrices


@given(_draws_on_one_pattern())
@example(_FIXED_DRAWS)
@settings(max_examples=100, deadline=None)
def test_a_plan_reused_across_values_gives_the_reference_determinant(matrices):
    for m in matrices:
        det = m.det()
        assert det == reference_det(m)
        _assert_canonical(det)
        primitive = m.primitive_det()
        assert primitive == det.primitive_normalized()
        _assert_canonical(primitive)


def test_fixed_draws_share_a_plan_and_leave_int64_at_different_rows(monkeypatch):
    assert {_supports(m) for m in _FIXED_DRAWS} == {_PATTERN}
    assert _FIXED_DRAWS[0].det().is_zero()  # row 2 is twice row 0
    for m in _FIXED_DRAWS:
        m.det()  # the plan is built before the dtypes are recorded
    rows = []
    for m in _FIXED_DRAWS:
        recorder = _RecordingNumpy()
        monkeypatch.setattr(polycore, "np", recorder)
        m.det()
        monkeypatch.undo()
        rows.append([str(dtype) for dtype in recorder.dtypes])
    # One np.zeros per row: the row's table, in the row's dtype.
    assert rows == [
        ["int64"] * 3,
        ["object"] * 3,
        ["int64", "int64", "object"],
        ["int64"] * 3,
    ]


def _weddle_matrices(dim, seeds):
    return [
        loci.contraction_matrix(loci.LinearSystem.from_tensor(tensor.random_n1(dim, random.Random(s))))
        for s in seeds
    ]


def _reordered(matrix):
    """The same matrix with every entry's terms inserted in reverse order."""
    return PolyMatrix(matrix.nvars, [
        [MultiPoly(e.nvars, dict(reversed(list(e.terms.items())))) for e in row]
        for row in matrix.entries
    ])


def test_one_plan_per_row_support_pattern():
    matrices = _weddle_matrices(5, range(1, 5))
    assert len({_supports(m) for m in matrices}) == 1
    polycore._det_plan.cache_clear()
    dets = [m.det() for m in matrices]
    assert [m.primitive_det() for m in matrices] == [d.primitive_normalized() for d in dets]
    reordered = _reordered(matrices[0])
    assert list(reordered.entry(0, 0).terms) != list(matrices[0].entry(0, 0).terms)
    assert reordered.det() == dets[0]
    info = polycore._det_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(matrices))
    assert info.maxsize == polycore.DET_PLAN_CACHE_SIZE > 0
    # Terms come out in ascending packed order, x_{n-1} the most significant
    # field: lexicographic order on the reversed exponent tuples.
    for poly in (*dets, matrices[0].primitive_det()):
        assert list(poly.terms) == sorted(poly.terms, key=lambda m: m[::-1])


def test_a_plan_is_read_only():
    m = _weddle_matrices(4, [1])[0]
    m.det()
    plan = polycore._det_plan(m.nvars, _supports(m))
    arrays = [plan.grlex, *(a for step in plan.steps for a in step)]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1


# ---- linear forms and sums built without the checked constructor ----

_coefficients = st.one_of(rationals, st.integers(-5, 5), rationals.map(str))


@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(_coefficients, min_size=n, max_size=n)))
def test_linear_form_equals_the_checked_constructor(coeffs):
    n = len(coeffs)
    form = linear_form(n, coeffs)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert form == MultiPoly(n, dict(zip(units, coeffs)))
    _assert_canonical(form)


@pytest.mark.parametrize("coeffs, error", [
    ([1, 0.5, 0], TypeError),
    ([1, 0.0, 0], TypeError),
    ([True, 0, 0], TypeError),
    ([0, 0, False], TypeError),
    ([1, 2], ValueError),
    ([1, 2, 3, 4], ValueError),
])
def test_linear_form_rejects_inexact_coefficients_and_wrong_lengths(coeffs, error):
    with pytest.raises(error):
        linear_form(3, coeffs)


@given(polys(), polys(), st.booleans())
def test_sum_equals_the_checked_constructor(p, q, cancel):
    if cancel:
        q = q - p  # every term of p cancels or merges in p + q
    reference = {}
    for poly in (p, q):
        for mono, c in poly.terms.items():
            reference[mono] = reference.get(mono, 0) + c
    total = p + q
    assert total == MultiPoly(3, reference)
    _assert_canonical(total)
    assert (p + (-p)).terms == {}


# ---- the integer composition kernel against the MultiPoly reference ----

def reference_compose(poly, args):
    """Substitution on MultiPoly arithmetic, the powers of each argument
    cached."""
    out_vars = args[0].nvars
    cache = {}

    def power_of(i, e):
        if e == 0:
            return MultiPoly.constant(out_vars, 1)
        got = cache.get((i, e))
        if got is None:
            got = reference_mul(power_of(i, e - 1), args[i])
            cache[(i, e)] = got
        return got

    result = MultiPoly.zero(out_vars)
    for mono, c in poly.terms.items():
        term = MultiPoly.constant(out_vars, c)
        for i, e in enumerate(mono):
            if e:
                term = reference_mul(term, power_of(i, e))
        result = result + term
    return result


@st.composite
def _compositions(draw):
    """(poly, args): poly in 1..3 variables, possibly zero or constant; the
    args in 0..2 output variables, with denominators, of degree up to 4,
    and one in five of them zero."""
    nvars = draw(st.integers(1, 3))
    out_vars = draw(st.integers(0, 2))
    poly = draw(st.one_of(
        polys(nvars, max_degree=3, max_terms=4),
        rationals.map(lambda c: MultiPoly.constant(nvars, c)),
    ))
    arg = st.integers(0, 4).flatmap(
        lambda k: st.just(MultiPoly.zero(out_vars)) if k == 2 else polys(out_vars, 2, 3)
    )
    return poly, draw(st.lists(arg, min_size=nvars, max_size=nvars))


def _y(text, nvars=2):
    return parse_poly(text, nvars=nvars)


@given(_compositions())
@example((_y("x0^2", 1), [_y("1/2*x0^2 + 1/3*x1")]))  # degree bound 4, three bits
@example((_y("x0^3 + x1"), [_y("1/5*x0"), _y("0")]))  # a zero argument
@example((_y("0"), [_y("x0"), _y("x1")]))
@example((_y("7/2"), [_y("x0"), _y("x1")]))
@example((_y("x0*x1 - 1/3"), [_y("2/3", 0), _y("-5", 0)]))  # no output variables
@example((_y("x0^2 - x0*x1"), [_y("1/2*x0 + 1", 1), _y("x0^2", 1)]))
@example((_y("x0^2 - x1 + 1"), [_y("x0", 1), _y("x0^2", 1)]))  # terms cancel
@settings(max_examples=300, deadline=None)
def test_compose_equals_the_reference_substitution(case):
    poly, args = case
    composed = poly.compose(args)
    assert composed == reference_compose(poly, args)
    _assert_canonical(composed)


@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (3, 1), (2, 2), (7, 1), (4, 2), (5, 3), (4, 4)])
def test_compose_exponents_on_a_field_width_boundary(a, b):
    # The degree bound a*b is 1, 2, 3, 4, 7, 8, 15 or 16, a bit length's
    # largest or smallest value: x1^(a*b) fills its field and must not
    # carry into the field of x0.
    poly = _y(f"x0^{a} + x1")
    args = [_y(f"1/3*x1^{b}"), _y("x0")]
    expected = _y(f"1/{3**a}*x1^{a * b} + x0")
    assert poly.compose(args) == expected
    assert reference_compose(poly, args) == expected


def _reference_chart_args(chart):
    """x_pivot = (1 - sum_(i != pivot) a_i y_i) / a_pivot; the other x_i
    are the chart coordinates y in order."""
    coeffs, pivot = chart
    m = len(coeffs) - 1
    others = [i for i in range(len(coeffs)) if i != pivot]
    ys = [MultiPoly.variable(m, j) for j in range(m)]
    rest = sum((y.scale(coeffs[i]) for y, i in zip(ys, others)), MultiPoly.zero(m))
    args = dict(zip(others, ys))
    args[pivot] = (1 - rest).scale(1 / coeffs[pivot])
    return [args[i] for i in range(len(coeffs))]


def _substituted_polys(name):
    """A fixture's quadrics, or the gradient of a polynomial fixture: what
    base_points and singular_points substitute onto their charts."""
    if fixtures.kind(name) == "poly":
        return fixtures.poly(name).gradient()
    return fixtures.system(name).quadric_polys()


@pytest.mark.parametrize("name", fixtures.names())
def test_chart_substitution_equals_the_reference_on_every_fixture(name):
    targets = _substituted_polys(name)
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(2):
            chart = solve._random_chart(targets[0].nvars, rng)
            args = _reference_chart_args(chart)
            expected = [reference_compose(p, args) for p in targets]
            assert solve._chart_substitute(targets, chart) == expected


def test_chart_substitution_of_the_dim5_weddle_gradient_is_fast():
    # The square system of the dim-5 Weddle quintic's singular solve: four
    # quartics in five variables onto two charts, eight substitutions.  The
    # MultiPoly-arithmetic loop took 0.18-0.24 s CPU on a shared 2-CPU
    # x86-64 host, the integer kernel about 0.012 s.
    _, system, _ = loci.sample_general_cyclic(5, random.Random(1))
    f = loci.weddle_matrix(system).polynomial
    rng = random.Random(1)
    square = solve._random_square_subsystem(f.gradient(), f.nvars - 1, rng)
    charts = [solve._random_chart(f.nvars, rng) for _ in range(2)]
    cpu = []
    for _ in range(3):
        start = time.process_time()
        for chart in charts:
            solve._chart_substitute(square, chart)
        cpu.append(time.process_time() - start)
    assert min(cpu) < 0.08


# ---- input coercion: as_vector, as_matrix, as_point ----
#
# Every matrix, row and point read from outside goes through as_matrix or
# as_point.  The reference below is the comprehension each call site used
# before; projectively_equal is checked against the cross-product test it
# replaced.

def reference_coerce(rows):
    return tuple(tuple(as_rat(x) for x in row) for row in rows)


def reference_projectively_equal(p, q):
    pv = [as_rat(x) for x in p]
    qv = [as_rat(x) for x in q]
    return all(
        pv[i] * qv[j] - pv[j] * qv[i] == 0 for i in range(len(pv)) for j in range(i + 1, len(pv))
    )


_EXACT_ENTRIES = st.one_of(
    st.integers(-10**20, 10**20),
    rationals,
    rationals.map(str),
    st.integers(-99, 99).map(str),
)


@st.composite
def _grids(draw):
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    row = st.lists(_EXACT_ENTRIES, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), nrows, ncols


@given(_grids())
def test_as_matrix_equals_the_per_site_comprehension(grid):
    rows, nrows, ncols = grid
    expected = reference_coerce(rows)
    assert polycore.as_matrix(rows) == expected
    assert polycore.as_matrix(rows, nrows, ncols) == expected
    assert all(type(x) is Fraction for row in polycore.as_matrix(rows) for x in row)
    for row in rows:
        assert polycore.as_vector(row, ncols) == tuple(as_rat(x) for x in row)


@given(_grids(), st.integers(1, 3))
def test_as_matrix_rejects_a_wrong_shape(grid, off):
    rows, nrows, ncols = grid
    with pytest.raises(ValueError, match="rows"):
        polycore.as_matrix(rows, nrows + off, ncols)
    if nrows:
        with pytest.raises(ValueError, match="entries"):
            polycore.as_matrix(rows, nrows, ncols + off)


@pytest.mark.parametrize("bad", [1.0, 0.5, True, False, None])
def test_as_matrix_rejects_inexact_entries(bad):
    with pytest.raises(TypeError):
        polycore.as_matrix([[1, 2], [3, bad]])
    with pytest.raises(TypeError):
        polycore.as_vector([bad, 1])
    with pytest.raises(TypeError):
        polycore.as_point([1, bad, 1], 3)


def test_a_string_or_object_where_a_sequence_belongs_is_rejected():
    with pytest.raises(ValueError, match="expected a sequence of numbers"):
        polycore.as_vector("12")
    with pytest.raises(ValueError, match="expected a sequence of numbers"):
        polycore.as_matrix(["12", "34"], 2, 2)
    with pytest.raises(ValueError, match="expected a sequence of numbers"):
        polycore.as_matrix([{"1": 2}, [3, 4]])
    with pytest.raises(ValueError, match="expected a sequence of rows"):
        polycore.as_matrix("1234")
    with pytest.raises(ValueError, match="expected a sequence of rows"):
        polycore.as_matrix("")
    with pytest.raises(ValueError, match="expected a sequence of numbers"):
        polycore.as_point("101", 3)


def test_evaluate_reads_a_point_by_as_vector():
    # a string point raises (_string_row_calls below); zero is a point here
    p = parse_poly("x0*x1 - x1^2 + 3")
    assert p.evaluate(["1/2", 2]) == Fraction(0) and p.evaluate([0, 0]) == 3
    with pytest.raises(ValueError, match="point has wrong number of coordinates"):
        p.evaluate([1, 2, 3])
    with pytest.raises(TypeError):
        p.evaluate([1.0, 2])


def test_as_point_checks_length_then_zero():
    assert polycore.as_point(["1/2", 0, 3], 3) == (Fraction(1, 2), 0, 3)
    with pytest.raises(ValueError, match="point has wrong number of coordinates"):
        polycore.as_point([1, 0], 3)
    with pytest.raises(ValueError, match="projective point must be nonzero"):
        polycore.as_point([0, "0", Fraction(0)], 3)


_INT_VECTORS = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n).filter(any),
        st.lists(st.integers(-4, 4), min_size=n, max_size=n).filter(any),
        st.integers(-3, 3).filter(bool),
    )
)


@given(_INT_VECTORS)
@example(([1, 0, 0], [2, 0, 0], 1))
@example(([0, -2, 4], [0, 1, 3], 1))
def test_projectively_equal_matches_the_cross_product_test(vectors):
    p, q, k = vectors
    scaled = [Fraction(k * x, 3) for x in p]
    assert projectively_equal(p, q) == reference_projectively_equal(p, q)
    assert projectively_equal(p, scaled) and reference_projectively_equal(p, scaled)


def test_projectively_equal_rejects_mismatched_or_zero_points():
    with pytest.raises(ValueError, match="point has wrong number of coordinates"):
        projectively_equal([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="projective point must be nonzero"):
        projectively_equal([1, 0, 0], [0, 0, 0])


def _string_row_calls():
    """(label, call) for every entry point that coerces a matrix, row or
    point: each call has a string where a row or point belongs, which a
    per-character reading would accept."""
    system = fixtures.system("ex-bpf-conics")
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    m = ["1011", "1201", "0111", "1010"]
    t = tensor.random_n1(2, rng=random.Random(3))
    return [
        ("LinearSystem", lambda: loci.LinearSystem(1, [["10", "00"], ["00", "01"]])),
        ("quadric_to_poly", lambda: loci.quadric_to_poly(["10", "01"])),
        ("rank_r_system forms", lambda: loci.rank_r_system(["100", "010", "001"], eye3, 2)),
        ("rank_r_system coeffs", lambda: loci.rank_r_system(eye3, ["100", "010", "001"], 2)),
        ("recombine", lambda: loci.recombine(system, ["100", "010", "001"])),
        ("mu_invariants", lambda: loci.mu_invariants(m)),
        ("rank5_canonical_system", lambda: loci.rank5_canonical_system(m)),
        ("rank5_det_quartic", lambda: loci.rank5_det_quartic(m)),
        ("singular_at", lambda: loci.singular_at(parse_poly("x0*x1*x2"), "100")),
        ("is_base_point", lambda: loci.is_base_point(system, "100")),
        ("quadrics_through_points", lambda: loci.quadrics_through_points(["100", "010"], 2)),
        ("splits_into_hyperplanes",
         lambda: loci.splits_into_hyperplanes(parse_poly("x0*x1*x2"), ["100", "010", "001"])),
        ("Tensor3", lambda: tensor.Tensor3([["01", "14"], [[-2, -2], [-2, 0]]])),
        ("extend", lambda: tensor.extend(t, ["000", "000"])),
        ("is_flex", lambda: cubic.is_flex(fixtures.poly("witness-C1"), "101")),
        ("projectively_equal", lambda: projectively_equal("123", [1, 2, 3])),
        ("to_matrix", lambda: linalg.to_matrix(["12", "34"])),
        ("rref", lambda: linalg.rref(["12", "34"])),
        ("rank", lambda: linalg.rank(["12", "34"])),
        ("nullspace", lambda: linalg.nullspace(["12", "34"])),
        ("det", lambda: linalg.det(["12", "34"])),
        ("evaluate", lambda: parse_poly("x0*x1 - x1^2").evaluate("11")),
    ]


@pytest.mark.parametrize("call", [pytest.param(call, id=label) for label, call in _string_row_calls()])
def test_every_entry_point_rejects_a_string_row_or_point(call):
    with pytest.raises(ValueError, match="expected a sequence of numbers"):
        call()
