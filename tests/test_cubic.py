"""Smooth plane cubics: flexes, invariants, short Weierstrass form, j."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weddle import cubic, fixtures, linalg, solve
from weddle.polycore import (
    MultiPoly,
    clear_denominators,
    linear_form,
    parse_poly,
    primitive_vector,
    projectively_equal,
)

C1_PAIR = (Fraction(-121, 48), Fraction(845, 864))
C2_PAIR = (Fraction(-1633, 48), Fraction(61201, 864))
C1_J = Fraction(1771561, 612)
C2_J = Fraction(4354703137, 352512)


# ---- flexes ----

def test_rational_flex_of_the_witness_cubics():
    for name in ("witness-C1", "witness-C2"):
        f = fixtures.poly(name)
        flex = cubic.find_rational_flex(f)
        assert flex == (0, 1, -1)
        assert cubic.is_flex(f, flex)


def test_flex_predicate_is_false_off_the_curve():
    f = fixtures.poly("witness-C1")
    assert f.evaluate([1, 1, 1]) != 0
    assert not cubic.is_flex(f, [1, 1, 1])
    with pytest.raises(ValueError):
        cubic.is_flex(f, [0, 0, 0])


def test_non_flex_point_on_the_curve():
    # x0^3 + x0*x2^2 - x1^2*x2 contains (0, 0, 1), which is a flex of the
    # line at infinity pattern, and (1, sqrt(2), 1) etc.; take the known
    # non-flex rational point (1, -2, 2): f = 1 + 4 - 8 = -3 != 0, so build
    # one on the curve instead: (2, 3, 2) gives 8 + 8 - 18 = -2.  Use the
    # curve x1^2*x2 = x0^3 - x0*x2^2, which contains (1, 0, 1).
    f = parse_poly("x0^3 - x0*x2^2 - x1^2*x2")
    assert f.evaluate([1, 0, 1]) == 0
    assert not cubic.is_flex(f, [1, 0, 1])


def test_flex_predicate_validates_its_input():
    f = fixtures.poly("witness-C1")
    with pytest.raises(TypeError):
        cubic.is_flex(f, [0, 1.0, -1])
    with pytest.raises(ValueError):
        cubic.is_flex(f, [0, 1])
    with pytest.raises(ValueError):
        cubic.is_flex(parse_poly("x0^4 + x1^4 - x2^4"), [0, 1, 1])


def test_flex_candidates_keep_their_order():
    triples = [t for t, _ in cubic._canonical_triples(8)]
    assert len(triples) == len(set(triples)) == 2017
    assert triples[:4] == [(0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1)]
    assert triples[-1] == (8, 8, 7)
    assert triples == list(_reference_triples(8))
    assert cubic.find_rational_flex(parse_poly("x0^3 + 2*x1^3 + 3*x2^3")) is None


def _reference_triples(height):
    """The candidate order of the Fraction flex search: primitive integer
    triples, first nonzero entry positive, by (max absolute entry,
    lexicographic order)."""
    for shell in range(1, height + 1):
        values = range(-shell, shell + 1)
        block = [
            t for t in itertools.product(values, values, values)
            if max(map(abs, t)) == shell and next(c for c in t if c) > 0 and math.gcd(*t) == 1
        ]
        yield from sorted(block)


def _reference_is_flex(f, p):
    """The flex test in Fraction arithmetic on f itself: p lies on the
    curve, is a smooth point, and the Hessian form vanishes on the smallest
    primitive kernel vector of the gradient off p's line."""
    p = [Fraction(x) for x in p]
    if f.evaluate(p) != 0:
        return False
    l0, l1, l2 = (g.evaluate(p) for g in f.gradient())
    if not (l0 or l1 or l2):
        return False
    kernel = ((0, l2, -l1), (-l2, 0, l0), (l1, -l0, 0))
    candidates = [
        v for v in (primitive_vector(clear_denominators(w)[0]) for w in kernel)
        if v is not None and not projectively_equal(v, p)
    ]
    v = min(candidates, key=lambda w: (max(map(abs, w)), w))
    second = cubic.hessian(f).entries
    return sum(v[i] * second[i][j].evaluate(p) * v[j] for i in range(3) for j in range(3)) == 0


def test_hessian_matrix_satisfies_the_euler_type_identity():
    rng = random.Random(3)
    for _ in range(10):
        terms = {}
        for _ in range(6):
            mono = [0, 0, 0]
            for _ in range(3):
                mono[rng.randrange(3)] += 1
            terms[tuple(mono)] = Fraction(rng.randint(-5, 5))
        f = MultiPoly(3, terms)
        if f.is_zero():
            continue
        h = cubic.hessian(f)
        grads = f.gradient()
        for j in range(3):
            total = MultiPoly.zero(3)
            for i in range(3):
                total += MultiPoly.variable(3, i) * h.entry(i, j)
            assert total == grads[j].scale(2)


# ---- smoothness ----

def _certified_singular_count(f):
    result = solve.singular_points(f)
    return result.count() if result.certified else "not certified"


def test_smoothness_of_fixture_curves():
    assert _certified_singular_count(fixtures.poly("witness-C1")) == 0
    assert _certified_singular_count(fixtures.poly("witness-C2")) == 0
    assert _certified_singular_count(parse_poly("x0*x1*x2")) == 3
    # a nodal cubic: the node is a simple zero of the gradient system
    node = parse_poly("x1^2*x2 - x0^3 - x0^2*x2")
    assert _certified_singular_count(node) == 1
    # a cuspidal-type locus is non-reduced, so the count cannot certify
    assert _certified_singular_count(parse_poly("x0^3 + x1^3", nvars=3)) == "not certified"


# ---- exact reduction ----

def test_exact_reduction_of_the_witness_cubics():
    r1 = cubic.weierstrass_reduce(fixtures.poly("witness-C1"))
    assert r1.exact
    assert (r1.a, r1.b) == C1_PAIR
    assert r1.flex == (0, 1, -1)
    assert r1.j == C1_J

    r2 = cubic.weierstrass_reduce(fixtures.poly("witness-C2"))
    assert r2.exact
    assert (r2.a, r2.b) == C2_PAIR
    assert r2.j == C2_J


def test_short_form_cubics_reduce_to_their_own_pairs():
    f = parse_poly("x0^3 + x0*x2^2 - x1^2*x2")
    r = cubic.weierstrass_reduce(f)
    assert r.exact
    assert (r.a, r.b) == (1, 0)
    assert r.flex == (0, 1, 0)
    assert r.j == 1728


def test_fermat_and_diagonal_cubics_have_exact_j_zero():
    fermat = parse_poly("x0^3 + x1^3 + x2^3")
    r = cubic.weierstrass_reduce(fermat)
    assert r.exact
    assert (r.a, r.b) == (0, Fraction(-27, 4))
    assert r.j == 0

    # x0^3 + 2 x1^3 + 3 x2^3 has j = 0 too, but no rational flex at all
    diagonal = parse_poly("x0^3 + 2*x1^3 + 3*x2^3")
    assert cubic.invariants(diagonal) == (0, -243, 27 * 243**2)
    r = cubic.weierstrass_reduce(diagonal)
    assert r.exact
    assert r.flex is None
    assert r.a == 0
    assert r.j == 0


def test_a_cubic_whose_flex_lies_beyond_the_search_height_reduces_exactly():
    # y^2 z = x^3 + x z^2 in coordinates where its rational flex is (0:1:9),
    # beyond the search height
    f = parse_poly("x0^3 + 81*x0*x1^2 - 18*x0*x1*x2 + x0*x2^2 + 9*x1^3 - x1^2*x2")
    assert cubic.find_rational_flex(f) is None
    assert cubic.invariants(f) == (1, 0, 4)
    r = cubic.weierstrass_reduce(f)
    assert r.exact
    assert r.flex is None
    assert (r.a, r.b) == (1, 0)
    assert r.j == 1728


def test_a_sheared_short_form_reduces_exactly_without_a_flex_in_range():
    # y^2 z = x^3 + x z^2 under x0 -> x0 - 9 x1: its rational flex (9:1:0)
    # lies beyond the search height
    g = parse_poly(
        "x0^3 - 27*x0^2*x1 + 243*x0*x1^2 + x0*x2^2 - 729*x1^3 - x1^2*x2 - 9*x1*x2^2"
    )
    assert cubic.find_rational_flex(g) is None
    assert cubic.invariants(g) == (1, 0, 4)
    r = cubic.weierstrass_reduce(g)
    assert r.exact
    assert r.flex is None
    assert (r.a, r.b) == (1, 0)
    assert r.j == 1728


def test_pair_canonicalization_collapses_the_scaling_orbit():
    a, b = C1_PAIR
    for u in (Fraction(2, 3), Fraction(5), Fraction(1, 7)):
        assert cubic.canonicalize_pair(a * u**4, b * u**6) == (a, b)


def _scan_every_u(a, b):
    """The scan that canonicalize_pair narrows: every coprime u = s/t with
    1 <= s, t <= 48, keyed as canonicalize_pair keys them."""
    best = None
    for s in range(1, 49):
        for t in range(1, 49):
            if math.gcd(s, t) != 1:
                continue
            u = Fraction(s, t)
            a2, b2 = a * u**4, b * u**6
            profile = sorted(
                (abs(a2.numerator), a2.denominator, abs(b2.numerator), b2.denominator),
                reverse=True,
            )
            key = (profile, 0 if u == 1 else 1, s + t, s)
            if best is None or key < best[0]:
                best = (key, a2, b2)
    return best[1], best[2]


_coefficients = st.builds(Fraction, st.integers(-5000, 5000), st.integers(1, 5000))


@given(_coefficients, _coefficients, st.integers(1, 48), st.integers(1, 48))
@settings(max_examples=60, deadline=None)
def test_pair_canonicalization_matches_the_scan_of_every_u(a, b, s, t):
    u = Fraction(s, t)
    a, b = a * u**4, b * u**6
    assert cubic.canonicalize_pair(a, b) == _scan_every_u(a, b)


def test_pair_canonicalization_matches_the_scan_of_every_u_on_the_witnesses():
    for a, b in (C1_PAIR, C2_PAIR, (Fraction(0), Fraction(7, 2**6)), (Fraction(3**4, 5), Fraction(0))):
        for u in (Fraction(1), Fraction(2, 3), Fraction(35, 11)):
            scaled = (a * u**4, b * u**6)
            assert cubic.canonicalize_pair(*scaled) == _scan_every_u(*scaled)


def test_j_is_invariant_under_rational_changes_of_coordinates():
    rng = random.Random(8)
    for name, expected in (("witness-C1", C1_J), ("witness-C2", C2_J)):
        f = fixtures.poly(name)
        attempts = 0
        while attempts < 3:
            matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if linalg.det(matrix) == 0:
                continue
            attempts += 1
            g = f.compose([linear_form(3, row) for row in matrix])
            assert cubic.weierstrass_reduce(g).j == expected


def _short_form(a, b):
    """y^2 z - x^3 - a x z^2 - b z^3 in x0 = x, x1 = y, x2 = z."""
    return MultiPoly(3, {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -a, (0, 0, 3): -b})


_small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_matrices = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3)


@given(_small_rationals, _small_rationals, _matrices, _small_rationals)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_invariants_of_a_rational_image_of_a_short_form(a, b, matrix, scale):
    assume(4 * a**3 + 27 * b**2 != 0 and scale != 0)
    det = linalg.det(matrix)
    assume(det != 0)
    g = _short_form(a, b).compose([linear_form(3, row) for row in matrix]).scale(scale)
    # Rescaling by c and a change of coordinates of determinant d map the
    # pair to (u^4 a, u^6 b) with u = c d: a rational u, so the pair is the
    # same curve over Q, not a quadratic twist with the same j.
    u = scale * det
    assert cubic.invariants(g) == (u**4 * a, u**6 * b, u**12 * (4 * a**3 + 27 * b**2))
    assert cubic.weierstrass_reduce(g).j == 6912 * a**3 / (4 * a**3 + 27 * b**2)


def test_singular_points_are_not_flexes():
    node = parse_poly("x1^2*x2 - x0^3 - x0^2*x2")
    triangle = parse_poly("x0*x1*x2")
    assert not cubic.is_flex(node, [0, 0, 1])
    assert not cubic.is_flex(triangle, [0, 0, 1])
    assert cubic.is_flex(triangle, [0, 1, -1])  # a smooth point of a line of the curve
    for f in (node, triangle):
        for t in _reference_triples(2):
            assert cubic.is_flex(f, t) == _reference_is_flex(f, t)


def _preimage(matrix, q):
    """A projective point x with matrix * x proportional to q, for an
    invertible matrix."""
    ((*x, _),) = linalg.nullspace([row + [-c] for row, c in zip(matrix, q)])
    return x


_non_integers = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 5)).filter(
    lambda q: q.denominator > 1
)


@given(_small_rationals, _small_rationals, _matrices, _non_integers, _non_integers)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_integer_flex_search_matches_the_fraction_search(a, c, matrix, scale, point_scale):
    # y^2 z = x^3 + a x z^2 + c^2 z^3 has the flex (0:1:0) and the point
    # (0:c:1); g = scale * f(matrix x) has them at their preimages.
    b = c * c
    assume(4 * a**3 + 27 * b**2 != 0)
    assume(linalg.det(matrix) != 0)
    g = _short_form(a, b).compose([linear_form(3, row) for row in matrix]).scale(scale)
    first = next((t for t in _reference_triples(cubic._FLEX_HEIGHT) if _reference_is_flex(g, t)), None)
    assert cubic.find_rational_flex(g) == first
    flex = [point_scale * x for x in _preimage(matrix, [0, 1, 0])]
    on_curve = _preimage(matrix, [0, c, 1])
    nearby = [flex[0] + 1, flex[1], flex[2]]
    assert cubic.is_flex(g, flex) and _reference_is_flex(g, flex)
    for point in (on_curve, nearby):
        assert cubic.is_flex(g, point) == _reference_is_flex(g, point)


def test_reduction_validates_input():
    with pytest.raises(ValueError):
        cubic.weierstrass_reduce(parse_poly("x0^2 + x1*x2"))  # not a cubic
    with pytest.raises(ValueError):
        cubic.weierstrass_reduce(parse_poly("x0^3 + x1^3", nvars=2))  # wrong ring
    with pytest.raises(ValueError, match="multiple"):
        cubic.weierstrass_reduce(parse_poly("x0*x1*x2"))  # a triangle: He F is a multiple of F
    with pytest.raises(ValueError, match="4a\\^3"):
        cubic.weierstrass_reduce(parse_poly("x1^2*x2 - x0^3 - x0^2*x2"))  # a node
    with pytest.raises(ValueError, match="zero"):
        cubic.weierstrass_reduce(parse_poly("x0^3 + x1^3", nvars=3))  # a cone: He F = 0


def test_reduction_runs_at_the_first_rational_flex_in_range():
    f = fixtures.poly("witness-C1")
    flex = cubic.find_rational_flex(f)
    assert max(abs(c) for c in flex) <= cubic._FLEX_HEIGHT
    r = cubic.weierstrass_reduce(f)
    assert r.exact
    assert r.flex == flex
