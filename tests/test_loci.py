"""Linear systems of quadrics, Weddle matrices, and rank certificates."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weddle import cubic, fixtures, linalg, loci, solve, tensor
from weddle.loci import LinearSystem
from weddle.polycore import MultiPoly, PolyMatrix, grlex_key, linear_form, parse_poly
from test_polycore import _assert_canonical, reference_det, row_l1_product

_RATIONALS = st.one_of(st.just(0), st.integers(-6, 6), st.fractions(-6, 6, max_denominator=7))


def _random_system(dim, rng):
    return LinearSystem.from_tensor(tensor.random_n1(dim, rng=rng))


def _symmetric_matrix(size):
    """Strategy: a size x size symmetric matrix of small rationals."""
    entries = st.lists(_RATIONALS, min_size=size * size, max_size=size * size)
    return entries.map(
        lambda xs: [[xs[size * min(a, b) + max(a, b)] for b in range(size)] for a in range(size)]
    )


def _reference_combination(weights, matrices):
    """sum_j weights[j] * matrices[j], entry by entry over full matrices."""
    size = len(matrices[0])
    return [
        [sum((Fraction(w) * m[a][b] for w, m in zip(weights, matrices)), Fraction(0)) for b in range(size)]
        for a in range(size)
    ]


def _as_lists(system):
    return [[list(row) for row in q] for q in system.quadrics]


# ---- quadric/polynomial conversion ----

def test_quadric_poly_round_trip():
    q = [[1, Fraction(1, 2), 0], [Fraction(1, 2), -2, 3], [0, 3, 5]]
    p = loci.quadric_to_poly(q)
    assert p == parse_poly("x0^2 + x0*x1 - 2*x1^2 + 6*x1*x2 + 5*x2^2")
    assert loci.poly_to_quadric(p) == [[as_f(x) for x in row] for row in q]


def as_f(x):
    return Fraction(x)


@given(st.integers(1, 6).flatmap(_symmetric_matrix))
@settings(max_examples=60, deadline=None)
def test_quadric_round_trip_for_random_symmetric_matrices(q):
    assert loci.poly_to_quadric(loci.quadric_to_poly(q)) == [[Fraction(x) for x in row] for row in q]


@pytest.mark.parametrize("nv", range(1, 7))
def test_cells_pair_each_quadratic_monomial_with_its_cell_in_graded_lex_order(nv):
    cells = loci._cells(nv)
    monos = [mono for mono, _, _ in cells]
    assert len(set(monos)) == nv * (nv + 1) // 2
    assert monos == sorted(monos, key=grlex_key, reverse=True)
    for mono, i, j in cells:
        assert i <= j
        assert mono == tuple((a == i) + (a == j) for a in range(nv))


def test_quadric_conversion_rejects_bad_input():
    with pytest.raises(ValueError):
        loci.quadric_to_poly([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        loci.poly_to_quadric(parse_poly("x0^3"))
    with pytest.raises(ValueError):
        loci.poly_to_quadric(parse_poly("x0^2 + x1"))


# ---- the contraction/gradient relation ----

def test_contraction_matrix_of_first_witness_system():
    system = fixtures.system("witness-C1-system")
    contraction = loci.contraction_matrix(system)
    # entry (i, k) must be sum_j x_j * (Q_k)_{ij}, computed here by hand
    # from the three symmetric matrices of the fixture
    matrices = [system.quadrics[k] for k in range(3)]
    for i in range(3):
        for k in range(3):
            expected = MultiPoly.zero(3)
            for j in range(3):
                expected += MultiPoly.variable(3, j).scale(matrices[k][i][j])
            assert contraction.entry(i, k) == expected
    assert str(contraction.entry(0, 0)) == "x0 + x1 + x2"
    assert str(contraction.entry(0, 1)) == "x0"
    assert str(contraction.entry(0, 2)) == "x0"


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_gradient_is_twice_the_contraction(dim):
    rng = random.Random(dim)
    for _ in range(5):
        system = _random_system(dim, rng)
        doubled = loci.contraction_matrix(system).scale(2)
        assert doubled == loci.gradient_matrix(system)


def test_weddle_polynomials_of_the_witness_systems():
    for name, cubic_name in [
        ("witness-C1-system", "witness-C1"),
        ("witness-C2-system", "witness-C2"),
    ]:
        data = loci.weddle_matrix(fixtures.system(name))
        assert not data.degenerate
        assert data.polynomial.proportional(fixtures.poly(cubic_name))


def test_degenerate_system_has_zero_weddle_polynomial():
    data = loci.weddle_matrix(fixtures.system("degenerate-conics"))
    assert data.degenerate
    assert data.polynomial.is_zero()


@pytest.mark.parametrize("dim", [4, 5])
def test_weddle_polynomial_equals_the_reference_determinant(dim):
    rng = random.Random(70 + dim)
    for _ in range(2):
        system = _random_system(dim, rng)
        expected = reference_det(loci.contraction_matrix(system)).primitive_normalized()
        assert loci.weddle_matrix(system).polynomial == expected


def test_dim7_weddle_polynomial_at_integer_points_within_budget():
    system = _random_system(7, random.Random(77))
    start = time.perf_counter()
    data = loci.weddle_matrix(system)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"dim-7 Weddle determinant took {elapsed:.2f}s"
    assert data.polynomial.is_homogeneous(7)
    # The polynomial is the primitive normalization of the determinant, so
    # the two agree up to one nonzero constant at every point.
    points = random.Random(7)
    ratios = set()
    for _ in range(3):
        point = [points.randint(-20, 20) for _ in range(7)]
        value = linalg.det([[e.evaluate(point) for e in row] for row in data.matrix.entries])
        assert value != 0
        ratios.add(value / data.polynomial.evaluate(point))
    assert len(ratios) == 1


@pytest.mark.parametrize("dim", [6, 7, 8])
def test_weddle_polynomial_agrees_with_scalar_determinants_up_to_the_size_limit(dim):
    # Dim 8 is MAX_DET_SIZE, and its row l1 norms multiply past 2^63; the
    # step-wise bound keeps that determinant on int64 all the same.
    system = _random_system(dim, random.Random(800 + dim))
    data = loci.weddle_matrix(system)
    assert (row_l1_product(data.matrix) < 2**63) == (dim < 8)
    assert data.polynomial.is_homogeneous(dim)
    points = random.Random(dim)
    ratios = set()
    for _ in range(3):
        point = [Fraction(points.randint(-9, 9), points.randint(1, 5)) for _ in range(dim)]
        value = linalg.det([[e.evaluate(point) for e in row] for row in data.matrix.entries])
        assert value != 0
        ratios.add(value / data.polynomial.evaluate(point))
    assert len(ratios) == 1


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_cyclic_relation_vanishes_for_cyclic_tensors(dim):
    rng = random.Random(31 + dim)
    for _ in range(5):
        system = _random_system(dim, rng)
        assert loci.cyclic_relation_check(system).is_zero()


def test_cyclic_relation_detects_non_cyclic_systems():
    # a symmetric tensor is partially symmetric but not cyclic
    t = tensor.sym_part(tensor.Tensor3.basis_tensor(3, 0, 0, 0))
    system = LinearSystem.from_tensor(t)
    assert not loci.cyclic_relation_check(system).is_zero()


# ---- quadrics through points ----

def test_quadrics_through_coordinate_points_are_the_cross_terms():
    points = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    basis = loci.quadrics_through_points(points, 3)
    polys = sorted(str(loci.quadric_to_poly(q)) for q in basis)
    assert polys == [
        "x0*x1",
        "x0*x2",
        "x0*x3",
        "x1*x2",
        "x1*x3",
        "x2*x3",
    ]


def test_ten_general_points_leave_no_quadric():
    rng = random.Random(5)
    points = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(10)]
    assert loci.quadrics_through_points(points, 3) == []


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_every_basis_quadric_vanishes_at_every_point(seed):
    rng = random.Random(seed)
    points = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(6)]
    if any(all(x == 0 for x in p) for p in points):
        return
    for q in loci.quadrics_through_points(points, 3):
        poly = loci.quadric_to_poly(q)
        for p in points:
            assert poly.evaluate(p) == 0


def test_rational_points_impose_the_conditions_of_their_integer_rescalings():
    rng = random.Random(8)
    points = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(6)]
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
    rational = [[s * x for x in p] for s, p in zip(scales, points)]
    assert loci.quadrics_through_points(rational, 3) == loci.quadrics_through_points(points, 3)


def test_quadrics_through_ten_general_points_in_p4_within_budget():
    # Ten general points in P^4 leave five quadrics.  CPU best of three on
    # a shared 2-CPU x86-64 host: 5-6.5 ms with Fraction elimination and
    # Fraction interpolation rows, about 0.8 ms with integer rows and the
    # fraction-free kernel.  The budget is about five times the latter.
    rng = random.Random(4)
    points = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(10)]
    best = math.inf
    for _ in range(3):
        start = time.process_time()
        basis = loci.quadrics_through_points(points, 4)
        best = min(best, time.process_time() - start)
    assert len(basis) == 5
    assert best < 0.004, f"quadrics through ten points in P^4 took {best * 1e3:.2f} ms CPU"


def test_system_through_the_six_point_fixture():
    _, points = fixtures.load("weddle-6pts")
    system = loci.system_through_points(points, 3)
    assert system.n == 3
    for p in points:
        assert loci.is_base_point(system, p)
        assert loci.base_point_theorem_check(system, p)
    with pytest.raises(ValueError):
        loci.system_through_points(points[:5], 3)  # dimension 5, not 4


def test_base_point_theorem_rejects_non_base_points():
    system = fixtures.system("weddle-6pts")
    with pytest.raises(ValueError):
        loci.base_point_theorem_check(system, [1, 0, 0, 1])


def test_the_zero_vector_is_not_a_base_point():
    with pytest.raises(ValueError, match="projective point must be nonzero"):
        loci.is_base_point(fixtures.system("ex-bpf-conics"), [0, 0, 0])
    with pytest.raises(ValueError, match="projective point must be nonzero"):
        loci.base_point_theorem_check(fixtures.system("degenerate-conics"), [0, 0, 0])


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_base_points_are_singular_on_the_weddle_polynomial(seed):
    rng = random.Random(seed)
    dim = rng.choice([3, 4])
    count = {3: 6, 4: 10}[dim]
    points = [[rng.randint(-5, 5) for _ in range(dim + 1)] for _ in range(count)]
    if any(all(x == 0 for x in p) for p in points):
        return
    basis = loci.quadrics_through_points(points, dim)
    if len(basis) != dim + 1:
        return  # points were not in general position
    system = loci.system_through_points(points, dim)
    data = loci.weddle_matrix(system)
    for p in points:
        if data.degenerate:
            assert loci.base_point_theorem_check(system, p)
        else:
            assert loci.singular_at(data.polynomial, p)


def test_singular_at_validates_its_input():
    with pytest.raises(ValueError):
        loci.singular_at(parse_poly("x0^2 + x1"), [1, 0])
    with pytest.raises(ValueError):
        loci.singular_at(parse_poly("x0^2"), [0])


# ---- low-rank systems ----

def test_rank_three_diagonal_conics():
    forms = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    coeffs = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    system = loci.rank_r_system(forms, coeffs, 2)
    assert system.to_json() == fixtures.system("ex-bpf-conics").to_json()
    assert str(loci.weddle_matrix(system).polynomial) == "x0*x1*x2"


def test_recombination_scales_the_weddle_polynomial():
    system = fixtures.system("witness-C1-system")
    base = loci.weddle_matrix(system).polynomial
    matrix = [[1, 2, 0], [0, 1, 1], [1, 0, 3]]
    assert linalg.det(matrix) != 0
    recombined = loci.recombine(system, matrix)
    assert loci.weddle_matrix(recombined).polynomial.proportional(base)
    with pytest.raises(ValueError):
        loci.recombine(system, [[1, 2, 0], [2, 4, 0], [1, 0, 3]])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_recombine_equals_the_full_matrix_reference(data):
    nv = data.draw(st.integers(2, 5))
    faces = [data.draw(_symmetric_matrix(nv)) for _ in range(nv)]
    matrix = data.draw(st.lists(st.lists(_RATIONALS, min_size=nv, max_size=nv), min_size=nv, max_size=nv))
    system = LinearSystem(nv - 1, faces)
    if linalg.det(matrix) == 0:
        with pytest.raises(ValueError, match="invertible"):
            loci.recombine(system, matrix)
        return
    expected = [_reference_combination(row, faces) for row in matrix]
    assert _as_lists(loci.recombine(system, matrix)) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rank_r_system_equals_the_full_matrix_reference(data):
    nv = data.draw(st.integers(2, 5))
    r = data.draw(st.integers(1, 6))
    forms = data.draw(st.lists(st.lists(_RATIONALS, min_size=nv, max_size=nv), min_size=r, max_size=r))
    coeffs = data.draw(st.lists(st.lists(_RATIONALS, min_size=r, max_size=r), min_size=nv, max_size=nv))
    outer = [[[Fraction(x) * y for y in v] for x in v] for v in forms]
    expected = [_reference_combination(row, outer) for row in coeffs]
    assert _as_lists(loci.rank_r_system(forms, coeffs, nv - 1)) == expected


def test_proportional_generators_give_a_degenerate_system():
    q = parse_poly("x0^2 + x1*x2")
    polys = [q, q.scale(2), parse_poly("x2^2", nvars=3)]
    system = LinearSystem(2, [loci.poly_to_quadric(p) for p in polys])
    assert loci.weddle_matrix(system).degenerate


# ---- the rank-5 family ----

def test_mu_invariants_match_a_cofactor_oracle():
    M = fixtures.load("rank5-M")
    data = loci.mu_invariants(M)
    assert data.det == linalg.det(M)
    for s in range(4):
        replaced = [row[:] if i != s else [1, 1, 1, 1] for i, row in enumerate(M)]
        assert data.mu[s] == linalg.det(replaced)
    assert data.mu == (1, 1, -1, -1)
    assert data.det == 1


def test_rank5_routines_coerce_the_matrix_without_determinants(monkeypatch):
    calls = []
    det = linalg.det

    def counting_det(rows):
        calls.append(rows)
        return det(rows)

    monkeypatch.setattr(loci.linalg, "det", counting_det)
    M = fixtures.load("rank5-M")
    assert loci.rank5_identity_check(M)
    assert len(calls) == 5  # det M and the four mu_s, all in rank5_closed_form
    calls.clear()
    loci.rank5_canonical_system(M)
    assert calls == []


def reference_rank5_det_quartic(matrix):
    """The determinant with the entries xi + x_i M_ik built as a variable,
    scaled by M_ik and added to xi, expanded by the reference determinant."""
    m = [[Fraction(x) for x in row] for row in matrix]
    xi = linear_form(4, [1, 1, 1, 1])
    entries = [[xi + MultiPoly.variable(4, i).scale(m[i][k]) for k in range(4)] for i in range(4)]
    return reference_det(PolyMatrix(4, entries))


@given(st.lists(st.lists(_RATIONALS, min_size=4, max_size=4), min_size=4, max_size=4))
@example([[-1, 2, 0, 3], [1, -1, 5, 0], [Fraction(1, 2), 0, -1, 2], [3, -1, 1, -1]])
@example([[-1] * 4] * 4)  # 1 + M_ik = 0 everywhere: every entry is xi - x_i
@example([[Fraction(-1), Fraction(-2, 3), 0, 1], [0, -1, Fraction(5, 7), 2],
          [1, 1, Fraction(-1, 1), 0], [Fraction(1, 3), 0, 0, -1]])
@settings(max_examples=60, deadline=None)
def test_rank5_det_quartic_equals_the_variable_scale_add_entries(matrix):
    quartic = loci.rank5_det_quartic(matrix)
    assert quartic == reference_rank5_det_quartic(matrix)
    _assert_canonical(quartic)


def test_rank5_determinant_matches_the_thirteen_term_quartic():
    M = fixtures.load("rank5-M")
    quartic = loci.rank5_det_quartic(M)
    assert quartic == loci.rank5_closed_form(M)
    assert len(quartic.terms) == 13
    assert str(quartic) == (
        "-x0^2*x1*x2 - x0^2*x1*x3 + x0^2*x2*x3 - x0*x1^2*x2 - x0*x1^2*x3"
        " - x0*x1*x2^2 + x0*x1*x2*x3 - x0*x1*x3^2 + x0*x2^2*x3 + x0*x2*x3^2"
        " + x1^2*x2*x3 + x1*x2^2*x3 + x1*x2*x3^2"
    )
    data = loci.weddle_matrix(loci.rank5_canonical_system(M))
    assert data.polynomial.proportional(quartic)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rank5_identity_for_random_matrices(seed):
    rng = random.Random(seed)
    M = [[Fraction(rng.randint(-6, 6)) for _ in range(4)] for _ in range(4)]
    assert loci.rank5_identity_check(M)


# ---- splitting totally decomposable forms ----

def test_cubic_splits_into_three_hyperplanes_from_its_singular_points():
    poly = parse_poly("x0*x1*x2")
    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    factors = loci.splits_into_hyperplanes(poly, points)
    assert factors is not None
    assert sorted(str(f) for f in factors) == ["x0", "x1", "x2"]


def test_quartic_splits_into_four_hyperplanes():
    poly = parse_poly("x0*x1*x2*x3")
    points = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    factors = loci.splits_into_hyperplanes(poly, points)
    assert factors is not None
    assert sorted(str(f) for f in factors) == ["x0", "x1", "x2", "x3"]


def test_split_points_must_be_nonzero_points_of_the_polynomial_s_space():
    with pytest.raises(ValueError, match="point has wrong number of coordinates"):
        loci.splits_into_hyperplanes(parse_poly("x0*x1*x2"), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="projective point must be nonzero"):
        loci.splits_into_hyperplanes(parse_poly("x0*x1*x2"), [[1, 0, 0], [0, 0, 0]])


def test_smooth_cubic_does_not_split():
    poly = fixtures.poly("witness-C1")
    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert loci.splits_into_hyperplanes(poly, points) is None


def test_shifted_split_cubic():
    # (x0 + x1)(x0 - x1)(x0 + x2) with pairwise intersection points
    poly = (
        parse_poly("x0 + x1", nvars=3)
        * parse_poly("x0 - x1", nvars=3)
        * parse_poly("x0 + x2", nvars=3)
    )
    points = [[0, 0, 1], [1, -1, -1], [1, 1, -1]]
    factors = loci.splits_into_hyperplanes(poly, points)
    assert factors is not None
    product = MultiPoly.constant(3, 1)
    for f in factors:
        product = product * f
    assert product.proportional(poly)


# ---- Hessians of cubic surfaces ----

@pytest.mark.parametrize("nvars", [3, 4])
def test_hessian_matrix_is_twice_the_weddle_matrix_of_the_gradient(nvars):
    rng = random.Random(nvars * 7)
    for _ in range(10):
        terms = {}
        for _ in range(6):
            mono = [0] * nvars
            for _ in range(3):
                mono[rng.randrange(nvars)] += 1
            terms[tuple(mono)] = Fraction(rng.randint(-5, 5))
        poly = MultiPoly(nvars, terms)
        if poly.is_zero():
            continue
        system = LinearSystem(nvars - 1, [loci.poly_to_quadric(p) for p in poly.gradient()])
        assert loci.weddle_matrix(system).matrix.scale(2) == cubic.hessian(poly)


# ---- serialization and sampling ----

def test_system_json_round_trip_and_validation():
    system = fixtures.system("witness-C2-system")
    assert LinearSystem.from_json(system.to_json()) == system
    with pytest.raises((ValueError, KeyError)):
        LinearSystem.from_json({"n": 2})
    data = system.to_json()
    data["quadrics"] = data["quadrics"][:2]
    with pytest.raises(ValueError):
        LinearSystem.from_json(data)


def test_from_tensor_requires_partial_symmetry():
    t = tensor.Tensor3.basis_tensor(3, 0, 1, 2)  # not symmetric in i, j
    with pytest.raises(ValueError):
        LinearSystem.from_tensor(t)


def test_sampling_is_deterministic_and_nondegenerate():
    t1, s1, w1 = loci.sample_general_cyclic(3, rng=random.Random(9))
    t2, s2, w2 = loci.sample_general_cyclic(3, rng=random.Random(9))
    assert t1 == t2
    assert s1 == s2
    assert w1 == w2
    assert w1 == loci.weddle_matrix(s1)
    assert not w1.degenerate


def test_sweep_top_dim_is_the_last_whose_paths_fit_the_cap():
    # A dim-d base-point solve tracks 2^(d-1) paths per chart.
    top = max(d for d in range(2, 64) if 2 ** (d - 1) <= solve._MAX_PATHS)
    loci.sweep_trials([top], 1, 0)  # dims are checked at the call; no trial runs
    with pytest.raises(ValueError, match="dims"):
        loci.sweep_trials([top + 1], 1, 0)


def test_rank_conclusion_labels():
    assert loci.RankConclusion.RANK_AT_LEAST_6.value == "RankAtLeast6"
    assert loci.RankConclusion.INCONCLUSIVE.value == "Inconclusive"


def test_rank_certificate_on_the_six_point_system():
    cert = loci.rank_lower_bound_certificate(fixtures.system("weddle-6pts"))
    assert cert.singular_count == 6
    assert cert.conclusion is loci.RankConclusion.RANK_AT_LEAST_6
    assert cert.evidence.certified


def test_rank_certificate_rejects_degenerate_or_misdimensioned_systems():
    with pytest.raises(ValueError):
        loci.rank_lower_bound_certificate(fixtures.system("ex-bpf-conics"))
    polys = [
        parse_poly("x0*x1", nvars=4),
        parse_poly("x0*x1", nvars=4).scale(2),
        parse_poly("x2*x3", nvars=4),
        parse_poly("x0*x2", nvars=4),
    ]
    degenerate = LinearSystem(3, [loci.poly_to_quadric(p) for p in polys])
    with pytest.raises(ValueError):
        loci.rank_lower_bound_certificate(degenerate)
