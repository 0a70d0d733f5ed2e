"""Homotopy continuation: certified projective counts."""

import functools
import itertools
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weddle import fixtures, linalg, loci, solve, tensor
from weddle.polycore import MultiPoly, linear_form, parse_poly, primitive_vector
from weddle.solve import SolveConfig


def _solve_projective(texts, seed=0):
    """Common zeros in P^2 of homogeneous polynomials, each its own filter,
    through the solve path of every shipped caller."""
    polys = [parse_poly(text, nvars=3) for text in texts]
    degrees = [p.total_degree() for p in polys]
    return solve._projective_solve(polys, degrees, random.Random(seed))


# ---- the projective solve on small systems ----

def test_two_circles_give_four_simple_rational_solutions():
    result = _solve_projective(["x0^2 - x2^2", "x1^2 - x2^2"])
    assert result.bezout_bound == 4
    assert result.count() == 4
    assert result.certified
    assert result.paths_failed == 0
    found = sorted(c.rational for c in result.clusters)
    assert found == [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]
    for c in result.clusters:
        assert c.multiplicity == 1
        assert c.residual <= 1e-10


def test_tangential_intersection_reports_double_points_uncertified():
    # the conics touch at (1:1:1) and (-1:-1:1), each a double point
    for seed in range(4):
        result = _solve_projective(["x0^2 + x1^2 - 2*x2^2", "x0*x1 - x2^2"], seed)
        assert not result.certified  # multiplicity two is not a simple-root count
        assert {c.rational for c in result.clusters} <= {(1, 1, 1), (1, 1, -1)}
        assert any(c.multiplicity == 2 for c in result.clusters)


def test_a_stalled_endpoint_counts_as_singular_and_fails_alone():
    # the four simple roots of two circles, with three of them marked as
    # ends of a stalled polish: two of those meet, the third is alone
    polys = [parse_poly(text, nvars=3) for text in ("x0^2 - x2^2", "x1^2 - x2^2")]
    chart = ((Fraction(1), Fraction(2), Fraction(4)), 2)
    target = solve._Compiled([solve._unit_row(p) for p in solve._chart_substitute(polys, chart)])
    statuses, finite = solve._track_chart(target, [2, 2], 0, solve._draw_start([2, 2], random.Random(0)))
    assert statuses == ["finite"] * 4
    statuses = ["stalled", "stalled", "finite", "stalled"]
    endpoints = finite[[0, 0, 1, 2]]
    filters = solve._Compiled([solve._unit_row(p) for p in polys])
    (_, report), lifted, nonsingular = solve._finish(
        statuses, endpoints, chart, 0, target, [2, 2], filters, polys
    )
    assert report["paths_failed"] == 1 and len(lifted) == 3
    assert nonsingular.tolist() == [False, False, True]


@pytest.mark.parametrize(
    "text, start, endgame_norm, status, point",
    [
        ("x0 - 1", 1000, np.nan, "at_infinity", 1000),  # the polish converged but jumped
        ("x0 - 1", 50, np.nan, "failed", 50),  # jumped from a norm below 100
        ("x0 - 1", 1 + 1e-9, np.nan, "finite", 1),
        ("x0 - 1000000000", 1, np.nan, "at_infinity", 1e9),  # the polish escaped
        ("x0 - 1", 2e8, np.nan, "at_infinity", 2e8),  # too large to polish
        ("x0 - 1", 500, 10.0, "at_infinity", 500),  # grew 32-fold in the endgame
        ("x0^2 + 1", 0, np.nan, "failed", 0),  # a singular Jacobian
    ],
)
def test_settle_classifies_hand_made_endpoints(text, start, endgame_norm, status, point):
    target = solve._Compiled([parse_poly(text, nvars=1)])
    x = np.array([[start]], dtype=np.complex128)
    statuses, points = solve._settle(target, np.zeros(1, dtype=np.int64), x, np.array([endgame_norm]))
    assert statuses.tolist() == [status]
    assert points[0, 0] == pytest.approx(point, rel=1e-12)


def _union_find_labels(close):
    """Each vertex's smallest connected index, by union-find: the reference
    for solve._components."""
    parent = list(range(len(close)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(close)):
        a, b = root(i), root(j)
        parent[max(a, b)] = min(a, b)
    return [root(i) for i in range(len(close))]


@given(st.integers(1, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_components_equal_a_union_find_reference(n, data):
    # sparse edge lists, so that chains and several components are common
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    close = np.eye(n, dtype=bool)
    for i, j in edges:
        close[i, j] = close[j, i] = True
    assert solve._components(close).tolist() == _union_find_labels(close)
    assert solve._components(np.ones((0, 0), dtype=bool)).tolist() == []


def _scalar_lift(y, chart):
    """One chart point's lift and its normalization, one coordinate at a
    time: the reference that solve._lift must match bit for bit."""
    coeffs, pivot = chart
    nv = len(coeffs)
    x = np.zeros(nv, dtype=np.complex128)
    j = 0
    for i in range(nv):
        if i == pivot:
            continue
        x[i] = y[j]
        j += 1
    partial = sum(complex(coeffs[i]) * x[i] for i in range(nv) if i != pivot)
    x[pivot] = (1.0 - partial) / complex(coeffs[pivot])
    norm = np.linalg.norm(x)
    v = x / norm
    for c in v:
        if abs(c) > solve._PHASE_TOL:
            v = v * (c.conjugate() / abs(c))
            break
    return norm, v


@pytest.mark.parametrize("nvars", range(2, 7))
def test_stacked_lifts_equal_scalar_lifts_bit_for_bit(nvars):
    rng = random.Random(nvars)
    gen = np.random.default_rng(nvars)
    for _ in range(20):
        chart = solve._random_chart(nvars, rng)
        size = 10.0 ** gen.uniform(-3, 3, size=(50, 1))
        y = size * (gen.standard_normal((50, nvars - 1)) + 1j * gen.standard_normal((50, nvars - 1)))
        norms, points = solve._lift(y, chart)
        expected = [_scalar_lift(row, chart) for row in y]
        assert np.array_equal(norms, [norm for norm, _ in expected])
        assert np.array_equal(points, [point for _, point in expected])


def test_generic_quadric_pair_has_four_accurate_solutions():
    rng = random.Random(12)
    for _ in range(5):
        polys = []
        for _ in range(2):
            terms = {
                (2, 0, 0): Fraction(rng.randint(-5, 5)),
                (1, 1, 0): Fraction(rng.randint(-5, 5)),
                (0, 2, 0): Fraction(rng.randint(-5, 5)),
                (1, 0, 1): Fraction(rng.randint(-5, 5)),
                (0, 1, 1): Fraction(rng.randint(-5, 5)),
                (0, 0, 2): Fraction(rng.randint(1, 5)),
            }
            polys.append(MultiPoly(3, terms))
        result = solve._projective_solve(polys, [2, 2], random.Random(0))
        if not result.certified:
            continue  # a non-generic draw (tangency) is allowed to bail out
        assert result.count() == 4
        for c in result.clusters:
            assert c.residual < 1e-10


def test_projective_solve_is_deterministic_for_a_fixed_seed():
    texts = ["x0^2 + x1*x2 - 3*x2^2", "x0*x1 - 2*x2^2"]
    assert _solve_projective(texts, 5).to_json() == _solve_projective(texts, 5).to_json()


# ---- base points of quadric systems ----

def test_base_point_of_the_dimension_two_fixture():
    system = fixtures.system("cyclic-dim2")
    result = solve.base_points(system)
    assert result.certified
    assert result.count() == 1
    assert result.clusters[0].rational == (Fraction(2), Fraction(-1))


def test_diagonal_conics_have_no_base_points():
    result = solve.base_points(fixtures.system("ex-bpf-conics"))
    assert result.certified
    assert result.count() == 0


def test_six_point_system_recovers_its_six_base_points():
    _, points = fixtures.load("weddle-6pts")
    system = fixtures.system("weddle-6pts")
    result = solve.base_points(system)
    assert result.certified
    assert result.count() == 6
    found = {c.rational for c in result.clusters}
    expected = set()
    for p in points:
        vec = [Fraction(x) for x in p]
        scale = next(x for x in vec if x != 0)
        expected.add(tuple(x / abs(scale) * (1 if scale > 0 else -1) for x in vec))
    # rational matches are integer-normalized with positive leading entry
    normalized = set()
    for p in found:
        assert p is not None
        normalized.add(tuple(p))
    assert len(normalized) == 6
    for p in points:
        assert any(
            _projectively_same(p, q) for q in normalized
        ), f"missing base point {p}"


def _projectively_same(p, q):
    from weddle.polycore import projectively_equal

    return projectively_equal(list(p), list(q))


def test_random_cyclic_system_in_three_space_has_five_base_points():
    t = tensor.random_n1(4, rng=random.Random(2))
    system = loci.LinearSystem.from_tensor(t)
    result = solve.base_points(system)
    assert result.certified
    assert result.count() == 5 == solve.jacobsthal(4)


def test_base_points_rejects_oversized_or_degenerate_systems():
    t = tensor.random_n1(6, rng=random.Random(0))
    with pytest.raises(ValueError):
        solve.base_points(loci.LinearSystem.from_tensor(t))
    zero = loci.LinearSystem(1, [[[0, 0], [0, 0]], [[1, 0], [0, 0]]])
    with pytest.raises(ValueError):
        solve.base_points(zero)



@pytest.mark.parametrize("seed", range(4))
def test_a_non_reduced_base_point_is_never_certified(seed):
    # x0^2 - x1*x2, x0*x1 and x1^2 meet only at [0:0:1], with multiplicity 3
    polys = [parse_poly(text, nvars=3) for text in ("x0^2 - x1*x2", "x0*x1", "x1^2")]
    system = loci.LinearSystem(2, [loci.poly_to_quadric(p) for p in polys])
    result = solve.base_points(system, SolveConfig(seed=seed))
    assert not result.certified
    assert all(c.rational == (0, 0, 1) for c in result.clusters)
    if seed in (2, 3):
        assert [c.multiplicity for c in result.clusters] == [3]


def _sweep_replay(dim, master_seed):
    """The first trial of `weddle jacobsthal-sweep --dims <dim> --seed <master_seed>`."""
    master = random.Random(master_seed)
    trial_seed = master.randrange(2**30)
    _, system, _ = loci.sample_general_cyclic(dim, rng=master)
    return solve.base_points(system, SolveConfig(seed=trial_seed))


@pytest.mark.parametrize("master_seed", [1033902920, 876372031])
def test_proportional_charts_are_redrawn(master_seed):
    # these draws first picked proportional charts, which share their
    # infinity hyperplane and both lost the single base point on it
    result = _sweep_replay(2, master_seed)
    assert result.certified
    assert result.count() == 1
    charts = [[Fraction(c) for c in r["chart"]] for r in result.chart_reports]
    assert not _projectively_same(*charts)


def test_paths_lost_at_both_chart_infinities_break_certification():
    # the base point [1:0:1] lies on both chart hyperplanes (-7,5,7) and
    # (6,6,-6), so each chart loses one path and neither sees the point
    result = _sweep_replay(3, 338005599)
    assert [r["at_infinity"] for r in result.chart_reports] == [1, 1]
    assert not result.certified
    (note,) = result.notes
    assert note.startswith(
        "uncertified: 3 distinct finite endpoint(s) for 4 Bezout paths, "
        "0 with sigma_min/sigma_max <= 1e-08; largest survivor residual "
    )


@pytest.mark.parametrize("master_seed", [161880760, 887810380])
def test_a_square_subsystem_with_a_common_factor_is_not_certified_short(master_seed):
    # Both square quadrics share the factor x1, so the line x1 = 0 holds
    # singular endpoints and one base point is all that survives; J_3 = 3.
    result = _sweep_replay(3, master_seed)
    assert not result.certified or result.count() == 3


def _scaled(system, factors):
    return loci.LinearSystem(
        system.n, [[[x * f for x in row] for row in q] for q, f in zip(system.quadrics, factors)]
    )


@pytest.mark.parametrize("factor", [Fraction(1, 10**8), Fraction(10**8)])
def test_rescaling_every_quadric_keeps_the_certified_six_points(factor):
    system = fixtures.system("weddle-6pts")
    result = solve.base_points(_scaled(system, [factor] * (system.n + 1)))
    assert result.certified
    assert result.count() == 6


def _path_jump_trial():
    """Trial 13 of `sweep_trials([4], 100, 12)` (trial seed 921463033): two
    paths of chart 2 end on one base point, and the two charts' endpoints
    are 8 distinct nonsingular points together."""
    master = random.Random(12)
    for _ in range(14):
        trial_seed = master.randrange(2**30)
        _, system, _ = loci.sample_general_cyclic(4, rng=master)
    assert trial_seed == 921463033
    return solve.base_points(system, SolveConfig(seed=trial_seed))


def _swap_first_two_calls(monkeypatch, name):
    """Make solve.<name> return its second result first and its first
    second, drawing both on the first call, so the rng is read as before."""
    original = getattr(solve, name)
    held = []
    calls = itertools.count()

    def swapped(*args):
        call = next(calls)
        if call == 0:
            held.append(original(*args))
            return original(*args)
        return held.pop() if call == 1 else original(*args)

    monkeypatch.setattr(solve, name, swapped)


@pytest.mark.parametrize("jumping_chart", [2, 1])
def test_a_path_jump_in_one_chart_still_certifies(monkeypatch, jumping_chart):
    if jumping_chart == 1:  # the same two charts and start systems, in the other order
        _swap_first_two_calls(monkeypatch, "_random_chart")
        _swap_first_two_calls(monkeypatch, "_draw_start")
    result = _path_jump_trial()
    clusters = [r["survivors"] + r["discarded_clusters"] for r in result.chart_reports]
    # A jump in chart 1 fails rule A there, so chart 2 is tracked; a jump in
    # chart 2 is never tracked, since chart 1 alone meets rule A.
    assert clusters == ([7, 8] if jumping_chart == 1 else [8])
    assert result.certified
    assert result.count() == 5 == solve.jacobsthal(4)
    assert all(c.multiplicity == 1 for c in result.clusters)


@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.booleans())
@settings(max_examples=20, deadline=None)
def test_rescaled_or_recombined_systems_never_certify_a_wrong_count(seed, dim, recombine):
    rng = random.Random(seed)
    _, system, _ = loci.sample_general_cyclic(dim, rng=rng)
    size = system.n + 1
    if recombine:
        matrix = None
        while matrix is None or linalg.det(matrix) == 0:
            matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)]
        changed = loci.recombine(system, matrix)
    else:
        # a nonzero rational of either sign and of magnitude 10^-9 to 10^9 per quadric
        factors = []
        for _ in range(size):
            ratio = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            factors.append(ratio * Fraction(10) ** rng.randint(-8, 8))
        changed = _scaled(system, factors)
    for candidate in (system, changed):
        result = solve.base_points(candidate, SolveConfig(seed=seed))
        assert not result.certified or result.count() == solve.jacobsthal(dim)


def test_a_path_dropped_by_the_tracker_breaks_the_accounting_loudly(monkeypatch):
    tracker = solve._track_paths

    def drop_last_path(hom, starts):
        statuses, endpoints = tracker(hom, starts)
        return statuses[:-1], endpoints[:-1]

    monkeypatch.setattr(solve, "_track_paths", drop_last_path)
    with pytest.raises(RuntimeError, match="path accounting"):
        solve.base_points(fixtures.system("cyclic-dim2"))


def test_a_sweep_does_not_swallow_an_internal_fault(monkeypatch):
    tracker = solve._track_paths

    def drop_last_path(hom, starts):
        statuses, endpoints = tracker(hom, starts)
        return statuses[:-1], endpoints[:-1]

    monkeypatch.setattr(solve, "_track_paths", drop_last_path)
    with pytest.raises(RuntimeError, match="path accounting"):
        list(loci.sweep_trials([2], 2, 3))


# ---- singular points of hypersurfaces ----

def test_triple_line_product_has_three_singular_points():
    result = solve.singular_points(parse_poly("x0*x1*x2"))
    assert result.certified
    assert result.count() == 3
    found = {c.rational for c in result.clusters}
    assert found == {
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    }


@pytest.mark.parametrize(
    "text",
    [
        "x0^4 - 4*x0^3*x1 + 6*x0^2*x1^2 - 4*x0*x1^3 + x1^4",  # (x0 - x1)^4
        "x0^4*x1 - 4*x0^3*x1^2 + 6*x0^2*x1^3 - 4*x0*x1^4 + x1^5",  # (x0 - x1)^4 x1
    ],
)
def test_a_multiple_root_in_one_unknown_is_never_certified(text):
    # The one singular point (1:1) is a triple root of the square system in
    # one unknown, whose scattered endpoints lie farther apart than
    # _CLUSTER_RADIUS.  A 1 x 1 Jacobian has sigma_min / sigma_max = 1, so
    # only |J| shows them singular.
    f = parse_poly(text)
    assert not any(solve.singular_points(f, SolveConfig(seed)).certified for seed in range(10))


def test_a_double_root_in_one_unknown_still_certifies_its_point():
    # (x0 - x1)^2 (x0 + x1) x1: one singular point, (1:1)
    f = parse_poly("x0^3*x1 - x0^2*x1^2 - x0*x1^3 + x1^4")
    for seed in range(10):
        result = solve.singular_points(f, SolveConfig(seed))
        assert result.certified and [c.rational for c in result.clusters] == [(1, 1)]


def test_smooth_cubic_has_no_singular_points():
    result = solve.singular_points(fixtures.poly("witness-C1"))
    assert result.certified
    assert result.count() == 0


def test_rank5_quartic_has_exactly_the_ten_rational_singular_points():
    M = fixtures.load("rank5-M")
    quartic = loci.rank5_closed_form(M)
    result = solve.singular_points(quartic)
    assert result.certified
    assert result.count() == 10
    assert result.paths_tracked == 27  # 3^3 paths per chart
    assert all(rep["paths_tracked"] == 27 for rep in result.chart_reports)
    expected = {
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, -1, 0, 0),
        (1, 0, -1, 0),
        (1, 0, 0, -1),
        (0, 1, -1, 0),
        (0, 1, 0, -1),
        (0, 0, 1, -1),
    }
    found = {c.rational for c in result.clusters}
    assert found == {tuple(Fraction(x) for x in p) for p in expected}
    # and each expected point annihilates the gradient exactly
    for p in expected:
        assert loci.singular_at(quartic, list(p))


def test_singular_points_validates_input():
    with pytest.raises(ValueError):
        solve.singular_points(parse_poly("x0^2 + x1"))  # inhomogeneous
    with pytest.raises(ValueError):
        solve.singular_points(parse_poly("x0^5"))  # one variable
    with pytest.raises(ValueError):
        solve.singular_points(MultiPoly.zero(3))


# ---- the path cap ----

def test_over_cap_solves_name_their_path_count_and_the_cap(monkeypatch):
    _, system, _ = loci.sample_general_cyclic(6, rng=random.Random(0))
    cap = solve._MAX_PATHS

    def fail(*args, **kwargs):
        raise AssertionError("exact work before the size check")

    # Every refusal comes before the square subsystem's exact rank, which
    # for 200 variables is that of a 199 x 200 weight matrix.
    monkeypatch.setattr(solve, "_random_square_subsystem", fail)
    with pytest.raises(ValueError, match=rf"^32 .*\b{cap}\b"):
        solve.base_points(system)  # 2^5 paths per chart
    with pytest.raises(ValueError, match=rf"^81 .*\b{cap}\b"):
        solve.singular_points(parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x4^4"))  # 3^4 paths
    # A linear gradient system has one Bezout path, but its unknowns count:
    # each degree is charged at least 2.
    with pytest.raises(ValueError, match=rf"^1 .* 199 unknowns .*\b{cap}\b"):
        solve.singular_points(parse_poly("x0^2 + x199^2"))
    with pytest.raises(ValueError, match=rf"^{2**199} .* 199 unknowns .*\b{cap}\b"):
        solve.singular_points(parse_poly("x0^3 + x199^3"))


def test_segre_cubic_threefold_is_never_miscounted():
    # Five variables but 2^4 = 16 paths per chart, within the cap.  The ten
    # nodes are the permutations of (1, 1, 1, -1, -1).
    f = parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x4^3") - parse_poly("x0 + x1 + x2 + x3 + x4") ** 3
    nodes = {tuple(p[0] * v for v in p) for p in itertools.permutations((1, 1, 1, -1, -1))}
    assert len(nodes) == 10 and all(loci.singular_at(f, list(p)) for p in nodes)
    certified = 0
    for seed in range(4):
        result = solve.singular_points(f, SolveConfig(seed=seed))
        assert result.bezout_bound == 16
        if result.certified:
            certified += 1
            assert result.count() == 10
            assert {c.rational for c in result.clusters} == nodes
    assert certified


def test_five_lines_in_the_plane_have_ten_certified_nodes():
    # A plane quintic, 4^2 = 16 paths per chart, within the cap: its nodes
    # are the pairwise intersections of the lines, their cross products.
    lines = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
    f = functools.reduce(operator.mul, (linear_form(3, a) for a in lines))
    nodes = set()
    for (a0, a1, a2), (b0, b1, b2) in itertools.combinations(lines, 2):
        cross = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        nodes.add(primitive_vector(cross))
    assert len(nodes) == 10
    for seed in range(4):
        result = solve.singular_points(f, SolveConfig(seed=seed))
        assert result.bezout_bound == 16
        assert result.certified
        assert result.count() == 10
        assert {c.rational for c in result.clusters} == nodes


# ---- the compiled kernel against per-row scalar evaluation ----
#
# The lockstep tracker must compute, for each row of a stack, exactly the
# floats of evaluating that row's point alone (tests/test_tracker.py checks
# whole paths).  Here the stacked value, Jacobian and both homotopy forms
# are checked, bit for bit, against one scalar matvec per row.

def _row_monomials(x, exponents):
    return np.prod(x[np.newaxis, :] ** exponents, axis=1)


def _row_value_and_jacobian(compiled, chart, x):
    coeff = compiled.coeff[chart]
    cols = []
    for v in range(compiled.nvars):
        shifted = compiled.exponents.copy()
        shifted[:, v] = np.maximum(shifted[:, v] - 1, 0)
        mult = compiled.exponents[:, v].astype(np.float64)
        cols.append((coeff * mult) @ _row_monomials(x, shifted))
    return coeff @ _row_monomials(x, compiled.exponents), np.stack(cols, axis=1)


def _row_homotopy(hom, path, x, t):
    """(H, dH/dx, dH/dt) of one path at one point, scalar t."""
    value, jacobian = _row_value_and_jacobian(hom.target, hom.charts[path], x)
    gamma, start = hom.gamma[path], x ** hom.degrees - hom.roots[path]
    start_jacobian = np.diag(hom.degrees * x ** (hom.degrees - 1))
    return (
        gamma * t * start + (1.0 - t) * value,
        gamma * t * start_jacobian + (1.0 - t) * jacobian,
        gamma * start - value,
    )


def _assert_kernel_matches_rows(hom, x, t, paths):
    charts = hom.charts[paths]
    value, jacobian = hom.target.apply(x, hom.target._stack[charts])
    stage = hom[paths].evaluate(x, t)
    corrector = hom[paths].evaluate(x, t, corrector=True)
    for p in range(len(x)):
        want_value, want_jacobian = _row_value_and_jacobian(hom.target, charts[p], x[p])
        assert np.array_equal(value[p], want_value)
        assert np.array_equal(jacobian[p], want_jacobian)
        h, dx, dt = _row_homotopy(hom, paths[p], x[p], float(t[p]))
        assert np.array_equal(stage[0][p], dx) and np.array_equal(stage[1][p], dt)
        assert np.array_equal(corrector[0][p], h) and np.array_equal(corrector[1][p], dx)
        one = slice(p, p + 1)
        alone = hom.target.apply(x[one], hom.target._stack[charts[one]])
        assert np.array_equal(alone[0][0], value[p]) and np.array_equal(alone[1][0], jacobian[p])
        alone = hom[paths[one]].evaluate(x[one], t[one])
        assert np.array_equal(alone[0][0], stage[0][p]) and np.array_equal(alone[1][0], stage[1][p])


def _random_homotopy(nvars, rng):
    """Two charts' random dense systems of nvars polynomials of degree <= 3
    in nvars unknowns, with random start roots and gamma per path, and a
    stack whose rows take both charts in shuffled order."""
    monos = [m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3]

    def poly():
        chosen = rng.sample(monos, min(len(monos), 6))
        return MultiPoly(nvars, {m: Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for m in chosen})

    target = solve._Compiled(*([poly() for _ in range(nvars)] for _ in range(2)))
    paths = 12
    unit = lambda: np.exp(2j * np.pi * rng.random())
    hom = solve._Homotopy(
        target,
        [rng.randint(2, 3) for _ in range(nvars)],
        rng.sample([0, 1] * (paths // 2), paths),
        [[unit() for _ in range(nvars)] for _ in range(paths)],
        [unit() for _ in range(paths)],
    )
    x = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nvars)] for _ in range(paths)])
    t = np.array([rng.random() for _ in range(paths)])
    return hom, x, t, np.array(rng.sample(range(paths), paths))


@pytest.mark.parametrize("nvars", [1, 4])
def test_stacked_kernel_matches_per_row_evaluation(nvars):
    hom, x, t, paths = _random_homotopy(nvars, random.Random(nvars))
    assert sorted(hom.charts.tolist()) == [0] * 6 + [1] * 6
    _assert_kernel_matches_rows(hom, x, t, paths)
    # A take of no rows evaluates to empty stacks.  No tracker call makes one;
    # in a solve, only _finish with no kept endpoint applies the target to an
    # empty stack.
    for corrector in (False, True):
        first, second = hom[paths[:0]].evaluate(x[:0], t[:0], corrector)
        assert {first.shape, second.shape} == {(0, nvars, nvars), (0, nvars)}


@pytest.mark.parametrize("nvars", [1, 4])
def test_a_taken_homotopy_evaluates_as_its_rows(nvars):
    """hom[paths] on a mixed-chart stack: its evaluation is, bit for bit,
    that of another take of the same rows, and each row's is that row's in
    the whole homotopy; a take of a take, as the corrector's _newton makes
    of the running paths' homotopy when one of its rows stops, is the take
    of the composed rows."""
    hom, x, t, paths = _random_homotopy(nvars, random.Random(20 + nvars))
    part = hom[paths]
    assert part.target is hom.target and part.charts.tolist() == hom.charts[paths].tolist()
    keep = np.arange(len(paths)) % 3 != 1
    order = np.argsort(paths)  # row j of the whole homotopy at the point of path j
    for corrector in (False, True):
        taken = part.evaluate(x, t, corrector=corrector)
        whole = hom.evaluate(x[order], t[order], corrector=corrector)
        for got, via_paths, full in zip(taken, hom[paths].evaluate(x, t, corrector), whole):
            assert np.array_equal(got, via_paths) and np.array_equal(got, full[paths])
        again = part[keep].evaluate(x[keep], t[keep], corrector=corrector)
        for got, want in zip(again, hom[paths[keep]].evaluate(x[keep], t[keep], corrector)):
            assert np.array_equal(got, want)


def test_stacked_kernel_matches_per_row_evaluation_on_a_weddle_quartic_chart(monkeypatch):
    recorded = []

    class _Recorded(Exception):
        pass

    def record(hom, starts):
        recorded.append((hom, np.array(starts)))
        raise _Recorded

    monkeypatch.setattr(solve, "_track_paths", record)
    quartic = loci.weddle_matrix(fixtures.system("random-quartic-sys")).polynomial
    with pytest.raises(_Recorded):
        solve.singular_points(quartic)
    (hom, starts), = recorded
    assert hom.degrees.tolist() == [3, 3, 3] and len(starts) == 27 and hom.charts.tolist() == [0] * 27
    # chart 1's rows as tracked, then the same starts, roots and gamma on
    # chart 2 of the same compiled target, shuffled into one stack
    both = solve._Homotopy(
        hom.target, hom.degrees, [0] * 27 + [1] * 27, np.tile(hom.roots, (2, 1)), np.tile(hom.gamma, 2)
    )
    starts = np.tile(starts, (2, 1))
    rng = np.random.default_rng(3)
    x = starts * (1 + 0.1 * rng.standard_normal(starts.shape))
    paths = rng.permutation(len(starts))
    _assert_kernel_matches_rows(both, x, rng.random(len(starts)), paths)


def test_one_row_stack_steps_exactly_as_its_row_of_the_full_stack():
    """Rows rejected mid-step make the RK4 stages mask their tangents, and
    rows that stop make the Newton loop drop them from its stack; a
    healthy row stepped alone takes the branch where every row survives.
    Both give each row the same floats."""
    hom, _, t, paths = _random_homotopy(4, random.Random(11))
    t[:] = 1.0
    x = hom.roots[paths] ** (1.0 / hom.degrees)  # start solutions: on the paths
    x[0, 2] = 0.0  # at t = 1 the Jacobian is gamma * diag(d x^(d-1)): singular
    x[1] = np.nan  # not finite
    x[2] *= 1e9  # outside the Newton limit below
    h = np.full(len(x), 1e-4)

    def step(rows):
        return solve._rk4_step(hom[paths[rows]], x[rows], t[rows], h[rows])

    def newton(rows):
        return solve._newton(solve._correct, (hom[paths[rows]], t[rows]), x[rows], 1e-13, 4, 1e8)

    everything = slice(None)
    ok, stepped, error = step(everything)
    assert ok.tolist()[:2] == [False, False] and ok[3:].all()
    assert np.array_equal(stepped[0], x[0]) and error[0] == error[1] == np.inf
    converged, polished, first, stalled = newton(everything)
    assert not converged[:3].any() and np.isinf(first[:3]).all() and np.isfinite(first[3:]).all()
    assert not stalled[:3].any()
    for p in range(len(x)):
        alone = step(slice(p, p + 1))
        assert (alone[0][0], alone[2][0]) == (ok[p], error[p])
        assert np.array_equal(alone[1][0], stepped[p], equal_nan=True)
        alone = newton(slice(p, p + 1))
        assert (alone[0][0], alone[2][0], alone[3][0]) == (converged[p], first[p], stalled[p])
        assert np.array_equal(alone[1][0], polished[p], equal_nan=True)


def test_newton_stops_on_a_predicted_step_only_after_a_halving():
    """Row 0 steps 1e-3, then 1e-7: above tol = 1e-10, but quadratic
    convergence predicts 1e-14 / 1e-3 = 1e-11 next, so it stops after two
    steps.  Row 1 steps 1.5e-10, 1.2e-10, 1.1e-10: its prediction
    1.2e-10^2 / 1.5e-10 = 9.6e-11 is below tol, but the step did not halve,
    so it runs all three steps unconverged: stalled."""
    steps = np.array([[1e-3, 1e-7, 1e-9], [1.5e-10, 1.2e-10, 1.1e-10]])
    calls = []

    def system(y, rows):  # Jacobian 1, so each Newton step is the value
        calls.append(rows.tolist())
        return steps[rows, len(calls) - 1, np.newaxis].astype(complex), np.ones((len(rows), 1, 1))

    converged, x, first, stalled = solve._newton(system, (np.arange(2),), np.full((2, 1), 0.5 + 0j), 1e-10, 3)
    assert calls == [[0, 1], [0, 1], [1]]
    assert converged.tolist() == [True, False]
    assert stalled.tolist() == [False, True]
    assert x[0, 0] == 0.5 - 1e-3 - 1e-7 and x[1, 0] == 0.5 - 1.5e-10 - 1.2e-10 - 1.1e-10
    assert first.tolist() == [1e-3, 1.5e-10]


# ---- reporting ----

def test_solution_set_json_shape():
    result = solve.base_points(fixtures.system("cyclic-dim2"))
    data = result.to_json()
    assert set(data) >= {
        "bezout_bound",
        "paths_tracked",
        "paths_failed",
        "at_infinity",
        "certified",
        "projective",
        "count",
        "clusters",
        "notes",
        "chart_reports",
    }
    assert data["paths_tracked"] == data["bezout_bound"]
    assert data["clusters"][0]["rational_match"] == ["2", "-1"]
    assert len(data["chart_reports"]) == 1  # chart 1 meets rule A, so chart 2 is not tracked


def test_projective_runs_agree_across_seeds():
    system = fixtures.system("weddle-6pts")
    counts = set()
    for seed in (1, 2, 3):
        result = solve.base_points(system, SolveConfig(seed=seed))
        if result.certified:
            counts.add(result.count())
    assert counts == {6}


# ---- the certified count sequence ----

def test_jacobsthal_values_and_identities():
    values = [solve.jacobsthal(n) for n in range(31)]
    assert values[:9] == [0, 1, 1, 3, 5, 11, 21, 43, 85]
    assert solve.jacobsthal(13) == 2731
    for n in range(30):
        assert values[n + 1] == 2**n - values[n]
        assert 3 * values[n] == 2**n - (-1) ** n
        if n >= 1:
            assert values[n + 1] == 2 * values[n] + (-1) ** n


def test_jacobsthal_rejects_negative_indices():
    with pytest.raises(ValueError):
        solve.jacobsthal(-1)
