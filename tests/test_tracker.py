"""The lockstep path tracker against a one-path-at-a-time reference.

The reference below tracks one path at a time with scalar code: the
tracker that solve.py used before paths were tracked together on stacked
arrays, with the step control that sizes each accepted step from the
corrector's first update.  The lockstep tracker performs the same
floating-point operations per path in the same order, so statuses and
endpoints must agree exactly, not within a tolerance.  One lockstep stack
can hold the paths of both charts of a solve, so the reference tracks each
path on its own chart's target with its own start roots and gamma.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from weddle import cli, fixtures, loci, solve
from weddle.polycore import parse_poly


# ---- the scalar reference ----

def _ref_value(compiled, x):
    mono = np.prod(x[np.newaxis, :] ** compiled.exponents, axis=1)
    return compiled.coeff @ mono


def _ref_jacobian(compiled, x):
    cols = []
    for v in range(compiled.nvars):
        mult = compiled.exponents[:, v].astype(np.float64)
        shifted = compiled.exponents.copy()
        shifted[:, v] = np.maximum(shifted[:, v] - 1, 0)
        mono = np.prod(x[np.newaxis, :] ** shifted, axis=1)
        cols.append((compiled.coeff * mult) @ mono)
    return np.stack(cols, axis=1)


class _RefTarget:
    """One chart's system of a stacked compiled target."""

    def __init__(self, compiled, chart):
        self.nvars = compiled.nvars
        self.exponents = compiled.exponents
        self.coeff = compiled.coeff[chart]


class _RefHomotopy:
    """The homotopy of one path of a stacked homotopy."""

    def __init__(self, hom, path):
        self.target = _RefTarget(hom.target, hom.charts[path])
        self.degrees = hom.degrees
        self.roots = hom.roots[path]
        self.gamma = hom.gamma[path]

    def start_value(self, x):
        return x ** self.degrees - self.roots

    def value(self, x, t):
        return self.gamma * t * self.start_value(x) + (1.0 - t) * _ref_value(self.target, x)

    def jacobian(self, x, t):
        start = np.diag(self.degrees * x ** (self.degrees - 1))
        return self.gamma * t * start + (1.0 - t) * _ref_jacobian(self.target, x)

    def t_derivative(self, x):
        return self.gamma * self.start_value(x) - _ref_value(self.target, x)


def _tangent(hom, x, t):
    return np.linalg.solve(hom.jacobian(x, t), -hom.t_derivative(x))


def _converged(k, size, previous, tol, scale):
    """The step is below tol relative to the norm, or (from the second step
    on) it at least halved and the next step quadratic convergence predicts,
    size^2 / previous, is."""
    if size < tol * scale:
        return True
    return k > 0 and size * size / previous < tol * scale and size < 0.5 * previous


def _newton(hom, x, t, tol, iterations):
    """Returns (converged, point, first step relative to the point's norm)."""
    first = previous = np.inf
    for k in range(iterations):
        try:
            delta = np.linalg.solve(hom.jacobian(x, t), hom.value(x, t))
        except np.linalg.LinAlgError:
            return False, x, first
        x = x - delta
        if not np.all(np.isfinite(x)):
            return False, x, first
        size, scale = np.linalg.norm(delta), max(1.0, np.linalg.norm(x))
        if k == 0:
            first = size / scale
        if _converged(k, size, previous, tol, scale):
            return True, x, first
        previous = size
    return False, x, first


def _rk4_step(hom, x, t, h):
    try:
        k1 = _tangent(hom, x, t)
        k2 = _tangent(hom, x - 0.5 * h * k1, t - 0.5 * h)
        k3 = _tangent(hom, x - 0.5 * h * k2, t - 0.5 * h)
        k4 = _tangent(hom, x - h * k3, t - h)
    except np.linalg.LinAlgError:
        return False, x, np.inf
    predicted = x - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(predicted)):
        return False, x, np.inf
    return _newton(hom, predicted, t - h, solve._TRACK_TOL, solve._CORRECTOR_ITERATIONS)


def _polish(target, x):
    previous = np.inf
    for k in range(solve._POLISH_ITERATIONS):
        try:
            delta = np.linalg.solve(_ref_jacobian(target, x), _ref_value(target, x))
        except np.linalg.LinAlgError:
            return x, False
        x = x - delta
        if not np.all(np.isfinite(x)):
            return x, False
        if np.linalg.norm(x) > solve._DIVERGENCE_THRESHOLD:
            return x, False
        size = np.linalg.norm(delta)
        if _converged(k, size, previous, 1e-13, max(1.0, np.linalg.norm(x))):
            return x, True
        previous = size
    return x, None  # stalled: every iteration taken without converging


def _step_factor(error):
    # One-element arrays, so that the power is numpy's array power, as in the
    # lockstep tracker (a float or numpy scalar power may round differently).
    error = np.array([max(error, 1e-300)])
    return float(np.clip(0.8 * (solve._PREDICTOR_TOL / error) ** 0.2, 0.5, 2.0)[0])


def _track_path(hom, start_point):
    x = np.array(start_point, dtype=np.complex128)
    t = 1.0
    h = solve._INITIAL_STEP
    endgame_norm = None
    while t > solve._T_STOP:
        if np.linalg.norm(x) > solve._DIVERGENCE_THRESHOLD:
            return "at_infinity", x
        if endgame_norm is None and t < solve._ENDGAME_T:
            endgame_norm = max(1.0, float(np.linalg.norm(x)))
        step = min(h, 0.9 * t) if t < solve._ENDGAME_T else min(h, t)
        ok, x_new, error = _rk4_step(hom, x, t, step)
        if ok:
            x = x_new
            t -= step
            h = step * _step_factor(error)
        else:
            h *= 0.5
            if h < max(1e-16, solve._MIN_STEP * min(1.0, t)):
                if t >= solve._ENDGAME_T:
                    return "failed", x
                break
    norm = float(np.linalg.norm(x))
    if norm > solve._DIVERGENCE_THRESHOLD:
        return "at_infinity", x
    if endgame_norm is not None and norm > 32.0 * endgame_norm and norm > 100.0:
        return "at_infinity", x
    polished, converged = _polish(hom.target, x)
    jump = float(np.linalg.norm(polished - x))
    if converged is None and jump <= solve._CLUSTER_RADIUS * max(1.0, norm):
        return "stalled", polished
    if converged:
        if jump <= 0.05 * max(1.0, norm):
            return "finite", polished
        return ("at_infinity", x) if norm > 100.0 else ("failed", x)
    if np.all(np.isfinite(polished)) and np.linalg.norm(polished) > solve._DIVERGENCE_THRESHOLD:
        return "at_infinity", polished
    return "failed", x


# ---- lockstep vs reference, path by path ----

def _recorded_homotopies(monkeypatch, run, limit=None):
    """Run ``run()`` and return every (homotopy, starts, statuses, endpoints)
    the lockstep tracker saw, stopping the solve after ``limit`` calls."""
    calls = []
    tracker = solve._track_paths

    class _Enough(Exception):
        pass

    def recording(hom, starts):
        statuses, endpoints = tracker(hom, starts)
        calls.append((hom, starts, statuses, endpoints))
        if limit is not None and len(calls) >= limit:
            raise _Enough
        return statuses, endpoints

    monkeypatch.setattr(solve, "_track_paths", recording)
    try:
        run()
    except _Enough:
        pass
    assert calls
    return calls


def _assert_matches_reference(calls):
    seen = set()
    for hom, starts, statuses, endpoints in calls:
        assert len(statuses) == len(starts) == len(endpoints)
        for path, (start, status, endpoint) in enumerate(zip(starts, statuses, endpoints)):
            ref_status, ref_endpoint = _track_path(_RefHomotopy(hom, path), start)
            assert status == ref_status
            assert np.array_equal(endpoint, ref_endpoint)
            seen.add(status)
    return seen


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_lockstep_matches_reference_on_cyclic_systems(monkeypatch, dim):
    _, system, _ = loci.sample_general_cyclic(dim, rng=random.Random(100 + dim))
    calls = _recorded_homotopies(monkeypatch, lambda: solve.base_points(system))
    assert "finite" in _assert_matches_reference(calls)


def _count_calls(monkeypatch, owner, name):
    """Run the four seeded solves above and count the calls of owner.name."""
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    for dim in (2, 3, 4, 5):
        _, system, _ = loci.sample_general_cyclic(dim, rng=random.Random(100 + dim))
        solve.base_points(system)
    return len(calls)


def test_predictor_error_control_keeps_the_lockstep_iteration_count(monkeypatch):
    """Lockstep iterations (_rk4_step calls) of the four seeded solves
    above.  The controller that grew a step by 1.25 after every 4 accepted
    steps, capped at 0.1, needed 41 + 57 + 56 + 144 = 298; sizing each step
    from the corrector's estimate of the predictor error needed
    33 + 51 + 49 + 66 = 199; a corrector that also stops on a predicted
    step below tolerance needed 26 + 38 + 33 + 65 = 162 with both charts in
    one stack, and tracking chart 2 only on demand (none of these four
    solves needs it) needs 9 + 36 + 32 + 35 = 112."""
    assert _count_calls(monkeypatch, solve, "_rk4_step") <= 112


def test_predicted_convergence_cuts_the_homotopy_evaluations(monkeypatch):
    """Homotopy evaluations (four RK4 stages plus the corrector's Newton
    iterations per lockstep iteration) of the same four solves: 1356 when a
    corrector row stopped only on a step below tolerance, 1088 with the
    predicted-step rule, and 747 with chart 2 tracked only on demand."""
    assert _count_calls(monkeypatch, solve._Homotopy, "evaluate") <= 750


def test_each_lockstep_iteration_gathers_its_rows_once(monkeypatch):
    """Homotopy takes of the same four solves: each gathers the coefficient
    tables, roots and gamma of its rows once.  _rk4_step takes its rows
    once (112), again where a stage rejects a row or a prediction is not
    finite, and the corrector again for each iteration after a row stops:
    189 in all.  When every evaluation gathered its rows, the 747
    evaluations above made 747 gathers."""
    assert _count_calls(monkeypatch, solve._Homotopy, "take") <= 189


def test_the_running_paths_are_taken_once_per_change_of_the_running_set(monkeypatch):
    """Homotopy takes of the same four solves when _track_paths keeps its
    running paths' homotopy from one iteration to the next: taken again
    only when a path stops, by an RK4 stage that rejects a row or a
    prediction that is not finite, and by the corrector once per change
    of its iterating rows: 98, against 189 above when _rk4_step took its
    rows at every iteration."""
    assert _count_calls(monkeypatch, solve._Homotopy, "take") <= 98


@pytest.mark.parametrize("factor",[Fraction(2**20), Fraction(1, 2**20)])
def test_tracking_is_invariant_under_rescaling_every_quadric(monkeypatch, factor):
    """Each chart target row is divided exactly by its largest coefficient
    before tracking, so multiplying every quadric by the same positive
    factor leaves every tracker call bit-identical.  Only the tracker output
    is compared here; the residuals are relative too, and tests/test_solve.py
    checks that rescaling keeps certified counts."""
    _, system, _ = loci.sample_general_cyclic(4, rng=random.Random(104))
    scaled = loci.LinearSystem(
        system.n, [[[x * factor for x in row] for row in q] for q in system.quadrics]
    )
    plain = _recorded_homotopies(monkeypatch, lambda: solve.base_points(system))
    monkeypatch.undo()
    rescaled = _recorded_homotopies(monkeypatch, lambda: solve.base_points(scaled))
    assert len(plain) == len(rescaled)
    for (_, _, statuses, endpoints), (_, _, scaled_statuses, scaled_endpoints) in zip(plain, rescaled):
        assert scaled_statuses == statuses
        assert np.array_equal(scaled_endpoints, endpoints)


def test_lockstep_matches_reference_on_degenerate_conics(monkeypatch):
    # at seed 4 the one stack has failed paths and two endpoints that meet,
    # with the default and the Prescott OpenBLAS kernels alike
    system = fixtures.system("degenerate-conics")
    calls = _recorded_homotopies(monkeypatch, lambda: solve.base_points(system, solve.SolveConfig(4)))
    seen = _assert_matches_reference(calls)
    assert {"finite", "failed"} <= seen
    assert any(_meets_itself(statuses, endpoints) for _, _, statuses, endpoints in calls)


def test_lockstep_matches_reference_where_the_polish_stalls(monkeypatch):
    # the conics touch at two double points, where Newton converges only
    # linearly and the polish stalls
    polys = [parse_poly(text, nvars=3) for text in ("x0^2 + x1^2 - 2*x2^2", "x0*x1 - x2^2")]
    calls = _recorded_homotopies(
        monkeypatch, lambda: solve._projective_solve(polys, [2, 2], random.Random(0))
    )
    assert "stalled" in _assert_matches_reference(calls)


def _meets_itself(statuses, endpoints):
    """Whether two finite endpoints coincide (a double point)."""
    finite = [x for status, x in zip(statuses, endpoints) if status in ("finite", "stalled")]
    return any(
        np.linalg.norm(a - b) < 1e-6 for i, a in enumerate(finite) for b in finite[i + 1 :]
    )


def test_lockstep_matches_reference_on_a_weddle_quartic_chart(monkeypatch):
    quartic = loci.weddle_matrix(fixtures.system("random-quartic-sys")).polynomial
    calls = _recorded_homotopies(monkeypatch, lambda: solve.singular_points(quartic), limit=1)
    (hom, starts, _, _), = calls
    assert list(hom.degrees) == [3, 3, 3]
    assert "finite" in _assert_matches_reference(calls)


def test_lockstep_matches_reference_where_paths_stop_for_different_reasons():
    """One stack whose paths stop at different iterations: on x^2 + 1 with
    gamma 1 both paths meet at x = 0 at t = 1/2, where the step collapses
    before the endgame (failed); on x - 2 one path diverges while tracking
    (at infinity); the rest reach t <= _T_STOP, on simple roots and on the
    double root of x^2.  Each path stops with its own status and endpoint,
    bit for bit those of tracking it alone."""
    systems = ("x0^2 + 1", "x0 - 2", "x0^2 - 3", "x0^2")
    target = solve._Compiled(*([parse_poly(text, nvars=1)] for text in systems))
    charts = np.repeat(np.arange(len(systems)), 2)
    gammas = np.array([1.0, 0.6 + 0.8j, -0.28 + 0.96j, 0.8 - 0.6j])[charts]
    hom = solve._Homotopy(target, [2], charts, np.ones((len(charts), 1)), gammas)
    starts = [[1.0], [-1.0]] * len(systems)
    statuses, endpoints = solve._track_paths(hom, starts)
    assert statuses[:4] == ["failed", "failed", "finite", "at_infinity"]
    assert _assert_matches_reference([(hom, starts, statuses, endpoints)]) == {"failed", "finite", "at_infinity"}


# ---- Newton on the rows still iterating ----

def _scripted_system(steps, singular=()):
    """system(y, rows, ids): for _newton's rows, the rows ids[rows] of
    steps (shape (rows, iterations)), iteration k stepping row p by
    steps[p, k] along a unit direction of its own, through a Jacobian of
    its own that is zero (singular) at each (row, iteration) in singular.
    Returns (system, calls), calls listing the rows of each call."""
    rng = np.random.default_rng(5)
    n = 2
    direction = rng.standard_normal((len(steps), n)) + 1j * rng.standard_normal((len(steps), n))
    direction /= np.linalg.norm(direction, axis=1)[:, np.newaxis]
    jacobians = rng.standard_normal((len(steps), n, n)) + 1j * rng.standard_normal((len(steps), n, n))
    calls = []

    def system(y, rows, ids):
        k = len(calls)
        calls.append(rows.tolist())
        jacobian = jacobians[ids[rows]].copy()
        for p, q in enumerate(ids[rows]):
            if (q, k) in singular:
                jacobian[p] = 0
        step = steps[ids[rows], k, np.newaxis] * direction[ids[rows]]
        return _matvec(jacobian, step), jacobian

    return system, calls


def _matvec(a, v):
    return np.matmul(a, v[..., np.newaxis])[..., 0]


def _newton_rows_alone(steps, singular, x):
    """_newton on the whole stack, and on each row alone (the same scripted
    system), with the number of calls each row's own run made."""
    whole, calls = _scripted_system(steps, singular)
    ids = np.arange(len(x))
    stacked = solve._newton(lambda y, rows: whole(y, rows, ids), x, 1e-10, steps.shape[1])
    alone = []
    for p in range(len(x)):
        single, single_calls = _scripted_system(steps, singular)
        result = solve._newton(lambda y, rows: single(y, rows, np.array([p])), x[p : p + 1], 1e-10, steps.shape[1])
        alone.append((result, len(single_calls)))
    return stacked, calls, alone


def _assert_rows_as_alone(stacked, alone):
    converged, points, first, stalled = stacked
    for p, ((c, y, f, s), _) in enumerate(alone):
        assert (c[0], f[0], s[0]) == (converged[p], first[p], stalled[p])
        assert np.array_equal(y[0], points[p])


def test_newton_rows_that_all_iterate_to_the_end_match_each_row_alone():
    steps = np.array([[1e-2, 1e-2, 1e-2], [3e-3, 2e-3, 1.5e-3], [0.5, 0.4, 0.3]])
    x = np.array([[1 + 1j, 2], [0.5j, -1], [3, 3 - 1j]])
    stacked, calls, alone = _newton_rows_alone(steps, (), x)
    assert calls == [[0, 1, 2]] * 3
    assert stacked[3].all() and not stacked[0].any()
    _assert_rows_as_alone(stacked, alone)
    assert not np.shares_memory(stacked[1], x) and np.array_equal(x, [[1 + 1j, 2], [0.5j, -1], [3, 3 - 1j]])


def test_newton_rows_that_stop_at_different_iterations_match_each_row_alone():
    """Row 0 converges at iteration 1 (a step below tolerance), row 1 at
    iteration 2 (a predicted step), row 2 at iteration 3; row 3 is singular
    at iteration 2 and keeps the point of iteration 1; row 4 stalls."""
    steps = np.array(
        [[1e-12, 0, 0], [1e-3, 1e-7, 0], [1e-2, 1e-3, 1e-12], [1e-2, 1e-3, 0], [1.5e-10, 1.2e-10, 1.1e-10]]
    )
    x = np.array([[1, 1j], [2, 0.5], [-1j, 3], [1 + 1j, 1 - 1j], [0.25, 0.5]])
    stacked, calls, alone = _newton_rows_alone(steps, {(3, 1)}, x)
    assert calls == [[0, 1, 2, 3, 4], [1, 2, 3, 4], [2, 4]]
    converged, points, first, stalled = stacked
    assert converged.tolist() == [True, True, True, False, False]
    assert stalled.tolist() == [False, False, False, False, True]
    assert [n for _, n in alone] == [1, 2, 3, 2, 3]
    _assert_rows_as_alone(stacked, alone)
    # the singular row keeps its point of iteration 1
    single, _ = _scripted_system(steps)
    _, once, _, _ = solve._newton(lambda y, rows: single(y, rows, np.array([3])), x[3:4], 1e-10, 1)
    assert np.array_equal(points[3], once[0])


# ---- chart 2 only on demand ----

def test_both_charts_share_one_compiled_target(monkeypatch):
    # chart 1 meets rule A here, so chart 2 is compiled but never tracked
    _, system, _ = loci.sample_general_cyclic(3, rng=random.Random(103))
    calls = _recorded_homotopies(monkeypatch, lambda: solve.base_points(system))
    (hom, starts, statuses, _), = calls
    assert len(starts) == 4
    assert hom.charts.tolist() == [0] * 4
    assert hom.target.coeff.shape[:2] == (2, 2)  # charts, rows
    assert "failed" not in statuses
    # no finite count certifies here, so chart 2 is tracked on the same target
    monkeypatch.undo()
    conics = fixtures.system("degenerate-conics")
    (first, *_), (second, *_) = _recorded_homotopies(monkeypatch, lambda: solve.base_points(conics))
    assert first.charts.tolist() == [0] * 4 and second.charts.tolist() == [1] * 4
    assert second.target is first.target


def test_chart_1_alone_tracks_as_in_one_stack_with_chart_2(monkeypatch):
    """Every solve here certifies on chart 1, so it tracks chart 1 alone.
    Its statuses and endpoints must be, bit for bit, those of its rows
    tracked in one stack with chart 2's rows from chart 2's start draw,
    which is how both charts were tracked when every solve tracked both."""
    for dim in (2, 3, 4, 5):
        for seed in range(3):
            _, system, _ = loci.sample_general_cyclic(dim, rng=random.Random(10 * dim + seed))
            draws, results = [], []
            with monkeypatch.context() as patch:
                draw = solve._draw_start
                patch.setattr(solve, "_draw_start", lambda *args: draws.append(draw(*args)) or draws[-1])
                calls = _recorded_homotopies(
                    patch, lambda: results.append(solve.base_points(system, solve.SolveConfig(seed)))
                )
            (result,) = results
            assert result.certified and len(result.chart_reports) == 1
            (hom, _, statuses, endpoints), = calls
            # both charts' draws in one stack on the same compiled target
            starts, roots, gammas = zip(*draws)
            size = len(statuses)
            both = solve._Homotopy(
                hom.target,
                hom.degrees,
                np.repeat([0, 1], size),
                np.repeat(roots, size, axis=0),
                np.repeat(gammas, size),
            )
            joint_statuses, joint_endpoints = solve._track_paths(both, np.concatenate(starts))
            assert joint_statuses[:size] == statuses
            assert np.array_equal(joint_endpoints[:size], endpoints)
    # a positive-dimensional base locus fails rule A on chart 1, so both
    # charts are tracked, and the solve still comes back uncertified
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["basepoints", "degenerate-conics", "--json"])
    solution = json.loads(out.getvalue())["outputs"]["solution_set"]
    assert code == 1 and not solution["certified"]
    assert len(solution["chart_reports"]) == 2


def test_degenerate_conics_are_never_certified():
    """The conics of this fixture share a line, so no finite count is right
    and no seed may certify one."""
    system = fixtures.system("degenerate-conics")
    assert not any(solve.base_points(system, solve.SolveConfig(seed)).certified for seed in range(5))


# ---- the stacked linear solve ----

def test_singular_matrix_rejects_only_its_own_row():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    a[2] = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a[2], b[2])
    ok, y = solve._solve_stack(a, b)
    assert ok.tolist() == [True, True, False, True, True]
    for i in (0, 1, 3, 4):
        assert np.array_equal(y[i], np.linalg.solve(a[i], b[i]))


@pytest.mark.parametrize("n", [1, 5])
def test_stack_solve_matches_numpy_solve_bit_for_bit(n):
    # n = 1 is a dim-2 chart (one unknown); n = 5 is one more unknown than any chart
    rng = np.random.default_rng(10 + n)
    a = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
    b = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
    ok, y = solve._solve_stack(a, b)
    assert ok.all()
    assert np.array_equal(y, np.linalg.solve(a, b[..., np.newaxis])[..., 0])
    for i in range(7):
        assert np.array_equal(y[i], np.linalg.solve(a[i], b[i]))


@pytest.mark.parametrize("n", [1, 5])
def test_stack_solve_of_an_empty_stack(n):
    a, b = np.zeros((0, n, n), dtype=complex), np.zeros((0, n), dtype=complex)
    ok, y = solve._solve_stack(a, b)
    assert ok.all()
    assert y.shape == np.linalg.solve(a, b[..., np.newaxis])[..., 0].shape == (0, n)


def test_a_stack_of_singular_matrices_rejects_every_row():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    for i, column in enumerate([0, 1, 2, 1]):
        a[i, :, column] = 0  # elimination meets an exactly zero pivot
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    for i in range(4):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a[i], b[i])
    ok, y = solve._solve_stack(a, b)
    assert ok.tolist() == [False] * 4
    assert y.shape == b.shape and not y.any()


def test_nonsingular_stack_matches_row_by_row_solves():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    b = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    ok, y = solve._solve_stack(a, b)
    assert ok.all()
    for i in range(6):
        assert np.array_equal(y[i], np.linalg.solve(a[i], b[i]))


def test_row_norms_match_single_vector_norms():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 4)) * 1e3 + 1j * rng.standard_normal((50, 4))
    norms = solve._norms(x)
    assert all(norms[i] == np.linalg.norm(x[i]) for i in range(len(x)))
