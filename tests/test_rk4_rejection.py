"""An RK4 step keeps one row set: a row rejected mid-step rides to its end.

A row whose stage Jacobian is singular takes a zero tangent at every later
stage, so each later stage evaluates it at its start point x; a prediction
that is not finite is replaced by x.  Either way the row runs through the
corrector with the rest and comes out with ok False, point x and error
inf, and every other row steps bit for bit as it does without it.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from weddle import solve
from weddle.polycore import MultiPoly

_REJECTED = 2


def _quadric_homotopy():
    """Six paths of one random dense system of three quadrics in three
    unknowns, each at its start point at t = 1, with a step of 0.05."""
    rng = random.Random(7)
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]

    def poly():
        return MultiPoly(3, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for m in monos})

    target = solve._Compiled([poly() for _ in range(3)])
    starts, roots, gamma = solve._draw_start([2, 2, 2], rng)
    x = np.array(starts[:6], dtype=np.complex128)
    charts, roots = np.zeros(6, dtype=np.int64), np.repeat([roots], 6, axis=0)
    hom = solve._Homotopy(target, [2, 2, 2], charts, roots, np.full(6, gamma))
    return hom, x, np.ones(6), np.full(6, 0.05)


def _record_evaluations(monkeypatch):
    """Every _Homotopy.evaluate call as (points, t, corrector)."""
    calls = []
    evaluate = solve._Homotopy.evaluate

    def recording(self, x, t, corrector=False):
        calls.append((x.copy(), np.array(t), corrector))
        return evaluate(self, x, t, corrector)

    monkeypatch.setattr(solve._Homotopy, "evaluate", recording)
    return calls


def _patch_stage(monkeypatch, stage, change):
    """Let change(ok, y) rewrite the output of the RK4 stage with the given
    index (0-3): the first four _solve_stack calls of a step are its
    stages, the corrector's come after."""
    calls = []
    solve_stack = solve._solve_stack

    def patched(a, b):
        ok, y = solve_stack(a, b)
        calls.append(1)
        return change(ok, y) if len(calls) == stage + 1 else (ok, y)

    monkeypatch.setattr(solve, "_solve_stack", patched)


def _assert_the_others_step_as_without_it(hom, x, t, h, ok, points, error):
    others = np.array([p for p in range(len(x)) if p != _REJECTED])
    alone = solve._rk4_step(hom[others], x[others], t[others], h[others])
    assert ok[others].tolist() == alone[0].tolist() and all(alone[0].tolist())
    assert np.array_equal(points[others], alone[1]) and np.array_equal(error[others], alone[2])


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_a_row_rejected_at_a_stage_is_evaluated_at_its_start_point_after_it(monkeypatch, stage):
    hom, x, t, h = _quadric_homotopy()

    def reject(ok, y):
        ok = np.ones(len(y), dtype=bool) if ok is np.True_ else ok
        ok[_REJECTED], y[_REJECTED] = False, 0.0
        return ok, y

    with monkeypatch.context() as patch:
        _patch_stage(patch, stage, reject)
        calls = _record_evaluations(patch)
        ok, points, error = solve._rk4_step(hom, x, t, h)
    stages = [c for c in calls if not c[2]]
    assert len(stages) == 4 and all(len(y) == len(x) for y, _, _ in calls)
    for y, _, _ in stages[stage + 1 :]:
        assert np.array_equal(y[_REJECTED], x[_REJECTED])
    # the corrector starts the rejected row at x, at t - h with the rest
    y, s, _ = next(c for c in calls if c[2])
    assert np.array_equal(y[_REJECTED], x[_REJECTED]) and np.array_equal(s, t - h)
    assert not ok[_REJECTED] and error[_REJECTED] == np.inf
    assert np.array_equal(points[_REJECTED], x[_REJECTED])
    _assert_the_others_step_as_without_it(hom, x, t, h, ok, points, error)


def test_a_prediction_that_is_not_finite_is_rejected_at_its_start_point(monkeypatch):
    hom, x, t, h = _quadric_homotopy()

    def blow_up(ok, y):
        y[_REJECTED] = np.nan
        return ok, y

    with monkeypatch.context() as patch:
        _patch_stage(patch, 3, blow_up)
        calls = _record_evaluations(patch)
        ok, points, error = solve._rk4_step(hom, x, t, h)
    y, _, _ = next(c for c in calls if c[2])
    assert np.array_equal(y[_REJECTED], x[_REJECTED])
    assert not ok[_REJECTED] and error[_REJECTED] == np.inf
    assert np.array_equal(points[_REJECTED], x[_REJECTED])
    _assert_the_others_step_as_without_it(hom, x, t, h, ok, points, error)


def test_a_rejected_row_whose_corrector_converges_is_still_rejected(monkeypatch):
    """Row 2 is rejected at k1, with a step so short that its corrector,
    from its start point at t - h, converges: it is reported rejected all
    the same."""
    hom, x, t, h = _quadric_homotopy()
    h[_REJECTED] = 1e-6
    converged = []
    newton = solve._newton

    def recording(*args):
        out = newton(*args)
        converged.append(out[0].copy())
        return out

    def reject(ok, y):
        ok = np.ones(len(y), dtype=bool)
        ok[_REJECTED], y[_REJECTED] = False, 0.0
        return ok, y

    with monkeypatch.context() as patch:
        _patch_stage(patch, 0, reject)
        patch.setattr(solve, "_newton", recording)
        ok, points, error = solve._rk4_step(hom, x, t, h)
    assert converged[0][_REJECTED]
    assert not ok[_REJECTED] and error[_REJECTED] == np.inf
    assert np.array_equal(points[_REJECTED], x[_REJECTED])
