"""Desk-scale numerical algebraic geometry.

Certified projective point counts: base points of quadric systems and
singular points of hypersurfaces, both through one solve path
(_projective_solve).  A square subsystem of random combinations is
dehomogenized onto two random rational charts, and each chart runs a
total-degree homotopy of at most _MAX_PATHS Bezout paths (each degree
counted as at least 2), the package's one size limit.  Each row of a chart's
target, and of the polynomials a solve filters by, is divided exactly by its
largest coefficient magnitude (_unit_row).  This keeps large coefficients
from collapsing the first steps, makes tracking exactly invariant under
multiplying every input polynomial by one positive rational factor, and
makes every residual invariant under multiplying any input polynomial by a
nonzero rational factor.  Chart 2 is tracked only on demand: round 1
tracks chart 1's Bezout paths in one stack (_track_paths), and round 2
tracks chart 2's only when chart 1 alone fails rule A below.  Each path is
tracked once and has its own chart, start roots, gamma, t, step size and
status, every iteration advances the paths still running with one stacked
RK4 predictor step and Newton corrector, and a final Newton polish on each
path's chart target (_settle) classifies each endpoint as finite, stalled
(finite, but where the polish stalls, as it does at a multiple root), at
infinity or failed.  A path's next step follows from the corrector's first
update, which estimates the predictor's local error; Newton stops on a
step below tolerance, or on a predicted next step below it once the steps
converge quadratically.
Each lockstep iteration takes the homotopy of its running paths once
(_Homotopy.take): each path's coefficient tables, start roots and gamma
are gathered into arrays with one row per path, and gathered again only
when a stage drops a row.  Every stage then evaluates the target once for
the whole stack (_Compiled.apply): one table of monomial values and one
batched matvec against the gathered tables give value and Jacobian, each
stage returns only what its caller uses, and its linear solves are one
LAPACK call (_solve_stack).  Each output entry is the dot product a path
tracked alone forms, so a path's floats do not depend on its stack.
One pass per tracked chart (_finish) lifts its finite endpoints as one
array (_lift), marks by masks in its one status array those at infinity
or stalled alone, and hands the rest to one routine (_certify) that
clusters, residual-filters and rationally cross-checks them.  Endpoints
are one point when connected in the graph of endpoints within
_CLUSTER_RADIUS (_components).  A solve is certified by one rule:
(A) the finite endpoints of the tracked charts are exactly Bezout-many
distinct points, each nonsingular for the square system (by the refined
Bezout theorem this proves the square system finite and completely
solved, so chart 1 alone suffices when it meets this), and
(B) every survivor's relative residual is at most _RESIDUAL_TOL, with no
rational mismatch.  Anything else is reported uncertified, not guessed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg  # the gufunc behind np.linalg.solve

from .polycore import MultiPoly, clear_denominators, primitive_vector, projectively_equal


@dataclass(frozen=True)
class SolveConfig:
    """The one run-time setting of a solve: the seed of its random choices
    (square subsystem, charts, start system and gamma).  Every threshold is
    a module constant, so a certificate never depends on a caller's knob."""

    seed: int = 0


DEFAULT_CONFIG = SolveConfig()

# The one size limit: Bezout paths per chart, the product of the degrees with
# each counted as at least 2, since cost grows with the unknowns too (a linear
# system in k unknowns counts 2^k).  27 admits a quartic surface's singularities.
_MAX_PATHS = 27
_T_STOP = 1e-14
_PHASE_TOL = 1e-9

# Certification (residuals are relative: on _unit_row polynomials at a
# unit-norm point): a cluster certifies when its best residual is at most
# _RESIDUAL_TOL; a projective survivor needs a filter residual below
# _FILTER_TOL; endpoints closer than _CLUSTER_RADIUS (chordal) are one point;
# a finite endpoint is nonsingular when its chart Jacobian has
# sigma_min / sigma_max above _SIGMA_RATIO; rational reconstruction uses
# heights up to _RATIONAL_HEIGHT.
_RESIDUAL_TOL = 1e-8
_FILTER_TOL = 1e-6
_CLUSTER_RADIUS = 1e-6
_SIGMA_RATIO = 1e-8
_RATIONAL_HEIGHT = 32
# Tracking: step control (first step, collapse floor, and the predictor error
# an accepted step is sized for), Newton corrector and polish, and divergence.
_TRACK_TOL = 1e-10
_INITIAL_STEP = 0.05
_MIN_STEP = 1e-11
_PREDICTOR_TOL = 1e-4
_ENDGAME_T = 1e-4
_DIVERGENCE_THRESHOLD = 1e8
_CORRECTOR_ITERATIONS = 3
_POLISH_ITERATIONS = 50


# ---- points and clusters ----

@dataclass(frozen=True)
class Cluster:
    """point holds complex double coordinates; a projective one is
    normalized as _lift normalizes it."""

    point: tuple
    multiplicity: int
    residual: float
    rational: Optional[tuple] = None

    def to_json(self) -> dict:
        return {
            "point": [[c.real, c.imag] for c in self.point],
            "multiplicity": self.multiplicity,
            "residual": self.residual,
            "rational_match": None if self.rational is None else [str(q) for q in self.rational],
        }


def _sort_key(cluster: Cluster) -> tuple:
    return tuple((round(c.real, 9), round(c.imag, 9)) for c in cluster.point)


@dataclass(frozen=True)
class SolutionSet:
    """Clustered output of one projective solve.

    Path statistics describe the first chart; per-chart numbers live in
    chart_reports.  They count one status per Bezout path, so
    paths_tracked + paths_failed == bezout_bound, with paths_tracked
    counting finite endpoints plus paths that diverged to infinity.
    """

    clusters: tuple
    bezout_bound: int
    paths_tracked: int
    paths_failed: int
    at_infinity: int
    certified: bool
    notes: tuple = ()
    chart_reports: tuple = ()

    def count(self) -> int:
        return len(self.clusters)

    def to_json(self) -> dict:
        return {
            "bezout_bound": self.bezout_bound,
            "paths_tracked": self.paths_tracked,
            "paths_failed": self.paths_failed,
            "at_infinity": self.at_infinity,
            "certified": self.certified,
            "projective": True,
            "count": self.count(),
            "clusters": [c.to_json() for c in self.clusters],
            "notes": list(self.notes),
            "chart_reports": [dict(r) for r in self.chart_reports],
        }


# ---- compiled evaluation ----

class _Compiled:
    """Union-monomial tables for fast complex evaluation of one or more
    systems of equal size at one point (shape (nvars,)) or a stack of
    points (shape (..., nvars)), each row on its own system.

    coeff[k] is system k's table on the union of all supports, zero where
    system k lacks a monomial.  apply computes one table of monomial values
    per point: the monomials together with the monomial of each term's
    partial derivative in each variable.  One coefficient stack of shape
    (systems, 1 + nvars, rows, monomials) holds each system's value table
    followed by its derivative table in each variable, and one index array
    of shape (1 + nvars, monomials) picks the matching monomial values, so
    a stack of points is evaluated with one gather of its monomial values
    and one stacked matvec against the rows of the coefficient stack it is
    given: a point's monomials are computed once.
    """

    def __init__(self, *systems: Sequence[MultiPoly]):
        polys = [p for system in systems for p in system]
        if not polys:
            raise ValueError("empty system")
        nvars = polys[0].nvars
        if any(p.nvars != nvars for p in polys):
            raise ValueError("mixed variable counts")
        monos = sorted({m for p in polys for m in p.terms}) or [(0,) * nvars]
        self.nvars = nvars
        self.exponents = np.array(monos, dtype=np.int64)
        index = {m: i for i, m in enumerate(monos)}
        coeff = np.zeros((len(systems), len(systems[0]), len(monos)), dtype=np.complex128)
        for k, system in enumerate(systems):
            for r, p in enumerate(system):
                for m, c in p.terms.items():
                    coeff[k, r, index[m]] = complex(c)
        self.coeff = coeff
        # The derivative of a term along variable v lowers its exponent of v
        # by one (a term constant in v gets multiplier 0 in its table).
        shifted = [
            [m[:v] + (max(m[v] - 1, 0),) + m[v + 1 :] for m in monos] for v in range(nvars)
        ]
        table = sorted(set(monos).union(*shifted))
        position = {m: i for i, m in enumerate(table)}
        self._table = np.array(table, dtype=np.int64)
        self._index = np.array([[position[m] for m in ms] for ms in [monos, *shifted]], dtype=np.int64)
        # Each output entry is one BLAS dot product of one table row with
        # one vector of monomial values, the product evaluating that point
        # alone forms, so slicing the tables from one stack moves no bit.
        derivatives = [coeff * e for e in self.exponents.T.astype(np.float64)]
        self._stack = np.stack([coeff, *derivatives], axis=1)

    def value(self, x: np.ndarray) -> np.ndarray:
        """The first system's value at x."""
        return _matvec(self.coeff[0], _monomials(x, self.exponents))

    def value_and_jacobian(self, x: np.ndarray, systems):
        """(value, Jacobian) at each point of the stack x, row p on system
        systems[p]: apply on those systems' gathered coefficient tables."""
        return self.apply(x, self._stack[systems])

    def apply(self, x: np.ndarray, stack: np.ndarray):
        """(value, Jacobian) at each point of the stack x, row p on the
        coefficient tables stack[p] (rows gathered from self._stack), from
        one monomial table and one stacked matvec; the Jacobian is a view
        into the same product."""
        table = _monomials(x, self._table)
        out = _matvec(stack, table[..., self._index])
        return out[..., 0, :], out[..., 1:, :].swapaxes(-1, -2)


def _monomials(x: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    return np.multiply.reduce(x[..., np.newaxis, :] ** exponents, axis=-1)


def _matvec(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ v for every v in a stack (with one matrix per v when matrix
    is a stack too), one BLAS matvec per vector."""
    return np.matmul(matrix, vectors[..., np.newaxis])[..., 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex stack, rounded exactly as
    np.linalg.norm rounds a single vector (a dot product of the real parts
    plus one of the imaginary parts); np.linalg.norm(x, axis=-1) sums in
    another order and can differ in the last bit."""
    re, im = x.real[..., np.newaxis, :], x.imag[..., np.newaxis, :]
    squares = np.matmul(re, re.swapaxes(-1, -2)) + np.matmul(im, im.swapaxes(-1, -2))
    return np.sqrt(squares[..., 0, 0])


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve_stack(a: np.ndarray, b: np.ndarray):
    """Solve a[i] @ y[i] = b[i] for every row of a complex stack.

    One call of the gufunc behind np.linalg.solve, under the errstate that
    np.linalg.solve sets, so the floats are its floats without its argument
    checks.  Returns (ok, y), ok being np.True_ when every row is solved
    (callers test it by identity).  A stacked LAPACK call raises when any
    matrix in it is singular; then every row is solved on its own, ok is a
    mask, and only the rows that raise are not ok (their y is zero).
    """
    try:
        with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
            return np.True_, _umath_linalg.solve(a, b[..., np.newaxis], signature="DD->D")[..., 0]
    except np.linalg.LinAlgError:
        ok = np.ones(len(a), dtype=bool)
        y = np.zeros_like(b)
        for i in range(len(a)):
            try:
                y[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return ok, y


class _Homotopy:
    """H(x, t) = gamma * t * G(x) + (1 - t) * D * F(x), tracked from t=1 to 0,
    for paths that each carry their own chart, start roots and gamma: on
    path p, F is system charts[p] of target, G the start system
    x_i^{d_i} = r_i with unit-modulus r = roots[p], and gamma = gamma[p].
    D is the positive diagonal row scaling of each chart target (each row
    divided by its largest coefficient magnitude; the target passed in is
    D * F).

    Each path's data is gathered once, into arrays with one row per path:
    its chart's coefficient tables (_stack, rows of target._stack), its
    start roots and its gamma.  take(paths) gathers the homotopy of
    a subset of rows, and a stage evaluates the taken homotopy on a stack
    of points x (P, n), one per row, each with its own t (shape (P,)).
    """

    def __init__(self, target: _Compiled, degrees: Sequence[int], charts, roots, gamma):
        self.target = target
        self.degrees = np.array(degrees, dtype=np.float64)
        self.charts = np.array(charts, dtype=np.int64)
        self.roots = np.array(roots, dtype=np.complex128)
        self.gamma = np.array(gamma, dtype=np.complex128)
        self._powers = self.degrees - 1
        self._stack = target._stack[self.charts]

    def take(self, paths) -> "_Homotopy":
        """The homotopy of the given rows (an index array or a mask): each
        per-path array gathered once, the rest shared."""
        part = object.__new__(_Homotopy)
        part.__dict__.update(self.__dict__)
        part.charts, part.roots, part.gamma = self.charts[paths], self.roots[paths], self.gamma[paths]
        part._stack = self._stack[paths]
        return part

    def evaluate(self, x: np.ndarray, t: np.ndarray, paths=None, corrector: bool = False):
        """(dH/dx, dH/dt) for an RK4 stage, or (H, dH/dx) for the corrector,
        at the points x of every row, or of take(paths) when paths are
        given, from one evaluation of the target.

        dH/dx is the target Jacobian scaled by (1 - t) in place, with the
        start system's diagonal gamma * t * d_i * x_i^(d_i - 1) added onto
        its diagonal: the start Jacobian is diagonal, so no full matrix of
        it is built.  The diagonal is a writable strided view: dH/dx is the
        transpose of the target's derivative block, whose n x n entries per
        point are contiguous, so every (n + 1)-th of them is a diagonal
        entry."""
        if paths is not None:
            return self.take(paths).evaluate(x, t, corrector=corrector)
        value, jacobian = self.target.apply(x, self._stack)
        start = x ** self.degrees - self.roots
        gv, weight = self.gamma[:, np.newaxis], (1.0 - t)[:, np.newaxis]
        gt = gv * t[:, np.newaxis]
        jacobian *= weight[..., np.newaxis]
        n = len(self.degrees)
        diagonal = jacobian.swapaxes(-1, -2).reshape(len(x), n * n)[:, :: n + 1]
        diagonal += gt * (self.degrees * x ** self._powers)
        if corrector:
            return gt * start + weight * value, jacobian
        return jacobian, gv * start - value


# ---- path tracking ----
#
# All paths of one homotopy are tracked in lockstep on stacked arrays: every
# routine below takes a stack of points (P, n) with the homotopy path of
# each row, and works on the masked subset of rows still running.  Per row,
# the floating-point operations are those of tracking that path alone, in
# the same order, so an endpoint does not depend on which other paths
# share its stack.

def _newton(system: Callable, x: np.ndarray, tol: float, iterations: int, limit: float = math.inf):
    """Up to ``iterations`` Newton steps per row, where ``system(y, rows)``
    returns the values and Jacobians at the points y of the given rows.  A
    row stops as converged when its step is below ``tol`` relative to its
    norm, or, from the second step on, when the step at least halved and
    its square over the previous step (the next step that quadratic
    convergence predicts) is below ``tol`` relative to the norm.  It stops
    unconverged when its Jacobian is singular, or when it turns non-finite
    or leaves the ball of radius ``limit``.  Returns (converged, points,
    first, stalled), first being each row's first step relative to its norm
    (inf for a row stopped before that step was measured), and stalled
    whether a row took every iteration without converging or stopping."""
    x = x.copy()
    converged = np.zeros(len(x), dtype=bool)
    first = np.full(len(x), np.inf)
    previous = np.empty(len(x))  # each row's last step size
    rows = np.arange(len(x))
    # A mask is applied only when it drops a row (usually every row
    # survives), and the ball only when there is a limit.
    for k in range(iterations):
        if not rows.size:
            break
        y = x[rows]
        values, jacobians = system(y, rows)
        ok, delta = _solve_stack(jacobians, values)
        if ok is not np.True_:
            rows, y, delta = rows[ok], y[ok], delta[ok]
        y = y - delta
        x[rows] = y
        keep = np.isfinite(y).all(axis=-1)
        if not keep.all():
            rows, y, delta = rows[keep], y[keep], delta[keep]
        norms = _norms(y)
        if limit < math.inf:
            keep = ~(norms > limit)
            rows, delta, norms = rows[keep], delta[keep], norms[keep]
        size, scale = _norms(delta), np.maximum(1.0, norms)
        done = size < tol * scale
        if k == 0:
            first[rows] = size / scale
        else:
            last = previous[rows]
            done |= (size * size / last < tol * scale) & (size < 0.5 * last)
        previous[rows] = size
        converged[rows[done]] = True
        rows = rows[~done]
    stalled = np.zeros(len(x), dtype=bool)
    stalled[rows] = True
    return converged, x, first, stalled


def _rk4_step(hom: _Homotopy, x: np.ndarray, t: np.ndarray, h: np.ndarray, paths: np.ndarray):
    """RK4 predictor from t to t - h, then the Newton corrector, per row.
    A row is accepted when _newton converges within _CORRECTOR_ITERATIONS
    steps at tolerance _TRACK_TOL, on a step or a predicted next step.
    Returns (ok, points, error): a rejected row keeps its point, and error
    is the corrector's first step relative to the point's norm, which
    measures the predictor's local error."""
    out = x.copy()
    rows = np.arange(len(x))
    part = hom.take(paths)
    tangents = []
    # k1 at (x, t); k2 and k3 half a step along k1 and k2; k4 a full step
    # along k3.  A row whose Jacobian is singular at any stage is rejected;
    # while no row is, x, t, h and the homotopy taken above are used as
    # they stand.
    for scale in (0.0, 0.5, 0.5, 1.0):
        if scale:
            step = scale * h
            y, s = x - step[:, np.newaxis] * tangents[-1], t - step
        else:
            y, s = x, t
        jacobian, t_derivative = part.evaluate(y, s)
        ok, k = _solve_stack(jacobian, -t_derivative)
        tangents.append(k)
        if ok is not np.True_:
            rows, tangents = rows[ok], [v[ok] for v in tangents]
            x, t, h, part = x[ok], t[ok], h[ok], part.take(ok)
    k1, k2, k3, k4 = tangents
    predicted = x - (h / 6.0)[:, np.newaxis] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t_next = t - h
    finite = np.isfinite(predicted).all(axis=-1)
    if not finite.all():
        rows, predicted, t_next, part = rows[finite], predicted[finite], t_next[finite], part.take(finite)

    def corrector(y, r):
        # while every row still iterates, the homotopy as taken
        if len(r) < len(t_next):
            return part.take(r).evaluate(y, t_next[r], corrector=True)
        return part.evaluate(y, t_next, corrector=True)

    converged, corrected, first, _ = _newton(corrector, predicted, _TRACK_TOL, _CORRECTOR_ITERATIONS)
    ok = np.zeros(len(out), dtype=bool)
    ok[rows[converged]] = True
    error = np.full(len(out), np.inf)
    error[rows] = first
    out[rows[converged]] = corrected[converged]
    return ok, out, error


def _track_paths(hom: _Homotopy, starts):
    """Track every start path from t=1 to t=0 in lockstep.

    Each path keeps its own t, step size, endgame norm and status.  A step
    is accepted when the corrector converges within _CORRECTOR_ITERATIONS;
    its first Newton update e, relative to max(1, |x|), is the RK4
    predictor's local error, O(h^5), so the next step is the accepted one
    times 0.8 (_PREDICTOR_TOL / e)^(1/5), kept within [1/2, 2].  A rejected
    step is halved; once it falls below the collapse floor (_MIN_STEP,
    scaled by t), the path fails before _ENDGAME_T and stops where it
    stands after it.  Below _ENDGAME_T a step is at most 0.9 t, so t falls
    geometrically to _T_STOP instead of jumping to 0.

    Returns (statuses, endpoints), one status finite | stalled |
    at_infinity | failed and one endpoint row per start: at infinity once
    the norm passes _DIVERGENCE_THRESHOLD, as _settle classifies a path
    that stopped tracking, and failed otherwise.
    """
    x = np.array(starts, dtype=np.complex128)
    t = np.ones(len(x))
    h = np.full(len(x), _INITIAL_STEP)
    endgame_norm = np.full(len(x), np.nan)  # NaN, failing every test, until the endgame
    statuses = np.full(len(x), "failed", dtype=object)
    settled = np.zeros(len(x), dtype=bool)  # stopped tracking: _settle classifies these
    rows = np.arange(len(x))
    while rows.size:
        running = t[rows] > _T_STOP
        settled[rows[~running]] = True
        rows = rows[running]
        diverged = _norms(x[rows]) > _DIVERGENCE_THRESHOLD
        statuses[rows[diverged]] = "at_infinity"
        rows = rows[~diverged]
        if not rows.size:
            break
        now = t[rows]
        late = now < _ENDGAME_T
        if late.any():  # a path's norm as it enters the endgame
            first = rows[late & np.isnan(endgame_norm[rows])]
            endgame_norm[first] = np.maximum(1.0, _norms(x[first]))
        step = np.where(late, np.minimum(h[rows], 0.9 * now), np.minimum(h[rows], now))
        ok, x_new, error = _rk4_step(hom, x[rows], now, step, rows)

        accepted = rows[ok]
        x[accepted] = x_new[ok]
        t[accepted] -= step[ok]
        # An error below 1e-300 (even 0) gives growth 2 like any below 1e-6.
        growth = 0.8 * (_PREDICTOR_TOL / np.maximum(error[ok], 1e-300)) ** 0.2
        h[accepted] = step[ok] * np.clip(growth, 0.5, 2.0)
        h[rows[~ok]] *= 0.5
        floor = np.maximum(1e-16, _MIN_STEP * np.minimum(1.0, t[rows]))
        collapsed = ~ok & (h[rows] < floor)
        # A collapse before the endgame fails the path; in the endgame it
        # stops tracking and the path is classified from where it stands.
        settled[rows[collapsed & (t[rows] < _ENDGAME_T)]] = True
        rows = rows[~collapsed]

    statuses[settled], x[settled] = _settle(hom.target, hom.charts[settled], x[settled], endgame_norm[settled])
    return statuses.tolist(), x


def _settle(target: _Compiled, charts: np.ndarray, x: np.ndarray, endgame_norm: np.ndarray):
    """Classify the paths that stopped tracking at the rows of x, each on
    its chart of target, with the norm it entered the endgame at (NaN for
    none).  Returns (statuses, points): the polished point where the status
    says so, else the tracked one.

    A norm above _DIVERGENCE_THRESHOLD, or one that grew 32-fold across the
    endgame to above 100, is at infinity unpolished: the polish would pull
    a slowly diverging path onto a finite root.  The rest are polished by
    plain Newton on the chart target (_POLISH_ITERATIONS steps at tolerance
    1e-13 within the ball of radius _DIVERGENCE_THRESHOLD).  Where it
    - converged within 0.05 max(1, |x|), the path is finite;
    - stalled within _CLUSTER_RADIUS max(1, |x|), it is stalled: Newton
      converges only linearly at a multiple root, then wanders at its noise
      floor;
    - converged farther away, on an unrelated root, it is at infinity above
      norm 100, else failed;
    - escaped the ball, it is at infinity.
    Every other path fails.
    """
    norms = _norms(x)
    lost = (norms > _DIVERGENCE_THRESHOLD) | ((norms > 32.0 * endgame_norm) & (norms > 100.0))
    statuses = np.full(len(x), "failed", dtype=object)
    statuses[lost] = "at_infinity"
    points = x.copy()
    rows = np.flatnonzero(~lost)
    converged, polished, _, stalled = _newton(
        lambda y, r: target.value_and_jacobian(y, charts[rows[r]]),
        x[rows],
        1e-13,
        _POLISH_ITERATIONS,
        _DIVERGENCE_THRESHOLD,
    )
    jumps, scale = _norms(polished - x[rows]), np.maximum(1.0, norms[rows])
    finite = converged & (jumps <= 0.05 * scale)
    stalled &= jumps <= _CLUSTER_RADIUS * scale
    jumped = converged & ~finite & (norms[rows] > 100.0)
    escaped = ~converged & ~stalled & np.isfinite(polished).all(axis=-1)
    escaped &= _norms(polished) > _DIVERGENCE_THRESHOLD
    statuses[rows[finite]] = "finite"
    statuses[rows[stalled]] = "stalled"
    statuses[rows[jumped | escaped]] = "at_infinity"
    moved = finite | stalled | escaped
    points[rows[moved]] = polished[moved]
    return statuses, points


def _draw_start(degrees: Sequence[int], rng: random.Random):
    """One chart's random start system x_i^{d_i} = r_i = exp(2*pi*i*phase_i)
    and gamma: (starts, roots, gamma), starts being its Bezout-many start
    solutions."""
    phases = [rng.random() for _ in degrees]
    roots = [cmath.exp(2j * cmath.pi * p) for p in phases]
    gamma = cmath.exp(2j * cmath.pi * rng.random())
    axes = [
        [cmath.exp(2j * cmath.pi * (p + k) / d) for k in range(d)] for d, p in zip(degrees, phases)
    ]
    return list(itertools.product(*axes)), roots, gamma


def _track_chart(target: _Compiled, degrees, k: int, start):
    """Track chart k of target (chart 2 only on demand, see
    _projective_solve) in one lockstep stack from its start system and
    gamma, start being one _draw_start draw.  Returns _track_paths's
    (statuses, endpoints), one per Bezout path.  A path's floats do not
    depend on its stack, so chart 1's endpoints are those of tracking both
    charts together."""
    starts, roots, gamma = start
    size = len(starts)
    hom = _Homotopy(target, degrees, np.full(size, k), np.repeat([roots], size, axis=0), np.full(size, gamma))
    return _track_paths(hom, starts)


# ---- clustering and certification ----

def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether row i of a lies within chordal distance _CLUSTER_RADIUS of
    row j of b, for unit-norm projective rows, from one Gram matrix:
    sqrt(2 - 2 |<a_i, b_j>|) <= r exactly when |<a_i, b_j>| >= 1 - r^2 / 2."""
    return np.abs(a.conj() @ b.T) >= 1.0 - _CLUSTER_RADIUS**2 / 2


def _components(close: np.ndarray) -> np.ndarray:
    """Each endpoint's label in the graph of close (a symmetric boolean
    matrix with a true diagonal): the first index of its connected
    component.  Each label takes the smallest of its neighbours' labels
    until none changes."""
    labels = np.arange(len(close))
    while True:
        spread = np.where(close, labels, len(close)).min(axis=1, initial=len(close))
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def _rational_point(coords: np.ndarray, height: int, tol: float) -> Optional[tuple]:
    """Primitive integer representative of a projective point, or None.

    Each ratio of a coordinate to the largest one is replaced by the
    nearest fraction of height <= ``height`` to its real part; the point is
    None when any ratio lies farther than ``tol`` from its fraction.
    """
    candidate = []
    for v in coords / coords[int(np.argmax(np.abs(coords)))]:
        q = Fraction(float(v.real)).limit_denominator(height)
        if abs(q.numerator) > height or abs(complex(v) - complex(q)) > tol:
            return None
        candidate.append(q)
    return primitive_vector(clear_denominators(candidate)[0])


def _certify(points: np.ndarray, close: np.ndarray, filters: _Compiled, filter_polys):
    """Cluster one chart's normalized projective endpoints into the
    components of their _close matrix close (_components) and keep the
    clusters that lie on filter_polys.

    A cluster's residual is the smallest filter residual of its members,
    filters being the _unit_row forms of filter_polys, so the residual does
    not depend on how an input polynomial is scaled; clusters where it
    reaches _FILTER_TOL are discarded.  The minimum-residual member's
    _rational_point is kept when it is an exact common zero of filter_polys,
    else it is a mismatch.  Returns (sorted clusters, discarded, mismatch);
    rule B of _projective_solve then asks every cluster's residual to be at
    most _RESIDUAL_TOL and no mismatch.
    """
    labels = _components(close)
    residuals = np.max(np.abs(filters.value(points)), axis=-1)
    clusters, discarded, mismatch = [], 0, False
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        rep = points[members[np.argmin(residuals[members])]]  # the first best member
        best = float(residuals[members].min())
        if best >= _FILTER_TOL:
            discarded += 1
            continue
        exact = _rational_point(rep, _RATIONAL_HEIGHT, _CLUSTER_RADIUS)
        if exact is not None and any(p.evaluate(exact) != 0 for p in filter_polys):
            exact, mismatch = None, True
        point = tuple(complex(c) for c in rep)
        clusters.append(Cluster(point=point, multiplicity=len(members), residual=best, rational=exact))
    clusters.sort(key=_sort_key)
    return clusters, discarded, mismatch


# ---- projective layer ----

def _random_chart(nvars: int, rng: random.Random):
    """Random affine chart sum a_i x_i = 1 with nonzero integer entries.

    Zero entries are rejected because they put every point of a coordinate
    hyperplane section at the chart's infinity, which needlessly hides the
    small-support rational points common in the fixtures.
    """
    coeffs = []
    for _ in range(nvars):
        value = 0
        while value == 0:
            value = rng.randint(-9, 9)
        coeffs.append(Fraction(value))
    pivot = max(range(nvars), key=lambda i: abs(coeffs[i]))
    return tuple(coeffs), pivot


def _chart_substitute(polys: Sequence[MultiPoly], chart) -> list:
    """Dehomogenize each poly onto the rational affine chart sum_i a_i x_i = 1.

    The pivot variable becomes (1 - sum_{i != pivot} a_i y_i) / a_pivot and
    the others map to the chart coordinates y in order, one exact
    MultiPoly.compose per poly on the integer kernel.
    """
    coeffs, pivot = chart
    nv = len(coeffs)
    m = nv - 1
    args = []
    pivot_terms = {(0,) * m: Fraction(1) / coeffs[pivot]}
    j = 0
    for i in range(nv):
        if i == pivot:
            continue
        mono = tuple(1 if a == j else 0 for a in range(m))
        if coeffs[i]:
            pivot_terms[mono] = -coeffs[i] / coeffs[pivot]
        args.append(MultiPoly(m, {mono: Fraction(1)}))
        j += 1
    args.insert(pivot, MultiPoly(m, pivot_terms))
    return [poly.compose(args) for poly in polys]


def _unit_row(poly: MultiPoly) -> MultiPoly:
    """poly divided, exactly, by its largest coefficient magnitude.

    Scaling a row of the chart target does not move its zeros, but it
    balances (1 - t) * F against gamma * t * G near t = 1: an unscaled row
    with large coefficients swamps the unit start system and collapses the
    first steps.  Being exact, it gives the same row for poly and for any
    positive rational multiple of it.
    """
    return poly.scale(1 / max(abs(c) for c in poly.terms.values()))


def _lift(y: np.ndarray, chart):
    """(norms, points): each row of chart coordinates y lifted to the
    chart's hyperplane sum a_i x_i = 1, its Euclidean norm there, and the
    lift normalized to unit norm with its first coordinate of magnitude
    above _PHASE_TOL rotated to the positive real axis, which makes a
    projective point's representative unique up to that tolerance.

    Each row comes out bit for bit as lifting and normalizing that point
    alone in scalar arithmetic gives it: the pivot's partial sum is taken
    column by column in index order, norms come from _norms, and
    magnitudes from np.hypot, which rounds as the scalar abs does (array
    np.abs can differ in the last bit).  No lift is zero, since it lies on
    the hyperplane.
    """
    coeffs, pivot = chart
    x = np.insert(y, pivot, 0, axis=1)
    partial = 0
    for i, c in enumerate(coeffs):
        if i != pivot:
            partial = partial + complex(c) * x[:, i]
    x[:, pivot] = (1.0 - partial) / complex(coeffs[pivot])
    norms = _norms(x)
    x = x / norms[:, np.newaxis]
    magnitudes = np.hypot(x.real, x.imag)
    rows, lead = np.arange(len(x)), np.argmax(magnitudes > _PHASE_TOL, axis=1)
    return norms, x * (x[rows, lead].conj() / magnitudes[rows, lead])[:, np.newaxis]


def _finish(statuses, endpoints, chart, k: int, target: _Compiled, degrees, filters: _Compiled, filter_polys):
    """Lift chart k's finite endpoints (from _track_chart's statuses and
    endpoints) and certify the survivors on filter_polys (_certify), one
    chart at a time, so chart 1 is finished once whether or not chart 2 is
    tracked on demand.

    Returns ((survivors, report), lifted, nonsingular): lifted stacks every
    kept finite endpoint's normalized lift (_lift) before clustering and
    filtering, and nonsingular says of each whether its polish converged
    (a stalled one sits at a multiple root, where the Jacobian can vanish
    altogether and the ratio below says nothing) and the chart target's
    Jacobian there is nonsingular, from one stacked SVD: sigma_min /
    sigma_max above _SIGMA_RATIO, or in one unknown (where that ratio is 1)
    |J| above it, scale-free on the _unit_row target.  Into the status
    array, a finite endpoint whose lift has norm above _DIVERGENCE_THRESHOLD
    goes at infinity, and a stalled one within _CLUSTER_RADIUS of no other
    kept endpoint of its chart fails; the report counts that array.  Raises
    RuntimeError unless there is one status per Bezout path, since a path
    lost in between would silently lower a count.
    """
    size = math.prod(degrees)
    if len(statuses) != size:
        raise RuntimeError(f"path accounting broken: {len(statuses)} statuses for {size} Bezout paths")
    status = np.array(statuses, dtype=object)
    kept = np.flatnonzero((status == "finite") | (status == "stalled"))
    norms, lifted = _lift(endpoints[kept], chart)
    far = norms > _DIVERGENCE_THRESHOLD
    status[kept[far]] = "at_infinity"
    kept, lifted = kept[~far], lifted[~far]
    close = _close(lifted, lifted)
    # A stalled endpoint stands for a multiple root, which more than one
    # path of the chart reaches; one that no other endpoint meets (say, a
    # point it wandered to on a positive-dimensional component) fails.
    lone = (status[kept] == "stalled") & (close.sum(axis=1) == 1)
    status[kept[lone]] = "failed"
    kept, lifted, close = kept[~lone], lifted[~lone], close[~lone][:, ~lone]
    _, jacobians = target.value_and_jacobian(endpoints[kept], np.full(len(kept), k))
    sigma = np.linalg.svd(jacobians, compute_uv=False)
    scale = sigma[:, 0] if len(degrees) > 1 else 1.0
    nonsingular = (status[kept] == "finite") & (sigma[:, -1] > _SIGMA_RATIO * scale)
    survivors, discarded, mismatch = _certify(lifted, close, filters, filter_polys)
    failed = int((status == "failed").sum())
    report = {
        "chart": [str(c) for c in chart[0]],
        "bezout_bound": size,
        "paths_tracked": size - failed,
        "paths_failed": failed,
        "at_infinity": int((status == "at_infinity").sum()),
        # Each tracked chart is tracked once (chart 2 only on demand);
        # perfbench reads this key.
        "attempts": 1,
        "survivors": len(survivors),
        "discarded_clusters": discarded,
        "rational_mismatch": mismatch,
    }
    return (survivors, report), lifted, nonsingular


def _projective_solve(polys, degrees, rng) -> SolutionSet:
    """Two-chart projective solve, chart 2 only on demand: the common zeros
    of polys, which outnumber the degrees, cut out inside the finite zero
    set of a square system of the given degrees: random combinations of
    polys, drawn only after the size check.

    The square subsystem is dehomogenized onto two random charts that are
    not proportional (such charts share their infinity hyperplane and lose
    the same points), and a start system and gamma are drawn for each, in
    that order, before any path is tracked.  Both charts' targets are
    compiled together, so each dot product has the length of their
    monomial union.  Round 1 tracks and finishes chart 1 (_track_chart,
    _finish).  Round 2 tracks chart 2 only when chart 1 fails rule A: too
    few distinct finite endpoints (a point on chart 1's infinity
    hyperplane, a failed path, two paths on one root) or a singular one.
    The clusters are chart 1's survivors plus chart 2's survivors that
    chart 1 does not see.  The result is certified by one rule and nothing
    else:

    (A) completeness: the lifted finite endpoints of the tracked charts,
        before filtering, form exactly prod(degrees) connected components
        (_components), and each of them is nonsingular as _finish decides:
        its polish converged, and the chart target's Jacobian there is
        well conditioned.  By the refined Bezout
        theorem (Fulton, Intersection Theory, 12.3) a positive-dimensional
        component of the square system would take at least 1 from the
        Bezout number, so these points are all of its solutions, each of
        multiplicity 1, and every reported cluster says so, also where two
        paths of one chart jumped onto the same root.  Chart 1 alone meets
        it on most inputs, which is why chart 2 is tracked only on demand;
    (B) membership: every survivor of a tracked chart has relative filter
        residual (_certify) at most _RESIDUAL_TOL, and no rational
        reconstruction is a mismatch.

    chart_reports lists the tracked charts only.  An uncertified result
    carries one note with the rule's numbers.  Raises ValueError when the
    square system exceeds _MAX_PATHS.
    """
    if math.prod(max(d, 2) for d in degrees) > _MAX_PATHS:
        raise ValueError(
            f"{math.prod(degrees)} Bezout paths per chart in {len(degrees)} unknowns "
            f"exceed the cap of {_MAX_PATHS} (each degree counted as at least 2)"
        )
    square = _random_square_subsystem(polys, len(degrees), rng)
    nvars = square[0].nvars
    charts = [_random_chart(nvars, rng), _random_chart(nvars, rng)]
    while projectively_equal(charts[1][0], charts[0][0]):
        charts[1] = _random_chart(nvars, rng)
    target = _Compiled(*([_unit_row(p) for p in _chart_substitute(square, c)] for c in charts))
    filters = _Compiled([_unit_row(p) for p in polys if not p.is_zero()])  # a zero partial filters nothing
    starts = [_draw_start(degrees, rng) for _ in charts]
    bezout = math.prod(degrees)
    results, lifts, flags = [], [], []
    for k, (chart, start) in enumerate(zip(charts, starts)):
        statuses, endpoints = _track_chart(target, degrees, k, start)
        result, lifted, nonsingular = _finish(statuses, endpoints, chart, k, target, degrees, filters, polys)
        results.append(result)
        lifts.append(lifted)
        flags.append(nonsingular)
        lifted, nonsingular = np.concatenate(lifts), np.concatenate(flags)
        distinct = len(np.unique(_components(_close(lifted, lifted))))
        singular = int((~nonsingular).sum())
        complete = distinct == bezout and not singular
        if complete:
            break

    def rows(clusters):
        return np.array([c.point for c in clusters], dtype=np.complex128).reshape(-1, nvars)

    (surv1, report1), *later = results
    surv2 = [c for survivors, _ in later for c in survivors]
    seen_by_1 = _close(rows(surv2), rows(surv1)).any(axis=1)
    merged = surv1 + [c for c, seen in zip(surv2, seen_by_1) if not seen]
    merged.sort(key=_sort_key)

    residual = max((c.residual for c in surv1 + surv2), default=0.0)
    mismatch = any(report["rational_mismatch"] for _, report in results)
    certified = complete and residual <= _RESIDUAL_TOL and not mismatch
    if complete:
        merged = [replace(c, multiplicity=1) for c in merged]
    notes = ()
    if not certified:
        notes = (
            f"uncertified: {distinct} distinct finite endpoint(s) for {bezout} Bezout paths, "
            f"{singular} with sigma_min/sigma_max <= {_SIGMA_RATIO:g}; largest survivor "
            f"residual {residual:.1e}{'; rational mismatch' if mismatch else ''}",
        )
    return SolutionSet(
        clusters=tuple(merged),
        bezout_bound=bezout,
        paths_tracked=report1["paths_tracked"],
        paths_failed=report1["paths_failed"],
        at_infinity=report1["at_infinity"],
        certified=certified,
        notes=notes,
        chart_reports=tuple(report for _, report in results),
    )


def _random_square_subsystem(polys: Sequence[MultiPoly], count: int, rng) -> list:
    """``count`` random full-rank integer combinations of the given polys.

    Special subsets of an overdetermined system (the first n members, or
    all partials but one) can share positive-dimensional components on
    which the true solutions stop being isolated; a generic recombination
    spans the same system while cutting a finite set.  Resamples weights
    up to 16 times, raising when every draw degenerates.
    """
    from . import linalg

    # The combinations are summed on integer numerators over one common
    # denominator.
    values, den = clear_denominators([c for g in polys for c in g.terms.values()])
    flat = iter(values)
    numerators = [{m: next(flat) for m in g.terms} for g in polys]
    for _ in range(16):
        weights = [[rng.randint(-9, 9) for _ in range(len(polys))] for _ in range(count)]
        if linalg.rank(weights) < count:
            continue
        candidate = []
        for row in weights:
            terms: dict = {}
            for w, g in zip(row, numerators):
                if w:
                    for mono, c in g.items():
                        terms[mono] = terms.get(mono, 0) + w * c
            coeffs = {m: Fraction(c, den) for m, c in terms.items() if c}
            candidate.append(MultiPoly._canonical(polys[0].nvars, coeffs))
        if all(not p.is_zero() for p in candidate):
            return candidate
    raise ValueError("could not draw a nondegenerate square subsystem")


def base_points(system, config: Optional[SolveConfig] = None) -> SolutionSet:
    """Certified base points of a linear system of quadrics in P^n.

    Solves a square subsystem of n random full-rank combinations of the
    n+1 quadrics on two random rational charts and keeps the solutions
    where every generating quadric has residual below the filter
    threshold (with an exact rational cross-check on top).  Path count is
    2^n per chart, so the cap _MAX_PATHS allows n <= 4.
    """
    polys = system.quadric_polys()
    if any(p.is_zero() for p in polys):
        raise ValueError("system contains an identically zero quadric")
    return _projective_solve(polys, [2] * system.n, random.Random((config or DEFAULT_CONFIG).seed))


def singular_points(f: MultiPoly, config: Optional[SolveConfig] = None) -> SolutionSet:
    """Certified singular points of a hypersurface {f = 0}.

    The square subsystem consists of nvars-1 random full-rank rational
    combinations of all partial derivatives; survivors are filtered by the
    residual of the full gradient (plus the exact rational cross-check).
    Path count is (deg f - 1)^(nvars - 1) per chart, capped by _MAX_PATHS
    with each degree counted as at least 2.
    """
    nv = f.nvars
    if not f.is_homogeneous() or nv < 2 or f.total_degree() < 2:
        raise ValueError("expected a homogeneous polynomial of degree >= 2 in >= 2 variables")
    degrees = [f.total_degree() - 1] * (nv - 1)
    return _projective_solve(f.gradient(), degrees, random.Random((config or DEFAULT_CONFIG).seed))


# ---- Jacobsthal numbers ----

def jacobsthal(n: int) -> int:
    """J_0 = 0, J_1 = 1, J_n = J_{n-1} + 2 J_{n-2}, by the closed form
    (2^n - (-1)^n) / 3."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return (2**n - (-1) ** n) // 3
