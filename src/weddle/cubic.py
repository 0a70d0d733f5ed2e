"""Plane-cubic analytics: Hessians, Weierstrass reduction through a flex,
and the j-invariant.

The reduction has one route, exact wherever it can be: locate a small
rational flex, move it to [0:0:1] with its tangent line to {z0 = 0} by an
exact linear change, read off the long Weierstrass coefficients in the
chart z0 = 1, and complete the square and cube over the rationals.  When
no small rational flex exists the nine flexes are computed numerically
(common zeros of the cubic and its Hessian determinant), and every one is
tried for promotion back to an exact rational flex.  Only when none
promotes does the same algebra run in complex floats.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import linalg, solve
from .polycore import MultiPoly, PolyMatrix, Rat, as_rat, linear_form, projectively_equal


@dataclass(frozen=True)
class ShortWeierstrass:
    """The curve y^2 = x^3 + a*x + b with rational coefficients."""

    a: Rat
    b: Rat

    def discriminant_quantity(self) -> Rat:
        return 4 * self.a**3 + 27 * self.b**2


def j_short(w: ShortWeierstrass) -> Rat:
    """j = 256 * 27 a^3 / (4 a^3 + 27 b^2), exact."""
    denom = w.discriminant_quantity()
    if denom == 0:
        raise ValueError("singular curve: 4a^3 + 27b^2 = 0")
    return Fraction(6912) * as_rat(w.a) ** 3 / denom


def hessian(f: MultiPoly) -> PolyMatrix:
    """Matrix of second partials of a homogeneous cubic (entries linear)."""
    if not f.is_homogeneous(3):
        raise ValueError("expected a homogeneous cubic")
    nv = f.nvars
    return PolyMatrix(nv, [[f.diff(i).diff(j) for j in range(nv)] for i in range(nv)])


# ---- rational flexes ----

def _canonical_triples(height: int):
    """Primitive integer triples, first nonzero entry positive, ordered by
    (max absolute entry, lexicographic order)."""
    for shell in range(1, height + 1):
        block = []
        values = range(-shell, shell + 1)
        for triple in itertools.product(values, values, values):
            if max(abs(c) for c in triple) != shell:
                continue
            nonzero = [c for c in triple if c]
            if not nonzero or nonzero[0] < 0:
                continue
            if math.gcd(math.gcd(abs(triple[0]), abs(triple[1])), abs(triple[2])) != 1:
                continue
            block.append(triple)
        block.sort()
        yield from block


def _tangent_direction(gradient: Sequence, point: Sequence) -> Optional[tuple]:
    """Canonical primitive kernel vector of the gradient, independent of
    the point: the smallest of the cross products with the unit vectors."""
    l0, l1, l2 = gradient
    raw = [(0, l2, -l1), (-l2, 0, l0), (l1, -l0, 0)]
    candidates = []
    for vec in raw:
        prim = solve._primitive([as_rat(v) for v in vec])
        if prim is not None and not projectively_equal(prim, point):
            candidates.append(prim)
    if not candidates:
        return None
    return min(candidates, key=lambda v: (max(abs(c) for c in v), v))


def is_flex(f: MultiPoly, point: Sequence) -> bool:
    """Exact flex test: the point lies on the curve, is a smooth point,
    and the Hessian form vanishes on the tangent direction there."""
    if f.nvars != 3 or not f.is_homogeneous(3):
        raise ValueError("expected a ternary homogeneous cubic")
    p = [as_rat(x) for x in point]
    if all(x == 0 for x in p):
        raise ValueError("projective point must be nonzero")
    if f.evaluate(p) != 0:
        return False
    grad = [g.evaluate(p) for g in f.gradient()]
    if all(x == 0 for x in grad):
        return False
    v = _tangent_direction(grad, p)
    if v is None:
        return False
    hess = [[f.diff(i).diff(j).evaluate(p) for j in range(3)] for i in range(3)]
    value = sum(v[i] * hess[i][j] * v[j] for i in range(3) for j in range(3))
    return value == 0


_FLEX_HEIGHT = 8


def find_rational_flex(f: MultiPoly, height: int = _FLEX_HEIGHT) -> Optional[tuple]:
    """First flex among canonical primitive integer triples up to height."""
    for triple in _canonical_triples(height):
        p = tuple(Fraction(c) for c in triple)
        if f.evaluate(p) == 0 and is_flex(f, p):
            return triple
    return None


# ---- the reduction algebra ----

def _long_to_short(a1, a2, a3, a4, a6):
    """Complete square and cube: y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    down to y^2 = x^3 + a x + b."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    return -c4 / 48, -c6 / 864


_TANGENT_TERMS = ((0, 0, 3), (0, 1, 2), (0, 2, 1))


def _coefficients_from_cubic(coeffs):
    """From the coefficient lookup of f(Mz) = 0 (flex at [0:0:1], tangent
    {z0 = 0}, so the _TANGENT_TERMS vanish, and nonzero z0*z2^2 and z1^3
    terms) to the long Weierstrass coefficients."""
    alpha = coeffs((1, 0, 2))
    p = coeffs((1, 1, 1)) / alpha
    q = coeffs((2, 0, 1)) / alpha
    c3 = -coeffs((0, 3, 0)) / alpha
    r = -coeffs((1, 2, 0)) / alpha
    s = -coeffs((2, 1, 0)) / alpha
    t0 = -coeffs((3, 0, 0)) / alpha
    return p, r, q * c3, s * c3, t0 * c3 * c3


def _reduce_exact(f: MultiPoly, flex: Sequence):
    """Exact reduction of f through a rational flex; returns (a, b)."""
    p = [as_rat(x) for x in flex]
    grad = [g.evaluate(p) for g in f.gradient()]
    v = _tangent_direction(grad, p)
    if v is None:
        raise ValueError("point is not a smooth flex")
    u = next(t for t in _canonical_triples(1) if sum(as_rat(c) * g for c, g in zip(t, grad)) != 0)
    columns = [tuple(as_rat(c) for c in u), v, tuple(p)]
    matrix = [[columns[c][r] for c in range(3)] for r in range(3)]
    if linalg.det(matrix) == 0:
        raise ValueError("degenerate frame at flex")
    transformed = f.compose([linear_form(3, row) for row in matrix])
    lookup = transformed.coefficient
    if lookup((1, 0, 2)) == 0 or lookup((0, 3, 0)) == 0 or any(map(lookup, _TANGENT_TERMS)):
        raise ValueError("cubic is degenerate at this flex")
    return _long_to_short(*_coefficients_from_cubic(lookup))


def canonicalize_pair(a: Rat, b: Rat) -> tuple:
    """Height-minimal representative of the orbit (a, b) ~ (u^4 a, u^6 b).

    Picks, among u = s/t with 1 <= s, t <= 48 coprime, the pair whose
    sorted magnitude profile (numerator and denominator sizes of both
    coefficients) is lexicographically smallest, preferring u = 1 and then
    small s + t on ties, so fixtures are reproducible.  Only s and t whose
    prime factors all divide a nonzero entry of the profile of (a, b) are
    scanned: a prime p dividing none of them cancels nowhere in u^4 a and
    u^6 b, so removing p from u shrinks a nonzero entry and grows none, and
    u cannot win.
    """
    a = as_rat(a)
    b = as_rat(b)
    entries = math.prod(e for e in (a.numerator, a.denominator, b.numerator, b.denominator) if e)
    # k <= 48 < 2^6, so k divides entries^6 exactly when every prime factor
    # of k divides entries.
    smooth = [k for k in range(1, 49) if pow(entries, 6, k) == 0]
    best = None
    for s in smooth:
        for t in smooth:
            if math.gcd(s, t) != 1:
                continue
            u = Fraction(s, t)
            a2 = a * u**4
            b2 = b * u**6
            profile = sorted(
                (abs(a2.numerator), a2.denominator, abs(b2.numerator), b2.denominator),
                reverse=True,
            )
            key = (profile, 0 if u == 1 else 1, s + t, s)
            if best is None or key < best[0]:
                best = (key, a2, b2)
    return best[1], best[2]


# ---- numeric route ----

_CUBIC_MONOMIALS = tuple(e for e in itertools.product(range(4), repeat=3) if sum(e) == 3)


def _complex_compose_cubic(f: MultiPoly, matrix: np.ndarray) -> dict:
    """Coefficients of f(M z) for a complex 3x3 matrix M, keyed by monomial.

    With T the constant third derivatives of f, f(x) = T(x, x, x) / 6, so
    f(M z) = S(z, z, z) / 6 for S = T pulled back through M; the coefficient
    of z^e is S at any index listing e, divided by e0! e1! e2!.
    """
    third = np.array([
        [[complex(f.diff(i).diff(j).diff(k).coefficient((0, 0, 0))) for k in range(3)]
         for j in range(3)]
        for i in range(3)
    ])
    pulled = np.einsum("ijk,ia,jb,kc->abc", third, matrix, matrix, matrix)
    coeffs = {}
    for e in _CUBIC_MONOMIALS:
        index = tuple(v for v, count in enumerate(e) for _ in range(count))
        coeffs[e] = pulled[index] / math.prod(math.factorial(c) for c in e)
    return coeffs


def flex_points(f: MultiPoly, config: Optional[solve.SolveConfig] = None) -> solve.SolutionSet:
    """The nine flexes of a smooth cubic: common zeros of f and the
    determinant of its Hessian matrix, as a certified projective solve."""
    if f.nvars != 3 or not f.is_homogeneous(3):
        raise ValueError("expected a ternary homogeneous cubic")
    hess_det = hessian(f).det()
    if hess_det.is_zero():
        raise ValueError("Hessian determinant vanishes identically")
    system = [f, hess_det]
    seed = (config or solve.DEFAULT_CONFIG).seed
    return solve._projective_solve(system, [3, 3], random.Random(seed))


_PROMOTION_HEIGHT = 10**6


def _promote_flex(f: MultiPoly, coords) -> Optional[tuple]:
    """Try to recognize a numerical flex as an exact rational point."""
    prim = solve._rational_point(np.asarray(coords), _PROMOTION_HEIGHT, 1e-6)
    return prim if prim is not None and is_flex(f, prim) else None


def _reduce_numeric_from(f: MultiPoly, coords) -> Optional[tuple]:
    """Float reduction at a numerical flex; returns (a, b, residual)."""
    p = np.asarray(coords, dtype=np.complex128)
    ell = np.array([g.evaluate_complex(list(p)) for g in f.gradient()])
    if np.linalg.norm(ell) < 1e-10:
        return None
    v = np.cross(ell, p)
    if np.linalg.norm(v) < 1e-10:
        return None
    u = np.conj(ell)
    matrix = np.stack([u, v, p], axis=1)
    coeffs = _complex_compose_cubic(f, matrix)
    lookup = coeffs.__getitem__
    scale = max(abs(c) for c in coeffs.values())
    if scale == 0 or abs(lookup((1, 0, 2))) < 1e-10 * scale or abs(lookup((0, 3, 0))) < 1e-10 * scale:
        return None
    residual = max(abs(lookup(m)) for m in _TANGENT_TERMS) / scale
    a, b = _long_to_short(*_coefficients_from_cubic(lookup))
    return a, b, float(residual)


# ---- public reduction API ----

@dataclass(frozen=True)
class ReductionResult:
    a: Union[Rat, complex]
    b: Union[Rat, complex]
    exact: bool
    flex: tuple
    residual: float

    def short(self) -> ShortWeierstrass:
        if not self.exact:
            raise ValueError("reduction is numeric; no exact short form")
        return ShortWeierstrass(self.a, self.b)


@dataclass(frozen=True)
class JInvariant:
    value: Union[Rat, complex]
    exact: bool
    residual: float


def weierstrass_reduce(f: MultiPoly, config: Optional[solve.SolveConfig] = None) -> ReductionResult:
    """Short Weierstrass form of a smooth plane cubic.

    Reduces exactly at the first rational flex within _FLEX_HEIGHT.
    Failing that, it solves for the nine flexes and reduces exactly at the
    first certified flex that promotes to a rational one; only when none
    does, it reduces in complex floats at the first flex where that works.
    """
    if f.nvars != 3 or not f.is_homogeneous(3) or f.is_zero():
        raise ValueError("expected a nonzero ternary homogeneous cubic")
    flex = find_rational_flex(f)
    if flex is None:
        flexes = flex_points(f, config)
        if not flexes.certified or flexes.count() == 0:
            raise solve.UncertifiedSolveError("numeric flex search was not certified")
        promoted = (_promote_flex(f, c.point.coordinates) for c in flexes.clusters)
        flex = next((p for p in promoted if p is not None), None)
    if flex is not None:
        a, b = canonicalize_pair(*_reduce_exact(f, flex))
        return ReductionResult(a=a, b=b, exact=True, flex=flex, residual=0.0)
    for cluster in flexes.clusters:
        coords = cluster.point.coordinates
        reduced = _reduce_numeric_from(f, coords)
        if reduced is not None:
            a, b, residual = reduced
            return ReductionResult(
                a=a, b=b, exact=False, flex=coords, residual=max(residual, cluster.residual)
            )
    raise ValueError("reduction failed at every flex candidate")


def j_invariant(f: MultiPoly, config: Optional[solve.SolveConfig] = None) -> JInvariant:
    """The j-invariant of a smooth plane cubic, exact whenever the
    Weierstrass reduction ran exactly."""
    return j_from_reduction(weierstrass_reduce(f, config))


def j_from_reduction(result: ReductionResult) -> JInvariant:
    """The j-invariant of a Weierstrass reduction: exact for an exact
    reduction, complex with a relative near-singularity check otherwise."""
    if result.exact:
        return JInvariant(value=j_short(result.short()), exact=True, residual=0.0)
    a, b = complex(result.a), complex(result.b)
    denom = 4 * a**3 + 27 * b**2
    if abs(denom) < 1e-12 * max(1.0, abs(a) ** 3):
        raise ValueError("numerically singular curve")
    return JInvariant(value=6912 * a**3 / denom, exact=False, residual=result.residual)
