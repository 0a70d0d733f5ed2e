"""Plane-cubic analytics: Hessians, rational flexes, the short Weierstrass
pair and the j-invariant.

There is one exact route, with no numeric solve and no change of frame.
The Hessian of the Hessian of a ternary cubic F lies in the pencil spanned
by F and H = He F (Dolgachev, Classical Algebraic Geometry, ch. 3), and so
does the Hessian of F + H.  Their coordinates in that pencil determine the
Aronhold invariants, and with them the short Weierstrass pair (a, b) of the
Jacobian of F (Artin, Rodriguez-Villegas and Tate, Adv. Math. 198, 2005).
When F has a rational point the Jacobian is F itself over the rationals;
otherwise (a, b) models the Jacobian only.  A small rational flex is
searched for only to report it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Sequence

from . import linalg, solve
from .polycore import MultiPoly, PolyMatrix, Rat, as_rat, projectively_equal


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
    rows = [[None] * nv for _ in range(nv)]
    for i, g in enumerate(f.gradient()):
        for j in range(i, nv):
            rows[i][j] = rows[j][i] = g.diff(j)
    return PolyMatrix(nv, rows)


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


def _flex_test(f: MultiPoly):
    """The flex test of f as a function of an exact nonzero point, with
    the gradient and the Hessian entries of f built once: the point lies
    on the curve, is a smooth point, and the Hessian form vanishes on the
    tangent direction there."""
    gradient = f.gradient()
    second = hessian(f).entries

    def test(p: Sequence) -> bool:
        if f.evaluate(p) != 0:
            return False
        grad = [g.evaluate(p) for g in gradient]
        if not any(grad):
            return False
        v = _tangent_direction(grad, p)
        if v is None:
            return False
        return sum(v[i] * second[i][j].evaluate(p) * v[j] for i in range(3) for j in range(3)) == 0

    return test


def is_flex(f: MultiPoly, point: Sequence) -> bool:
    """Exact flex test: the point lies on the curve, is a smooth point,
    and the Hessian form vanishes on the tangent direction there."""
    if f.nvars != 3 or not f.is_homogeneous(3):
        raise ValueError("expected a ternary homogeneous cubic")
    p = [as_rat(x) for x in point]
    if all(x == 0 for x in p):
        raise ValueError("projective point must be nonzero")
    return _flex_test(f)(p)


_FLEX_HEIGHT = 8


def find_rational_flex(f: MultiPoly, height: int = _FLEX_HEIGHT) -> Optional[tuple]:
    """First flex among canonical primitive integer triples up to height."""
    test = _flex_test(f)
    return next((t for t in _canonical_triples(height) if test(t)), None)


# ---- the invariants ----

def _pencil_coordinates(f: MultiPoly, h: MultiPoly, g: MultiPoly) -> tuple:
    """(s, t) with g = s*f + t*h, for linearly independent f and h and a g
    in their span: the nullspace of the coefficient matrix of (f, h, g) is
    then one vector, with a 1 in g's place."""
    monomials = set(f.terms) | set(h.terms) | set(g.terms)
    ((s, t, _),) = linalg.nullspace([[p.coefficient(m) for p in (f, h, g)] for m in monomials])
    return -s, -t


def invariants(f: MultiPoly) -> tuple:
    """(a, b, 4a^3 + 27b^2) for a nonsingular ternary cubic f, where
    y^2 = x^3 + a*x + b is its Jacobian, exact.

    With H = He f, He H = A*f + B*H and He(f + H) = P*f + Q*H; then
    a = -(P - A + 3B)/576 and b = -B/13824.  The constants are calibrated
    on f = y^2 z - x^3 - a x z^2 - b z^3, where A = 110592 a^2, B = -13824 b,
    and the f-coefficient of He(f + t H) is -576 a t - 3 B t^2 + A t^3.
    Rescaling f by c, or changing coordinates by a rational matrix of
    determinant c, maps (a, b) to (c^4 a, c^6 b).  Raises ValueError on a
    singular cubic: He f = 0 (a cone), He f a multiple of f (three lines
    forming a triangle or through a point), or 4a^3 + 27b^2 = 0.
    """
    if f.nvars != 3 or not f.is_homogeneous(3) or f.is_zero():
        raise ValueError("expected a nonzero ternary homogeneous cubic")
    hess_f = hessian(f)
    h = hess_f.det()
    if h.is_zero() or h.proportional(f):
        raise ValueError("singular cubic: its Hessian is zero or a multiple of it")
    hess_h = hessian(h)
    rows = zip(hess_f.entries, hess_h.entries)
    hess_sum = PolyMatrix(3, [[x + y for x, y in zip(r, s)] for r, s in rows])
    big_a, big_b = _pencil_coordinates(f, h, hess_h.det())
    p, _ = _pencil_coordinates(f, h, hess_sum.det())
    a = -(p - big_a + 3 * big_b) / 576
    b = -big_b / 13824
    discriminant = 4 * a**3 + 27 * b**2
    if discriminant == 0:
        raise ValueError("singular cubic: 4a^3 + 27b^2 = 0")
    return a, b, discriminant


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


# ---- public reduction API ----

@dataclass(frozen=True)
class ReductionResult:
    """An exact short Weierstrass pair of a plane cubic's Jacobian, and the
    first rational flex up to _FLEX_HEIGHT, or None when there is none."""

    a: Rat
    b: Rat
    flex: Optional[tuple]
    exact: ClassVar[bool] = True

    def short(self) -> ShortWeierstrass:
        return ShortWeierstrass(self.a, self.b)


@dataclass(frozen=True)
class JInvariant:
    value: Rat


def weierstrass_reduce(f: MultiPoly) -> ReductionResult:
    """Short Weierstrass form of a nonsingular plane cubic: the
    height-minimal pair (canonicalize_pair) in the orbit of invariants(f),
    which is a model of f over the rationals when f has a rational point
    and of its Jacobian otherwise.  The rational flex is reported only."""
    a, b, _ = invariants(f)
    a, b = canonicalize_pair(a, b)
    return ReductionResult(a=a, b=b, flex=find_rational_flex(f))


def j_invariant(f: MultiPoly) -> JInvariant:
    """The exact j-invariant of a nonsingular plane cubic."""
    return j_from_reduction(weierstrass_reduce(f))


def j_from_reduction(result: ReductionResult) -> JInvariant:
    """The exact j-invariant of a Weierstrass reduction."""
    return JInvariant(value=j_short(result.short()))
