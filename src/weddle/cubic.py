"""Plane-cubic analytics: Hessians, rational flexes, and the short
Weierstrass pair with its j-invariant (weierstrass_reduce, the one route
to both).

There is one exact route, with no numeric solve and no change of frame.
The Hessian of the Hessian of a ternary cubic F lies in the pencil spanned
by F and H = He F (Dolgachev, Classical Algebraic Geometry, ch. 3), and so
does the Hessian of F + H.  Their coordinates in that pencil determine the
Aronhold invariants, and with them the short Weierstrass pair (a, b) of the
Jacobian of F (Artin, Rodriguez-Villegas and Tate, Adv. Math. 198, 2005),
and j = 6912 a^3 / (4a^3 + 27b^2).  When F has a rational point the
Jacobian is F itself over the rationals; otherwise (a, b) models the
Jacobian only.  A small rational flex is searched for only to report it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Optional, Sequence

from . import linalg
from .polycore import MultiPoly, PolyMatrix, Rat, as_point, as_rat, clear_denominators, primitive_vector


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
#
# The flex search runs on Python ints.  The flex property of a point does
# not change when f is scaled or the point is, since F(lambda p) is
# lambda^3 F(p) and the gradient and Hessian entries scale likewise, so f is
# replaced by its primitive integer multiple and a point by a primitive
# integer triple.

_CUBIC_MONOMIALS = tuple(m for m in itertools.product(range(4), repeat=3) if sum(m) == 3)
_UPPER = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _monomial_values(p: Sequence[int]) -> tuple:
    """The ten cubic monomials evaluated at an integer triple."""
    x, y, z = p
    return tuple(x**i * y**j * z**k for i, j, k in _CUBIC_MONOMIALS)


_FLEX_HEIGHT = 8


@lru_cache(maxsize=_FLEX_HEIGHT)
def _shell(height: int) -> tuple:
    """The primitive integer triples with max absolute entry height and
    first nonzero entry positive, in lexicographic order, each paired with
    its _monomial_values.  The last _FLEX_HEIGHT shells built are kept, so
    the flex search builds each of its shells once."""
    values = range(-height, height + 1)
    block = []
    for triple in itertools.product(values, values, values):
        if max(map(abs, triple)) == height and next(c for c in triple if c) > 0 and math.gcd(*triple) == 1:
            block.append((triple, _monomial_values(triple)))
    return tuple(block)


def _canonical_triples(height: int):
    """The entries of _shell(1), ..., _shell(height) in order, so ordered
    by (max absolute entry, lexicographic order)."""
    for shell in range(1, height + 1):
        yield from _shell(shell)


def _integer_terms(poly: MultiPoly) -> tuple:
    """The (coefficient, exponents) pairs of a polynomial with integer
    coefficients, as Python ints."""
    return tuple((int(c), m) for m, c in poly.terms.items())


def _evaluate(terms: tuple, p: Sequence[int]) -> int:
    """The value at an integer triple of a polynomial given by its
    _integer_terms."""
    x, y, z = p
    return sum(c * x**i * y**j * z**k for c, (i, j, k) in terms)


def _flex_test(f: MultiPoly):
    """The flex test of f as a function of a primitive integer triple p and
    its _monomial_values: p lies on the curve, is a smooth point, and the
    Hessian form vanishes on the tangent direction there.  The gradient and
    the six distinct second partials of f's primitive integer multiple are
    built once.

    The last condition is tested as det H(p) = 0.  Take a basis p, v, w
    with grad f(p) . v = 0 and c = grad f(p) . w nonzero.  By Euler,
    H(p) p = 2 grad f(p) and p . grad f(p) = 3 f(p) = 0, so in that basis
    H(p) has first row (0, 0, 2c) and determinant -4c^2 v.H(p)v, up to the
    square of the change of basis."""
    if f.nvars != 3 or not f.is_homogeneous(3):
        raise ValueError("expected a ternary homogeneous cubic")
    f = f.primitive_normalized()
    coefficients = tuple(int(f.coefficient(m)) for m in _CUBIC_MONOMIALS)
    first = f.gradient()
    gradient = [_integer_terms(g) for g in first]
    second = [_integer_terms(first[i].diff(j)) for i, j in _UPPER]

    def test(p: Sequence[int], monomials: tuple) -> bool:
        if sum(map(operator.mul, coefficients, monomials)):
            return False
        if not any(_evaluate(g, p) for g in gradient):
            return False
        h00, h11, h22, h01, h02, h12 = (_evaluate(h, p) for h in second)
        det = (
            h00 * (h11 * h22 - h12 * h12)
            - h01 * (h01 * h22 - h12 * h02)
            + h02 * (h01 * h12 - h11 * h02)
        )
        return det == 0

    return test


def is_flex(f: MultiPoly, point: Sequence) -> bool:
    """Exact flex test: the point lies on the curve, is a smooth point,
    and the Hessian form vanishes on the tangent direction there."""
    test = _flex_test(f)
    p = primitive_vector(clear_denominators(as_point(point, 3))[0])
    return test(p, _monomial_values(p))


def find_rational_flex(f: MultiPoly) -> Optional[tuple]:
    """First flex among canonical primitive integer triples up to
    _FLEX_HEIGHT."""
    test = _flex_test(f)
    return next((t for t, monomials in _canonical_triples(_FLEX_HEIGHT) if test(t, monomials)), None)


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
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    entries = math.prod(e for e in (an, ad, bn, bd) if e)
    # k <= 48 < 2^6, so k divides entries^6 exactly when every prime factor
    # of k divides entries.
    smooth = [(k, k**4, k**6) for k in range(1, 49) if pow(entries, 6, k) == 0]
    best = None
    for s, s4, s6 in smooth:
        for t, t4, t6 in smooth:
            if math.gcd(s, t) != 1:
                continue
            # u = s/t, so u^4 a = an s^4 / (ad t^4) and u^6 b = bn s^6 / (bd t^6)
            pair = _reduced(an * s4, ad * t4) + _reduced(bn * s6, bd * t6)
            profile = sorted((abs(pair[0]), pair[1], abs(pair[2]), pair[3]), reverse=True)
            key = (profile, 0 if s == t else 1, s + t, s)
            if best is None or key < best[0]:
                best = (key, pair)
    num_a, den_a, num_b, den_b = best[1]
    return Fraction(num_a, den_a), Fraction(num_b, den_b)


def _reduced(num: int, den: int) -> tuple:
    """num/den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


# ---- public reduction API ----

@dataclass(frozen=True)
class ReductionResult:
    """An exact short Weierstrass pair of a plane cubic's Jacobian, its
    j-invariant, and the first rational flex up to _FLEX_HEIGHT, or None
    when there is none."""

    a: Rat
    b: Rat
    j: Rat
    flex: Optional[tuple]
    exact: ClassVar[bool] = True


def weierstrass_reduce(f: MultiPoly) -> ReductionResult:
    """Short Weierstrass form of a nonsingular plane cubic: the
    height-minimal pair (canonicalize_pair) in the orbit of invariants(f),
    which is a model of f over the rationals when f has a rational point
    and of its Jacobian otherwise, with j = 6912 a^3 / (4a^3 + 27b^2),
    the same on the whole orbit.  The rational flex is reported only."""
    a, b, discriminant = invariants(f)
    j = 6912 * a**3 / discriminant
    a, b = canonicalize_pair(a, b)
    return ReductionResult(a=a, b=b, j=j, flex=find_rational_flex(f))
