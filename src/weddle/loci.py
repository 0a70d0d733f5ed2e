"""Linear systems of quadrics, their Weddle matrices and Weddle loci.

A linear system here is a list of n+1 symmetric (n+1)x(n+1) rational
matrices Q_0..Q_n, the faces of a partially symmetric order-3 tensor.  The
Weddle matrix contracts the tensor against the variable vector; its
determinant cuts out the Weddle locus, whose singular points contain every
base point of the system.  This module also builds the canonical rank-r
systems, the rank-5 closed-form identity, and rank lower-bound
certificates driven by certified singular-point counts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import linalg, polycore, solve, tensor
from .polycore import MultiPoly, PolyMatrix, as_int, as_matrix, as_point, clear_denominators, divides


# ---- quadrics as matrices and polynomials ----

@lru_cache(maxsize=None)
def _cells(nv: int) -> tuple:
    """(monomial, i, j) for each quadratic monomial x_i x_j, i <= j, in
    descending graded-lex order (which is ascending (i, j) order): the one
    pairing of quadric coefficients with matrix cells.  The form x^T Q x
    takes Q_ii on x_i^2 and 2 Q_ij on x_i x_j."""
    cells = []
    for i in range(nv):
        for j in range(i, nv):
            mono = [0] * nv
            mono[i] += 1
            mono[j] += 1
            cells.append((tuple(mono), i, j))
    return tuple(cells)


def _symmetric(nv: int, coefficients: Sequence) -> list:
    """The symmetric matrix of the quadric with the given coefficients, in
    _cells(nv) order."""
    m = [[Fraction(0)] * nv for _ in range(nv)]
    for (_, i, j), c in zip(_cells(nv), coefficients):
        m[i][j] = m[j][i] = c if i == j else c / 2
    return m


def _check_symmetric(matrix: Sequence[Sequence], size: int) -> tuple:
    rows = as_matrix(matrix, size, size, "quadric matrix")
    for i in range(size):
        for j in range(i + 1, size):
            if rows[i][j] != rows[j][i]:
                raise ValueError("quadric matrix must be symmetric")
    return rows


def quadric_to_poly(matrix: Sequence[Sequence]) -> MultiPoly:
    """The quadratic form x^T Q x of a symmetric matrix."""
    size = len(matrix)
    rows = _check_symmetric(matrix, size)
    return MultiPoly(size, {mono: rows[i][j] if i == j else 2 * rows[i][j] for mono, i, j in _cells(size)})


def poly_to_quadric(poly: MultiPoly) -> list:
    """Symmetric matrix of a homogeneous quadratic polynomial."""
    if not poly.is_homogeneous(2):
        raise ValueError("expected a homogeneous quadratic")
    nv = poly.nvars
    return _symmetric(nv, [poly.coefficient(mono) for mono, _, _ in _cells(nv)])


class LinearSystem:
    """A linear system of n+1 quadrics in P^n, stored as symmetric faces."""

    __slots__ = ("n", "quadrics")

    def __init__(self, n: int, quadrics: Sequence[Sequence[Sequence]]):
        if n < 1:
            raise ValueError("ambient dimension must be at least 1")
        if len(quadrics) != n + 1:
            raise ValueError(f"expected {n + 1} quadrics for P^{n}")
        faces = tuple(_check_symmetric(q, n + 1) for q in quadrics)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "quadrics", faces)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("LinearSystem is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearSystem)
            and self.n == other.n
            and self.quadrics == other.quadrics
        )

    def __hash__(self):
        return hash((self.n, self.quadrics))

    @classmethod
    def from_tensor(cls, t) -> "LinearSystem":
        if not tensor.in_class(t, tensor.SymmetryClass.PARTIAL_SYM12):
            raise ValueError("tensor is not partially symmetric in its first two indices")
        return cls(t.dim - 1, [t.faces[k] for k in range(t.dim)])

    def to_tensor(self):
        return tensor.Tensor3(self.quadrics)

    def quadric_polys(self) -> list:
        return [quadric_to_poly(q) for q in self.quadrics]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "quadrics": [[[str(x) for x in row] for row in q] for q in self.quadrics],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LinearSystem":
        if set(data) - {"n", "quadrics"}:
            raise ValueError("unexpected keys in system record")
        return cls(as_int(data["n"], "system dimension n"), data["quadrics"])

    def __repr__(self) -> str:
        return f"LinearSystem(n={self.n})"


# ---- Weddle matrix and locus ----

@dataclass(frozen=True)
class WeddleData:
    matrix: PolyMatrix
    polynomial: MultiPoly
    degenerate: bool


def contraction_matrix(system: LinearSystem) -> PolyMatrix:
    """Entry (i, k) is sum_j x_j T_{ijk}: the tensor contracted with x."""
    nv = system.n + 1
    rows = [[polycore.linear_form(nv, system.quadrics[k][i]) for k in range(nv)] for i in range(nv)]
    return PolyMatrix(nv, rows)


def gradient_matrix(system: LinearSystem) -> PolyMatrix:
    """Entry (i, k) is the partial derivative of the k-th quadric by x_i."""
    polys = system.quadric_polys()
    nv = system.n + 1
    return PolyMatrix(nv, [[polys[k].diff(i) for k in range(nv)] for i in range(nv)])


def weddle_matrix(system: LinearSystem) -> WeddleData:
    """Contraction matrix plus its normalized determinant.

    Twice the contraction is the gradient matrix of the quadrics, since
    LinearSystem accepts only symmetric faces.
    """
    contraction = contraction_matrix(system)
    polynomial = contraction.primitive_det()
    return WeddleData(
        matrix=contraction, polynomial=polynomial, degenerate=polynomial.is_zero()
    )


def singular_at(poly: MultiPoly, point: Sequence) -> bool:
    """Exact test that every partial derivative vanishes at the point."""
    if not poly.is_homogeneous():
        raise ValueError("polynomial must be homogeneous")
    pt = as_point(point, poly.nvars)
    return all(poly.diff(i).evaluate(pt) == 0 for i in range(poly.nvars))


def is_base_point(system: LinearSystem, point: Sequence) -> bool:
    pt = as_point(point, system.n + 1)
    return all(quadric_to_poly(q).evaluate(pt) == 0 for q in system.quadrics)


def base_point_theorem_check(system: LinearSystem, point: Sequence) -> bool:
    """For an exact base point, decide whether it is singular on the Weddle
    locus.  Raises if the point is not a base point."""
    if not is_base_point(system, point):
        raise ValueError("point is not a base point of the system")
    data = weddle_matrix(system)
    return singular_at(data.polynomial, point) if not data.degenerate else True


def cyclic_relation_check(system: LinearSystem) -> MultiPoly:
    """The exact combination sum_k x_k Q_k(x); identically zero for systems
    coming from cyclic partially symmetric tensors."""
    nv = system.n + 1
    total = MultiPoly.zero(nv)
    for k, q in enumerate(system.quadrics):
        total = total + MultiPoly.variable(nv, k) * quadric_to_poly(q)
    return total


# ---- quadrics through points ----

def quadrics_through_points(points: Sequence[Sequence], n: int) -> list:
    """Canonical basis (reduced echelon, graded-lex coefficient order) of
    the space of quadrics in P^n vanishing at the given points, returned as
    symmetric matrices."""
    nv = n + 1
    cells = _cells(nv)
    rows = []
    for p in points:
        # Rescaling a point to integer coordinates keeps its conditions.
        coords, _ = clear_denominators(as_point(p, nv))
        rows.append([coords[i] * coords[j] for _, i, j in cells])
    return [_symmetric(nv, v) for v in linalg.nullspace(rows, ncols=len(cells))]


def system_through_points(points: Sequence[Sequence], n: int) -> LinearSystem:
    """The linear system spanned by quadrics through the points; errors
    unless that space has dimension exactly n+1."""
    basis = quadrics_through_points(points, n)
    if len(basis) != n + 1:
        raise ValueError(f"space of quadrics has dimension {len(basis)}, expected {n + 1}")
    return LinearSystem(n, basis)


# ---- constructions ----

def _combination(weights: Sequence, matrices: Sequence, nv: int) -> list:
    """sum_j weights[j] * matrices[j] of symmetric nv x nv matrices, zero
    weights skipped: summed on and above the diagonal, then mirrored."""
    q = [[Fraction(0)] * nv for _ in range(nv)]
    for w, m in zip(weights, matrices):
        if w:
            for a in range(nv):
                row, src = q[a], m[a]
                for b in range(a, nv):
                    row[b] += w * src[b]
    for a in range(nv):
        for b in range(a):
            q[a][b] = q[b][a]
    return q


def rank_r_system(forms: Sequence[Sequence], coeffs: Sequence[Sequence], n: int) -> LinearSystem:
    """System with Q_k = sum_i coeffs[k][i] * l_i l_i^T for linear forms l_i
    given by their coefficient vectors."""
    nv = n + 1
    vecs = as_matrix(forms, None, nv, "linear forms")
    weight = as_matrix(coeffs, nv, len(vecs), "coefficient grid")
    outer = [[[x * y for y in v] for x in v] for v in vecs]
    return LinearSystem(n, [_combination(row, outer, nv) for row in weight])


def recombine(system: LinearSystem, matrix: Sequence[Sequence]) -> LinearSystem:
    """Replace the generators by invertible linear combinations."""
    nv = system.n + 1
    rows = as_matrix(matrix, nv, nv, "recombination matrix")
    if linalg.det(rows) == 0:
        raise ValueError("recombination matrix must be invertible")
    return LinearSystem(system.n, [_combination(row, system.quadrics, nv) for row in rows])


# ---- the rank-5 pencil in P^3 ----

@dataclass(frozen=True)
class Rank5Data:
    det: Fraction
    mu: tuple


def mu_invariants(matrix: Sequence[Sequence]) -> Rank5Data:
    """det M together with the four row-replacement minors mu_s (row s of M
    replaced by the all-ones row)."""
    m = as_matrix(matrix, 4, 4, "rank-5 matrix")
    ones = (Fraction(1),) * 4
    mu = tuple(linalg.det(m[:s] + (ones,) + m[s + 1:]) for s in range(4))
    return Rank5Data(det=linalg.det(m), mu=mu)


def rank5_canonical_system(matrix: Sequence[Sequence]) -> LinearSystem:
    """The rank-5 system in P^3: squares of the four coordinates plus the
    square of their sum, weighted by the columns of M with unit weight on
    the sum."""
    m = as_matrix(matrix, 4, 4, "rank-5 matrix")
    forms = [[Fraction(1) if i == j else Fraction(0) for j in range(4)] for i in range(4)]
    forms.append([Fraction(1)] * 4)
    coeffs = [[m[i][k] for i in range(4)] + [Fraction(1)] for k in range(4)]
    return rank_r_system(forms, coeffs, 3)


def rank5_det_quartic(matrix: Sequence[Sequence]) -> MultiPoly:
    """Symbolic determinant of the matrix with entries xi + x_i M_{ik},
    where xi = x0 + x1 + x2 + x3."""
    m = as_matrix(matrix, 4, 4, "rank-5 matrix")
    # Entry (i, k) is one linear form: 1 + M_ik on x_i and 1 elsewhere.
    entries = [
        [polycore.linear_form(4, [1 + m[i][k] if j == i else 1 for j in range(4)]) for k in range(4)]
        for i in range(4)
    ]
    return PolyMatrix(4, entries).det()


def rank5_closed_form(matrix: Sequence[Sequence]) -> MultiPoly:
    """Closed form for the same quartic built only from scalar minors:
    (det M + sum mu_s) x0x1x2x3 plus mu-weighted cubic-tail monomials."""
    data = mu_invariants(matrix)
    # Each cubic-tail monomial x_b * x_i x_j x_k (b in {i, j, k}) names its
    # triple, so no two terms share a monomial; MultiPoly drops the zeros.
    terms = {(1, 1, 1, 1): data.det + sum(data.mu)}
    for i, j, k in itertools.combinations(range(4), 3):
        s = next(a for a in range(4) if a not in (i, j, k))
        for bumped in (i, j, k):
            mono = [0] * 4
            for v in (i, j, k, bumped):
                mono[v] += 1
            terms[tuple(mono)] = data.mu[s]
    return MultiPoly(4, terms)


def rank5_identity_check(matrix: Sequence[Sequence]) -> bool:
    """Exact equality of the symbolic determinant route and the scalar
    closed-form route."""
    return rank5_det_quartic(matrix) == rank5_closed_form(matrix)


# ---- splitting into hyperplanes ----

def splits_into_hyperplanes(poly: MultiPoly, singular_points: Sequence[Sequence]) -> Optional[list]:
    """Try to factor a homogeneous polynomial into linear forms spanned by
    subsets of the given points.  Returns the list of factors (with
    multiplicity, primitive-normalized) or None."""
    if poly.is_zero() or not poly.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous polynomial")
    nv = poly.nvars
    pts = [as_point(p, nv) for p in singular_points]
    candidates = []
    seen = set()
    for subset in itertools.combinations(pts, nv - 1):
        vectors = linalg.nullspace(subset, ncols=nv)
        if len(vectors) != 1:
            continue
        form = polycore.linear_form(nv, vectors[0]).primitive_normalized()
        if form not in seen:
            seen.add(form)
            candidates.append(form)
    factors = []
    remaining = poly
    for form in candidates:
        while True:
            quotient = divides(form, remaining)
            if quotient is None:
                break
            factors.append(form)
            remaining = quotient
    if remaining.total_degree() == 0 and len(factors) == poly.total_degree():
        return factors
    return None


# ---- rank lower bounds from singular point counts ----

class RankConclusion(Enum):
    RANK_AT_LEAST_6 = "RankAtLeast6"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RankCertificate:
    singular_count: object  # int when certified, descriptive string otherwise
    conclusion: RankConclusion
    evidence: object  # the SolutionSet backing the count


def rank_lower_bound_certificate(system: LinearSystem, config=None) -> RankCertificate:
    """Certify rank >= 6 for a system in P^3 whose Weddle quartic has a
    certified singular-point count below 10."""
    if system.n != 3:
        raise ValueError("rank certificate is specific to P^3")
    data = weddle_matrix(system)
    if data.degenerate:
        raise ValueError("Weddle polynomial is identically zero")
    result = solve.singular_points(data.polynomial, config)
    if result.certified:
        count = len(result.clusters)
        conclusion = (
            RankConclusion.RANK_AT_LEAST_6 if count < 10 else RankConclusion.INCONCLUSIVE
        )
        return RankCertificate(count, conclusion, result)
    verified = sum(1 for c in result.clusters if c.rational is not None)
    return RankCertificate(f"at least {verified}", RankConclusion.INCONCLUSIVE, result)


# ---- sampling helpers ----

_SAMPLE_DRAWS = 16


def sample_general_cyclic(dim: int, rng: random.Random):
    """Draw random cyclic tensors until the Weddle polynomial is nonzero.

    Returns (tensor, system, weddle_data), weddle_data being the sample's
    weddle_matrix.  Raises RuntimeError after _SAMPLE_DRAWS consecutive
    degenerate draws.
    """
    for _ in range(_SAMPLE_DRAWS):
        t = tensor.random_n1(dim, rng=rng)
        system = LinearSystem.from_tensor(t)
        data = weddle_matrix(system)
        if not data.degenerate:
            return t, system, data
    raise RuntimeError(f"no nondegenerate sample found in {_SAMPLE_DRAWS} draws")


def sweep_trials(dims: Sequence[int], trials: int, seed: int):
    """Certified base-point counts of random general cyclic systems at
    distinct dims in 2..5, the dims whose 2^(dim-1) Bezout paths per chart
    fit solve._MAX_PATHS.

    Returns an iterator of (dim, trial_seed, status, count, tensor), with
    ``trials`` >= 1 draws per dim; status is certified (count == J_dim),
    mismatch (certified, count != J_dim), uncertified, or error (count None
    unless certified, tensor None on error).  Error means a degenerate
    draw: no nondegenerate sample, or base_points rejecting the system
    (ValueError); any other exception propagates.  Seed convention: per
    trial of a master Random(seed), trial_seed = master.randrange(2**30),
    then the tensor is drawn from the master, then base_points runs with
    seed trial_seed.
    """
    top = solve._MAX_PATHS.bit_length()  # the largest d with 2^(d-1) <= _MAX_PATHS
    if not dims or any(not 2 <= d <= top for d in dims):
        raise ValueError(f"dims must lie in 2..{top}")
    if len(set(dims)) != len(dims):
        raise ValueError("dims must be distinct")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    master = random.Random(seed)
    return (_sweep_trial(dim, master) for dim in dims for _ in range(trials))


def _sweep_trial(dim: int, master: random.Random) -> tuple:
    trial_seed = master.randrange(2**30)
    try:
        sampled, system, _ = sample_general_cyclic(dim, rng=master)
    except RuntimeError:
        return dim, trial_seed, "error", None, None
    try:
        result = solve.base_points(system, solve.SolveConfig(seed=trial_seed))
    except ValueError:
        return dim, trial_seed, "error", None, None
    if not result.certified:
        return dim, trial_seed, "uncertified", None, sampled
    status = "certified" if result.count() == solve.jacobsthal(dim) else "mismatch"
    return dim, trial_seed, status, result.count(), sampled
