"""Order-3 tensors over the rationals and their symmetry decomposition.

A tensor T on an n-dimensional space is stored densely as faces:
``faces[k][i][j]`` is the entry T_{ijk}, i.e. row i, column j of the k-th
frontal face.  Partially symmetric tensors (T_{ijk} = T_{jik}) have
symmetric faces and are the coordinate form of a linear system of quadrics.

Four projectors split the full tensor space: full symmetrization S, the
skew projector A, and two middle projectors N1 and N2 whose images carry
the cyclic relation T_{ijk} + T_{jki} + T_{kij} = 0 together with partial
symmetry in the first two, respectively outer two, index positions.

_OPERATOR_TERMS is the only definition of the four summands: the
projectors, in_class (T lies in a summand when its projector fixes T) and
projector_rank all read it.

The projectors and the class tests do not use Fractions inside.  They
flatten T (entry T_{ijk} at k*dim^2 + i*dim + j) and clear its
denominators with polycore.clear_denominators, and every index
rearrangement is one gather of that integer array by a cached table.
A projector is a sum of at most six gathers with weights in sixths, at
most 8 times the largest numerator in absolute value, so the array is
int64 when that bound is below 2^63 and holds Python ints (dtype object)
otherwise; the same code runs on both.  Only the result is turned back
into Fractions, one per distinct value, and the tensor it makes keeps its
numerators, so a part of decompose, or a sum of tensors, is not cleared
again when a kernel reads it.  A basis is the projections of integer unit
rows, and random_n1 is one integer product of its coefficient draws with
three times the cached N1 basis, read off those numerators.
"""

from __future__ import annotations

import json
import math
import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .polycore import as_int, as_matrix, as_rat, clear_denominators


class SymmetryClass(Enum):
    SYMMETRIC = "symmetric"
    SKEW = "skew"
    RESIDUAL1 = "residual1"
    RESIDUAL2 = "residual2"
    PARTIAL_SYM12 = "partial_sym12"


class Tensor3:
    """Dense order-3 tensor with exact rational entries."""

    # _cleared: None, or the (values, den) the tensor was built from by
    # _from_numerators, until _numerators makes values an array (see there).
    __slots__ = ("dim", "faces", "_cleared")

    def __init__(self, faces: Sequence[Sequence[Sequence]]):
        dim = len(faces)
        if dim == 0:
            raise ValueError("tensor dimension must be positive")
        grid = tuple([as_matrix(face, dim, dim, "tensor face") for face in faces])
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "faces", grid)
        object.__setattr__(self, "_cleared", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Tensor3 is immutable")

    @classmethod
    def _canonical(cls, dim: int, entries: Sequence[Fraction], cleared: tuple) -> "Tensor3":
        """The Tensor3 with these dim^3 entries in flatten order, which must
        already be Fractions, and with the (values, den) they are cleared to
        (see _numerators): nothing is checked or coerced."""
        t = object.__new__(cls)
        face = dim * dim
        faces = tuple(
            tuple(tuple(entries[r:r + dim]) for r in range(f, f + face, dim))
            for f in range(0, face * dim, face)
        )
        object.__setattr__(t, "dim", dim)
        object.__setattr__(t, "faces", faces)
        object.__setattr__(t, "_cleared", cleared)
        return t

    @classmethod
    def zero(cls, dim: int) -> "Tensor3":
        z = Fraction(0)
        return cls([[[z] * dim for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def basis_tensor(cls, dim: int, i: int, j: int, k: int) -> "Tensor3":
        """Elementary tensor e_i (x) e_j (x) e_k."""
        faces = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        faces[k][i][j] = Fraction(1)
        return cls(faces)

    @classmethod
    def build(cls, dim: int, fn: Callable[[int, int, int], object]) -> "Tensor3":
        return cls([[[fn(i, j, k) for j in range(dim)] for i in range(dim)] for k in range(dim)])

    def __getitem__(self, key) -> Fraction:
        i, j, k = key
        return self.faces[k][i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor3) and self.dim == other.dim and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if not isinstance(other, Tensor3) or other.dim != self.dim:
            raise ValueError("dimension mismatch")
        # Summed on Python ints over the lcm of the two denominators, so the
        # sum is exact whatever the size of the numerators.
        a, den_a = _numerators(self)
        b, den_b = _numerators(other)
        den = math.lcm(den_a, den_b)
        fa, fb = den // den_a, den // den_b
        total = [x * fa + y * fb for x, y in zip(a.tolist(), b.tolist())]
        return _from_numerators(self.dim, total, den)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return self + other.scale(-1)

    def scale(self, value) -> "Tensor3":
        c = as_rat(value)
        return Tensor3.build(self.dim, lambda i, j, k: c * self[i, j, k])

    def is_zero(self) -> bool:
        return all(x == 0 for face in self.faces for row in face for x in row)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "faces": [[[str(x) for x in row] for row in face] for face in self.faces],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tensor3":
        if set(data) - {"dim", "faces"}:
            raise ValueError("unexpected keys in tensor record")
        t = cls(data["faces"])
        if t.dim != as_int(data["dim"], "tensor dimension dim"):
            raise ValueError("declared dim disagrees with the face data")
        return t

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def __repr__(self) -> str:
        return f"Tensor3(dim={self.dim})"


# ---- symmetry operators ----
#
# Each operator is a signed average of index rearrangements.  An entry
# (weight, p) below contributes weight/6 * T at the index tuple permuted by
# p: for target (i, j, k), position tuple p = (1, 2, 0) reads T_{jki}.

_OPERATOR_TERMS = {
    SymmetryClass.SYMMETRIC: [
        (1, (0, 1, 2)),
        (1, (1, 2, 0)),
        (1, (2, 0, 1)),
        (1, (1, 0, 2)),
        (1, (2, 1, 0)),
        (1, (0, 2, 1)),
    ],
    SymmetryClass.SKEW: [
        (1, (0, 1, 2)),
        (1, (1, 2, 0)),
        (1, (2, 0, 1)),
        (-1, (1, 0, 2)),
        (-1, (2, 1, 0)),
        (-1, (0, 2, 1)),
    ],
    SymmetryClass.RESIDUAL1: [
        (2, (0, 1, 2)),
        (2, (1, 0, 2)),
        (-2, (2, 1, 0)),
        (-2, (2, 0, 1)),
    ],
    SymmetryClass.RESIDUAL2: [
        (2, (0, 1, 2)),
        (-2, (1, 0, 2)),
        (2, (2, 1, 0)),
        (-2, (1, 2, 0)),
    ],
}


def _numerators(t: Tensor3) -> tuple:
    """(n, den): T's entries in flatten order are n / den, with n a
    read-only array: int64 when 8 * max |n| < 2^63, which bounds every sum
    the projectors and class tests form, and Python ints (dtype object)
    otherwise.

    A tensor made by _from_numerators keeps the integer values and the
    positive den it was made from, which need not be in lowest terms; any
    other tensor is cleared here by clear_denominators.  The array is made
    on the first call and kept on the tensor, so a later call, such as
    in_class or decompose on a part that decompose returned, reads it
    without clearing the entries again."""
    cleared = t._cleared or clear_denominators(flatten(t))
    values, den = cleared
    if isinstance(values, np.ndarray):
        return cleared
    dtype = np.int64 if 8 * max(map(abs, values)) < 2**63 else object
    n = np.array(values, dtype)
    n.setflags(write=False)
    object.__setattr__(t, "_cleared", (n, den))
    return n, den


def _from_numerators(dim: int, values: list, den: int) -> Tensor3:
    """The Tensor3 whose entries in flatten order are values / den, with one
    Fraction per distinct value (Fractions are immutable, so entries share).
    The tensor keeps (values, den) for _numerators."""
    fractions = {v: Fraction(v, den) for v in set(values)}
    return Tensor3._canonical(dim, [fractions[v] for v in values], (values, den))


@lru_cache(maxsize=None)
def _gather(p: tuple, dim: int) -> np.ndarray:
    """Flat indices such that n[_gather(p, dim)] holds, at the position of
    (i, j, k), T at the index tuple permuted by p.  The cached table is
    shared by every call, so it is read-only."""
    k, i, j = np.indices((dim, dim, dim)).reshape(3, -1)
    idx = (i, j, k)
    table = (idx[p[2]] * dim + idx[p[0]]) * dim + idx[p[1]]
    table.setflags(write=False)
    return table


def _apply(cls: SymmetryClass, dim: int, n: np.ndarray, den: int) -> Tensor3:
    """The projection of the tensor with numerators n over den."""
    total = sum(w * n[_gather(p, dim)] for w, p in _OPERATOR_TERMS[cls])
    return _from_numerators(dim, total.tolist(), 6 * den)


def sym_part(t: Tensor3) -> Tensor3:
    """Full symmetrization S."""
    return _apply(SymmetryClass.SYMMETRIC, t.dim, *_numerators(t))


def skew_part(t: Tensor3) -> Tensor3:
    """Signed symmetrization A."""
    return _apply(SymmetryClass.SKEW, t.dim, *_numerators(t))


def n1_part(t: Tensor3) -> Tensor3:
    """Middle projector N1 (partial symmetry in the first two positions)."""
    return _apply(SymmetryClass.RESIDUAL1, t.dim, *_numerators(t))


def n2_part(t: Tensor3) -> Tensor3:
    """Middle projector N2 (partial symmetry in the outer positions)."""
    return _apply(SymmetryClass.RESIDUAL2, t.dim, *_numerators(t))


def decompose(t: Tensor3) -> tuple:
    """Split T into (symmetric, N1, N2, skew); the four parts sum to T."""
    n, den = _numerators(t)
    return tuple(
        _apply(cls, t.dim, n, den)
        for cls in (SymmetryClass.SYMMETRIC, SymmetryClass.RESIDUAL1,
                    SymmetryClass.RESIDUAL2, SymmetryClass.SKEW)
    )


def projector_rank(cls: SymmetryClass, dim: int) -> Fraction:
    """Rank of the projector on the dim^3 tensor space.

    The four operators are idempotent (a property the test suite verifies
    exhaustively in small dimension), so the rank equals the exact trace:
    the sum of each term's weight/6 over the entries its gather leaves in place.
    """
    fixed = np.arange(dim**3)
    total = Fraction(
        sum(w * int((_gather(p, dim) == fixed).sum()) for w, p in _OPERATOR_TERMS[cls]), 6
    )
    if total.denominator != 1:
        raise ArithmeticError("projector trace is not an integer")
    return total


# ---- membership predicates ----

def in_class(t: Tensor3, cls: SymmetryClass) -> bool:
    """Whether T lies in the summand (its projector fixes T), or for
    PARTIAL_SYM12 whether T_{ijk} = T_{jik}."""
    n, _ = _numerators(t)
    if cls is SymmetryClass.PARTIAL_SYM12:
        return bool((n == n[_gather((1, 0, 2), t.dim)]).all())
    return bool((sum(w * n[_gather(p, t.dim)] for w, p in _OPERATOR_TERMS[cls]) == 6 * n).all())


# ---- bases ----

def _index_triples(cls: SymmetryClass, dim: int) -> list:
    rng = range(dim)
    if cls is SymmetryClass.SYMMETRIC:
        return [(i, j, k) for i, j, k in product(rng, repeat=3) if j <= i <= k]
    if cls is SymmetryClass.SKEW:
        return [(i, j, k) for i, j, k in product(rng, repeat=3) if j > i > k]
    if cls is SymmetryClass.RESIDUAL1:
        return [(i, j, k) for i, j, k in product(rng, repeat=3) if j <= i > k]
    if cls is SymmetryClass.RESIDUAL2:
        return [(i, j, k) for i, j, k in product(rng, repeat=3) if j > i <= k]
    raise ValueError(f"no distinguished basis for {cls}")


@lru_cache(maxsize=None)
def _basis_cached(cls: SymmetryClass, dim: int) -> tuple:
    """The projections of the elementary tensors e_i (x) e_j (x) e_k over
    the class's index triples, each read off the integer unit row with a 1
    at the flatten index of (i, j, k), over den 1."""
    flat = [(k * dim + i) * dim + j for i, j, k in _index_triples(cls, dim)]
    units = np.zeros((len(flat), dim**3), np.int64)
    units[range(len(flat)), flat] = 1
    return tuple(_apply(cls, dim, row, 1) for row in units)


def basis(cls: SymmetryClass, dim: int) -> list:
    """Distinguished basis of the summand: projected elementary tensors
    indexed by the class's index-triple pattern, in lexicographic order."""
    if dim < 1:
        raise ValueError("tensor dimension must be positive")
    return list(_basis_cached(cls, dim))


# ---- restriction and extension of cyclic partially symmetric tensors ----

def _require_n1(t: Tensor3) -> None:
    if not in_class(t, SymmetryClass.RESIDUAL1):
        raise ValueError("tensor is not cyclic with partial symmetry in the first two indices")


def restrict(t: Tensor3) -> Tensor3:
    """Drop the last face and the last row/column of every remaining face."""
    _require_n1(t)
    if t.dim < 2:
        raise ValueError("nothing left after restriction")
    n = t.dim - 1
    return Tensor3([[row[:n] for row in t.faces[k][:n]] for k in range(n)])


def extend(t: Tensor3, free: Sequence[Sequence]) -> Tensor3:
    """Inverse construction to ``restrict``.

    ``free[k][j]`` supplies the new entry T_{jnk} of face k (the new last
    column/row), for k < n and j <= n; the corner entry of face k is set to
    twice ``free[k][n]`` and the new last face is then forced by the cyclic
    relation and partial symmetry.
    """
    _require_n1(t)
    n = t.dim
    grid = as_matrix(free, n, n + 1, "free entries")

    def entry(i: int, j: int, k: int) -> Fraction:
        if k < n:
            if i < n and j < n:
                return t[i, j, k]
            if i == n and j == n:
                return 2 * grid[k][n]
            return grid[k][j] if i == n else grid[k][i]
        # last face, forced by the relations
        if i == n and j == n:
            return Fraction(0)
        if i == n:
            return -grid[j][n]
        if j == n:
            return -grid[i][n]
        return -(grid[i][j] + grid[j][i])

    out = Tensor3.build(n + 1, entry)
    _require_n1(out)
    return out


@lru_cache(maxsize=None)
def _n1_thirds(dim: int) -> np.ndarray:
    """Three times the distinguished N1 basis, whose entries are thirds: an
    int64 row per basis tensor, in flatten order, read off the numerators
    each basis tensor was made from.  Cached, so read-only."""
    rows = np.array(
        [3 * n // den for n, den in map(_numerators, basis(SymmetryClass.RESIDUAL1, dim))],
        np.int64,
    ).reshape(-1, dim**3)
    rows.setflags(write=False)
    return rows


def random_n1(dim: int, rng: random.Random) -> Tensor3:
    """Random cyclic partially symmetric tensor: integer coefficients drawn
    uniformly from [-9, 9] against the distinguished N1 basis."""
    thirds = _n1_thirds(dim)
    coeffs = np.array([rng.randint(-9, 9) for _ in range(len(thirds))], np.int64)
    return _from_numerators(dim, (coeffs @ thirds).tolist(), 3)


def flatten(t: Tensor3) -> list:
    """Flat coordinate vector, for exact rank computations on tensor lists."""
    return [x for face in t.faces for row in face for x in row]


def independent(tensors: Sequence[Tensor3]) -> bool:
    if not tensors:
        return True
    return linalg.rank([flatten(t) for t in tensors]) == len(tensors)
