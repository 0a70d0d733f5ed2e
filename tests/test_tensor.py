"""Order-3 tensor symmetry classes: projectors, bases, restriction."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weddle import linalg, tensor
from weddle.tensor import SymmetryClass, Tensor3

PART_CLASSES = [
    SymmetryClass.SYMMETRIC,
    SymmetryClass.RESIDUAL1,
    SymmetryClass.RESIDUAL2,
    SymmetryClass.SKEW,
]

PROJECTORS = {
    SymmetryClass.SYMMETRIC: tensor.sym_part,
    SymmetryClass.RESIDUAL1: tensor.n1_part,
    SymmetryClass.RESIDUAL2: tensor.n2_part,
    SymmetryClass.SKEW: tensor.skew_part,
}


def random_tensor(dim, rng):
    return Tensor3.build(dim, lambda i, j, k: Fraction(rng.randint(-9, 9)))


# ---- projector algebra, exhaustively on elementary tensors ----

@pytest.mark.parametrize("dim", [2, 3, 4])
def test_projectors_are_idempotent_orthogonal_and_sum_to_identity(dim):
    for i, j, k in product(range(dim), repeat=3):
        e = Tensor3.basis_tensor(dim, i, j, k)
        parts = [PROJECTORS[cls](e) for cls in PART_CLASSES]
        total = Tensor3.zero(dim)
        for part in parts:
            total = total + part
        assert total == e
        for cls, part in zip(PART_CLASSES, parts):
            assert PROJECTORS[cls](part) == part
            for other, other_part in zip(PART_CLASSES, parts):
                if other is not cls:
                    assert PROJECTORS[other](part).is_zero()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_parts_land_in_their_symmetry_classes(dim):
    rng = random.Random(dim)
    t = random_tensor(dim, rng)
    sym, n1, n2, skew = tensor.decompose(t)
    assert sym + n1 + n2 + skew == t
    assert tensor.in_class(sym, SymmetryClass.SYMMETRIC)
    assert tensor.in_class(n1, SymmetryClass.RESIDUAL1)
    assert tensor.in_class(n2, SymmetryClass.RESIDUAL2)
    assert tensor.in_class(skew, SymmetryClass.SKEW)
    assert tensor.in_class(sym + n1, SymmetryClass.PARTIAL_SYM12)


def test_residual_projection_of_an_elementary_tensor():
    e = Tensor3.basis_tensor(3, 0, 1, 2)
    r = e - tensor.sym_part(e) - tensor.skew_part(e)
    expected = {
        (0, 1, 2): Fraction(2, 3),
        (1, 2, 0): Fraction(-1, 3),
        (2, 0, 1): Fraction(-1, 3),
    }
    for i, j, k in product(range(3), repeat=3):
        assert r[i, j, k] == expected.get((i, j, k), 0)
    assert r == tensor.n1_part(e) + tensor.n2_part(e)


# ---- ranks and dimensions ----

@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_projector_ranks_match_binomial_formulas(dim):
    n = dim - 1
    assert tensor.projector_rank(SymmetryClass.SYMMETRIC, dim) == math.comb(n + 3, 3)
    assert tensor.projector_rank(SymmetryClass.RESIDUAL1, dim) == 2 * math.comb(n + 2, 3)
    assert tensor.projector_rank(SymmetryClass.RESIDUAL2, dim) == 2 * math.comb(n + 2, 3)
    assert tensor.projector_rank(SymmetryClass.SKEW, dim) == math.comb(n + 1, 3)
    total = sum(tensor.projector_rank(cls, dim) for cls in PART_CLASSES)
    assert total == dim**3


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("cls", PART_CLASSES)
def test_trace_rank_agrees_with_elimination_rank(dim, cls):
    b = tensor.basis(cls, dim)
    assert len(b) == tensor.projector_rank(cls, dim)
    assert tensor.independent(b)
    for t in b:
        assert tensor.in_class(t, cls)
    # the class's projection of any tensor lies in the span of its basis
    rng = random.Random(17 * dim)
    flat = [tensor.flatten(t) for t in b]
    for _ in range(3):
        image = PROJECTORS[cls](random_tensor(dim, rng))
        assert linalg.rank(flat + [tensor.flatten(image)]) == len(b)


def test_cyclic_basis_in_dimension_two_entry_for_entry():
    b = tensor.basis(SymmetryClass.RESIDUAL1, 2)
    faces = [t.to_json()["faces"] for t in b]
    assert faces == [
        [[["0", "1/3"], ["1/3", "0"]], [["-2/3", "0"], ["0", "0"]]],
        [[["0", "0"], ["0", "2/3"]], [["0", "-1/3"], ["-1/3", "0"]]],
    ]


def test_cyclic_basis_in_dimension_three_entry_for_entry():
    b = tensor.basis(SymmetryClass.RESIDUAL1, 3)
    z3 = [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    faces = [t.to_json()["faces"] for t in b]
    assert faces == [
        [
            [["0", "1/3", "0"], ["1/3", "0", "0"], ["0", "0", "0"]],
            [["-2/3", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            z3,
        ],
        [
            [["0", "0", "0"], ["0", "2/3", "0"], ["0", "0", "0"]],
            [["0", "-1/3", "0"], ["-1/3", "0", "0"], ["0", "0", "0"]],
            z3,
        ],
        [
            [["0", "0", "1/3"], ["0", "0", "0"], ["1/3", "0", "0"]],
            z3,
            [["-2/3", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        ],
        [
            z3,
            [["0", "0", "1/3"], ["0", "0", "0"], ["1/3", "0", "0"]],
            [["0", "-1/3", "0"], ["-1/3", "0", "0"], ["0", "0", "0"]],
        ],
        [
            [["0", "0", "0"], ["0", "0", "1/3"], ["0", "1/3", "0"]],
            z3,
            [["0", "-1/3", "0"], ["-1/3", "0", "0"], ["0", "0", "0"]],
        ],
        [
            z3,
            [["0", "0", "0"], ["0", "0", "1/3"], ["0", "1/3", "0"]],
            [["0", "0", "0"], ["0", "-2/3", "0"], ["0", "0", "0"]],
        ],
        [
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "2/3"]],
            z3,
            [["0", "0", "-1/3"], ["0", "0", "0"], ["-1/3", "0", "0"]],
        ],
        [
            z3,
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "2/3"]],
            [["0", "0", "0"], ["0", "0", "-1/3"], ["0", "-1/3", "0"]],
        ],
    ]


# ---- restriction and extension ----

@pytest.mark.parametrize("dim", [2, 3, 4])
def test_extend_then_restrict_recovers_the_tensor(dim):
    rng = random.Random(dim + 100)
    t = tensor.random_n1(dim, rng=rng)
    free = [[rng.randint(-9, 9) for _ in range(dim + 1)] for _ in range(dim)]
    extended = tensor.extend(t, free)
    assert extended.dim == dim + 1
    assert tensor.in_class(extended, SymmetryClass.RESIDUAL1)
    assert tensor.restrict(extended) == t


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_restrict_then_extend_recovers_the_tensor(dim):
    rng = random.Random(dim + 200)
    t = tensor.random_n1(dim, rng=rng)
    n = dim - 1
    free = [[t[n, j, k] for j in range(n)] + [t[n, n, k] / 2] for k in range(n)]
    assert tensor.extend(tensor.restrict(t), free) == t


def test_restrict_rejects_tensors_outside_the_cyclic_class():
    sym = tensor.sym_part(Tensor3.basis_tensor(3, 0, 1, 2))
    with pytest.raises(ValueError):
        tensor.restrict(sym)
    with pytest.raises(ValueError):
        tensor.extend(sym, [[0] * 4] * 3)


# ---- serialization and sampling ----

@given(st.integers(2, 4), st.integers(0, 10**6))
@settings(max_examples=25)
def test_json_round_trip_is_exact(dim, seed):
    t = tensor.random_n1(dim, rng=random.Random(seed))
    assert Tensor3.from_json(t.to_json()) == t
    assert tensor.in_class(t, SymmetryClass.RESIDUAL1)


def test_json_rejects_malformed_payloads():
    with pytest.raises((ValueError, KeyError)):
        Tensor3.from_json({"dim": 2, "faces": [[["1"]]]})
    with pytest.raises((ValueError, KeyError)):
        Tensor3.from_json({"faces": []})
