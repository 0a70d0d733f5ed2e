"""Seeded op lists for the benchmark workloads, and their answer checks.

A workload is an endless list of cycles; cycle ``i`` is built from
``random.Random(f"{workload}:{seed}:{i}")``, so a seed fixes the whole op
list no matter how many cycles a run has time for.  Each op is a call into
weddle's public API (`call`, timed) plus a check of its answer against a
value known independently of the code under test (`check`, untimed).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from weddle import cli, fixtures, loci, solve, tensor
from weddle.loci import LinearSystem
from weddle.tensor import SymmetryClass, Tensor3

HERE = Path(__file__).resolve().parent

# J_d for dims 2..5: J_0 = 0, J_1 = 1, J_n = J_{n-1} + 2 J_{n-2}.
JACOBSTHAL = {2: 1, 3: 3, 4: 5, 5: 11}
# The paper's witness cubics and their j-invariants.
WITNESS_J = {"witness-C1": "1771561/612", "witness-C2": "4354703137/352512"}
PARTS = (SymmetryClass.SYMMETRIC, SymmetryClass.RESIDUAL1,
         SymmetryClass.RESIDUAL2, SymmetryClass.SKEW)


@dataclass
class Outcome:
    certified: bool
    correct: bool  # False only for a certified answer that differs from the known one
    paths: tuple = ()  # (bezout, attempts, failed, at_infinity, survivors) per chart
    replay: Optional[dict] = None  # inputs to write out if the op fails


@dataclass
class Op:
    kind: str
    key: str  # the op's full input description, for the op-list digest and replay
    call: Callable[[], object]  # looks weddle's functions up when called, so spans see it
    check: Callable[[object], Outcome]


# ---- exact arithmetic kept apart from the code under test ----

def echelon(rows: list) -> tuple:
    """(rank, determinant sign-and-pivot product) by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][c]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank, det


def _evaluate(poly, point) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.terms.items():
        term = c
        for x, e in zip(point, mono):
            term *= x**e
        total += term
    return total


def _quadric_at(q, p) -> Fraction:
    return sum((q[i][j] * p[i] * p[j] for i in range(len(p)) for j in range(len(p))), Fraction(0))


def _chart_paths(reports) -> tuple:
    return tuple((r["bezout_bound"], r["attempts"], r["paths_failed"], r["at_infinity"],
                  r["survivors"]) for r in reports)


def _run_cli(argv: list):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---- workloads ----

class Workload:
    name = ""
    why = ""
    cycle_kinds: tuple = ()
    fixtures_used: tuple = ()
    basis_dims: tuple = ()

    def __init__(self, seed: int):
        """Set-up: fixture loading, the recorded fixture outputs, warm caches
        and the first cycle of the op list."""
        self.seed = seed
        for name in self.fixtures_used:
            fixtures.load(name)
        self.expected = json.loads((HERE / "expected_outputs.json").read_text(encoding="utf-8"))
        for dim in self.basis_dims:
            tensor.basis(SymmetryClass.RESIDUAL1, dim)
        self._first = self._build(0)

    def cycle(self, index: int) -> list:
        return self._first if index == 0 else self._build(index)

    def _build(self, index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return [self._op(kind, rng) for kind in self.cycle_kinds]

    def mix(self) -> dict:
        counts: dict = {}
        for kind in self.cycle_kinds:
            label = " ".join(str(k) for k in kind)
            counts[label] = counts.get(label, 0) + 1
        return {"ops_per_cycle": len(self.cycle_kinds), "per_cycle": counts}

    def _op(self, kind: tuple, rng: random.Random) -> Op:
        raise NotImplementedError

    # -- fixture ops through the command line --

    def _cli_op(self, command: str, fixture: str, rng: random.Random) -> Op:
        seed = rng.randrange(2**30)
        argv = [command, fixture, "--json", "--seed", str(seed)]
        return Op(f"cli.{command}", " ".join(argv), partial(_run_cli, argv),
                  partial(self._check_cli, command, fixture, seed))

    def _check_cli(self, command: str, fixture: str, seed: int, result) -> Outcome:
        code, text = result
        report = json.loads(text)
        outputs = report["outputs"]
        replay = {"command": f"weddle {command} {fixture} --json --seed {seed}"}
        correct = outputs == self.expected[f"{command} {fixture}"] and code == 0
        if command == "jinv":
            correct = correct and outputs["j"] == WITNESS_J[fixture]
        return Outcome(report["certified"], correct, (), replay)


class Sweep(Workload):
    name = "sweep"
    why = ("the paper's headline workflow: many small, well-scaled quadric solves with "
           "2^(d-1) paths per chart, dims 2..5, a third of them recombined")
    # Of twelve trials per round, three are dim 2, six dim 3, one dim 4 and
    # two dim 5, so that the median falls mid-way through the dim-3 trials
    # and p90 mid-way through the dim-5 trials, not between two dims.  A
    # 50-s run holds over 100 ops, about 25 of them at dim 5.
    cycle_kinds = ((2,), (3,), (3,), (5,), (2,), (3,), (4,), (3,), (2,), (3,), (5,), (3,))
    basis_dims = (2, 3, 4, 5)
    recombine_share = 1 / 3

    def _op(self, kind: tuple, rng: random.Random) -> Op:
        (dim,) = kind
        master_seed = rng.randrange(2**30)
        matrix = None
        if rng.random() < self.recombine_share:
            matrix = self._invertible(dim, rng)
        key = f"sweep d{dim} seed={master_seed} recombine={matrix}"
        return Op(f"sweep.d{dim}", key, partial(self._trial, dim, master_seed, matrix),
                  partial(self._check, dim))

    @staticmethod
    def _invertible(dim: int, rng: random.Random) -> list:
        while True:
            matrix = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
            if echelon(matrix)[0] == dim:
                return matrix

    @staticmethod
    def _trial(dim: int, master_seed: int, matrix):
        """One trial under the jacobsthal-sweep seed convention, so that
        `weddle jacobsthal-sweep --dims D --trials 1 --seed S` replays it
        when no recombination is applied."""
        master = random.Random(master_seed)
        trial_seed = master.randrange(2**30)
        sampled, system, _ = loci.sample_general_cyclic(dim, rng=master)
        if matrix is not None:
            system = loci.recombine(system, matrix)
        result = solve.base_points(system, solve.SolveConfig(seed=trial_seed))
        return sampled, system, trial_seed, result

    @staticmethod
    def _check(dim: int, out) -> Outcome:
        sampled, system, trial_seed, result = out
        replay = {"command": f"weddle basepoints SYSTEM --json --seed {trial_seed}",
                  "system": system, "tensor": sampled, "count": result.count()}
        correct = not result.certified or result.count() == JACOBSTHAL[dim]
        return Outcome(result.certified, correct, _chart_paths(result.chart_reports), replay)


class Exact(Workload):
    name = "exact"
    why = ("exact algebra with no numeric solve: Weddle determinants at dims 4..7, "
           "decompositions, rank-5 identities, quadrics through points, CLI fixture ops")
    # Per-op costs span 1 ms to seconds.  Of the 40 ops per cycle, 16 are
    # cheaper than a rank-5 identity check and 16 costlier, so the median
    # falls mid-way through the eight identity checks; two ops are costlier
    # than a dim-5 Weddle matrix, so p90 falls mid-way through the four of
    # those.  Neither percentile sits on the edge between two op kinds.
    cycle_kinds = (
        *([("system_through_points", 2)] * 2), *([("system_through_points", 3)] * 2),
        *([("system_through_points", 4)] * 2), *([("decompose", 3)] * 2),
        *([("decompose", 4)] * 2),
        *([("cli", "decompose", "cyclic-dim2")] * 2), ("cli", "decompose", "ex-bpf-conics"),
        *([("cli", "weddle", "weddle-6pts")] * 2), ("cli", "weddle", "ex-bpf-conics"),
        *([("rank5_identity",)] * 8),
        *([("weddle_matrix", 4)] * 3), *([("decompose", 5)] * 3),
        *([("cli", "jinv", "witness-C1")] * 2), *([("cli", "jinv", "witness-C2")] * 2),
        *([("weddle_matrix", 5)] * 4), ("weddle_matrix", 6), ("weddle_matrix", 7),
    )
    fixtures_used = ("cyclic-dim2", "ex-bpf-conics", "weddle-6pts", "witness-C1", "witness-C2")
    basis_dims = (4, 5, 6, 7)

    def _op(self, kind: tuple, rng: random.Random) -> Op:
        what = kind[0]
        if what == "cli":
            return self._cli_op(kind[1], kind[2], rng)
        if what == "weddle_matrix":
            dim = kind[1]
            system = LinearSystem.from_tensor(tensor.random_n1(dim, rng=rng))
            points = [[Fraction(rng.randint(-9, 9)) for _ in range(dim)] for _ in range(2)]
            return Op(f"weddle_matrix.d{dim}", f"weddle_matrix {system.to_json()}",
                      lambda: loci.weddle_matrix(system),
                      partial(self._check_weddle, system, points))
        if what == "decompose":
            dim = kind[1]
            t = Tensor3([[[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
                         for _ in range(dim)])
            return Op(f"decompose.d{dim}", f"decompose {t.to_json()}",
                      partial(self._decompose, t), partial(self._check_decompose, t))
        if what == "rank5_identity":
            matrix = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            return Op("rank5_identity", f"rank5_identity_check {matrix}",
                      lambda: loci.rank5_identity_check(matrix),
                      lambda ok: Outcome(True, ok is True))
        if what == "system_through_points":
            n = kind[1]
            points = self._general_points(n, n * (n + 1) // 2, rng)
            return Op(f"system_through_points.n{n}", f"system_through_points {points} {n}",
                      lambda: loci.system_through_points(points, n),
                      partial(self._check_through, points, n))
        raise ValueError(f"unknown exact op {kind}")

    @staticmethod
    def _general_points(n: int, count: int, rng: random.Random) -> list:
        """Integer points that impose independent conditions on quadrics."""
        while True:
            points = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(count)]
            rows = [[p[i] * p[j] for i in range(n + 1) for j in range(i, n + 1)] for p in points]
            if echelon(rows)[0] == count:
                return points

    @staticmethod
    def _decompose(t):
        parts = tensor.decompose(t)
        return parts, [tensor.in_class(p, c) for p, c in zip(parts, PARTS)]

    @staticmethod
    def _check_decompose(t, out) -> Outcome:
        parts, memberships = out
        dim = t.dim
        resum = all(
            sum(p.faces[k][i][j] for p in parts) == t.faces[k][i][j]
            for k in range(dim) for i in range(dim) for j in range(dim)
        )
        return Outcome(True, resum and all(memberships), (), {"tensor": t})

    @staticmethod
    def _check_weddle(system, points, data) -> Outcome:
        """The Weddle polynomial is the determinant of the contraction
        matrix up to one constant: compare both at two integer points."""
        dets, values = [], []
        for p in points:
            contraction = [[sum(p[j] * system.quadrics[k][i][j] for j in range(len(p)))
                            for k in range(len(p))] for i in range(len(p))]
            dets.append(echelon(contraction)[1])
            values.append(_evaluate(data.polynomial, p))
        if data.degenerate:
            correct = all(d == 0 for d in dets)
        else:
            correct = (
                all((d == 0) == (v == 0) for d, v in zip(dets, values))
                and dets[0] * values[1] == dets[1] * values[0]
                and all(sum(m) == len(points[0]) for m in data.polynomial.terms)
            )
        return Outcome(True, correct, (), {"system": system})

    @staticmethod
    def _check_through(points, n, system) -> Outcome:
        vanish = all(_quadric_at(q, p) == 0 for q in system.quadrics for p in points)
        flat = [[q[i][j] for i in range(n + 1) for j in range(i, n + 1)] for q in system.quadrics]
        correct = len(system.quadrics) == n + 1 and vanish and echelon(flat)[0] == n + 1
        return Outcome(True, correct, (), {"system": system})


WORKLOADS = {w.name: w for w in (Sweep, Exact)}
