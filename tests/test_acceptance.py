"""The twelve acceptance criteria, one test and one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v`` for one PASSED/FAILED row per
criterion; a summary block with timings is printed at the end of the run
(and immediately with ``-s``).  Every criterion enforces its time budget.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import ACCEPTANCE_LINES

from weddle import cubic, fixtures, loci, solve, tensor
from weddle.loci import LinearSystem
from weddle.polycore import MultiPoly, parse_poly
from weddle.tensor import SymmetryClass


@contextmanager
def criterion(number, budget_s, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        line = f"criterion {number:02d}: FAIL ({elapsed:.2f}s / {budget_s:.0f}s) {description}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget_s
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d}: {status} ({elapsed:.2f}s / {budget_s:.0f}s) {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"time budget exceeded: {elapsed:.2f}s > {budget_s}s"


def test_criterion_01_projector_ranks():
    with criterion(1, 1.0, "projector ranks match the binomial formulas, dims 2..6"):
        for n in range(1, 6):
            dim = n + 1
            ranks = [
                tensor.projector_rank(SymmetryClass.SYMMETRIC, dim),
                tensor.projector_rank(SymmetryClass.RESIDUAL1, dim),
                tensor.projector_rank(SymmetryClass.RESIDUAL2, dim),
                tensor.projector_rank(SymmetryClass.SKEW, dim),
            ]
            assert ranks == [
                math.comb(n + 3, 3),
                2 * math.comb(n + 2, 3),
                2 * math.comb(n + 2, 3),
                math.comb(n + 1, 3),
            ]
            assert sum(ranks) == (n + 1) ** 3


def test_criterion_02_cyclic_basis_fixtures():
    with criterion(2, 1.0, "N1 basis tensors match the printed dim-2/dim-3 fixtures"):
        dim2 = [t.to_json()["faces"] for t in tensor.basis(SymmetryClass.RESIDUAL1, 2)]
        assert dim2 == [
            [[["0", "1/3"], ["1/3", "0"]], [["-2/3", "0"], ["0", "0"]]],
            [[["0", "0"], ["0", "2/3"]], [["0", "-1/3"], ["-1/3", "0"]]],
        ]

        basis3 = tensor.basis(SymmetryClass.RESIDUAL1, 3)
        assert len(basis3) == 8
        faces3 = [t.to_json()["faces"] for t in basis3]
        z3 = [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        assert faces3 == [
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


def test_criterion_03_weddle_fixture_polynomials():
    with criterion(3, 1.0, "coordinate-square and degenerate Weddle polynomials"):
        conics = fixtures.system("ex-bpf-conics")
        assert str(loci.weddle_matrix(conics).polynomial) == "x0*x1*x2"

        eye4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        rank4 = loci.rank_r_system(eye4, eye4, 3)
        assert str(loci.weddle_matrix(rank4).polynomial) == "x0*x1*x2*x3"

        degenerate = loci.weddle_matrix(fixtures.system("degenerate-conics"))
        assert degenerate.degenerate
        assert degenerate.polynomial.is_zero()


def test_criterion_04_gradient_is_twice_contraction():
    with criterion(4, 5.0, "gradient equals twice the contraction on 200 systems"):
        rng = random.Random(0)
        for _ in range(200):
            dim = rng.choice([2, 3, 4, 5])
            system = LinearSystem.from_tensor(tensor.random_n1(dim, rng=rng))
            assert loci.contraction_matrix(system).scale(2) == loci.gradient_matrix(system)


def test_criterion_05_base_points_are_singular_on_the_weddle_locus():
    with criterion(5, 30.0, "base points singular on the Weddle polynomial, 100 systems"):
        rng = random.Random(1)
        built = 0
        while built < 100:
            dim = rng.choice([2, 3])
            npts = {2: 3, 3: 6}[dim]
            points = [[rng.randint(-5, 5) for _ in range(dim + 1)] for _ in range(npts)]
            if any(all(x == 0 for x in p) for p in points):
                continue
            if len(loci.quadrics_through_points(points, dim)) != dim + 1:
                continue
            system = loci.system_through_points(points, dim)
            data = loci.weddle_matrix(system)
            built += 1
            for p in points:
                assert loci.base_point_theorem_check(system, p)
                if not data.degenerate:
                    assert loci.singular_at(data.polynomial, p)


def test_criterion_06_j_invariant_witnesses():
    with criterion(6, 5.0, "witness cubics reduce to the exact pairs and j values"):
        r1 = cubic.weierstrass_reduce(fixtures.poly("witness-C1"))
        assert r1.exact
        assert (r1.a, r1.b) == (Fraction(-121, 48), Fraction(845, 864))
        assert r1.j == Fraction(1771561, 612)

        r2 = cubic.weierstrass_reduce(fixtures.poly("witness-C2"))
        assert r2.exact
        assert (r2.a, r2.b) == (Fraction(-1633, 48), Fraction(61201, 864))
        assert r2.j == Fraction(4354703137, 352512)

        assert cubic.weierstrass_reduce(fixtures.poly("witness-C1")).j == Fraction(1771561, 612)
        assert cubic.weierstrass_reduce(fixtures.poly("witness-C2")).j == Fraction(
            4354703137, 352512
        )


def test_criterion_07_rank5_machinery():
    with criterion(7, 60.0, "rank-5 quartic: identity, 10 exact points, certified count"):
        M = fixtures.load("rank5-M")
        quartic = loci.rank5_det_quartic(M)
        assert quartic == loci.rank5_closed_form(M)
        assert len(quartic.terms) == 13
        assert str(quartic) == (
            "-x0^2*x1*x2 - x0^2*x1*x3 + x0^2*x2*x3 - x0*x1^2*x2 - x0*x1^2*x3"
            " - x0*x1*x2^2 + x0*x1*x2*x3 - x0*x1*x3^2 + x0*x2^2*x3 + x0*x2*x3^2"
            " + x1^2*x2*x3 + x1*x2^2*x3 + x1*x2*x3^2"
        )

        rng = random.Random(7)
        for _ in range(50):
            sample = [[Fraction(rng.randint(-6, 6)) for _ in range(4)] for _ in range(4)]
            assert loci.rank5_identity_check(sample)

        listed = [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, -1, 0, 0),
            (1, 0, -1, 0),
            (1, 0, 0, -1),
            (0, 1, -1, 0),
            (0, 1, 0, -1),
            (0, 0, 1, -1),
        ]
        for p in listed:
            assert loci.singular_at(quartic, list(p))

        result = solve.singular_points(quartic)
        assert result.certified
        assert result.count() == 10
        assert result.paths_tracked == 27
        assert len(result.chart_reports) == 2
        assert {c.rational for c in result.clusters} == {
            tuple(Fraction(x) for x in p) for p in listed
        }


def test_criterion_08_cyclic_relation():
    with criterion(8, 10.0, "sum of x_k Q_k vanishes for 50 tensors per dim, dims 2..6"):
        rng = random.Random(8)
        for dim in range(2, 7):
            for _ in range(50):
                system = LinearSystem.from_tensor(tensor.random_n1(dim, rng=rng))
                assert loci.cyclic_relation_check(system).is_zero()


def test_criterion_09_jacobsthal_base_point_counts():
    with criterion(9, 300.0, "certified base-point counts equal 1, 3, 5, 11 for dims 2..5"):
        trials = 10
        report = []
        for dim in (2, 3, 4, 5):
            expected = solve.jacobsthal(dim)
            certified = 0
            uncertified = 0
            for _, _, _, count, _ in loci.sweep_trials([dim], trials, 900 + dim):
                if count is None:
                    uncertified += 1
                    continue
                certified += 1
                assert count == expected, f"dim {dim}: certified count {count} != J = {expected}"
            report.append(f"dim {dim}: {certified} certified / {uncertified} excluded")
            assert certified >= 0.8 * trials, "; ".join(report)
        print("; ".join(report))


def test_criterion_10_rank_certificates():
    with criterion(10, 120.0, "rank certificates: 6 => >=6, 0 => >=6, 10 => inconclusive"):
        six = loci.rank_lower_bound_certificate(fixtures.system("weddle-6pts"))
        assert six.evidence.certified
        assert six.singular_count == 6
        assert six.conclusion is loci.RankConclusion.RANK_AT_LEAST_6

        smooth = loci.rank_lower_bound_certificate(fixtures.system("random-quartic-sys"))
        assert smooth.evidence.certified
        assert smooth.singular_count == 0
        assert smooth.conclusion is loci.RankConclusion.RANK_AT_LEAST_6

        ten = loci.rank_lower_bound_certificate(fixtures.system("rank5-M"))
        assert ten.evidence.certified
        assert ten.singular_count == 10
        assert ten.conclusion is loci.RankConclusion.INCONCLUSIVE


def test_criterion_11_splitting_of_low_rank_loci():
    with criterion(11, 1.0, "rank-3 cubic splits into 3 planes, rank-4 quartic into 4"):
        cubic_poly = parse_poly("x0*x1*x2")
        factors = loci.splits_into_hyperplanes(
            cubic_poly, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert factors is not None
        assert sorted(str(f) for f in factors) == ["x0", "x1", "x2"]
        product = MultiPoly.constant(3, 1)
        for f in factors:
            product = product * f
        assert product.proportional(cubic_poly)

        quartic_poly = parse_poly("x0*x1*x2*x3")
        factors = loci.splits_into_hyperplanes(
            quartic_poly,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        )
        assert factors is not None
        assert sorted(str(f) for f in factors) == ["x0", "x1", "x2", "x3"]


def test_criterion_12_jacobsthal_identities():
    with criterion(12, 1.0, "Jacobsthal identities hold for 0 <= n <= 30, J_13 = 2731"):
        values = [solve.jacobsthal(n) for n in range(31)]
        assert values[0] == 0 and values[1] == 1
        assert values[13] == 2731
        for n in range(31):
            assert 3 * values[n] == 2**n - (-1) ** n
            if n >= 2:
                assert values[n] == values[n - 1] + 2 * values[n - 2]
            if n < 30:
                assert values[n + 1] == 2**n - values[n]
                assert values[n + 1] == 2 * values[n] + (-1) ** n
