"""Fallback branches of solve, loci and the CLI, each on a concrete input.

- rule B's rational mismatch: a cluster whose height-bounded rational
  reconstruction is not a common zero keeps a solve uncertified;
- an uncertified rank certificate is inconclusive and counts only its
  verified rational singular points;
- a sweep trial whose sampler or solve rejects its draw is an error row,
  and any other exception propagates;
- jinv on a cubic with no rational flex up to height 8 says so.
"""

import json
import random

import pytest

from weddle import cli, loci, solve

# Three points of P^2.  The first reconstructs at height 32 as (1 : 0 : 0),
# which is not a base point: a rational mismatch.  The other two match.
_FAR_POINTS = [[30000000, 1, 0], [0, 1, 1], [1, 2, 3]]


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_rational_mismatch_is_never_certified(seed):
    result = solve.base_points(loci.system_through_points(_FAR_POINTS, 2), solve.SolveConfig(seed=seed))
    assert result.count() == 3 and not result.certified
    assert result.notes[-1].endswith("; rational mismatch")
    assert result.chart_reports[0]["rational_mismatch"] is True
    assert sorted(map(str, (c.rational for c in result.clusters))) == ["(0, 1, 1)", "(1, 2, 3)", "None"]


def test_basepoints_exits_1_on_a_rational_mismatch(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"n": 2, "points": _FAR_POINTS}), encoding="utf-8")
    code, out = _run(capsys, "basepoints", str(path), "--json")
    report = json.loads(out)
    assert code == 1 and report["certified"] is False
    assert report["outputs"]["count"] == 3


def _rank3_draws():
    """Three systems in P^3 (n = 3) from one Random(11): per draw four
    linear forms, so a rank of at most 4 (rank 4 in ROADMAP item 2's
    table), then a 4 x 4 coefficient grid, entries in [-5, 5]."""
    rng = random.Random(11)
    for _ in range(3):
        forms = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        coeffs = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        yield loci.rank_r_system(forms, coeffs, 3)


_RANK3_COUNTS = ["at least 0", "at least 0", "at least 1"]


@pytest.mark.parametrize("draw", range(3))
def test_an_uncertified_rank_certificate_is_inconclusive(draw):
    system = list(_rank3_draws())[draw]
    cert = loci.rank_lower_bound_certificate(system, solve.SolveConfig(seed=0))
    assert cert.conclusion is loci.RankConclusion.INCONCLUSIVE
    assert cert.singular_count == _RANK3_COUNTS[draw]
    assert not cert.evidence.certified
    verified = sum(c.rational is not None for c in cert.evidence.clusters)
    assert cert.singular_count == f"at least {verified}"


def test_certify_exits_1_on_an_uncertified_certificate(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(next(_rank3_draws()).to_json()), encoding="utf-8")
    code, out = _run(capsys, "certify", str(path), "--seed", "0")
    assert code == 1
    assert "singular points: at least 0 (certified: False) => inconclusive" in out
    assert "rank >= 6" not in out


def test_a_sampler_runtime_error_is_an_error_row(monkeypatch):
    def degenerate(dim, rng):
        raise RuntimeError("no nondegenerate sample found")

    monkeypatch.setattr(loci, "sample_general_cyclic", degenerate)
    trial_seed = random.Random(5).randrange(2**30)
    assert loci._sweep_trial(3, random.Random(5)) == (3, trial_seed, "error", None, None)


def test_a_base_points_value_error_is_an_error_row(monkeypatch):
    def rejecting(system, config=None):
        raise ValueError("the system is rejected")

    monkeypatch.setattr(solve, "base_points", rejecting)
    trial_seed = random.Random(5).randrange(2**30)
    assert loci._sweep_trial(2, random.Random(5)) == (2, trial_seed, "error", None, None)


@pytest.mark.parametrize("where", ["sample_general_cyclic", "base_points"])
def test_any_other_exception_of_a_sweep_trial_propagates(monkeypatch, where):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a degenerate draw")

    monkeypatch.setattr(loci if where == "sample_general_cyclic" else solve, where, broken)
    with pytest.raises(ZeroDivisionError):
        loci._sweep_trial(2, random.Random(5))


def test_jinv_without_a_rational_flex(tmp_path, capsys):
    path = tmp_path / "fermat.poly"
    path.write_text("x0^3 + 2*x1^3 + 3*x2^3\n", encoding="utf-8")
    code, out = _run(capsys, "jinv", str(path))
    assert code == 0
    assert "flex used: none up to height 8" in out
    code, out = _run(capsys, "jinv", str(path), "--json")
    outputs = json.loads(out)["outputs"]
    assert code == 0
    assert (outputs["a"], outputs["b"], outputs["j"], outputs["flex"]) == ("0", "-1/3", "0", None)
