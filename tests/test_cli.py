"""Command-line interface: reports, exit codes, fixture resolution."""

import json
import random
import re
import subprocess
import sys

import pytest

from weddle import cli, fixtures, loci, solve, tensor
from weddle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---- report shape and exit codes ----

def test_decompose_report_shape(capsys):
    code, report, _ = run_json(capsys, "decompose", "cyclic-dim2")
    assert code == 0
    assert report["command"] == "decompose"
    assert report["inputs"]["source"] == "fixture:cyclic-dim2"
    assert len(report["inputs"]["sha256"]) == 64
    assert report["certified"] is True
    assert report["outputs"]["parts_resum_to_input"] is True
    assert report["outputs"]["n1"]["dim"] == 2
    assert report["elapsed_s"] >= 0


def test_weddle_subcommand_prints_matrix_and_polynomial(capsys):
    code, out, _ = run_cli(capsys, "weddle", "ex-bpf-conics")
    assert code == 0
    assert "polynomial: x0*x1*x2" in out
    assert "degenerate: False" in out
    code, out, _ = run_cli(capsys, "weddle", "degenerate-conics")
    assert code == 0
    assert "degenerate: True" in out


def test_basepoints_subcommand_reports_rational_points(capsys):
    code, report, _ = run_json(capsys, "basepoints", "cyclic-dim2")
    assert code == 0
    assert report["outputs"]["count"] == 1
    assert report["outputs"]["jacobsthal_for_dim"] == 1
    clusters = report["outputs"]["solution_set"]["clusters"]
    assert clusters[0]["rational_match"] == ["2", "-1"]


def test_singular_subcommand_on_a_smooth_cubic(capsys):
    code, report, _ = run_json(capsys, "singular", "witness-C1")
    assert code == 0
    assert report["outputs"]["count"] == 0
    assert report["certified"] is True


def test_jinv_subcommand_exact_values(capsys):
    code, report, _ = run_json(capsys, "jinv", "witness-C2")
    assert code == 0
    assert report["outputs"]["exact"] is True
    assert report["outputs"]["a"] == "-1633/48"
    assert report["outputs"]["b"] == "61201/864"
    assert report["outputs"]["j"] == "4354703137/352512"


def test_certify_subcommand_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "certify", "weddle-6pts")
    assert code == 0
    assert "singular points: 6 < 10 => rank >= 6" in out
    code, out, _ = run_cli(capsys, "certify", "rank5-M")
    assert code == 0
    assert "inconclusive" in out


def test_unknown_fixture_exits_with_usage_error(capsys):
    code, _, err = run_cli(capsys, "weddle", "no-such-input")
    assert code == 2
    assert "no such file or fixture" in err


def test_kind_mismatch_exits_with_usage_error(capsys):
    code, _, err = run_cli(capsys, "weddle", "witness-C1")
    assert code == 2
    assert "quadric system is required" in err
    code, _, err = run_cli(capsys, "jinv", "rank5-M")
    assert code == 2


def test_uncertified_run_exits_nonzero(capsys):
    # every quadric of this net contains the line {x0 + x1 = 0, x2 = 0},
    # so the base locus is positive-dimensional and cannot certify
    code, report, _ = run_json(capsys, "basepoints", "degenerate-conics")
    assert code == 1
    assert report["certified"] is False


# ---- input resolution ----

def test_file_inputs_resolve_before_fixturenames(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(fixtures.read_text("ex-bpf-conics"), encoding="utf-8")
    code, report, _ = run_json(capsys, "weddle", str(path))
    assert code == 0
    assert report["inputs"]["source"] == str(path)
    assert report["outputs"]["polynomial"] == "x0*x1*x2"


def test_poly_file_input(tmp_path, capsys):
    path = tmp_path / "curve.poly"
    path.write_text("x0^3 + x1^3 + x2^3\n", encoding="utf-8")
    code, report, _ = run_json(capsys, "jinv", str(path))
    assert code == 0
    assert report["outputs"]["j"] == "0"


def test_a_directory_as_input_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "decompose", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: could not read")


def test_singular_does_not_certify_a_fourfold_binary_root(tmp_path, capsys):
    # (x0 - x1)^4 has one singular point, (1:1), where the square system in
    # one unknown has a triple root
    path = tmp_path / "quartic.poly"
    path.write_text("x0^4 - 4*x0^3*x1 + 6*x0^2*x1^2 - 4*x0*x1^3 + x1^4\n", encoding="utf-8")
    code, report, _ = run_json(capsys, "singular", str(path))
    assert code == 1
    assert report["certified"] is False


def test_tensor_file_feeds_every_tensor_command(tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(fixtures.read_text("cyclic-dim2"), encoding="utf-8")
    for command in ("decompose", "weddle", "basepoints"):
        code, _, _ = run_json(capsys, command, str(path))
        assert code == 0


# ---- seeds and fixed thresholds ----

def test_environment_does_not_change_a_report(capsys, monkeypatch):
    _, plain, _ = run_json(capsys, "basepoints", "weddle-6pts")
    monkeypatch.setenv("WEDDLE_SEED", "7")
    monkeypatch.setenv("WEDDLE_RESIDUAL_TOL", "1e-30")
    _, report, _ = run_json(capsys, "basepoints", "weddle-6pts")
    plain.pop("elapsed_s")
    report.pop("elapsed_s")
    assert report == plain
    _, report, _ = run_json(capsys, "basepoints", "weddle-6pts", "--seed", "3")
    assert report["seed"] == 3


def test_one_parser_serves_every_call_like_a_fresh_one(capsys):
    argvs = [["decompose", "cyclic-dim2"], ["jacobsthal-sweep"], ["basepoints", "weddle-6pts"]]

    def report(argv):
        code, report, err = run_json(capsys, *argv)
        report.pop("elapsed_s")
        return code, report, err

    reused = [report(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(report(argv))
    assert reused == fresh
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])
    assert exc.value.code == 2
    assert "input" in capsys.readouterr().err


def test_tolerance_flags_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basepoints", "weddle-6pts", "--residual-tol", "1e-30"])
    assert exc.value.code == 2
    assert "--residual-tol" in capsys.readouterr().err


def test_reports_are_reproducible_for_a_fixed_seed(capsys):
    reports = []
    for _ in range(2):
        _, report, _ = run_json(capsys, "singular", "witness-C1", "--seed", "5")
        report.pop("elapsed_s")
        reports.append(report)
    assert reports[0] == reports[1]


def test_sweep_is_reproducible_and_tabulates_every_dim(capsys):
    outputs = []
    for _ in range(2):
        code, report, _ = run_json(
            capsys, "jacobsthal-sweep", "--dims", "2,3", "--trials", "3", "--seed", "11"
        )
        assert code == 0
        report.pop("elapsed_s")
        outputs.append(report)
    assert outputs[0] == outputs[1]
    table = outputs[0]["outputs"]["dims"]
    assert set(table) == {"2", "3"}
    assert table["2"]["expected"] == 1
    assert table["3"]["expected"] == 3
    assert table["3"]["matching"] == table["3"]["certified"]


def test_sweep_text_output_mentions_the_expected_counts(capsys):
    code, out, _ = run_cli(
        capsys, "jacobsthal-sweep", "--dims", "2..3", "--trials", "2", "--seed", "4"
    )
    assert code == 0
    assert "dim 2: J = 1" in out
    assert "dim 3: J = 3" in out


_TRIAL_LINE = re.compile(r"  dim (\d+) trial +(\d+): count +(\d+|-) \[(\w+)\] seed (\d+) \(\d+\.\d\ds\)")


def test_sweep_text_output_lists_every_trial_with_its_seed(capsys):
    code, out, _ = run_cli(
        capsys, "jacobsthal-sweep", "--dims", "2..3", "--trials", "2", "--seed", "4"
    )
    assert code == 0
    printed = [m.groups() for m in map(_TRIAL_LINE.fullmatch, out.splitlines()) if m]
    expected = [
        (str(dim), str(index % 2), "-" if count is None else str(count), status, str(seed))
        for index, (dim, seed, status, count, _) in enumerate(loci.sweep_trials([2, 3], 2, 4))
    ]
    assert printed == expected
    assert "dim 2: J = 1" in out
    assert "dim 3: J = 3" in out


def test_sweep_prints_each_trial_line_before_the_next_trial_starts(monkeypatch, capsys):
    # What has reached stdout when each trial starts.
    seen = []

    def trial(dim, master):
        seen.append(capsys.readouterr().out)
        return dim, master.randrange(2**30), "certified", solve.jacobsthal(dim), None

    monkeypatch.setattr(loci, "_sweep_trial", trial)
    code, out, _ = run_cli(
        capsys, "jacobsthal-sweep", "--dims", "2..3", "--trials", "2", "--seed", "4"
    )
    assert code == 0
    printed = [
        [m.groups()[:2] for m in map(_TRIAL_LINE.fullmatch, text.splitlines()) if m]
        for text in [*seen, out]
    ]
    # Trial k's line is out when trial k + 1 starts, the last one at the end.
    assert printed == [[], [("2", "0")], [("2", "1")], [("3", "0")], [("3", "1")]]


def _fake_sweep(monkeypatch, status, count):
    """Every dim-3 trial of a sweep ends with (status, count); every other
    trial certifies J_dim.  Trial seeds are drawn as the real trial draws
    them, so they are the first randrange(2**30) values of the master."""
    sampled = fixtures.load("cyclic-dim2")

    def trial(dim, master):
        seed = master.randrange(2**30)
        if dim == 3:
            return dim, seed, status, count, None if status == "error" else sampled
        return dim, seed, "certified", solve.jacobsthal(dim), sampled

    monkeypatch.setattr(loci, "_sweep_trial", trial)
    return sampled


@pytest.mark.parametrize(
    "status, count, exit_code",
    [("certified", 3, 0), ("mismatch", 4, 1), ("uncertified", None, 1), ("error", None, 1)],
)
def test_sweep_exits_1_unless_every_dim_certifies_j_n(monkeypatch, capsys, status, count, exit_code):
    _fake_sweep(monkeypatch, status, count)
    code, report, _ = run_json(
        capsys, "jacobsthal-sweep", "--dims", "2..3", "--trials", "2", "--seed", "4"
    )
    assert code == exit_code
    assert report["certified"] is (exit_code == 0)
    table = report["outputs"]["dims"]
    assert table["2"]["matching"] == table["2"]["certified"] == 2
    assert table["3"]["certified"] == (0 if count is None else 2)


def test_sweep_lists_a_mismatch_with_its_seed_and_tensor(monkeypatch, capsys):
    sampled = _fake_sweep(monkeypatch, "mismatch", 4)
    master = random.Random(4)
    seeds = [master.randrange(2**30) for _ in range(4)]
    code, report, _ = run_json(
        capsys, "jacobsthal-sweep", "--dims", "2..3", "--trials", "2", "--seed", "4"
    )
    assert code == 1
    assert report["certified"] is False
    table = report["outputs"]["dims"]
    assert table["2"]["mismatches"] == []
    assert table["3"]["mismatches"] == [
        {"tensor": sampled.to_json(), "seed": seed, "count": 4} for seed in seeds[2:]
    ]
    code, out, _ = run_cli(
        capsys, "jacobsthal-sweep", "--dims", "2..3", "--trials", "2", "--seed", "4"
    )
    assert code == 1
    assert f"  MISMATCH (count 4, seed {seeds[2]}): {sampled.to_json()}" in out
    assert out.endswith("certified: False\n")


def test_sweep_rejects_out_of_range_dims(capsys):
    code, _, err = run_cli(capsys, "jacobsthal-sweep", "--dims", "5..9")
    assert code == 2
    assert "dims" in err


def test_sweep_rejects_repeated_dims(capsys):
    code, _, err = run_cli(capsys, "jacobsthal-sweep", "--dims", "2,2", "--trials", "1")
    assert code == 2
    assert "dims must be distinct" in err


def test_sweep_rejects_a_trial_count_below_one(capsys):
    code, out, err = run_cli(capsys, "jacobsthal-sweep", "--dims", "2", "--trials", "-1", "--json")
    assert code == 2
    assert out == ""
    assert "trials must be at least 1" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("number.json", "5"),
        ("list.json", '[{"n": 1}]'),
        ("float.json", '{"n": 1, "quadrics": [[[1.5, 0], [0, 0]], [[0, 0], [0, 1]]]}'),
        ("bool.json", '{"n": 1, "quadrics": [[[true, 0], [0, 0]], [[0, 0], [0, 1]]]}'),
        ("trailing-operator.poly", "x0^3 + 2*"),
        ("lone-sign.poly", "-"),
        ("one-variable.poly", "x0^3"),
        ("linear.poly", "x0 + x1"),
        ("wide-quadric.poly", "x0^2 + x199^2"),
        ("wide-cubic.poly", "x0^3 + x199^3"),
        ("matrix-note.json", '{"matrix": [[1, 0, 1, 1], [1, 2, 0, 1], [0, 1, -1, 1], [1, 0, 1, 0]], '
         '"note": 1}'),
        ("points-note.json", '{"n": 3, "points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
         '[0, 0, 0, 1], [1, 1, 1, 1], [2, -1, 5, -7]], "note": 1}'),
    ],
)
def test_malformed_input_files_are_usage_errors(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    for command in ("weddle", "singular"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_weddle_on_a_p8_system_exceeds_the_determinant_limit(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(tensor.random_n1(9, random.Random(9)).dumps(), encoding="utf-8")
    code, out, err = run_cli(capsys, "weddle", str(path))
    assert code == 2
    assert out == ""
    assert "error: determinant limited to size 8" in err


@pytest.mark.parametrize("n", ["1.5", '"2"', "true"])
def test_non_integer_system_dimension_is_a_usage_error(capsys, tmp_path, n):
    path = tmp_path / "system.json"
    path.write_text(f'{{"n": {n}, "quadrics": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}}', encoding="utf-8")
    for command in ("weddle", "decompose"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "n must be an integer" in err


@pytest.mark.parametrize("n", ["3.7", "true"])
def test_non_integer_points_dimension_is_a_usage_error(capsys, tmp_path, n):
    payload = json.loads(fixtures.read_text("weddle-6pts"))
    path = tmp_path / "points.json"
    path.write_text(json.dumps(payload).replace('"n": 3', f'"n": {n}'), encoding="utf-8")
    code, out, err = run_cli(capsys, "weddle", str(path))
    assert code == 2
    assert out == ""
    assert "n must be an integer" in err


@pytest.mark.parametrize("dim", ["2.5", "true"])
def test_non_integer_tensor_dimension_is_a_usage_error(capsys, tmp_path, dim):
    faces = [[[0, 1], [1, 4]], [[-2, -2], [-2, 0]]]
    path = tmp_path / "tensor.json"
    path.write_text(f'{{"dim": {dim}, "faces": {json.dumps(faces)}}}', encoding="utf-8")
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert "dim must be an integer" in err


def test_boolean_tensor_entry_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text('{"dim": 2, "faces": [[[true, 1], [1, 4]], [[-2, -2], [-2, 0]]]}',
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# Read one character per entry, each string row below would make a valid
# record, with a full report and certified: True.
_STRING_ROW_RECORDS = {
    "system": ("weddle", {"n": 1, "quadrics": [["10", "00"], ["00", "01"]]}),
    "tensor": ("decompose", {"dim": 2, "faces": [["01", "14"], [[-2, -2], [-2, 0]]]}),
    "matrix": ("weddle", {"matrix": ["1011", "1201", "0111", "1010"]}),
    "points": ("weddle", {"n": 2, "points": ["100", "010", "001"]}),
}


@pytest.mark.parametrize("kind", sorted(_STRING_ROW_RECORDS))
def test_a_string_row_in_a_record_is_a_usage_error(capsys, tmp_path, kind):
    command, record = _STRING_ROW_RECORDS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), "--json")
    assert code == 2
    assert out == ""
    assert "could not parse" in err
    assert "expected a sequence of numbers" in err


@pytest.mark.parametrize("dims", ["5..3", "", "2..3,5", "a..b", " "])
def test_sweep_names_the_accepted_dims_forms(capsys, dims):
    code, out, err = run_cli(capsys, "jacobsthal-sweep", "--dims", dims, "--trials", "1")
    assert code == 2
    assert out == ""
    assert "--dims takes a range LO..HI with LO <= HI or a list such as 2,3,4" in err
    assert repr(dims) in err


# ---- the installed console script ----

def test_console_script_runs_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "weddle.cli", "jinv", "witness-C1", "--json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["j"] == "1771561/612"


# ---- fixture integrity ----

def test_fixture_payloads_are_byte_identical_to_their_serializations():
    for name in fixtures.names():
        kind = fixtures.kind(name)
        text = fixtures.read_text(name)
        obj = fixtures.load(name)
        if kind == "system":
            assert fixtures.canonical_json(obj.to_json()) == text
        elif kind == "tensor":
            assert fixtures.canonical_json(obj.to_json()) == text
        elif kind == "poly":
            assert str(obj) + "\n" == text
        else:
            assert json.loads(text)  # matrix and point payloads stay raw JSON


# Each fixture's kind, fixed here: fixtures are classified by their payloads,
# as user files are, and no fixture may change kind.
_REGISTERED_KINDS = {
    "ex-bpf-conics": "system",
    "degenerate-conics": "system",
    "witness-C1-system": "system",
    "witness-C2-system": "system",
    "random-quartic-sys": "system",
    "rank5-M": "matrix",
    "weddle-6pts": "points",
    "witness-C1": "poly",
    "witness-C2": "poly",
    "cyclic-dim2": "tensor",
}


def test_every_fixture_classifies_as_its_registered_kind(tmp_path):
    assert set(fixtures.names()) == set(_REGISTERED_KINDS)
    for name, kind in _REGISTERED_KINDS.items():
        assert fixtures.kind(name) == kind
        assert fixtures.parse(fixtures.REGISTRY[name], fixtures.read_text(name))[0] == kind
        # The same payload as a user file resolves to the same object.
        path = tmp_path / fixtures.REGISTRY[name]
        path.write_text(fixtures.read_text(name), encoding="utf-8")
        _, file_kind, obj = cli._resolve_input(str(path))
        assert (file_kind, obj) == (kind, fixtures.load(name))


def test_registry_known_names():
    assert set(fixtures.names()) >= {
        "ex-bpf-conics",
        "rank5-M",
        "weddle-6pts",
        "witness-C1",
        "witness-C2",
        "random-quartic-sys",
    }
    with pytest.raises(KeyError):
        fixtures.kind("missing-name")
