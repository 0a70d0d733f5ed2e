"""scripts/check_bench.py: every committed BENCH record gives a parent and a
change value for each end-to-end metric and workload of BENCHMARK.json."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_bench", ROOT / "scripts" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _declaration():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _latest_bench():
    return json.loads(check_bench.bench_paths(ROOT)[-1].read_text(encoding="utf-8"))


def test_bench_files_are_listed_in_pr_number_order(tmp_path):
    for pr in (8, 23, 10):
        (tmp_path / f"BENCH_{pr}.json").write_text("{}", encoding="utf-8")
    assert [p.name for p in check_bench.bench_paths(tmp_path)] == [
        "BENCH_8.json", "BENCH_10.json", "BENCH_23.json"
    ]


def test_committed_bench_records_are_complete():
    assert check_bench.main(ROOT) == 0


def test_a_missing_median_is_reported():
    bench = _latest_bench()
    del bench["workloads"]["exact"]["change"]["median"]["ops_per_s"]
    assert check_bench.problems(bench, _declaration()) == ["exact.change.median: no ops_per_s"]


def test_a_run_without_a_metric_is_reported():
    bench = _latest_bench()
    del bench["workloads"]["sweep"]["parent"]["runs"][0]["metrics"]["peak_rss_mb"]
    assert check_bench.problems(bench, _declaration()) == [
        "sweep.parent.runs[0]: no peak_rss_mb"
    ]


def test_a_missing_workload_is_reported():
    bench = _latest_bench()
    del bench["workloads"]["sweep"]
    assert check_bench.problems(bench, _declaration()) == ["sweep: no record"]


def test_no_bench_file_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    assert check_bench.main(tmp_path) == 1
