"""Golden CLI reports: fixed-seed JSON reports must not drift.

`golden_reports.json` holds the `--json --seed 0` report of every
(subcommand, fixture) pair of decompose, weddle, basepoints, singular, jinv
and certify that produces a report, plus two small jacobsthal-sweeps: dims
2..4, and dim 5 (the largest base-point solve).  The certify reports are
27-path solves, exactly at the path cap solve._MAX_PATHS.  Each report is
compared without `elapsed_s`: floats within 1e-9 absolute, everything else
exactly.  After a deliberate change of output, regenerate with

    PYTHONPATH=src python tests/test_golden_reports.py --write

which replaces only the cases whose exit code or report no longer match
and keeps every other case byte for byte as stored.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from weddle import cli, fixtures

GOLDEN = Path(__file__).with_name("golden_reports.json")
SUBCOMMANDS = ("decompose", "weddle", "basepoints", "singular", "jinv", "certify")
# `--dims=5` keeps the second sweep's test id distinct from the first's.
SWEEPS = (
    ["jacobsthal-sweep", "--dims", "2..4", "--trials", "2", "--seed", "0"],
    ["jacobsthal-sweep", "--dims=5", "--trials", "2", "--seed", "0"],
)


def _run(argv):
    """(exit code, report without elapsed_s), or (code, None) without a report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json"])
    if not out.getvalue():
        return code, None
    report = json.loads(out.getvalue())
    report.pop("elapsed_s")
    return code, report


def _differences(want, got, path="$"):
    if isinstance(want, float) or isinstance(got, float):
        ok = (
            type(want) in (int, float)
            and type(got) in (int, float)
            and abs(want - got) <= 1e-9
        )
        return [] if ok else [f"{path}: {want!r} != {got!r}"]
    if type(want) is not type(got):
        return [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in _differences(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in _differences(a, b, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {want!r} != {got!r}"]


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"][:2]))
def test_report_matches_golden(case):
    code, report = _run(case["argv"])
    assert code == case["exit"]
    assert _differences(case["report"], report) == []


def _write():
    """Re-record only the cases that moved: a stored case whose exit code
    and report still match is kept as stored, so last-bit float noise in
    unrelated cases stays out of a re-record."""
    stored = {tuple(case["argv"]): case for case in _load()} if GOLDEN.exists() else {}
    argvs = [[c, name, "--seed", "0"] for c in SUBCOMMANDS for name in fixtures.names()]
    cases, kept = [], 0
    for argv in [*argvs, *SWEEPS]:
        code, report = _run(argv)
        if report is None and argv not in SWEEPS:
            continue
        old = stored.get(tuple(argv))
        if old is not None and old["exit"] == code and not _differences(old["report"], report):
            cases.append(old)
            kept += 1
        else:
            cases.append({"argv": argv, "exit": code, "report": report})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} reports to {GOLDEN}, {kept} of them kept as stored")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write()
