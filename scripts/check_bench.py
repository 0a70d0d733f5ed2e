#!/usr/bin/env python3
"""Check every committed BENCH_*.json against the benchmark declaration.

A BENCH file records perfbench result lines for a parent commit and for a
change.  For each workload that BENCHMARK.json declares, and for each
end-to-end metric it declares, the file must give a numeric value for both
sides: the median over that side's runs, and the value in every run.

    python3 scripts/check_bench.py            # checks BENCH_*.json at the root

Exits 0 when every file is complete, 1 otherwise (listing what is
missing).  BENCHMARK.json is only read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def problems(bench: dict, declaration: dict) -> list:
    """Every (workload, side, metric) the bench record lacks, as messages."""
    metrics = [m["name"] for m in declaration["end_to_end"]]
    found = []
    for workload in (w["name"] for w in declaration["workloads"]):
        sides = bench.get("workloads", {}).get(workload)
        if not isinstance(sides, dict):
            found.append(f"{workload}: no record")
            continue
        for side in SIDES:
            record = sides.get(side)
            if not isinstance(record, dict):
                found.append(f"{workload}.{side}: no record")
                continue
            runs = record.get("runs")
            if not isinstance(runs, list) or not runs:
                found.append(f"{workload}.{side}: no runs")
                runs = []
            median = record.get("median", {})
            for name in metrics:
                if not _is_number(median.get(name)):
                    found.append(f"{workload}.{side}.median: no {name}")
                for i, run in enumerate(runs):
                    if not _is_number(run.get("metrics", {}).get(name, {}).get("value")):
                        found.append(f"{workload}.{side}.runs[{i}]: no {name}")
    return found


def bench_paths(root: Path) -> list:
    """The BENCH_<pr>.json files at root, in PR-number order."""
    return sorted(root.glob("BENCH_*.json"), key=lambda path: int(path.stem.removeprefix("BENCH_")))


def main(root: Path = ROOT) -> int:
    declaration = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    paths = bench_paths(root)
    if not paths:
        print("error: no BENCH_*.json file", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        found = problems(json.loads(path.read_text(encoding="utf-8")), declaration)
        for message in found:
            print(f"{path.name}: {message}", file=sys.stderr)
        failed = failed or bool(found)
        print(f"{path.name}: {'incomplete' if found else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
