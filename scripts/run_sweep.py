#!/usr/bin/env python3
"""Instrumented base-point sweep: a timing front end over the library sweep
`weddle.loci.sweep_trials`, which also backs `weddle jacobsthal-sweep`.

Prints one line per trial (seed, count, wall time) and a summary table
against the Jacobsthal numbers J_n = 1, 3, 5, 11 for dims 2..5, the dims
whose 2^(n-1) Bezout paths per chart fit the solver's cap; with --out
the full per-trial record is written as a JSON artifact.  Dims are read
as the CLI reads them and the seed convention is the library's, so any
trial printed here can be replayed through `weddle jacobsthal-sweep` with
the same --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weddle import cli, loci, solve  # noqa: E402


def run_dim(dim: int, trials: int, sweep) -> dict:
    """Time and print the next ``trials`` trials of the sweep, all of dim."""
    expected = solve.jacobsthal(dim)
    rows = []
    for trial in range(trials):
        start = time.perf_counter()
        _, trial_seed, status, count, sampled = next(sweep)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "trial": trial,
                "seed": trial_seed,
                "status": status,
                "count": count,
                "elapsed_s": round(elapsed, 3),
                "tensor": sampled.to_json() if status == "mismatch" else None,
            }
        )
        shown = "-" if count is None else str(count)
        print(f"  dim {dim} trial {trial:2d}: count {shown:>2} [{status}] "
              f"seed {trial_seed} ({elapsed:.2f}s)")
    certified = [r for r in rows if r["count"] is not None]
    matching = sum(1 for r in certified if r["count"] == expected)
    return {
        "dim": dim,
        "expected": expected,
        "trials": trials,
        "certified": len(certified),
        "matching": matching,
        "excluded": trials - len(certified),
        "rows": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="2..5", help="range like 2..5 or list like 2,3")
    parser.add_argument("--trials", type=int, default=10, help="trials per dimension")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", type=Path, default=None, help="write JSON artifact here")
    args = parser.parse_args()

    try:
        dims = cli._parse_dims(args.dims)
        sweep = loci.sweep_trials(dims, args.trials, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    started = time.perf_counter()
    summaries = [run_dim(dim, args.trials, sweep) for dim in dims]
    total = time.perf_counter() - started

    print()
    print(f"{'dim':>3} {'J_n':>4} {'certified':>9} {'matching':>8} {'excluded':>8}")
    ok = True
    for s in summaries:
        print(f"{s['dim']:>3} {s['expected']:>4} {s['certified']:>9} "
              f"{s['matching']:>8} {s['excluded']:>8}")
        ok = ok and s["certified"] > 0 and s["matching"] == s["certified"]
    print(f"total {total:.1f}s; every certified count matches J_n: {ok}")

    if args.out is not None:
        artifact = {
            "seed": args.seed,
            "trials": args.trials,
            "dims": [s["dim"] for s in summaries],
            "summaries": summaries,
            "all_match": ok,
            "elapsed_s": round(total, 3),
        }
        args.out.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
