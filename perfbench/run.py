#!/usr/bin/env python3
"""Benchmark of weddle's certified-count pipeline.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Runs one seeded workload in a closed loop with one client (each op starts
when the previous one returned) for --seconds, rounded up to whole cycles of
the workload's op mix, and checks every answer.  Prints a JSON report line,
then the result line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  Their timings are CPU seconds
scaled to a reference host speed, which a fixed computation run before every
op reads (see speed.py); the raw CPU and wall-clock timings go to the report
line.  --trace 1 runs each cycle twice,
untraced and with spans on weddle's public functions, alternating which pass
goes first; it reports the per-layer metrics, the tracing overhead and
whether both passes gave identical path accounting.

Failed ops (with replay inputs), spans and reports are written under
.perfbench_out/ in the repository root.  Must be run from a checkout that
holds src/weddle.
"""

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import os  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7  # set-up is timed here and in six fresh processes
SETUP_READINGS = 9  # gauge readings after each set-up
# The timing metrics read CPU seconds at the gauge's reference speed.  The
# benchmark is one thread (BLAS is pinned to one), so its CPU time is its
# wall time less the time the host gave to other processes; the gauge takes
# out how fast the host ran the rest.  The raw clocks go to the report.
CLOCK = "ref"
RAW_CLOCKS = ("cpu", "wall")


@dataclass
class Record:
    op_id: str
    kind: str
    key: str
    latency: float  # wall-clock seconds
    cpu: float = 0.0  # CPU seconds of this (single-threaded) process
    ref: float = 0.0  # cpu, scaled to the gauge's reference speed
    certified: bool = False  # set only for ops that returned
    correct: bool = False
    error: str = ""
    paths: tuple = ()

    @property
    def failed(self) -> bool:
        """Raised, or returned a certified answer that differs from the known one."""
        return bool(self.error) or not self.correct


@dataclass
class Phase:
    label: str
    records: list = field(default_factory=list)
    readings: list = field(default_factory=list)  # gauge before each op, and one after the last
    busy_s: float = 0.0
    busy_cpu_s: float = 0.0
    busy_ref_s: float = 0.0
    cycles: int = 0


def set_up(workload: str, seed: int, traced: bool, gauge):
    """Import, fixture loading, op-list generation and cache warm-up."""
    sys.path.insert(0, str(SRC))
    import workloads

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer(time.process_time)
        tracer.install()
        tracer.op_id = tracing.SETUP_OP
    wl = workloads.WORKLOADS[workload](seed)
    if tracer is not None:
        tracer.uninstall()
        tracer.counts.clear()  # the counts cover the timed ops only
    setup = {"wall": time.perf_counter() - _T0, "cpu": time.process_time() - _C0}
    setup["gauge"] = statistics.median(gauge() for _ in range(SETUP_READINGS))
    setup["ref"] = speed.at_reference(setup["cpu"], setup["gauge"])
    return wl, tracer, setup


def setup_in_fresh_process(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run(wl, seconds: float, gauge, tracer=None) -> tuple:
    """Whole cycles until `seconds` have passed; returns (untraced, traced).

    With a tracer, each cycle runs twice, untraced and traced, alternating
    which pass goes first, so that both passes meet the same machine state.
    A cycle's inputs are built before the tracer is installed, so spans
    cover the ops alone."""
    plain = Phase("run" if tracer is None else "untraced")
    traced = Phase("traced")
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        ops = wl.cycle(index)
        passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        for phase, pass_tracer in passes[::-1] if index % 2 else passes:
            run_cycle(wl, phase, index, ops, gauge, pass_tracer)
        index += 1
    for phase in (plain,) if tracer is None else (plain, traced):
        phase.readings.append(gauge())
        for i, record in enumerate(phase.records):
            record.ref = speed.at_reference(record.cpu, speed.around(phase.readings, i))
            phase.busy_ref_s += record.ref
    return plain, traced


def run_cycle(wl, phase: Phase, index: int, ops: list, gauge, tracer=None) -> None:
    if tracer is not None:
        tracer.install()
    try:
        for k, op in enumerate(ops):
            record = Record(f"{index}.{k}", op.kind, op.key, 0.0)
            phase.readings.append(gauge())
            if tracer is not None:
                tracer.op_id = record.op_id
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.call()
            except Exception:
                record.latency = time.perf_counter() - t0
                record.cpu = time.process_time() - c0
                record.error = traceback.format_exc()
            else:
                record.latency = time.perf_counter() - t0
                record.cpu = time.process_time() - c0
                try:
                    outcome = op.check(result)
                except Exception:
                    record.error = "answer check raised:\n" + traceback.format_exc()
                else:
                    record.certified = outcome.certified
                    record.correct = outcome.correct
                    record.paths = outcome.paths
            phase.busy_s += record.latency
            phase.busy_cpu_s += record.cpu
            phase.records.append(record)
            if record.failed:
                write_failure(wl, phase.label, op, record, None if record.error else outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.cycles += 1


def write_failure(wl, label: str, op, record: Record, outcome) -> None:
    """One JSON file per failed op, plus the system it solved as a file the
    command line accepts, so `weddle ... FILE --seed N` replays it."""
    base = OUT / "failures" / f"{wl.name}-seed{wl.seed}-{label}-op{record.op_id}"
    base.parent.mkdir(parents=True, exist_ok=True)
    entry = {"workload": wl.name, "seed": wl.seed, "op": op.key, "kind": op.kind,
             "error": record.error or "certified answer differs from the known one"}
    replay = dict(outcome.replay or {}) if outcome is not None else {}
    system = replay.pop("system", None)
    sampled = replay.pop("tensor", None)
    if system is not None:
        path = base.with_suffix(".system.json")
        path.write_text(json.dumps(system.to_json(), indent=2) + "\n", encoding="utf-8")
        replay["command"] = replay.get("command", "").replace("SYSTEM", str(path))
        entry["system"] = system.to_json()
    if sampled is not None:
        entry["tensor"] = sampled.to_json()
    entry.update(replay)
    base.with_suffix(".json").write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")


# ---- metrics ----

def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def op_times(phase: Phase, clock: str) -> tuple:
    """(per-op times, total time in ops) on the wall or CPU clock, or at
    the reference speed."""
    if clock == "ref":
        return [r.ref for r in phase.records], phase.busy_ref_s
    if clock == "cpu":
        return [r.cpu for r in phase.records], phase.busy_cpu_s
    return [r.latency for r in phase.records], phase.busy_s


def ops_per_s(phase: Phase, clock: str) -> float:
    """Ops that returned, over the time spent in ops."""
    return sum(not r.error for r in phase.records) / op_times(phase, clock)[1]


def timings(phase: Phase, setup_samples: list, clock: str) -> dict:
    times, busy = op_times(phase, clock)
    setups = [sample[clock] for sample in setup_samples]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "n": len(setups), "samples": setups},
        "ops_per_s": {"value": ops_per_s(phase, clock), "unit": "1/s",
                      "n": len(times), "cycles": phase.cycles, "busy_s": busy},
    }
    for q in (50, 90):
        value = percentile(times, q)
        beyond = sum(x > value for x in times)
        metrics[f"op_p{q}_s"] = {"value": value, "unit": "s", "n": len(times),
                                 "beyond": beyond, "ten_beyond": beyond >= 10}
    return metrics


def end_to_end(phase: Phase, setup_samples: list) -> dict:
    """Timings at the reference speed, then on the raw clocks for the record."""
    records = phase.records
    attempted = len(records)
    failed = sum(r.failed for r in records)
    certified = sum(r.certified for r in records)
    metrics = timings(phase, setup_samples, CLOCK)
    metrics.update({
        "certified_frac": {"value": certified / attempted, "unit": "ratio",
                           "n": attempted, "certified": certified},
        "error_frac": {"value": failed / attempted, "unit": "ratio",
                       "n": attempted, "failed": failed},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "clock": CLOCK,
        **{clock: timings(phase, setup_samples, clock) for clock in RAW_CLOCKS},
        "gauge": gauge_summary(phase.readings, [s["gauge"] for s in setup_samples]),
    })
    return metrics


def gauge_summary(readings: list, setup_readings: list) -> dict:
    """How fast the host ran: gauge quartiles over the run, against REF_S."""
    q1, median, q3 = statistics.quantiles(readings, n=4)
    return {"ref_s": speed.REF_S, "n": len(readings), "median_s": median,
            "q1_s": q1, "q3_s": q3, "setup_median_s": statistics.median(setup_readings)}


def per_kind(phase: Phase) -> dict:
    kinds: dict = {}
    for r in phase.records:
        kinds.setdefault(r.kind, []).append(r)
    out = {}
    for kind, rs in sorted(kinds.items()):
        out[kind] = {
            "n": len(rs),
            "p50_s": statistics.median(r.latency for r in rs),
            "p50_cpu_s": statistics.median(r.cpu for r in rs),
            "p50_ref_s": statistics.median(r.ref for r in rs),
            "certified": sum(r.certified for r in rs),
            "failed": sum(r.failed for r in rs),
            "paths_per_op": statistics.mean(sum(c[0] * c[1] for c in r.paths) for r in rs),
        }
    return out


# ---- determinism ----

def sources_digest() -> str:
    """Digest of weddle's sources and the benchmark's own files: an edit to
    either starts a new baseline for the cross-run check."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "weddle").rglob("*"), *HERE.rglob("*")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def path_signature(phase: Phase) -> list:
    """[op key, path accounting per chart, certified, raised] per op."""
    return [[r.key, [list(c) for c in r.paths], r.certified, bool(r.error)]
            for r in phase.records]


def compare(a: list, b: list) -> dict:
    common = min(len(a), len(b))
    diffs = [i for i in range(common) if a[i] != b[i]]
    return {"compared_ops": common, "mismatches": len(diffs),
            "first_mismatch": None if not diffs else {"a": a[diffs[0]], "b": b[diffs[0]]}}


def cross_run_check(wl, signature: list) -> dict:
    """Compare with an earlier run of the same workload, seed and sources,
    over the ops both runs reached; keep the longer record."""
    path = OUT / "determinism" / f"{wl.name}-seed{wl.seed}.json"
    digest = sources_digest()
    earlier = None
    if path.is_file():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored["src"] == digest:
            earlier = stored["ops"]
    result = compare(earlier, signature) if earlier is not None else {
        "compared_ops": 0, "mismatches": 0, "first_mismatch": None}
    if earlier is None or len(signature) > len(earlier):
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".tmp")
        partial.write_text(json.dumps({"src": digest, "ops": signature}), encoding="utf-8")
        os.replace(partial, path)
    return result


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "clients": 1,
        "loop": "closed",
    }


# ---- main ----

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "weddle" / "__init__.py").is_file():
        print(f"error: no weddle sources under {SRC}", file=sys.stderr)
        return 2
    gauge = speed.Gauge()
    wl, tracer, setup_s = set_up(args.workload, args.seed, bool(args.trace), gauge)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "mix": wl.mix(),
              "environment": environment()}
    if not args.trace:
        samples = [setup_s] + [setup_in_fresh_process(wl.name, args.seed)
                               for _ in range(SETUP_RUNS - 1)]
        phase, _ = run(wl, args.seconds, gauge)
        e2e = end_to_end(phase, samples)
        signature = path_signature(phase)
        determinism = {"cross_run": cross_run_check(wl, signature)}
        records = phase.records
        ok = determinism["cross_run"]["mismatches"] == 0
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                   for name in ("setup_s", "ops_per_s", "op_p50_s", "op_p90_s",
                                "certified_frac", "peak_rss_mb")}
    else:
        untraced, traced = run(wl, args.seconds, gauge, tracer)
        phase = untraced
        e2e = end_to_end(untraced, [setup_s])
        first, second = path_signature(untraced), path_signature(traced)
        determinism = {"traced_vs_untraced": compare(first, second),
                       "cross_run": cross_run_check(wl, first)}
        records = untraced.records + traced.records
        ok = all(d["mismatches"] == 0 for d in determinism.values())
        fast, slow = ops_per_s(untraced, CLOCK), ops_per_s(traced, CLOCK)
        layer = tracer.layer_metrics()
        layer["trace.ops_per_s_untraced"] = (fast, "1/s", "higher")
        layer["trace.ops_per_s_traced"] = (slow, "1/s", "higher")
        layer["trace.overhead_frac"] = (fast / slow - 1.0, "ratio", "lower")
        layer["determinism.mismatches"] = (
            sum(d["mismatches"] for d in determinism.values()), "count", "lower")
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in layer.items()}
        report["unmeasured"] = tracer.unmeasured
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")

    attempted = len(records)
    failed = sum(r.failed for r in records)
    report.update({
        "cycles": phase.cycles,
        "per_kind": per_kind(phase),
        "end_to_end": e2e,
        "determinism": determinism,
        "attempted": attempted,
        "failed": failed,
        "op_list_sha256": hashlib.sha256(
            "\n".join(r.key for r in phase.records).encode()).hexdigest(),
    })
    if args.trace:
        report["per_layer"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
