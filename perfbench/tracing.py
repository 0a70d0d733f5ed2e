"""Per-layer spans for weddle, recorded from outside the package.

`Tracer.install` replaces each listed public function at its module or
class attribute with a wrapper that records a span (name, start, end,
parent span, op id).  Because the wrapper sits on the attribute, calls
between modules that look the name up there (``loci`` calling
``linalg.det``, ``random_n1`` calling ``basis``) are caught too.  A name
that another module bound earlier with ``from ... import`` still points at
the original function; such bindings are listed as unmeasured, never
estimated.  Spans stay in memory until `write` is called at the end of a
run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

# (module, attribute) pairs that get a span per call.
SPANNED = (
    ("polycore", "PolyMatrix.det"),
    ("polycore", "MultiPoly.compose"),
    ("linalg", "rank"),
    ("linalg", "nullspace"),
    ("linalg", "det"),
    ("tensor", "random_n1"),
    ("tensor", "decompose"),
    ("tensor", "basis"),
    ("loci", "sample_general_cyclic"),
    ("loci", "weddle_matrix"),
    ("loci", "system_through_points"),
    ("solve", "base_points"),
    ("cubic", "weierstrass_reduce"),
    ("cli", "main"),
    ("fixtures", "load"),
)

# (module, attribute, metric name) pairs that are only counted: they run
# too often for a span each, and their time stays in the caller's self time.
COUNTED = (
    ("polycore", "MultiPoly.__mul__", "polycore.MultiPoly.mul"),
    ("polycore", "linear_form", "polycore.linear_form"),
)

PACKAGE = "weddle"
SETUP_OP = "setup"  # op id of spans recorded during set-up


def _owner(module, dotted: str):
    *path, attr = dotted.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index, op id, tag]
        self.counts: dict = {}
        self.chart_reports: list = []  # of every solver call, from SolutionSet
        self.notes: list = []
        self.op_id = None
        self.unmeasured: list = []
        self._stack: list = []
        self._restore: list = []

    # ---- installation ----

    def install(self) -> None:
        """Wrap the listed functions.  Spans and counts accumulate over
        installs; spans carry the op id current at the call."""
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        originals = {}
        for mod_name, dotted in SPANNED:
            owner, attr = _owner(sys.modules[f"{PACKAGE}.{mod_name}"], dotted)
            original = getattr(owner, attr)
            metric = f"{mod_name}.{dotted}"
            self._swap(owner, attr, self._spanned(metric, original))
            originals[id(original)] = metric
        for mod_name, dotted, metric in COUNTED:
            owner, attr = _owner(sys.modules[f"{PACKAGE}.{mod_name}"], dotted)
            original = getattr(owner, attr)
            self._swap(owner, attr, self._counted(metric, original))
            originals[id(original)] = metric
        self.unmeasured = sorted(
            f"{m.__name__}.{attr} -> {originals[id(value)]}"
            for m in modules
            for attr, value in vars(m).items()
            if id(value) in originals
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _swap(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, metric: str, original):
        tracer = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            tag = None
            if metric == "solve.base_points" and args:
                tag = f"d{args[0].n + 1}"
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [metric, clock(), 0.0, parent, tracer.op_id, tag]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                tracer._stack.pop()
            if metric == "solve.base_points":
                tracer.chart_reports.extend(result.chart_reports)
                tracer.notes.extend(result.notes)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counted(self, metric: str, original):
        counts = self.counts
        counts.setdefault(metric, 0)

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # ---- results ----

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover.
        Spans nest strictly in a single-threaded run, so the children of a
        span cover the sum of their durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict:
        """Per-layer numbers over the timed ops; set-up spans apart."""
        selfs = self.self_times()
        calls = {metric: 0 for metric in (f"{m}.{d}" for m, d in SPANNED)}
        self_s = dict.fromkeys(calls, 0.0)
        setup_self = dict.fromkeys(calls, 0.0)
        total_solve = 0.0
        per_dim: dict = {}
        draws = samples = 0
        for (name, start, end, parent, op_id, tag), own in zip(self.spans, selfs):
            if op_id == SETUP_OP:
                setup_self[name] += own
                continue
            calls[name] += 1
            self_s[name] += own
            if name == "solve.base_points":
                total_solve += end - start
            if tag is not None:
                per_dim.setdefault(tag, []).append(end - start)
            if name == "loci.sample_general_cyclic":
                samples += 1
            if name == "tensor.random_n1" and parent >= 0:
                draws += self.spans[parent][0] == "loci.sample_general_cyclic"

        out = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name], "count", "lower")
            out[f"{name}.self_s"] = (self_s[name], "s", "lower")
        for _, _, metric in COUNTED:
            out[f"{metric}.calls"] = (self.counts.get(metric, 0), "count", "lower")
        out["setup.tensor.basis.self_s"] = (setup_self["tensor.basis"], "s", "lower")
        out["setup.fixtures.load.self_s"] = (setup_self["fixtures.load"], "s", "lower")
        out["loci.sample_general_cyclic.draws_per_sample"] = (
            draws / samples if samples else 0.0, "ratio", "lower")
        for dim in (2, 3, 4, 5):
            times = per_dim.get(f"d{dim}", [])
            out[f"solve.base_points.p50_s.d{dim}"] = (
                statistics.median(times) if times else 0.0, "s", "lower")

        paths = path_totals(self.chart_reports)
        out["solve.paths_attempted"] = (paths["attempted"], "count", "lower")
        out["solve.s_per_path"] = (
            total_solve / paths["attempted"] if paths["attempted"] else 0.0, "s", "lower")
        for key, better in (("paths_failed", "lower"), ("at_infinity", "lower"),
                            ("retry", "lower"), ("survivor", "higher")):
            out[f"solve.{key}_frac"] = (paths[f"{key}_frac"], "ratio", better)
        out["solve.notes.chart_disagreement"] = (
            sum("chart disagreement" in n for n in self.notes), "count", "lower")
        out["solve.notes.rational_mismatch"] = (
            sum(bool(r["rational_mismatch"]) for r in self.chart_reports), "count", "lower")
        out["trace.unmeasured_bindings"] = (len(self.unmeasured), "count", "lower")
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then the unmeasured bindings."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "tag": tag}) + "\n")
            fh.write(json.dumps({"counts": self.counts, "unmeasured": self.unmeasured}) + "\n")


def path_totals(chart_reports) -> dict:
    """Path accounting summed over chart reports.  Every attempt on a chart
    tracks all of its Bezout paths; the failed, at-infinity and survivor
    counts describe the attempt the solver kept."""
    charts = bezout = attempted = attempts = failed = at_inf = survivors = 0
    for r in chart_reports:
        charts += 1
        bezout += r["bezout_bound"]
        attempts += r["attempts"]
        attempted += r["bezout_bound"] * r["attempts"]
        failed += r["paths_failed"]
        at_inf += r["at_infinity"]
        survivors += r["survivors"]
    return {
        "attempted": attempted,
        "paths_failed_frac": failed / bezout if bezout else 0.0,
        "at_infinity_frac": at_inf / bezout if bezout else 0.0,
        "retry_frac": (attempts - charts) / attempts if attempts else 0.0,
        "survivor_frac": survivors / bezout if bezout else 0.0,
    }
