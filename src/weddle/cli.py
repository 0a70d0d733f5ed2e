"""Command-line front end.

Subcommands: decompose | weddle | basepoints | singular | jinv | certify |
jacobsthal-sweep.  Inputs are file paths or fixture names; outputs are
human-readable text or (with --json) a machine-readable run report with a
certified flag.  All randomness flows from --seed, and every tolerance is a
fixed constant of weddle.solve, so the same arguments reproduce a report
exactly, apart from the timing field.  In text mode jacobsthal-sweep also
prints each trial with its seed and wall time as the trial finishes, and
each dim's summary after its trials; the times stay out of the report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import cubic, fixtures, loci, solve, tensor
from .polycore import MultiPoly
from .tensor import Tensor3

class InputError(ValueError):
    """Bad command-line input (unknown fixture, malformed file)."""


# ---- input resolution ----

def _resolve_input(source: str):
    """Returns (descriptor, kind, object) for a path or fixture name; both
    are read by fixtures.parse."""
    path = Path(source)
    if path.exists():
        described, filename = str(path), path.name
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:  # a directory, or a file that cannot be read
            raise InputError(f"could not read {source}: {exc}") from exc
    elif source in fixtures.REGISTRY:
        described, filename = f"fixture:{source}", fixtures.REGISTRY[source]
        text = fixtures.read_text(source)
    else:
        raise InputError(
            f"no such file or fixture {source!r}; fixtures: {', '.join(fixtures.names())}"
        )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        kind, obj = fixtures.parse(filename, text)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"could not parse {source}: {exc}") from exc
    return {"source": described, "sha256": digest}, kind, obj


def _as_tensor(kind: str, obj) -> Tensor3:
    if kind == "tensor":
        return obj
    return fixtures.as_system(kind, obj).to_tensor()


def _as_poly(kind: str, obj) -> MultiPoly:
    if kind != "poly":
        raise InputError(f"a polynomial input is required, got a {kind} input")
    return obj


# ---- command implementations ----

def _cmd_decompose(args):
    inputs, kind, obj = _resolve_input(args.input)
    t = _as_tensor(kind, obj)
    sym, n1, n2, skew = tensor.decompose(t)
    resum = (sym + n1 + n2 + skew) == t
    memberships = {
        "symmetric": tensor.in_class(sym, tensor.SymmetryClass.SYMMETRIC),
        "n1": tensor.in_class(n1, tensor.SymmetryClass.RESIDUAL1),
        "n2": tensor.in_class(n2, tensor.SymmetryClass.RESIDUAL2),
        "skew": tensor.in_class(skew, tensor.SymmetryClass.SKEW),
    }
    outputs = {
        "dim": t.dim,
        "symmetric": sym.to_json(),
        "n1": n1.to_json(),
        "n2": n2.to_json(),
        "skew": skew.to_json(),
        "memberships": memberships,
        "parts_resum_to_input": resum,
    }
    certified = resum and all(memberships.values())
    lines = [f"decomposition of a dim-{t.dim} tensor into S + N1 + N2 + A parts"]
    for label, key, part in (("S", "symmetric", sym), ("N1", "n1", n1), ("N2", "n2", n2), ("A", "skew", skew)):
        zero = " (zero)" if part.is_zero() else ""
        lines.append(f"  {label}: faces {outputs[key]['faces']}{zero}")
    lines.append(f"  parts re-sum to input: {resum}; class memberships: {memberships}")
    return inputs, outputs, certified, lines


def _cmd_weddle(args):
    inputs, kind, obj = _resolve_input(args.input)
    system = fixtures.as_system(kind, obj)
    data = loci.weddle_matrix(system)
    matrix_rows = [
        [str(data.matrix.entry(i, k)) for k in range(data.matrix.size)]
        for i in range(data.matrix.size)
    ]
    outputs = {
        "n": system.n,
        "matrix": matrix_rows,
        "polynomial": str(data.polynomial),
        "degenerate": data.degenerate,
    }
    lines = [f"Weddle matrix ({system.n + 1} x {system.n + 1}):"]
    lines += [f"  [{', '.join(row)}]" for row in matrix_rows]
    lines.append(f"polynomial: {outputs['polynomial']}")
    lines.append(f"degenerate: {data.degenerate}")
    return inputs, outputs, True, lines


def _cmd_basepoints(args):
    inputs, kind, obj = _resolve_input(args.input)
    system = fixtures.as_system(kind, obj)
    result = solve.base_points(system, solve.SolveConfig(seed=args.seed))
    expected = solve.jacobsthal(system.n + 1)
    outputs = {
        "count": result.count(),
        "jacobsthal_for_dim": expected,
        "solution_set": result.to_json(),
    }
    lines = [
        f"base points found: {result.count()} (certified: {result.certified}); "
        f"J_{system.n + 1} = {expected}"
    ]
    lines += _cluster_lines(result)
    return inputs, outputs, result.certified, lines


def _cmd_singular(args):
    inputs, kind, obj = _resolve_input(args.input)
    poly = _as_poly(kind, obj)
    result = solve.singular_points(poly, solve.SolveConfig(seed=args.seed))
    outputs = {"count": result.count(), "solution_set": result.to_json()}
    lines = [f"singular points found: {result.count()} (certified: {result.certified})"]
    lines += _cluster_lines(result)
    return inputs, outputs, result.certified, lines


def _cmd_jinv(args):
    inputs, kind, obj = _resolve_input(args.input)
    poly = _as_poly(kind, obj)
    reduction = cubic.weierstrass_reduce(poly)
    j_value = cubic.j_from_reduction(reduction).value
    flex = reduction.flex
    outputs = {
        "a": str(reduction.a),
        "b": str(reduction.b),
        "j": str(j_value),
        "exact": reduction.exact,
        "flex": None if flex is None else [str(c) for c in flex],
        "residual": 0.0,
    }
    lines = [f"short Weierstrass form: y^2 = x^3 + ({reduction.a})x + ({reduction.b})  [exact]"]
    if flex is None:
        lines.append(
            f"flex used: none up to height {cubic._FLEX_HEIGHT}; this is a model of the "
            "cubic's Jacobian, and of the cubic itself only if it has a rational point"
        )
    else:
        lines.append(f"flex used: {list(flex)}")
    lines.append(f"j-invariant: {j_value}")
    return inputs, outputs, True, lines


def _cmd_certify(args):
    inputs, kind, obj = _resolve_input(args.input)
    system = fixtures.as_system(kind, obj)
    cert = loci.rank_lower_bound_certificate(system, solve.SolveConfig(seed=args.seed))
    outputs = {
        "singular_count": cert.singular_count,
        "conclusion": cert.conclusion.value,
        "solution_set": cert.evidence.to_json(),
    }
    certified = cert.evidence.certified
    if cert.conclusion is loci.RankConclusion.RANK_AT_LEAST_6:
        lines = [f"singular points: {cert.singular_count} < 10 => rank >= 6"]
    else:
        lines = [
            f"singular points: {cert.singular_count} (certified: {certified}) => inconclusive"
        ]
    return inputs, outputs, certified, lines


def _parse_dims(text: str) -> list:
    """--dims: an inclusive range LO..HI with LO <= HI, or a comma-separated list."""
    lo, dots, hi = text.partition("..")
    try:
        dims = [*range(int(lo), int(hi) + 1)] if dots else [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        dims = []
    if not dims:
        raise ValueError(f"--dims takes a range LO..HI with LO <= HI or a list such as 2,3,4; got {text!r}")
    return dims


def _cmd_jacobsthal_sweep(args):
    dims = _parse_dims(args.dims)
    trials = loci.sweep_trials(dims, args.trials, args.seed)
    table = {}
    all_match = True

    def emit(line):
        # Text mode streams each line as it is made; a sweep runs for minutes.
        if not args.json:
            print(line, flush=True)

    for dim in dims:
        expected = solve.jacobsthal(dim)
        counts = []
        mismatches = []
        for trial in range(args.trials):
            start = time.perf_counter()
            _, trial_seed, status, count, sampled = next(trials)
            elapsed = time.perf_counter() - start
            shown = "-" if count is None else str(count)
            emit(f"  dim {dim} trial {trial:2d}: count {shown:>2} [{status}] "
                 f"seed {trial_seed} ({elapsed:.2f}s)")
            if count is None:
                continue
            counts.append(count)
            if status == "mismatch":
                mismatches.append({"tensor": sampled.to_json(), "seed": trial_seed, "count": count})
        uncertified = args.trials - len(counts)
        matching = counts.count(expected)
        table[str(dim)] = {
            "expected": expected,
            "trials": args.trials,
            "certified": len(counts),
            "matching": matching,
            "match_fraction": matching / len(counts) if counts else 0.0,
            "uncertified": uncertified,
            "counts": counts,
            "mismatches": mismatches,
        }
        all_match = all_match and bool(counts) and not mismatches
        emit(
            f"dim {dim}: J = {expected}; {len(counts)}/{args.trials} trials certified, "
            f"{matching} matching, {uncertified} uncertified/excluded"
        )
        for m in mismatches:
            emit(f"  MISMATCH (count {m['count']}, seed {m['seed']}): {m['tensor']}")
    outputs = {"dims": table}
    return {"source": None, "sha256": None}, outputs, all_match, []


_COMMANDS = {
    "decompose": (_cmd_decompose, "print the S/N1/N2/A parts of a tensor"),
    "weddle": (_cmd_weddle, "Weddle matrix, polynomial, and degeneracy flag"),
    "basepoints": (_cmd_basepoints, "certified base points of a quadric system"),
    "singular": (_cmd_singular, "certified singular points of a hypersurface"),
    "jinv": (_cmd_jinv, "Weierstrass form and j-invariant of a smooth cubic"),
    "certify": (_cmd_certify, "rank lower-bound certificate from singular counts"),
    "jacobsthal-sweep": (_cmd_jacobsthal_sweep, "tabulate base-point counts against J_n"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args keeps no state
    between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--json", action="store_true", help="emit a machine-readable run report")

    parser = argparse.ArgumentParser(
        prog="weddle",
        description="linear systems of quadrics, Weddle loci, and certified point counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "jacobsthal-sweep":
            p.add_argument("--dims", default="2..4", help="e.g. 2..5 or 2,3,4")
            p.add_argument("--trials", type=int, default=10)
        else:
            p.add_argument("input", help="file path or fixture name")
    return parser


def _cluster_lines(result: solve.SolutionSet) -> list:
    lines = []
    for c in result.clusters:
        coords = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in c.point)
        rational = ""
        if c.rational is not None:
            rational = "  = [" + " : ".join(str(q) for q in c.rational) + "]"
        lines.append(f"  [{coords}]  mult {c.multiplicity}  res {c.residual:.2e}{rational}")
    for note in result.notes:
        lines.append(f"  note: {note}")
    return lines


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    started = time.perf_counter()
    try:
        inputs, outputs, certified, lines = handler(args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    report = {
        "command": args.command,
        "inputs": inputs,
        "seed": args.seed,
        "outputs": outputs,
        "certified": certified,
        "elapsed_s": round(elapsed, 6),
    }
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for line in lines:
            print(line)
        print(f"certified: {certified}")
    return 0 if certified else 1


if __name__ == "__main__":
    raise SystemExit(main())
