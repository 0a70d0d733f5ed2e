#!/usr/bin/env python3
"""Write the fixed-seed report corpus to OUT.json, for byte-identity checks.

The corpus is every subcommand of decompose, weddle, basepoints, singular,
jinv and certify on every fixture at seeds 0-9, plus `jacobsthal-sweep
--dims 2..5 --trials 6` at seeds 1 and 3.  Each entry holds the argv, the
exit code, the JSON report without `elapsed_s` (null when there is none)
and stderr.  Run it on two trees and `diff` the two files:

    python3 scripts/report_corpus.py OUT.json

It also prints the sha256 of the file, to compare against a recorded one.
With --compare BASE.json (a corpus written earlier, say by the parent
commit), it then compares the new corpus with BASE entry by entry, prints
the argv and the first differing JSON path of each entry that differs, and
exits 1 if any entry differs:

    python3 scripts/report_corpus.py OUT.json --compare BASE.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weddle import cli, fixtures  # noqa: E402

SUBCOMMANDS = ("decompose", "weddle", "basepoints", "singular", "jinv", "certify")


def argvs() -> list:
    argvs = [[c, name, "--seed", str(s)] for c in SUBCOMMANDS for name in fixtures.names() for s in range(10)]
    return argvs + [["jacobsthal-sweep", "--dims", "2..5", "--trials", "6", "--seed", str(s)] for s in (1, 3)]


def corpus() -> list:
    entries = []
    for argv in argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--json"])
        report = json.loads(out.getvalue()) if out.getvalue() else None
        if report is not None:
            report.pop("elapsed_s")
        entries.append({"argv": argv, "exit": code, "report": report, "stderr": err.getvalue()})
    return entries


def first_difference(new, base, path: str = "") -> "str | None":
    """The JSON path (like `.report.outputs.count` or `[3]`) of the first
    place where new and base differ, depth first in key order; None when
    they are equal.  A key present on one side only differs at that key."""
    if isinstance(new, dict) and isinstance(base, dict):
        for key in list(new) + [k for k in base if k not in new]:
            if key not in new or key not in base:
                return f"{path}.{key}"
            found = first_difference(new[key], base[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(new, list) and isinstance(base, list):
        for i, (a, b) in enumerate(zip(new, base)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(new) == len(base) else f"{path}[{min(len(new), len(base))}]"
    return None if json.dumps(new) == json.dumps(base) else path or "."


def compare(entries: list, base: list) -> list:
    """One line per entry of entries that differs from base's entry at the
    same index: its argv and its first differing JSON path."""
    lines = []
    for i in range(max(len(entries), len(base))):
        if i >= len(entries) or i >= len(base):
            argv = (entries if i < len(entries) else base)[i]["argv"]
            lines.append(f"{' '.join(argv)}: only in {'the new corpus' if i < len(entries) else 'BASE'}")
            continue
        found = first_difference(entries[i], base[i])
        if found is not None:
            lines.append(f"{' '.join(entries[i]['argv'])}: differs at {found}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="where to write the corpus")
    parser.add_argument("--compare", metavar="BASE.json", help="a corpus to compare the new one with")
    args = parser.parse_args(argv)
    entries = corpus()
    data = (json.dumps(entries, indent=1) + "\n").encode("utf-8")
    Path(args.out).write_bytes(data)
    print(f"wrote {len(entries)} entries to {args.out}, sha256 {hashlib.sha256(data).hexdigest()}")
    if args.compare is None:
        return 0
    differences = compare(json.loads(data), json.loads(Path(args.compare).read_text(encoding="utf-8")))
    for line in differences:
        print(line)
    print(f"entries that differ from {args.compare}: {len(differences)}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
