#!/usr/bin/env python3
"""Write the fixed-seed report corpus to OUT.json, for byte-identity checks.

The corpus is every subcommand of decompose, weddle, basepoints, singular,
jinv and certify on every fixture at seeds 0-9, plus `jacobsthal-sweep
--dims 2..5 --trials 6` at seeds 1 and 3.  Each entry holds the argv, the
exit code, the JSON report without `elapsed_s` (null when there is none)
and stderr.  Run it on two trees and `diff` the two files:

    python3 scripts/report_corpus.py OUT.json

It also prints the sha256 of the file, to compare against a recorded one.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weddle import cli, fixtures  # noqa: E402

SUBCOMMANDS = ("decompose", "weddle", "basepoints", "singular", "jinv", "certify")
ARGVS = [[c, name, "--seed", str(s)] for c in SUBCOMMANDS for name in fixtures.names() for s in range(10)]
ARGVS += [["jacobsthal-sweep", "--dims", "2..5", "--trials", "6", "--seed", str(s)] for s in (1, 3)]

entries = []
for argv in ARGVS:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--json"])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("elapsed_s")
    entries.append({"argv": argv, "exit": code, "report": report, "stderr": err.getvalue()})
data = (json.dumps(entries, indent=1) + "\n").encode("utf-8")
Path(sys.argv[1]).write_bytes(data)
print(f"wrote {len(entries)} entries to {sys.argv[1]}, sha256 {hashlib.sha256(data).hexdigest()}")
