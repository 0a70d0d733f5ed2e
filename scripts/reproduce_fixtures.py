#!/usr/bin/env python3
"""Regenerate every shipped fixture file from first principles and verify
that the files on disk are byte-identical to the canonical serialization.

Run with --write to (re)create the files under src/weddle/data/.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weddle.fixtures import REGISTRY, canonical_json  # noqa: E402
from weddle.loci import LinearSystem  # noqa: E402
from weddle.polycore import parse_poly  # noqa: E402
from weddle.tensor import Tensor3  # noqa: E402

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "weddle" / "data"


def diag_conics() -> str:
    quadrics = [
        [[1 if i == j == k else 0 for j in range(3)] for i in range(3)] for k in range(3)
    ]
    return canonical_json(LinearSystem(2, quadrics).to_json())


def degenerate_conics() -> str:
    def block(a, b, c):
        return [[a, a, b], [a, a, b], [b, b, c]]

    return canonical_json(LinearSystem(2, [block(1, 2, 3), block(4, 5, 6), block(7, 8, 9)]).to_json())


def witness_c1_system() -> str:
    quadrics = [
        [[1, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    ]
    return canonical_json(LinearSystem(2, quadrics).to_json())


def witness_c2_system() -> str:
    quadrics = [
        [[1, 1, 1], [1, 1, 0], [1, 0, 1]],
        [[0, 1, 0], [1, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, -1]],
    ]
    return canonical_json(LinearSystem(2, quadrics).to_json())


def random_quartic_sys() -> str:
    h = Fraction(1, 2)
    quadrics = [
        [[0, -3 * h, 0, 2], [-3 * h, 1, -1, h], [0, -1, -5, 1], [2, h, 1, 1]],
        [[1, -h, -h, h], [-h, 0, -h, 6], [-h, -h, 1, 4], [h, 6, 4, 25]],
        [[-7, 1, -13 * h, 0], [1, -1, -3 * h, h], [-13 * h, -3 * h, 101, 3 * h], [0, h, 3 * h, 4]],
        [[-4, -9 * h, 13 * h, 2], [-9 * h, 0, 0, -15 * h], [13 * h, 0, -1, -h], [2, -15 * h, -h, 1]],
    ]
    return canonical_json(LinearSystem(3, quadrics).to_json())


def rank5_matrix() -> str:
    matrix = [[1, 0, 1, 1], [1, 2, 0, 1], [0, 1, -1, 1], [1, 0, 1, 0]]
    return canonical_json({"matrix": [[str(x) for x in row] for row in matrix]})


def weddle_points() -> str:
    points = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 1, 1, 1],
        [2, -1, 5, -7],
    ]
    return canonical_json({"n": 3, "points": [[str(x) for x in p] for p in points]})


def cyclic_dim2() -> str:
    # the (a, b) = (1, 2) instance: faces [[0, a], [a, 2b]] and [[-2a, -b], [-b, 0]]
    t = Tensor3([[[0, 1], [1, 4]], [[-2, -2], [-2, 0]]])
    return canonical_json(t.to_json())


def witness_poly(text: str) -> str:
    return str(parse_poly(text)) + "\n"


BUILDERS = {
    "ex-bpf-conics.json": diag_conics,
    "degenerate-conics.json": degenerate_conics,
    "witness-C1-system.json": witness_c1_system,
    "witness-C2-system.json": witness_c2_system,
    "random-quartic-sys.json": random_quartic_sys,
    "rank5-M.json": rank5_matrix,
    "weddle-6pts.json": weddle_points,
    "cyclic-dim2.json": cyclic_dim2,
    "witness-C1.poly": lambda: witness_poly(
        "x0*x1*x2 - x0^2*x1 - x0*x1^2 - x0^2*x2 - x0*x2^2 + x1^2*x2 + x1*x2^2"
    ),
    "witness-C2.poly": lambda: witness_poly(
        "x0^3 - x0^2*x1 - 2*x0*x1^2 - x0^2*x2 + x0*x1*x2 - 2*x0*x2^2 + 2*x1^2*x2 + 2*x1*x2^2"
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="write the files")
    args = parser.parse_args()

    registered = set(REGISTRY.values())
    if registered != set(BUILDERS):
        missing = registered.symmetric_difference(BUILDERS)
        print(f"registry/builder mismatch: {sorted(missing)}")
        return 1

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    status = 0
    for filename, builder in sorted(BUILDERS.items()):
        content = builder()
        path = DATA_DIR / filename
        if args.write:
            path.write_text(content, encoding="utf-8")
            print(f"wrote {path.relative_to(DATA_DIR.parent.parent.parent)}")
        else:
            on_disk = path.read_text(encoding="utf-8") if path.exists() else None
            ok = on_disk == content
            print(f"{'ok  ' if ok else 'DIFF'} {filename}")
            status = status if ok else 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
