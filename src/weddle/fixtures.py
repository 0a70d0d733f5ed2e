"""Named fixture registry and the one payload parser, for fixtures and files.

Each fixture is a data file shipped with the package: quadric systems,
tensors, point lists, a 4x4 coefficient matrix, and polynomial text files.
`parse` reads any payload and names its kind, and `as_system`, `as_tensor`
and `as_poly` coerce a parsed (kind, object) pair to what a command needs:
the one input-coercion path, for the CLI's files and for `system(name)` and
`poly(name)`.
"""

from __future__ import annotations

import json
import os
from importlib import resources

from . import loci
from .loci import LinearSystem, rank5_canonical_system
from .polycore import MultiPoly, as_int, as_matrix, parse_poly
from .tensor import Tensor3

# name -> filename; each file's kind is read off its payload by parse
REGISTRY = {
    "ex-bpf-conics": "ex-bpf-conics.json",
    "degenerate-conics": "degenerate-conics.json",
    "witness-C1-system": "witness-C1-system.json",
    "witness-C2-system": "witness-C2-system.json",
    "random-quartic-sys": "random-quartic-sys.json",
    "rank5-M": "rank5-M.json",
    "weddle-6pts": "weddle-6pts.json",
    "witness-C1": "witness-C1.poly",
    "witness-C2": "witness-C2.poly",
    "cyclic-dim2": "cyclic-dim2.json",
}


def names() -> list:
    return sorted(REGISTRY)


def read_text(name: str) -> str:
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}")
    return resources.files("weddle").joinpath("data", REGISTRY[name]).read_text(encoding="utf-8")


def parse(filename: str, text: str) -> tuple:
    """(kind, object) for a file's text: a polynomial unless the suffix is
    .json; else a JSON object classified by its keys (system, tensor, matrix
    or points), its rows coerced by polycore.as_matrix."""
    if os.path.splitext(filename)[1] != ".json":
        return "poly", parse_poly(text.strip())
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object (system, tensor, matrix, or points)")
    keys = set(data)
    if {"n", "quadrics"} <= keys:
        return "system", LinearSystem.from_json(data)
    if {"dim", "faces"} <= keys:
        return "tensor", Tensor3.from_json(data)
    if "matrix" in keys:
        if keys - {"matrix"}:
            raise ValueError("unexpected keys in matrix record")
        return "matrix", as_matrix(data["matrix"])
    if {"n", "points"} <= keys:
        if keys - {"n", "points"}:
            raise ValueError("unexpected keys in points record")
        n = as_int(data["n"], "points dimension n")
        return "points", (n, as_matrix(data["points"], what="points"))
    raise ValueError("unrecognized JSON payload (expected system, tensor, matrix, or points)")


def _parsed(name: str) -> tuple:
    text = read_text(name)
    return parse(REGISTRY[name], text)


def kind(name: str) -> str:
    """The fixture's kind: system, tensor, matrix, points or poly."""
    return _parsed(name)[0]


def load(name: str):
    """The fixture as its natural object (system, tensor, matrix, points
    pair, or polynomial)."""
    return _parsed(name)[1]


def as_system(kind_name: str, obj) -> LinearSystem:
    """Coerce a loaded object of the given kind to a linear system of
    quadrics (a coefficient matrix via the canonical rank-5 construction, a
    point list via the quadrics through those points)."""
    if kind_name == "system":
        return obj
    if kind_name == "tensor":
        return LinearSystem.from_tensor(obj)
    if kind_name == "matrix":
        return rank5_canonical_system(obj)
    if kind_name == "points":
        n, points = obj
        return loci.system_through_points(points, n)
    raise ValueError(f"a quadric system is required, got a {kind_name} input")


def as_tensor(kind_name: str, obj) -> Tensor3:
    """Coerce a loaded object of the given kind to a tensor (any other kind
    through its linear system of quadrics)."""
    if kind_name == "tensor":
        return obj
    return as_system(kind_name, obj).to_tensor()


def as_poly(kind_name: str, obj) -> MultiPoly:
    """The loaded object, which must be a polynomial."""
    if kind_name != "poly":
        raise ValueError(f"a polynomial input is required, got a {kind_name} input")
    return obj


def system(name: str) -> LinearSystem:
    """The fixture coerced to a linear system of quadrics."""
    return as_system(*_parsed(name))


def poly(name: str) -> MultiPoly:
    """The fixture as a polynomial."""
    return as_poly(*_parsed(name))


def canonical_json(data: dict) -> str:
    """The byte-exact serialization convention for fixture JSON files."""
    return json.dumps(data, indent=2) + "\n"
