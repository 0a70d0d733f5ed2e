"""Named fixture registry.

Each fixture is a data file shipped with the package: quadric systems,
tensors, point lists, a 4x4 coefficient matrix, and polynomial text files.
`load(name)` returns the natural object for the file; `system(name)`
coerces any fixture that determines a linear system of quadrics into one,
through `as_system`, which the CLI uses for file inputs too.
"""

from __future__ import annotations

import json
from importlib import resources

from .loci import LinearSystem, rank5_canonical_system, system_through_points
from .polycore import MultiPoly, as_int, as_rat, parse_poly
from .tensor import Tensor3

# name -> (kind, filename); kinds: system | tensor | matrix | points | poly
REGISTRY = {
    "ex-bpf-conics": ("system", "ex-bpf-conics.json"),
    "degenerate-conics": ("system", "degenerate-conics.json"),
    "witness-C1-system": ("system", "witness-C1-system.json"),
    "witness-C2-system": ("system", "witness-C2-system.json"),
    "random-quartic-sys": ("system", "random-quartic-sys.json"),
    "rank5-M": ("matrix", "rank5-M.json"),
    "weddle-6pts": ("points", "weddle-6pts.json"),
    "witness-C1": ("poly", "witness-C1.poly"),
    "witness-C2": ("poly", "witness-C2.poly"),
    "cyclic-dim2": ("tensor", "cyclic-dim2.json"),
}


def names() -> list:
    return sorted(REGISTRY)


def kind(name: str) -> str:
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}")
    return REGISTRY[name][0]


def read_text(name: str) -> str:
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}")
    _, filename = REGISTRY[name]
    return resources.files("weddle").joinpath("data", filename).read_text(encoding="utf-8")


def parse_payload(kind_name: str, text: str):
    """Build the natural object for a payload of the given kind."""
    if kind_name == "poly":
        return parse_poly(text.strip())
    data = json.loads(text)
    if kind_name == "system":
        return LinearSystem.from_json(data)
    if kind_name == "tensor":
        return Tensor3.from_json(data)
    if kind_name == "matrix":
        if set(data) - {"matrix"}:
            raise ValueError("unexpected keys in matrix record")
        return [[as_rat(x) for x in row] for row in data["matrix"]]
    if kind_name == "points":
        if set(data) - {"n", "points"}:
            raise ValueError("unexpected keys in points record")
        n = as_int(data["n"], "points dimension n")
        return n, [[as_rat(x) for x in p] for p in data["points"]]
    raise ValueError(f"unknown fixture kind {kind_name!r}")


def load(name: str):
    """The fixture as its natural object (system, tensor, matrix, points
    pair, or polynomial)."""
    return parse_payload(kind(name), read_text(name))


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
        return system_through_points(points, n)
    raise ValueError(f"a quadric system is required, got a {kind_name} input")


def system(name: str) -> LinearSystem:
    """The fixture coerced to a linear system of quadrics."""
    return as_system(kind(name), load(name))


def poly(name: str) -> MultiPoly:
    obj = load(name)
    if kind(name) != "poly":
        raise ValueError(f"fixture {name!r} is not a polynomial")
    return obj


def canonical_json(data: dict) -> str:
    """The byte-exact serialization convention for fixture JSON files."""
    return json.dumps(data, indent=2) + "\n"
