"""Layering: the exact layer does not depend on the numeric solver, and
every call the benchmark tracer measures goes through its module.

polycore, linalg, tensor and cubic are exact algebra over the rationals.
weddle.solve is the numpy homotopy layer built on top of them, so none of
them may import it, at module level or inside a function.

perfbench/tracing.py measures a function by replacing it on its module, so
a name another module bound with ``from .mod import name`` still calls the
original, unmeasured.  No module but the package's __init__ may bind one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weddle"


def imported_modules(path: Path) -> set:
    """Every module name a weddle source file imports, with imports
    relative to the package written out as weddle.<name>.  A from-import
    counts its module and each imported name below it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["weddle", module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_imported_modules_resolves_relative_and_absolute_imports(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "import math\n"
        "from . import linalg, solve\n"
        "from .polycore import MultiPoly\n"
        "def f():\n"
        "    from weddle import tensor\n"
        "    import weddle.loci\n",
        encoding="utf-8",
    )
    assert {"math", "weddle.linalg", "weddle.solve", "weddle.polycore.MultiPoly",
            "weddle.tensor", "weddle.loci"} <= imported_modules(source)


@pytest.mark.parametrize("module", ["polycore", "linalg", "tensor", "cubic"])
def test_the_exact_layer_does_not_import_the_solver(module):
    assert "weddle.solve" not in imported_modules(PACKAGE / f"{module}.py")


def traced_names() -> set:
    """The (module, attribute) pairs perfbench/tracing.py lists in SPANNED
    and COUNTED, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    pairs = set()
    for node in tree.body:
        names = {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
        if names & {"SPANNED", "COUNTED"}:
            pairs.update(entry[:2] for entry in ast.literal_eval(node.value))
    return pairs


def traced_bindings(path: Path, traced: set) -> list:
    """Each traced function a source file binds with a from-import of a
    weddle module, as module.name."""
    bound = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level else node.module.removeprefix("weddle.")
            bound += [f"{module}.{a.name}" for a in node.names if (module, a.name) in traced]
    return bound


def test_traced_names_are_read_from_the_tracer():
    traced = traced_names()
    assert {("polycore", "linear_form"), ("loci", "system_through_points"), ("fixtures", "load")} <= traced
    assert ("polycore", "PolyMatrix.det") in traced


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_no_module_binds_a_traced_function_by_name(path):
    assert traced_bindings(path, traced_names()) == []
