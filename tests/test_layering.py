"""Layering: the exact layer does not depend on the numeric solver.

polycore, linalg, tensor and cubic are exact algebra over the rationals.
weddle.solve is the numpy homotopy layer built on top of them, so none of
them may import it, at module level or inside a function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weddle"


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
