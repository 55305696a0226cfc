"""A ratchet on code that nothing ships: every function and class defined in
src/projgeo is referenced by name somewhere in the package or in the
acceptance criteria, outside its own definition and `__all__`.

Entry points named in [project.scripts] count as referenced. PENDING lists
the names that only the benchmark's spans and the tests keep alive; it may
only shrink, and a name leaves it when its last outside user does.
"""

import ast
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "projgeo"
PENDING = {"expr.eval_jet", "develop.cartan_transport"}


def _referenced_and_defined(paths):
    """Names used as a Name or an attribute outside a definition of that name,
    and every function and class defined in src, as `module.name`."""
    used, defined = set(), set()

    def visit(node, module, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if module is not None and not node.name.startswith("__"):
                defined.add(f"{module}.{node.name}")
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and name not in inside:  # an ast.Name or an ast.Attribute
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, module, inside)

    for path in paths:
        module = path.stem if path.parent == SRC else None
        visit(ast.parse(path.read_text(), str(path)), module, frozenset())
    return used, defined


def _entry_points():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.replace("projgeo.", "", 1).replace(":", ".") for target in scripts.values()}


def test_every_src_definition_is_used():
    used, defined = _referenced_and_defined(
        sorted(SRC.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
    unused = {name for name in defined if name.rsplit(".", 1)[1] not in used}
    assert unused - _entry_points() == PENDING
