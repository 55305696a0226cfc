"""The package imports nothing beyond the standard library and its declared
dependencies, and those are numpy alone; and it computes in real arithmetic."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _requirement_names(requirements):
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def _imported_top_level_names():
    """Every absolute import in src/projgeo/*.py, inside functions too, by its
    top-level module name."""
    names = set()
    for path in (ROOT / "src" / "projgeo").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_its_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    third_party = _imported_top_level_names() - set(sys.stdlib_module_names) - {"projgeo"}
    assert third_party == _requirement_names(project["dependencies"]) == {"numpy"}
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])


# dtype names and codes of numpy's complex types, as a string would give them
COMPLEX_DTYPE_STRINGS = ("c8", "c16", "c32")


def _complex_uses(source: str, name: str) -> "list[str]":
    """`name:line what` for each complex literal (1j), complex dtype (the
    builtin complex, numpy's complex types or their names) and .imag in source."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append(f"{name}:{node.lineno} literal {node.value!r}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                node.value.startswith("complex") or node.value in COMPLEX_DTYPE_STRINGS):
            found.append(f"{name}:{node.lineno} dtype {node.value!r}")
        elif isinstance(node, ast.Name) and node.id.startswith("complex"):
            found.append(f"{name}:{node.lineno} dtype {node.id}")
        elif isinstance(node, ast.Attribute) and (node.attr == "imag"
                                                  or node.attr.startswith("complex")):
            found.append(f"{name}:{node.lineno} .{node.attr}")
    return found


def test_complex_checker_sees_each_form():
    source = ("a = 1j\nb = x.imag\nc = np.zeros(2, dtype=complex)\n"
              "d = np.complex128(1)\ne = y.astype('complex64')\nf = z.astype('c16')\n"
              "g = x.real + 2.0\n")
    assert sorted(use.split(" ", 1)[0] for use in _complex_uses(source, "m.py")) == [
        f"m.py:{line}" for line in (1, 2, 3, 4, 5, 6)]


def test_package_is_real_only():
    """No complex number is made or read anywhere in src/projgeo."""
    found = []
    for path in sorted((ROOT / "src" / "projgeo").glob("*.py")):
        found += _complex_uses(path.read_text(), path.name)
    assert found == []
