"""The package imports nothing beyond the standard library and its declared
dependencies, and those are numpy alone."""

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
