"""A ratchet on the number of values a caller can set in src/projgeo.

Each parameter with a default and each dataclass field with a default is one
more configuration that tests and the benchmark must cover. The count may
fall; a change that adds an option raises SETTABLE_VALUES in the same change
and says why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projgeo"
SETTABLE_VALUES = 50


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _settable_field(stmt) -> bool:
    """An annotated class-body assignment that __init__ takes with a default."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return not any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is False for kw in value.keywords)
    return True


def settable_values(root: Path) -> int:
    total = 0
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                total += len(node.args.defaults)
                total += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                total += sum(_settable_field(stmt) for stmt in node.body)
    return total


def test_counter_sees_defaults_and_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
        "    z: list = field(default_factory=list)\n    w: int = field(init=False)\n"
        "class B:\n    y: int = 0\n")
    assert settable_values(tmp_path) == 4


def test_no_new_settable_values():
    assert settable_values(SRC) <= SETTABLE_VALUES
