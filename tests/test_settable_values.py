"""A ratchet on the number of values a caller can set in src/projgeo.

Each parameter with a default and each dataclass field with a default is one
more configuration that tests and the benchmark must cover. The count may
fall; a change that adds an option raises SETTABLE_VALUES in the same change
and says why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projgeo"
SETTABLE_VALUES = 15


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


def settable_values(root: Path) -> "list[str]":
    """Every settable value under root, as `file:line name`."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                owner = getattr(node, "name", "lambda")
                found += [f"{path.name}:{arg.lineno} {owner}.{arg.arg}" for arg in named]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{path.name}:{stmt.lineno} {node.name}.{stmt.target.id}"
                          for stmt in node.body if _settable_field(stmt)]
    return found


def test_counter_sees_defaults_and_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
        "    z: list = field(default_factory=list)\n    w: int = field(init=False)\n"
        "class B:\n    y: int = 0\n")
    assert sorted(settable_values(tmp_path)) == ["m.py:2 f.b", "m.py:2 f.c", "m.py:6 A.y",
                                                 "m.py:7 A.z"]


def test_no_new_settable_values():
    found = settable_values(SRC)
    assert len(found) <= SETTABLE_VALUES, "\n".join(
        [f"{len(found)} settable values, at most {SETTABLE_VALUES}:"] + found)
