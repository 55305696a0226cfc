"""A ratchet against tracebacks: every exception class src/projgeo defines
reaches the command line as an error line, or is on an internal list.

`cli.main` turns each refusal it catches into `error: ...` and exit 2 (or 1),
so a class it does not catch, itself or through a base class, would end a run
in a traceback. The classes and main's except clauses are read from the
source by ast, so a new class is seen without being imported or raised.
INTERNAL may only shrink: each name on it must still be defined and uncaught.
"""

import ast
import builtins
from pathlib import Path

import pytest

from projgeo.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "projgeo"

# Raised on misuse from code, not by any input the CLI reads: a jet level the
# caller did not evaluate, an alternation, a weight or an anchor the CLI builds
# itself. The ParseError family reaches the CLI as ChartError, since
# readers.read_entries wraps it with the line it came from.
INTERNAL = {"MissingJet", "NotAntisymmetric", "NotDominant", "NotAlmostComplex",
            "ParseError", "UnknownVariable", "UnknownFunction"}


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def exception_classes(root: Path) -> "dict[str, set[str]]":
    """{name: the names of it and all its bases} of each exception class under root."""
    bases = {}
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_name(base) for base in node.bases]

    def ancestry(name: str) -> "set[str]":
        builtin = getattr(builtins, name, None)
        if name not in bases:
            return {c.__name__ for c in builtin.__mro__} if isinstance(builtin, type) else set()
        return {name}.union(*(ancestry(base) for base in bases[name]))

    ancestries = {name: ancestry(name) for name in bases}
    return {name: names for name, names in ancestries.items() if "BaseException" in names}


def caught_by_main(cli_path: Path) -> "set[str]":
    """The class names in the except clauses of cli.main."""
    tree = ast.parse(cli_path.read_text(), str(cli_path))
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for node in ast.walk(main_def):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(_name(kind) for kind in kinds)
    return caught


def uncaught(root: Path) -> "set[str]":
    caught = caught_by_main(root / "cli.py")
    return {name for name, names in exception_classes(root).items() if not names & caught}


def test_collector_follows_bases_across_modules(tmp_path):
    (tmp_path / "cli.py").write_text(
        "class Usage(ValueError): pass\n"
        "def main():\n    try:\n        pass\n"
        "    except (Usage, errors.Base):\n        pass\n"
        "    except OSError:\n        pass\n")
    (tmp_path / "errors.py").write_text(
        "class Base(ArithmeticError): pass\nclass Child(Base): pass\n"
        "class Io(FileNotFoundError): pass\nclass Loose(RuntimeError): pass\n"
        "class Plain: pass\nclass Point(NamedTuple): pass\n")
    assert sorted(exception_classes(tmp_path)) == ["Base", "Child", "Io", "Loose", "Usage"]
    assert uncaught(tmp_path) == {"Loose"}


def test_every_refusal_reaches_main_or_is_internal():
    found = uncaught(SRC) - INTERNAL
    assert not found, (f"{sorted(found)} would end a CLI run in a traceback: catch them "
                       f"in cli.main, or derive them from a class it catches")


def test_the_internal_list_only_shrinks():
    classes = exception_classes(SRC)
    assert INTERNAL <= classes.keys(), sorted(INTERNAL - classes.keys())
    closed = INTERNAL - uncaught(SRC)
    assert not closed, f"{sorted(closed)} now reach cli.main: take them off INTERNAL"


@pytest.mark.parametrize("rhs,message", [("x1 +", "unexpected end of input"),
                                         ("x9", "x9"), ("tan(x1)", "tan")])
def test_parse_errors_reach_main_as_chart_errors(tmp_path, capsys, rhs, message):
    """Each ParseError class, raised on a chart line, ends in exit 2 with its line number."""
    chart = tmp_path / "a.chart"
    chart.write_text(f"dim = 2\n[christoffel]\nG 1 1 1 = {rhs}\n")
    assert main(["analyze", str(chart), "--point", "0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 3: ") and message in captured.err
    assert captured.out == ""

