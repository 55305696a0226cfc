"""The golden report corpus: each CLI case in tests/golden reruns to its stored report.

Keys, strings, integers, booleans, exit codes and stderr must be equal. JSON
floats agree within 1e-12 relative plus 1e-15 absolute, so that another
summation order in BLAS does not fail a case; numbers in a text report, which
prints 12 significant digits, agree to one unit in the last printed digit.
Rewrite the corpus with tests/golden/regen.py.
"""

import json
import math

import pytest

from golden.regen import CASES, GOLDEN, run_case


def differences(expected, actual, where="$"):
    """Where `actual` departs from `expected`, one message per place."""
    if type(expected) is not type(actual):
        yield f"{where}: {expected!r} -> {actual!r}"
    elif isinstance(expected, float):
        if not math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-15):
            yield f"{where}: {expected!r} -> {actual!r}"
    elif isinstance(expected, dict):
        if expected.keys() != actual.keys():
            yield f"{where}: keys {sorted(expected)} -> {sorted(actual)}"
        else:
            for key in expected:
                yield from differences(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            yield f"{where}: {len(expected)} items -> {len(actual)}"
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                yield from differences(e, a, f"{where}[{i}]")
    elif expected != actual:
        yield f"{where}: {expected!r} -> {actual!r}"


def _printed_close(expected: str, actual: str) -> bool:
    """Two 12-significant-digit numbers within one unit of the last digit."""
    try:
        x, y = float(expected), float(actual)
    except ValueError:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0
    return abs(x - y) <= 1.001 * unit + 1e-15


def text_differences(expected, actual):
    """Lines of a text report that differ in a word, or in a number beyond its last digit."""
    if len(expected) != len(actual):
        yield f"{len(expected)} lines -> {len(actual)}"
        return
    for lineno, (e, a) in enumerate(zip(expected, actual), start=1):
        ew, aw = e.split(" "), a.split(" ")  # indentation stays, as empty words
        if len(ew) != len(aw) or not all(x == y or _printed_close(x, y)
                                         for x, y in zip(ew, aw)):
            yield f"line {lineno}: {e!r} -> {a!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    actual = run_case(CASES[name])
    if isinstance(expected["report"], list):  # a text report, or no output
        found = list(text_differences(expected.pop("report"), actual.pop("report")))
    else:
        found = []
    assert found + list(differences(expected, actual)) == []


def test_corpus_holds_exactly_the_cases():
    stored = {path.stem: json.loads(path.read_text())["argv"] for path in GOLDEN.glob("*.json")}
    assert stored == CASES


def test_comparison_sees_a_moved_digit():
    assert list(differences({"r": [1.0, 0.0]}, {"r": [1.0 + 1e-13, 1e-16]})) == []
    assert list(differences({"r": 1.0}, {"r": 1.0 + 1e-10})) == ["$.r: 1.0 -> 1.0000000001"]
    assert list(differences({"r": 1}, {"r": 1.0}))
    assert list(differences({"ok": True}, {"ok": 1}))
    assert list(differences({"a": 1}, {"b": 1}))
    assert list(text_differences(["  x: 1.23456789012"], ["  x: 1.23456789013"])) == []
    assert list(text_differences(["  x: 1.23456789012"], ["  x: 1.2345678901"]))
    assert list(text_differences(["  x: 1.5"], [" x: 1.5"]))
    assert list(text_differences(["x: a"], ["x: b"]))
