"""Hostile charts that parse, through every subcommand in process.

Chart entries are random expression trees over sin, cos, exp, ln, sqrt,
literal powers and literals up to 1e300, so the numeric layer behind the
readers meets overflow, cancellation and domain errors. Whatever the chart,
a run ends in exit code 0, 1 or 2 with no exception and no warning; its
--json report holds only finite numbers; and stderr is empty or one error
line, which for a numerical refusal (exit 2: the charts and flags are valid)
names the chart point.
"""

import io
import json
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from projgeo.cli import main

LITERALS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "7", "1e-3", "1e154", "1e300"]),
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False).map(repr))
EXPONENTS = st.sampled_from(["2", "3", "-1", "-2", "0.5", "1.5", "1000000000"])


def _expressions(n):
    """Expression text over x1..xn, fully parenthesized."""
    leaves = st.one_of(LITERALS, st.integers(1, n).map("x{}".format))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), inner),
        st.builds("({})^{}".format, inner, EXPONENTS),
        st.builds("(-{})".format, inner),
    ), max_leaves=5)


EXPRESSIONS = {n: _expressions(n) for n in (2, 3, 4)}


@st.composite
def charts(draw, n):
    """Chart text of dimension n: a few Christoffel entries, each written
    symmetrically unless it is torsion, or a few metric entries."""
    index = st.integers(1, n)
    if draw(st.booleans()):
        entries = {}
        for k, i, j, symmetric in draw(st.lists(st.tuples(index, index, index, st.booleans()),
                                                min_size=1, max_size=4)):
            text = entries.setdefault((k, i, j), draw(EXPRESSIONS[n]))
            if symmetric:
                entries.setdefault((k, j, i), text)
        body = "[christoffel]\n" + "\n".join(
            f"G {k} {i} {j} = {text}" for (k, i, j), text in entries.items())
    else:
        pairs = draw(st.lists(st.tuples(index, index).map(sorted), min_size=1, max_size=n + 1,
                              unique_by=tuple))
        body = "[metric]\n" + "\n".join(f"g {i} {j} = {draw(EXPRESSIONS[n])}" for i, j in pairs)
    return f"dim = {n}\n{body}\n"


def points(n):
    return st.lists(st.floats(-0.5, 0.5, allow_nan=False).map(lambda c: round(c, 3)),
                    min_size=n, max_size=n).map(lambda p: ",".join(map(repr, p)))


@st.composite
def runs(draw):
    """argv for one subcommand, and the files it reads ({tmp} is their directory)."""
    command = draw(st.sampled_from(["analyze", "invariance", "equivalent", "twistor", "reps",
                                    "develop"]))
    if command == "reps":
        return ["reps", "--dim", "4", "--space",
                draw(st.sampled_from(["torsion", "curvature"]))], {}
    n = draw(st.sampled_from([2, 4]) if command == "twistor" else st.integers(2, 4))
    files = {"a.chart": draw(charts(n))}
    if command == "analyze":
        return ["analyze", "{tmp}/a.chart", f"--point={draw(points(n))}"], files
    if command == "invariance":
        files["a.alpha"] = "".join(f"a {i} = {draw(EXPRESSIONS[n])}\n"
                                   for i in draw(st.sets(st.integers(1, n), max_size=n)))
        return ["invariance", "{tmp}/a.chart", "--alpha", "{tmp}/a.alpha",
                "--samples", "2"], files
    if command == "equivalent":
        files["b.chart"] = draw(charts(n))
        return ["equivalent", "{tmp}/a.chart", "{tmp}/b.chart", "--samples", "2"], files
    if command == "twistor":
        return ["twistor", "{tmp}/a.chart", "--samples", draw(st.sampled_from(["1", "3"]))], files
    files["t.txt"] = draw(points(n)) + "\n"
    return ["develop", "{tmp}/a.chart", f"--base={draw(points(n))}",
            "--targets", "{tmp}/t.txt"], files


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}")


# two of eight loop holonomies overflow to NaN, though every segment frame is finite
PATH_FRAME_OVERFLOW = (
    ["develop", "{tmp}/a.chart", "--base=0.118,0.184,0.1,-0.165", "--targets", "{tmp}/t.txt"],
    {"a.chart": "dim = 4\n[christoffel]\nG 1 1 1 = 3\n"
                "G 2 1 3 = sqrt(0.5) + 2\nG 2 3 1 = sqrt(0.5) + 2\n"
                "G 2 1 4 = (x1 + 0) - (x1 - 3)\nG 2 4 1 = (x1 + 0) - (x1 - 3)\n"
                "G 3 2 4 = (x2 * 7) / cos(x4)\nG 3 4 2 = (x2 * 7) / cos(x4)\n"
                "G 4 3 3 = (x2 - 1e154) - -2\n",
     "t.txt": "0.118,0.184,0.1,-0.165\n"})
# a loop holonomy overflows to infinity; develop's own paths would be finite
PATH_FRAME_INFINITY = (
    ["develop", "{tmp}/a.chart", "--base=0,0,0,0", "--targets", "{tmp}/t.txt"],
    {"a.chart": "dim = 4\n[christoffel]\nG 4 3 3 = 1e-300\nG 3 4 2 = 3e302\nG 2 2 2 = 0.5\n",
     "t.txt": "0,0,0,0\n"})
# the curvature is finite (1e308), its Ricci trace is not, and torsion skips weyl
RICCI_OVERFLOW = (
    ["analyze", "{tmp}/a.chart", "--point=-0.22,0.126,-0.068"],
    {"a.chart": "dim = 3\n[christoffel]\n"
                "G 1 1 2 = (exp(x2))^1.5\nG 1 2 1 = (exp(x2))^1.5\n"
                "G 2 1 3 = x2 + 1e154\nG 2 3 1 = x2 + 1e154\n"
                "G 3 1 2 = 1e154\nG 3 2 1 = 1e154\nG 3 2 3 = x1\n"})

# the Gamma difference of two infinite charts
GAMMA_DIFFERENCE_OVERFLOW = (
    ["equivalent", "{tmp}/a.chart", "{tmp}/a.chart"],
    {"a.chart": "dim = 2\n[metric]\ng 1 1 = 1e308 * x1 + 1e300\ng 2 2 = 1e300\n"})

# constant torsion: the first Bianchi identity holds, and develop refuses it
CONSTANT_TORSION = (
    ["develop", "{tmp}/a.chart", "--base=0,0,0", "--targets", "{tmp}/t.txt"],
    {"a.chart": "dim = 3\n[christoffel]\nG 1 2 3 = 1e-6\n", "t.txt": "0.1,0.1,0.1\n"})


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(runs())
@example(PATH_FRAME_OVERFLOW)
@example(PATH_FRAME_INFINITY)
@example(RICCI_OVERFLOW)
@example(GAMMA_DIFFERENCE_OVERFLOW)
@example(CONSTANT_TORSION)
def test_hostile_charts_end_in_a_report_or_one_error_line(run):
    argv, files = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([arg.format(tmp=tmp) for arg in argv] + ["--json"])
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if err:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        if code == 2:
            assert re.search(r" at x = \([^()]*\)\n$", err), err
    else:
        assert code in (0, 1)
        json.loads(out, parse_constant=_refuse_constant)
