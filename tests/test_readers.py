"""The shared input layer: chart, alpha and targets text either parses or is refused
with a ChartError (or a ParseError), never with any other exception."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CHARTS, to_text
from projgeo.connection import load_chart, parse_chart
from projgeo.expr import (BinOp, Call, Neg, ParseError, Pow, compile_tape, parse,
                          shared_groups)
from projgeo.projective import load_alpha, parse_alpha
from projgeo.readers import MAX_DIM, ChartError, content_lines, parse_points, read_numbers
from test_cli_fuzz import EXPRESSIONS

KEYS = ["dim", "g 1 1", "g 1 2", "g 2 1", "g 1 9", "G 1 2 3", "G 2 1 1", "G 1 1",
        "a 1", "a 3", "a x", "a 1 2", "x", "G k i j", ""]
RIGHT_SIDES = ["2", "3", "0", "9", "x", "2.5", "x1 + x2^2", "sin(x1", "1e999", "-x3",
               "(((x1)))", "", "nan", "4 / (1 + x1^2)^2", "x1^-1", "ln(x2) * exp(x1)"]
NUMBERS = ["0.1", "-2", "nan", "inf", "-inf", "x", "", "1e999", "3", " 4 ", "1_0"]

LINE = st.one_of(
    st.text(max_size=24),
    st.sampled_from(["[metric]", "[christoffel]", "[torsion]", "[", "]", "# note", "=",
                     " = x1", "dim = 2 # two", "\t"]),
    st.builds("{} = {}".format, st.sampled_from(KEYS), st.sampled_from(RIGHT_SIDES)),
    st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=4).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(LINE, max_size=8), st.integers(1, 4))
@example(["dim = 2", "[christoffel]", "G 1 1 1 = " + "(" * 1000 + "x1" + ")" * 1000], 2)
@example(["dim = 2", "[metric]", " = x1"], 2)
@example(["0.1, 0.2", "0.3"], 2)
def test_readers_parse_or_refuse_with_chart_errors(lines, n):
    text = "\n".join(lines)
    try:
        spec = parse_chart(text)
    except (ChartError, ParseError):
        pass
    else:
        assert 1 <= spec.n <= MAX_DIM
    try:
        alpha = parse_alpha(text, n)
    except (ChartError, ParseError):
        pass
    else:
        assert len(alpha) == n
    try:
        points = parse_points(text, n)
    except (ChartError, ParseError):
        pass
    else:
        assert points.shape[1] == n and np.isfinite(points).all()


@pytest.mark.parametrize("text,count,kind", [
    ("\u0660.1,0.2", 2, float), ("1_0", 1, float), ("0.5,2_000.0", 2, float),
    ("\uff11", 1, float), ("\u0663", 1, int), ("1_0", 1, int)])
def test_number_reader_takes_ascii_digits_only(text, count, kind):
    """Python's int() and float() read other scripts' digits and underscores
    between digits; the number reader does not."""
    with pytest.raises(ChartError, match="expected comma-separated"):
        read_numbers(text, count, kind)


# Lines that Python's int() would read as indices or dims, each in a chart
# whose line 3 (or, for dim, line 1) holds it, and the message.
NON_ASCII_LINES = {
    "index-arabic-digit": ("dim = 3\n[christoffel]\nG \u0663 1 1 = x1\n", "line 3: bad index in"),
    "index-sign": ("dim = 3\n[christoffel]\nG 3 1 +1 = x1\n", "line 3: bad index in"),
    "index-underscore": ("dim = 2\n[metric]\ng 0_1 1_0 = 1\n", "line 3: bad index in"),
    "alpha-index": ("dim = 2\n\na \u0661 = x1\n", "line 3: bad index in"),
    "dim-arabic-digit": ("dim = \u0663\n[christoffel]\n", "line 1: dim must be an integer"),
    "dim-sign": ("dim = +3\n[christoffel]\n", "line 1: dim must be an integer"),
    "dim-underscore": ("dim = 0_3\n[christoffel]\n", "line 1: dim must be an integer"),
    "expression-digit": ("dim = 2\n[christoffel]\nG 1 1 1 = \u0663*x1\n",
                         "line 3: unexpected character '\u0663' (at offset 1)"),
    "expression-space": ("dim = 2\n[christoffel]\nG 1 1 1 = x1\u00a0+ x2\n",
                         "line 3: unexpected character '\\xa0' (at offset 3)"),
    # str.split and str.strip would take these spaces, as the expression reader does not
    "key-space": ("dim = 2\n[metric]\ng 1\u00a01 = 1\n", "line 3: metric entries look like"),
    "section-space": ("dim = 2\n[\u00a0metric\u00a0]\n", "line 2: unknown section"),
    "dim-space": ("\u3000dim = 2\n[metric]\n", "line 1: entry before any section"),
    "dim-value-space": ("dim = 2\u2003\n[metric]\n", "line 1: dim must be an integer"),
    "alpha-space": ("dim = 2\n\n\u00a0a 1 = x1\n", "line 3: alpha entries look like"),
}


@pytest.mark.parametrize("name", sorted(NON_ASCII_LINES))
def test_indices_dims_and_expressions_take_ascii_only(name):
    text, message = NON_ASCII_LINES[name]
    with pytest.raises(ChartError) as err:
        parse_alpha(text, 2) if name.startswith("alpha") else parse_chart(text)
    assert str(err.value).startswith(message), str(err.value)


def test_lines_end_at_newline_alone():
    """splitlines would also break at form feeds, separators and U+2028; a
    line ends at "\\n" alone, with a "\\r" before it dropped."""
    text = "a\fb # c\x1cd\r\n\n# \x85\u2028\u2029\v more\r\n e \t\n"
    assert list(content_lines(text)) == [(1, "a\fb"), (4, "e")]
    crlf = "dim = 2\r\n[metric]\r\ng 1 1 = 1 # one\r\ng 2 2 = x1\r\n"
    assert parse_chart(crlf) == parse_chart(crlf.replace("\r", ""))
    for breaker in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        text = f"dim = 2\n[metric]\n# note{breaker}\ng 1 1 = 1\nbad\n"
        with pytest.raises(ChartError, match="^line 5: expected 'key = expression'"):
            parse_chart(text)


def test_number_reader_counts_and_refuses_non_finite_values():
    assert read_numbers(" 0.5, -1 ,2e-3", count=None) == [0.5, -1.0, 0.002]
    assert read_numbers("7", 1, int) == [7]
    for text, count, kind in [("1,inf", None, float), ("nan", 1, float), ("1,2", 3, float),
                              ("1.5", 1, int), ("", None, float)]:
        with pytest.raises(ChartError):
            read_numbers(text, count, kind)


# A chart and an alpha file of dimension 2, each five lines long with a comment
# and a blank line, and per rule of the one reader both files share, a line
# that breaks it in each kind of file and what its message says.
HEADS = {"chart": "# a chart\ndim = 2\n\n[christoffel]\nG 1 1 1 = x1\n",
         "alpha": "# an alpha file\ndim = 2\n\n\na 1 = x1\n"}
RULES = {
    "duplicate-dim": ({"chart": "dim = 2", "alpha": "dim = 2"}, "duplicate dim"),
    "duplicate-key": ({"chart": "G 1 1 1 = x2", "alpha": "a 1 = x2"}, "duplicate entry"),
    "index-range": ({"chart": "G 3 1 1 = x1", "alpha": "a 3 = x1"}, "index out of range 1..2"),
    "index-not-integer": ({"chart": "G x 1 1 = x1", "alpha": "a x = x1"}, "bad index in"),
    "no-equals": ({"chart": "G 1 2 1 x1", "alpha": "a 2 x1"}, "expected 'key = expression'"),
    "bad-expression": ({"chart": "G 1 2 1 = x1 +", "alpha": "a 2 = x1 +"},
                       "unexpected end of input"),
}


@pytest.mark.parametrize("kind", sorted(HEADS))
@pytest.mark.parametrize("rule", sorted(RULES))
def test_chart_and_alpha_files_share_each_reader_rule(rule, kind):
    lines, message = RULES[rule]
    text = HEADS[kind] + "\n# the bad line\n" + lines[kind] + "\n"
    with pytest.raises(ChartError) as err:
        parse_chart(text) if kind == "chart" else parse_alpha(text, 2)
    assert str(err.value).startswith("line 8: ") and message in str(err.value), str(err.value)


def test_load_functions_take_paths_not_text():
    with pytest.raises(ChartError, match="cannot read"):
        load_chart("dim = 2\n[christoffel]\n")
    with pytest.raises(ChartError, match="cannot read"):
        load_alpha("dim = 2\na 1 = x1\n", 2)


# ---------------------------------------------------------------- shared groups
#
# Within one chart or alpha file the parser reuses the tree of any entry or
# parenthesized group it has read before. These oracles hold it to fresh,
# one-entry parses: the same trees, the same tapes, the same errors.


def _chart(n, rhss):
    """Christoffel chart text with one entry per right-hand side, on distinct keys;
    entry r sits on line r + 3."""
    keys = [(k, i, j) for k in range(1, n + 1) for i in range(1, n + 1) for j in range(1, n + 1)]
    return f"dim = {n}\n[christoffel]\n" + "".join(
        f"G {k} {i} {j} = {rhs}\n" for (k, i, j), rhs in zip(keys, rhss))


def _fresh(text):
    """(n, [(line number, tree or ChartError)]) of each entry of a chart or alpha
    file, every entry parsed on its own."""
    n, out = None, []
    for lineno, line in content_lines(text):
        if line.startswith("["):
            continue
        key, _, rhs = line.partition("=")
        if key.split() == ["dim"]:
            n = int(rhs)
            continue
        try:
            out.append((lineno, parse(rhs.strip(), n)))
        except ParseError as err:
            out.append((lineno, ChartError(f"line {lineno}: {err}")))
    return n, out


def _assert_same_as_fresh(text):
    n, fresh = _fresh(text)
    errors = [str(e) for _, e in fresh if isinstance(e, ChartError)]
    try:
        spec = parse_chart(text)
    except ChartError as err:
        assert errors and str(err) == errors[0]
        return
    assert not errors
    trees = list(spec.entries.values())
    assert trees == [e for _, e in fresh]
    shared, alone = compile_tape(trees, n), compile_tape([e for _, e in fresh], n)
    assert (shared.code, shared.outputs) == (alone.code, alone.outputs)


@pytest.mark.parametrize("path", sorted(CHARTS.glob("*.chart")), ids=lambda p: p.name)
def test_chart_files_parse_as_their_entries_alone(path):
    _assert_same_as_fresh(path.read_text())


def test_alpha_file_parses_as_its_entries_alone():
    text = (CHARTS / "alpha3.alpha").read_text()
    n, fresh = _fresh(text)
    lines = dict(content_lines(text))
    assert all(parse_alpha(text, n)[int(lines[lineno].split()[1]) - 1] == e
               for lineno, e in fresh)


@st.composite
def _sharing_entries(draw):
    """(n, entry texts) whose entries share subexpressions: trees combined from a
    small pool of drawn expressions and written out with to_text, so that a
    shared subtree is the same parenthesized group wherever it occurs."""
    n = draw(st.sampled_from([2, 3, 4]))
    pool = [parse(t, n) for t in draw(st.lists(EXPRESSIONS[n], min_size=1, max_size=3))]
    tree = st.sampled_from(pool)
    combined = st.one_of(
        tree,
        st.builds(BinOp, st.sampled_from("+-*/"), tree, tree),
        st.builds(Call, st.sampled_from(["sin", "exp", "sqrt"]), tree),
        st.builds(Pow, tree, st.sampled_from([2.0, -1.0, 0.5])),
        st.builds(Neg, tree))
    rhss = draw(st.lists(combined.map(to_text), min_size=2, max_size=6))
    return n, rhss


def _corrupt(text, at, char):
    """text with one character inserted, replaced or deleted at `at`."""
    at %= len(text) + 1
    if char == "":
        return text[:at] + text[at + 1:]
    return text[:at] + char + text[at:] if at % 2 else text[:at] + char + text[at + 1:]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sharing_entries(), st.integers(0, 5), st.integers(0, 200),
       st.sampled_from(["", "(", ")", "x", "x9", "^", "*", " ", "$", "1e999", "sin"]))
def test_shared_groups_parse_as_fresh_entries(entries, which, at, char):
    n, rhss = entries
    _assert_same_as_fresh(_chart(n, rhss))
    which %= len(rhss)
    broken = rhss[:which] + [_corrupt(rhss[which], at, char)] + rhss[which + 1:]
    _assert_same_as_fresh(_chart(n, broken))


@pytest.mark.parametrize("rhss", [
    ["(x1)", "sin(x1)"],
    ["sin(x1)", "(x1)"],
    ["(x1)", "(x1)^2"],
    ["(2)", "x1^(2)"],
    ["(x1)", "((x1)"],
    ["(x1)", "x1 (x1)"],
    ["(x1)", "foo(x1)"],
    ["(x1 + x2)", "(x1 + x7)"],
    ["(x1 + x2)", "sin((x1 + x2) * (x7))"],
    ["(x6 * x1)", "ln((x6 * x1) + (x7 * x1))"],
])
def test_shared_groups_keep_calls_powers_and_errors(rhss):
    _assert_same_as_fresh(_chart(6, rhss))


def test_shared_groups_report_errors_at_fresh_offsets():
    with pytest.raises(ChartError, match=r"^line 4: exponent must be a numeric literal "
                                         r"\(at offset 4\)$"):
        parse_chart(_chart(2, ["(2)", "x1^(2)"]))
    with pytest.raises(ChartError, match=r"^line 4: expected '\)' \(at offset 6\)$"):
        parse_chart(_chart(2, ["(x1)", "((x1)"]))
    with pytest.raises(ChartError, match=r"^line 4: variable x7 outside x1..x6 "
                                         r"\(at offset 7\)$"):
        parse_chart(_chart(6, ["(x1 + x2)", "(x1 + x7)"]))


def test_a_repeated_group_is_one_tree():
    spec = parse_chart(_chart(2, ["(x1 + x2) * 2", "3 + (x1 + x2)", "sin(x1 + x2)",
                                  "(x1 + x2) * 2"]))
    a, b, c, d = spec.entries.values()
    assert a.left is b.right is c.arg and a is d
    alpha = parse_alpha("a 1 = exp(x1 - 1)\na 2 = (x1 - 1)^2\n", 2)
    assert alpha[0].arg is alpha[1].base
    # each file has its own table
    again = parse_chart(_chart(2, ["(x1 + x2) * 2"]))
    assert again.entries[(0, 0, 0)] == a and again.entries[(0, 0, 0)] is not a


def test_groups_are_shared_within_a_file_only():
    first = parse("(x1 + x2)", 2)
    assert parse("(x1 + x2)", 2) is not first
    with shared_groups():
        inner = parse("(x1 + x2)", 2)
        assert parse("sin(x1 + x2)", 2).arg is inner
        assert parse("(x1 + x2)", 3) is not inner  # another dimension, another table
    assert parse("(x1 + x2)", 2) is not inner
