"""The shared input layer: chart, alpha and targets text either parses or is refused
with a ChartError (or a ParseError), never with any other exception."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projgeo.connection import load_chart, parse_chart
from projgeo.expr import ParseError
from projgeo.projective import load_alpha, parse_alpha
from projgeo.readers import MAX_DIM, ChartError, parse_points, read_numbers

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


def test_number_reader_counts_and_refuses_non_finite_values():
    assert read_numbers(" 0.5, -1 ,2e-3") == [0.5, -1.0, 0.002]
    assert read_numbers("7", 1, int) == [7]
    for text, count, kind in [("1,inf", None, float), ("nan", 1, float), ("1,2", 3, float),
                              ("1.5", 1, int), ("", None, float)]:
        with pytest.raises(ChartError):
            read_numbers(text, count, kind)


def test_load_functions_take_paths_not_text():
    with pytest.raises(ChartError, match="cannot read"):
        load_chart("dim = 2\n[christoffel]\n")
    with pytest.raises(ChartError, match="cannot read"):
        load_alpha("dim = 2\na 1 = x1\n", 2)
