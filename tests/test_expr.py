"""Parser, jet arithmetic and the compiled tape for closed-form chart expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHARTS, chart_spec, to_text
from projgeo.connection import load_chart
from projgeo.expr import (BinOp, Call, DomainError, Neg, Num, ParseError, Pow,
                          UnknownFunction, UnknownVariable, Var, compile_tape,
                          eval_jet, parse)
from projgeo.projective import parse_alpha, projective_change, sample_points


def _value(text, n, p):
    return eval_jet(parse(text, n), p, order=1)[0]


def test_literals_and_precedence():
    p = np.zeros(1)
    assert _value("1 + 2*3", 1, p) == 7.0
    assert _value("2*3^2", 1, p) == 18.0
    assert _value("(1 + 2)*3", 1, p) == 9.0
    assert _value("4/2/2", 1, p) == 1.0
    assert _value("1 - 2 - 3", 1, p) == -4.0


def test_unary_minus_binds_looser_than_power():
    p = np.array([3.0])
    assert _value("-x1^2", 1, p) == -9.0
    assert _value("(-x1)^2", 1, p) == 9.0


def test_negative_integer_exponent():
    p = np.array([2.0])
    assert _value("x1^-2", 1, p) == 0.25


def test_variables_are_one_based():
    p = np.array([1.5, -0.5])
    assert _value("x1", 2, p) == 1.5
    assert _value("x2", 2, p) == -0.5
    with pytest.raises(UnknownVariable):
        parse("x3", 2)
    with pytest.raises(UnknownVariable):
        parse("x0", 2)


def test_unknown_function_rejected():
    with pytest.raises(UnknownFunction):
        parse("sinh(x1)", 1)


@pytest.mark.parametrize("bad", ["", "1 +", "x1 x2", "((x1)", "*x1", "2 ^ x1"])
def test_malformed_input_raises_parse_error(bad):
    with pytest.raises(ParseError):
        parse(bad, 2)


def test_domain_errors():
    e = parse("ln(x1)", 1)
    with pytest.raises(DomainError):
        eval_jet(e, np.array([-1.0]), order=3)
    with pytest.raises(DomainError):
        eval_jet(parse("sqrt(x1)", 1), np.array([-0.25]), order=3)
    with pytest.raises(DomainError):
        eval_jet(parse("1/x1", 1), np.array([0.0]), order=3)
    with pytest.raises(DomainError):
        eval_jet(parse("x1^-1", 1), np.array([0.0]), order=3)
    # non-integer exponent needs a positive base
    with pytest.raises(DomainError):
        eval_jet(parse("x1^0.5", 1), np.array([-2.0]), order=3)


def _fd_gradient(text, n, p, h=1e-6):
    e = parse(text, n)
    grad = np.empty(n)
    for i in range(n):
        lo, hi = p.copy(), p.copy()
        lo[i] -= h
        hi[i] += h
        grad[i] = (eval_jet(e, hi, order=1)[0]
                   - eval_jet(e, lo, order=1)[0]) / (2 * h)
    return grad


SAMPLE_EXPRS = [
    "x1*x2 - 3*x1 + 0.5",
    "sin(x1)*cos(x2) + exp(0.3*x1)",
    "sqrt(1 + x1^2 + x2^2)",
    "ln(2 + x1) / (1 + x2^2)",
    "(x1 - x2)^3 + x2^-2",
]


@pytest.mark.parametrize("text", SAMPLE_EXPRS)
def test_first_derivatives_match_finite_differences(text):
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(0.2, 0.9, size=2)
        jet = eval_jet(parse(text, 2), p, order=3)
        assert np.allclose(jet[1], _fd_gradient(text, 2, p), atol=1e-8)


@pytest.mark.parametrize("text", SAMPLE_EXPRS)
def test_higher_jets_differentiate_lower_ones(text):
    """d2 is the exact gradient of d1, and d3 of d2 (checked via FD in x1)."""
    h = 1e-5
    p = np.array([0.4, 0.7])
    e = parse(text, 2)
    hi = eval_jet(e, p + [h, 0], order=3)
    lo = eval_jet(e, p - [h, 0], order=3)
    mid = eval_jet(e, p, order=3)
    assert np.allclose((hi[1] - lo[1]) / (2 * h), mid[2][0], atol=1e-6)
    assert np.allclose((hi[2] - lo[2]) / (2 * h), mid[3][0], atol=2e-5,
                       rtol=1e-4)


def test_jets_are_symmetric_in_derivative_slots():
    e = parse("sin(x1*x2) * exp(x2 - x1^2)", 2)
    jet = eval_jet(e, np.array([0.3, -0.6]), order=3)
    assert np.allclose(jet[2], jet[2].T)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(jet[3], jet[3].transpose(perm))


def test_round_trip_through_to_text():
    rng = np.random.default_rng(11)
    for text in SAMPLE_EXPRS:
        e = parse(text, 2)
        again = parse(to_text(e), 2)
        for _ in range(4):
            p = rng.uniform(0.3, 0.8, size=2)
            assert eval_jet(e, p, order=3)[0] == pytest.approx(
                eval_jet(again, p, order=3)[0], abs=1e-15)


@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_polynomial_jets_are_exact(coeffs, a, b):
    """Cubic polynomial jets agree with hand-computed derivatives."""
    c0, c1, c2, c3 = coeffs
    text = f"{c0} + {c1}*x1 + {c2}*x1*x2 + {c3}*x1^3"
    jet = eval_jet(parse(text, 2), np.array([a, b]), order=3)
    assert jet[0] == pytest.approx(c0 + c1 * a + c2 * a * b + c3 * a**3, abs=1e-9)
    assert jet[1][0] == pytest.approx(c1 + c2 * b + 3 * c3 * a**2, abs=1e-9)
    assert jet[1][1] == pytest.approx(c2 * a, abs=1e-12)
    assert jet[2][0, 1] == pytest.approx(c2, abs=1e-12)
    assert jet[3][0, 0, 0] == pytest.approx(6 * c3, abs=1e-12)


@given(st.floats(0.1, 1.4))
@settings(max_examples=40, deadline=None)
def test_function_jets_match_closed_forms(x):
    jet = eval_jet(parse("ln(x1)", 1), np.array([x]), order=3)
    assert jet[1][0] == pytest.approx(1 / x, rel=1e-12)
    assert jet[2][0, 0] == pytest.approx(-1 / x**2, rel=1e-12)
    assert jet[3][0, 0, 0] == pytest.approx(2 / x**3, rel=1e-12)
    jet = eval_jet(parse("sin(x1)", 1), np.array([x]), order=3)
    assert jet[3][0, 0, 0] == pytest.approx(-math.cos(x), rel=1e-12)


def test_domain_errors_name_the_first_offending_point():
    tape = compile_tape([parse("ln(x1)", 2)], 2)
    points = np.array([[0.5, 0.1], [-0.21, 0.13], [-0.5, 0.0]])
    with pytest.raises(DomainError, match=r"-0\.21 at x = \(-0\.21, 0\.13\)"):
        tape.run(points, 1)


def test_overflow_is_refused_at_the_first_point_it_reaches():
    tape = compile_tape([parse("exp(709*x1)", 2)], 2)
    points = np.array([[0.5, 0.0], [1.0, 0.2], [2.0, 0.0]])
    # the value overflows at x1 = 2, its first partial already at x1 = 1
    with pytest.raises(DomainError, match=r"not finite at x = \(2, 0\)"):
        tape.run(points, 0)
    with pytest.raises(DomainError, match=r"not finite at x = \(1, 0\.2\)"):
        tape.run(points, 1)
    assert np.isfinite(tape.run(points[:1], 3)[3]).all()


def test_order_zero_runs_carry_values_only():
    out = compile_tape([parse("x1*x2", 2), parse("3", 2)], 2).run(
        np.array([[2.0, 5.0], [1.0, -1.0]]), 0)
    assert len(out) == 1
    assert np.array_equal(out[0], [[10.0, 3.0], [-1.0, 3.0]])


# (a) one batched run equals the one-point runs bit for bit

_BUILD = {
    "+": lambda a, b: BinOp("+", a, b),
    "-": lambda a, b: BinOp("-", a, b),
    "*": lambda a, b: BinOp("*", a, b),
    "/": lambda a, b: BinOp("/", a, b),
    "neg": lambda a, b: Neg(a),
    "square": lambda a, b: Pow(a, 2.0),
    "cube": lambda a, b: Pow(a, 3.0),
    "inverse": lambda a, b: Pow(a, -1.0),
    "root": lambda a, b: Pow(BinOp("+", Num(1.0), Pow(a, 2.0)), 0.5),
    "sin": lambda a, b: Call("sin", a),
    "cos": lambda a, b: Call("cos", a),
    "exp": lambda a, b: Call("exp", Call("sin", a)),
    "ln": lambda a, b: Call("ln", BinOp("+", Num(2.0), Call("cos", a))),
    "sqrt": lambda a, b: Call("sqrt", BinOp("+", Num(1.5), Call("sin", a))),
}


@st.composite
def _shared_dags(draw):
    """A few expressions over x1, x2 built from a pool that reuses its own nodes."""
    pool = [Var(1), Var(2), Num(draw(st.floats(-2.0, 2.0)))]
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(sorted(_BUILD)))
        a = pool[draw(st.integers(0, len(pool) - 1))]
        b = pool[draw(st.integers(0, len(pool) - 1))]
        pool.append(_BUILD[op](a, b))
    return pool[-draw(st.integers(1, 4)):]


@given(_shared_dags(),
       st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                min_size=1, max_size=10),
       st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_batched_rows_equal_single_point_runs(exprs, rows, order):
    tape = compile_tape(exprs, 2)
    points = np.array(rows)
    with np.errstate(all="ignore"):
        try:
            batched = tape.run(points, order)
        except DomainError:
            # a division by an exact zero somewhere: some single point refuses too
            with pytest.raises(DomainError):
                for r in range(len(points)):
                    tape.run(points[r:r + 1], order)
            return
        for r in range(len(points)):
            single = tape.run(points[r:r + 1], order)
            for level_batched, level_single in zip(batched, single):
                np.testing.assert_array_equal(level_batched[r], level_single[0])
            if order:
                jet = eval_jet(exprs[0], points[r], order)
                np.testing.assert_array_equal(jet[0], batched[0][r, 0])
                np.testing.assert_array_equal(jet[1], batched[1][r, :, 0])


# Each instruction kind of the tape at least once: num, var, neg, add, sub, mul,
# inv, a non-integer pow, sin, cos, exp, ln and sqrt.
ROW_EXPRS = ["-x1 + 2.5", "x1 - x2*x3", "1 / (x2 + 3)", "(x1 + 2)^1.5", "sin(x1*x2)",
             "cos(x3) - x1", "exp(x2 - x1)", "ln(x3 + 2)", "sqrt(x1*x1 + 1)"]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 33, 257])
def test_tape_rows_equal_runs_on_each_row_alone(count, order):
    """Each row of a run over `count` points is, bit for bit, the run on that
    row alone: the property on which every walk over point blocks rests for
    results that do not depend on how the points are blocked."""
    tape = compile_tape([parse(text, 3) for text in ROW_EXPRS], 3)
    assert {op for op, *_ in tape.code} == {"num", "var", "neg", "add", "sub", "mul", "inv",
                                            "pow", "sin", "cos", "exp", "ln", "sqrt"}
    points = np.random.default_rng(count).uniform(-0.9, 0.9, size=(count, 3))
    batched = tape.run(points, order)
    for r in range(count):
        for level, alone in zip(batched, tape.run(points[r:r + 1], order)):
            assert level[r].tobytes() == alone[0].tobytes()


# (b) jets against symbolic derivatives

ORACLE_EXPRS = SAMPLE_EXPRS + [
    "x1^0.7 * cos(x2)",
    "4 / (1 + x1^2 + x2^2)^2",
    "exp(-x1*x2) / sqrt(x1 + x2) - (x1 - 0.5)^-3",
]


@pytest.mark.parametrize("text", ORACLE_EXPRS)
def test_jets_match_symbolic_derivatives(text):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1 x2")
    e = parse(text, 2)
    sym = sympy.sympify(to_text(e).replace("^", "**").replace("ln(", "log("),
                        locals={"x1": xs[0], "x2": xs[1]})
    rng = np.random.default_rng(5)
    for p in rng.uniform(0.55, 0.9, size=(3, 2)):
        subs = {xs[0]: sympy.Float(p[0], 30), xs[1]: sympy.Float(p[1], 30)}
        jet = eval_jet(e, p, order=3)
        for order, got in enumerate(jet):
            want = np.empty((2,) * order)
            for idx in np.ndindex(*want.shape):
                d = sympy.diff(sym, *(xs[i] for i in idx)) if idx else sym
                want[idx] = float(d.evalf(30, subs=subs))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# (c) evaluate_many rows against evaluate

@pytest.mark.parametrize("path", sorted(CHARTS.glob("*.chart")), ids=lambda p: p.name)
def test_evaluate_many_rows_match_evaluate(path):
    spec = load_chart(path)
    points = sample_points(spec.n, 12, seed=4)
    for derivs in (0, 1, 2):
        many = spec.evaluate_many(points, derivs=derivs)
        for r, p in enumerate(points):
            one = spec.evaluate(p, derivs=derivs)
            for a, b in ((many.gamma[r], one.gamma), (many.dgamma, one.dgamma),
                         (many.ddgamma, one.ddgamma)):
                if b is None:
                    assert a is None
                    continue
                if a.ndim > b.ndim:
                    a = a[r]
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)


# (d) hash-consing merges the shared subtrees of a chart

def _tree_size(e):
    if isinstance(e, (Num, Var)):
        return 1
    if isinstance(e, BinOp):
        return 1 + _tree_size(e.left) + _tree_size(e.right)
    if isinstance(e, Pow):
        return 1 + _tree_size(e.base)
    return 1 + _tree_size(e.arg)


def test_tape_merges_shared_subexpressions():
    n = 6
    den = "(4 + (" + " + ".join(f"(x{i} - 0.1)^2" for i in range(1, n + 1)) + "))"
    dphi = [f"(-2*(x{i} - 0.1) / {den})" for i in range(1, n + 1)]
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = ([dphi[i]] if k == j else []) + ([dphi[j]] if k == i else [])
                terms += [f"-{dphi[k]}"] if i == j else []
                if terms:
                    entries[(k, i, j)] = " + ".join(terms)
    alpha = parse_alpha("".join(f"a {i + 1} = 0.1*x{i % n + 1} - 0.2\n" for i in range(n)), n)
    spec = projective_change(chart_spec(n, entries), alpha)
    tree_total = sum(_tree_size(e) for e in (*spec.christoffel.values(), *spec.alpha))
    assert len(spec._plan().tape.code) < tree_total / 10


# (e) the builder's loop over left spines, and integer powers by square-and-multiply

def _recursive_code(exprs, n):
    """Code and outputs of a plain recursive lowering with integer powers as
    repeated products: the reference the builder's loop must reproduce, exactly
    for exponents |k| <= 3."""
    code, index, seen = [], {}, {}

    def emit(op, a=-1, b=-1, lit=None):
        key = (op, a, b, lit)
        if key not in index:
            index[key] = len(code)
            code.append(key)
        return index[key]

    def visit(e):
        if id(e) in seen:
            return seen[id(e)]
        if isinstance(e, Num):
            slot = emit("num", lit=float(e.value))
        elif isinstance(e, Var):
            slot = emit("var", lit=e.index)
        elif isinstance(e, Neg):
            slot = emit("neg", visit(e.arg))
        elif isinstance(e, BinOp):
            left, right = visit(e.left), visit(e.right)
            slot = (emit("mul", left, emit("inv", right)) if e.op == "/"
                    else emit({"+": "add", "-": "sub", "*": "mul"}[e.op], left, right))
        elif isinstance(e, Pow):
            slot = base = visit(e.base)
            if not float(e.exponent).is_integer():
                slot = emit("pow", base, lit=float(e.exponent))
            elif e.exponent == 0:
                slot = emit("num", lit=1.0)
            else:
                for _ in range(int(abs(e.exponent)) - 1):
                    slot = emit("mul", slot, base)
                if e.exponent < 0:
                    slot = emit("inv", slot)
        else:
            slot = emit(e.func, visit(e.arg))
        seen[id(e)] = slot
        return slot

    outputs = [visit(e) for e in exprs]
    return tuple(code), tuple(outputs)


@pytest.mark.parametrize("path", sorted(CHARTS.glob("*.chart")), ids=lambda p: p.name)
def test_tape_code_is_the_recursive_lowering(path):
    spec = load_chart(path)
    alpha = parse_alpha("a 1 = x1 / (2 - x2)^-3\na 2 = -(x1 - x2)^2 * sin(x1 / 3)\n", spec.n)
    spec = projective_change(spec, alpha)
    entries = spec.metric if spec.metric is not None else spec.christoffel
    exprs = [*entries.values(), Num(0.0), *spec.alpha]
    tape = spec._plan().tape
    assert (tape.code, tape.outputs) == _recursive_code(exprs, spec.n)


@pytest.mark.parametrize("op", ["+", "*"])
def test_long_sums_and_products_compile_and_evaluate(op):
    """The parser builds a 5,000-term sum or product left-deep; lowering it
    recursively overflowed the interpreter's stack."""
    terms, x = 5000, 1.0001
    tape = compile_tape([parse(f" {op} ".join(["x1"] * terms), 1)], 1)
    assert len(tape.code) == terms
    value, d1 = tape.run(np.array([[x]]), 1)
    if op == "+":
        expect = (terms * x, terms)
    else:
        expect = (x ** terms, terms * x ** (terms - 1))
    assert value[0, 0] == pytest.approx(expect[0], rel=1e-11)
    assert d1[0, 0, 0] == pytest.approx(expect[1], rel=1e-11)


@pytest.mark.parametrize("k", [*range(-12, -3), *range(4, 13)])
def test_integer_powers_match_the_power_function(k):
    v = np.array([0.7, 1.3, -1.1])
    levels = compile_tape([parse(f"x1^{k}", 1)], 1).run(v[:, None], 3)
    expect = [v ** k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2),
              k * (k - 1) * (k - 2) * v ** (k - 3)]
    for level, e in zip(levels, expect):
        np.testing.assert_allclose(level.reshape(v.shape), e, rtol=1e-13)


def test_integer_power_tapes_grow_with_the_bits_of_the_exponent():
    for k in ("1000", "1000000000", "1e20", "-1000000000", "1e300"):
        bits = int(abs(float(k))).bit_length()
        assert len(compile_tape([parse(f"x1^{k}", 1)], 1).code) <= 2 * bits + 1
    assert compile_tape([parse("x1^3", 1)], 1).code == (
        ("var", -1, -1, 1), ("mul", 0, 0, None), ("mul", 1, 0, None))
    assert eval_jet(parse("x1^1000000000", 1), np.array([0.0]), order=3)[0] == 0.0
