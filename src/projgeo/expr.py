"""Closed-form chart expressions and truncated Taylor (jet) evaluation.

Grammar (coordinates are x1..xn):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' ['-'] NUMBER)?
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | exp | ln | sqrt

The exponent of '^' must be a numeric literal; integer exponents are evaluated
by square-and-multiply, non-integer exponents require a positive base.
Unary minus binds looser than '^', so "-x1^2" is -(x1^2).

Evaluation produces jets: value and partial derivatives up to order 3, exact to
rounding (no finite differences). `compile_tape` lowers a list of expressions
to one straight-line tape with common subexpressions merged and constants
folded into the instructions that read them, and `Tape.run`
evaluates it over a block of points at once; `eval_jet` is its one-point case.
"""

from __future__ import annotations

import math
import re
import string
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Pow", "Call",
    "Tape", "parse", "shared_groups", "compile_tape", "eval_jet",
    "ParseError", "UnknownVariable", "UnknownFunction", "DomainError", "at_point", "refuse_where",
]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


class ParseError(ValueError):
    """Malformed expression text. `offset` is a 1-based position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ParseError):
    """Identifier is not x1..xn for the declared chart dimension."""


class UnknownFunction(ParseError):
    """Identifier used as a function is not one of sin, cos, exp, ln, sqrt."""


class DomainError(ArithmeticError):
    """Evaluation left the domain: ln/sqrt of a non-positive value, division by
    zero, or a non-integer power of a non-positive base."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, so Var(1) is x1


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float  # literal only, enforced by the parser


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Pow, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()]))",
    re.ASCII,  # digits and spaces in ASCII only
)


def _tokenize(text: str, groups: dict) -> tuple[list[tuple[str, str, int]], dict[int, Expr]]:
    """The tokens (kind, value, 1-based offset) of `text`, and the trees it reuses:
    a '(' whose balanced text is a key of `groups` keeps its token, under whose
    index its tree is returned, and the text up to its ')' is skipped."""
    tokens, reused, hits, opened = [], {}, {}, []
    for m in re.finditer(r"[()]", text) if groups and "(" in text else ():
        if m.group() == "(":
            opened.append(m.start())
        elif opened:
            start = opened.pop()  # only groups inside fewer than 64: lookups stay linear
            if len(opened) < 64 and (e := groups.get(text[start:m.end()])) is not None:
                hits[start] = m.end(), e
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip(string.whitespace)  # the ASCII spaces \s takes
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped) + 1)
        kind = m.lastgroup
        if kind == "num" and math.isinf(float(m.group(kind))):
            raise ParseError(f"number {m.group(kind)} out of range", m.start(kind) + 1)
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
        if hits and m.start(kind) in hits:
            pos, reused[len(tokens) - 1] = hits[m.start(kind)]
    tokens.append(("end", "", len(text) + 1))
    return tokens, reused


class _Parser:
    def __init__(self, text: str, n: int, groups: dict):
        self.text, self.n, self.groups = text, n, groups
        self.tokens, self.reused = _tokenize(text, groups)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                left = BinOp(value, left, self.term())
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                left = BinOp(value, left, self.factor())
            else:
                return left

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Pow(base, self.exponent_literal())
        return base

    def exponent_literal(self) -> float:
        sign = 1.0
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1.0
            kind, value, offset = self.peek()
        if kind != "num":
            raise ParseError("exponent must be a numeric literal", offset)
        self.advance()
        return sign * float(value)

    def group(self) -> Expr:
        """The rest of '(' expr ')' after its '(': the tree the tokenizer reused
        there, or the one parsed here, which is then recorded."""
        e = self.reused.get(self.i - 1)
        if e is None:
            offset = self.tokens[self.i - 1][2]
            e = self.expr()
            self.groups[self.text[offset - 1:self.expect_op(")")[2]]] = e
        return e

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "op" and value == "(":
            return self.group()
        if kind == "ident":
            if value in FUNCTIONS:
                self.expect_op("(")
                return Call(value, self.group())
            m = re.fullmatch(r"x(\d+)", value)
            if m is not None:
                index = int(m.group(1))
                if not 1 <= index <= self.n:
                    raise UnknownVariable(
                        f"variable {value} outside x1..x{self.n}", offset)
                return Var(index)
            next_kind, next_value, _ = self.peek()
            if next_kind == "op" and next_value == "(":
                raise UnknownFunction(f"unknown function {value!r}", offset)
            raise UnknownVariable(f"unknown variable {value!r}", offset)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input",
                         offset)


_GROUPS = ContextVar("groups", default=None)  # n -> {text: tree} in a shared_groups block


@contextmanager
def shared_groups():
    """Within this block, `parse` reuses the tree of each text or parenthesized group
    read before in it, so `compile_tape` lowers that tree once. Inside parentheses the
    grammar is context-free: trees and errors match fresh parses, except nesting depth."""
    token = _GROUPS.set({})
    try:
        yield
    finally:
        _GROUPS.reset(token)


def parse(text: str, n: int) -> Expr:
    """Parse `text` over chart variables x1..xn into an immutable AST."""
    if n < 1:
        raise ValueError("chart dimension must be at least 1")
    scope = _GROUPS.get()
    groups = {} if scope is None else scope.setdefault(n, {})
    if text not in groups:
        try:
            groups[text] = _Parser(text, n, groups).parse()
        except RecursionError:
            raise ParseError("expression nested too deeply", 1) from None
    return groups[text]


def at_point(p) -> str:
    """The suffix 'at x = (a, b, ...)' with which numeric refusals name a chart point."""
    return "at x = (" + ", ".join(format(float(c), ".12g") for c in p) + ")"


class Tape:
    """Straight-line program for a list of expressions over x1..xn (see compile_tape).

    Instruction i is (op, a, b, lit) and writes slot i: `a` and `b` are the
    slots of its arguments (-1 when unused), `lit` its literal. The operations
    are "num" (the constant lit), "var" (the coordinate x_lit), "neg", "add",
    "sub", "mul", "addc" (a + lit), "mulc" (a * lit), "inv" (1 / a), "pow"
    (a to the power lit) and the functions sin, cos, exp, ln and sqrt of a.
    `run` executes it in Taylor mode over a leading point axis (Griewank &
    Walther, Evaluating Derivatives, 2nd ed., ch. 13).
    """

    def __init__(self, n: int, code, outputs):
        self.n = n
        self.code = tuple(code)
        self.outputs = tuple(outputs)
        last_read = list(range(len(self.code)))
        for i, (_, a, b, _) in enumerate(self.code):
            for s in (a, b):
                if s >= 0:
                    last_read[s] = i
        # after instruction i, drop argument a (bit 1), argument b (bit 2)
        # or its own result (bit 4) when i is that slot's last reader
        self._drops = bytes((a >= 0 and last_read[a] == i)
                            | (b >= 0 and last_read[b] == i) << 1
                            | (last_read[i] == i) << 2
                            for i, (_, a, b, _) in enumerate(self.code))
        self._columns: dict[int, list[int]] = {}
        for col, s in enumerate(self.outputs):
            self._columns.setdefault(s, []).append(col)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def run(self, points, order: int) -> "list[np.ndarray]":
        """Every output at each row of `points` (P, n), with partials up to `order` (0..3).

        Returns [value (P, m), d1 (P, n, m), d2 (P, n, n, m), d3 (P, n, n, n, m)]
        cut after `order`, for m outputs: the output axis comes last, after the
        derivative slots. Each slot carries value (P,) and partials (P, n),
        (P, n, n), (P, n, n, n) up to `order`; a partial that vanishes
        identically is not stored, so constants carry none, and a slot is
        released after its last reader. Raises DomainError naming the first
        point at which an operation leaves its domain or an output overflows.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ValueError(f"points have shape {points.shape}, expected (P, {self.n})")
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be 0, 1, 2 or 3, got {order}")
        count, n, m = points.shape[0], self.n, len(self.outputs)
        out = [np.zeros((count,) + (n,) * k + (m,)) for k in range(order + 1)]
        if count == 0:
            return out
        slots: list = [None] * len(self.code)
        drops = self._drops
        for i, (op, a, b, lit) in enumerate(self.code):
            if op == "num":
                jet = [np.array([lit])] + [None] * order
            elif op == "var":
                jet = [points[:, lit - 1]] + [None] * order
                if order:
                    jet[1] = np.zeros((1, n))
                    jet[1][0, lit - 1] = 1.0
            elif op == "neg":
                jet = [None if d is None else -d for d in slots[a]]
            elif op == "mulc":
                jet = [None if d is None else d * lit for d in slots[a]]
            elif op == "addc":
                jet = [slots[a][0] + lit, *slots[a][1:]]
            elif op == "add":
                jet = [_sum(x, y) for x, y in zip(slots[a], slots[b])]
            elif op == "sub":
                jet = [_diff(x, y) for x, y in zip(slots[a], slots[b])]
            elif op == "mul":
                jet = _mul(slots[a], slots[b])
            else:
                f = slots[a]
                jet = _compose(f, _outer_derivs(op, f[0], lit, order, points))
            for col in self._columns.get(i, ()):
                for k, d in enumerate(jet):
                    if d is not None:
                        out[k][..., col] = d
            slots[i] = jet
            drop = drops[i]
            if drop & 1:
                slots[a] = None
            if drop & 2:
                slots[b] = None
            if drop & 4:
                slots[i] = None
        bad = np.any([~np.isfinite(d).reshape(count, -1).all(axis=1) for d in out], axis=0)
        refuse_where(DomainError, bad, "value or partial is not finite", None, points)
        return out


def _sum(*terms):
    """Left-to-right sum of the terms that are not None (None stands for zero)."""
    total = None
    for t in terms:
        if t is not None:
            total = t if total is None else total + t
    return total


def _diff(x, y):
    """x - y with None standing for zero."""
    if y is None:
        return x
    return -y if x is None else x - y


def _scale(x, v):
    """Partial array x (P, n, ...) times per-point factors v (P,); None stays None."""
    if x is None:
        return None
    return x * v.reshape(v.shape + (1,) * (x.ndim - 1))


def _sym21(a2, b1):
    """Symmetrized product of a symmetric 2-slot array with a 1-slot array, per point."""
    if a2 is None or b1 is None:
        return None
    t = a2[:, :, :, None] * b1[:, None, None, :]
    return t + t.transpose(0, 1, 3, 2) + t.transpose(0, 3, 1, 2)


def _mul(a, b):
    """Product rule, up to the order the factor jets carry."""
    va, vb = a[0], b[0]
    jet = [va * vb]
    order = len(a) - 1
    if order >= 1:
        jet.append(_sum(_scale(a[1], vb), _scale(b[1], va)))
    if order >= 2:
        cross = (None if a[1] is None or b[1] is None
                 else a[1][:, :, None] * b[1][:, None, :])
        jet.append(_sum(_scale(a[2], vb), cross,
                        None if cross is None else cross.transpose(0, 2, 1),
                        _scale(b[2], va)))
    if order >= 3:
        jet.append(_sum(_scale(a[3], vb), _scale(b[3], va),
                        _sym21(a[2], b[1]), _sym21(b[2], a[1])))
    return jet


def _compose(f, h):
    """Chain rule: the jet of h(f) from h's derivatives h0..h3 at f's value."""
    order = len(f) - 1
    jet = [h[0]] + [None] * order
    f1 = f[1] if order else None
    if f1 is None:  # a constant argument
        return jet
    jet[1] = _scale(f1, h[1])
    if order >= 2:
        jet[2] = _sum(_scale(f1[:, :, None] * f1[:, None, :], h[2]), _scale(f[2], h[1]))
    if order >= 3:
        cube = f1[:, :, None, None] * f1[:, None, :, None] * f1[:, None, None, :]
        jet[3] = _sum(_scale(cube, h[3]), _scale(_sym21(f[2], f1), h[2]),
                      _scale(f[3], h[1]))
    return jet


def refuse_where(error: type, bad, message: str, v, points) -> None:
    """Raise `error` at the first entry of `bad` (in C order) that holds, adding the
    value of v there unless v is None (v is shaped like bad), and naming that
    point unless `points` is None (points is bad's shape plus a coordinate axis)."""
    if np.any(bad):
        r = int(np.argmax(bad))
        if v is not None:
            message = f"{message} {float(np.ravel(v)[r])}"
        if points is not None:
            message = f"{message} {at_point(np.reshape(points, (-1, np.shape(points)[-1]))[r])}"
        raise error(message)


def _outer_derivs(op: str, v, lit, order: int, points) -> list:
    """Derivatives h0, h1, ... of the outer function of `op` at the argument values v.

    Only h0 is formed at order 0; otherwise all four, of which the chain rule
    reads those up to `order`.
    """
    if op == "inv":
        refuse_where(DomainError, v == 0.0, "division by zero", None, points)
        h = [1.0 / v]
        if order:
            h += [-1.0 / v**2, 2.0 / v**3, -6.0 / v**4]
    elif op == "pow":
        refuse_where(DomainError, v <= 0.0, "non-integer power of non-positive base", v, points)
        a = lit
        h = [v**a]
        if order:
            h += [a * v**(a - 1), a * (a - 1) * v**(a - 2), a * (a - 1) * (a - 2) * v**(a - 3)]
    elif op == "sin":
        s = np.sin(v)
        h = [s]
        if order:
            c = np.cos(v)
            h += [c, -s, -c]
    elif op == "cos":
        c = np.cos(v)
        h = [c]
        if order:
            s = np.sin(v)
            h += [-s, -c, s]
    elif op == "exp":
        h = [np.exp(v)] * 4
    elif op == "ln":
        refuse_where(DomainError, v <= 0.0, "ln of non-positive value", v, points)
        h = [np.log(v)]
        if order:
            h += [1.0 / v, -1.0 / v**2, 2.0 / v**3]
    elif op == "sqrt":
        refuse_where(DomainError, v <= 0.0, "sqrt of non-positive value", v, points)
        s = np.sqrt(v)
        h = [s]
        if order:
            h += [0.5 / s, -0.25 / s**3, 0.375 / s**5]
    else:
        raise ValueError(f"no such operation {op!r}")
    return h


_BINARY = {"+": "add", "-": "sub", "*": "mul"}
_FOLDED = {"add": float.__add__, "sub": float.__sub__, "mul": float.__mul__}


def _signed(key, lit):
    """`key` for a dict, apart from its twin if its literal is -0.0, which == 0.0."""
    return key if lit != 0.0 or math.copysign(1.0, lit) > 0.0 else (key, "-0.0")


def compile_tape(exprs, n: int) -> Tape:
    """Lower expressions over x1..xn to one tape, merging common subexpressions
    and folding constants into the instructions that read them.

    Each node is keyed on (operation, argument slots, literal), a float
    literal by value and sign, so equal subtrees share one slot whether or not
    they are the same object, -0.0 and 0.0 never do, and no deep node is ever
    hashed. A division becomes a product with a reciprocal and an integer
    power square-and-multiply products, the jet rules the tape runs. A
    constant is a value, not an instruction, until an instruction that cannot
    take it as a literal reads it, or it is an output: a sum or product with a
    constant operand becomes "addc" or "mulc", x - c becomes x + (-c), and an
    operation on constants alone is a constant, each the IEEE operation the
    tape would run on the same operands, so results are unchanged and no
    "num" instruction goes unread. x^0 is the constant 1, and x is still run,
    so it refuses where x does. Output slots follow the order of `exprs`.
    Nodes are lowered in post-order from an explicit stack, so a tree of any
    depth lowers.
    """
    code: list = []
    index: dict = {}           # instruction key -> slot
    seen: dict[int, int] = {}  # id(node) -> slot or constant; `exprs` keeps the nodes alive
    literals: list = []        # constant -2 - k stands for literals[k]
    constants: dict = {}       # literal key -> constant

    def constant(value: float) -> int:
        key = _signed(value, value)
        c = constants.get(key)
        if c is None:
            c = constants[key] = -2 - len(literals)
            literals.append(value)
        return c

    def slot_of(s: int) -> int:
        """The slot of s, a constant's "num" instruction emitted on first use."""
        return emit("num", -1, -1, literals[-2 - s]) if s <= -2 else s

    def emit(op: str, a: int, b: int, lit) -> int:
        """The slot of an instruction, or the constant it folds to."""
        if a <= -2 or b <= -2:
            ca = literals[-2 - a] if a <= -2 else None
            cb = literals[-2 - b] if b <= -2 else None
            if op == "neg":
                return constant(-ca)
            if op in _FOLDED and ca is not None and cb is not None:
                return constant(_FOLDED[op](ca, cb))
            if op == "sub" and cb is not None:
                op, b, lit = "addc", -1, -cb
            elif op == "add" or op == "mul":  # the constant operand becomes the literal
                a, lit = (a, cb) if cb is not None else (b, ca)
                op, b = op + "c", -1
            else:  # an operation the tape runs on the constant itself
                a, b = slot_of(a), slot_of(b)
        ins = (op, a, b, lit)
        key = _signed(ins, lit)
        slot = index.get(key)
        if slot is None:
            slot = index[key] = len(code)
            code.append(ins)
        return slot

    outputs = []
    for e in exprs:
        # nodes waiting for the slot of their first operand, and (BinOp, left
        # slot) pairs waiting for the slot of the right operand
        stack: list = []
        while True:
            slot = seen.get(id(e))
            while slot is None:  # descend along first operands
                cls = type(e)
                if cls is BinOp:
                    stack.append(e)
                    e = e.left
                elif cls is Neg or cls is Call:
                    stack.append(e)
                    e = e.arg
                elif cls is Pow:
                    stack.append(e)
                    e = e.base
                else:
                    if cls is Num:
                        slot = constant(float(e.value))
                    elif cls is Var:
                        if not 1 <= e.index <= n:
                            raise ValueError(f"variable x{e.index} outside chart of dimension {n}")
                        slot = emit("var", -1, -1, e.index)
                    else:
                        raise TypeError(f"not an Expr node: {e!r}")
                    seen[id(e)] = slot
                    break
                slot = seen.get(id(e))
            while stack:  # climb, applying each waiting node to `slot`
                e = stack.pop()
                cls = type(e)
                if cls is BinOp:  # the right operand goes next
                    stack.append((e, slot))
                    e = e.right
                    break
                if cls is tuple:
                    e, left = e
                    if e.op == "/":
                        slot = emit("mul", left, emit("inv", slot, -1, None), None)
                    else:
                        slot = emit(_BINARY[e.op], left, slot, None)
                elif cls is Neg:
                    slot = emit("neg", slot, -1, None)
                elif cls is Call:
                    if e.func not in FUNCTIONS:
                        raise ValueError(f"no such function {e.func!r}")
                    slot = emit(e.func, slot, -1, None)
                else:
                    k = e.exponent
                    if not float(k).is_integer():
                        slot = emit("pow", slot, -1, float(k))
                    elif k == 0:
                        slot = constant(1.0)
                    else:  # square-and-multiply: exact at zeros of the base, O(log |k|) products
                        base = slot
                        for bit in bin(int(abs(k)))[3:]:
                            slot = emit("mul", slot, slot, None)
                            if bit == "1":
                                slot = emit("mul", slot, base, None)
                        if k < 0:
                            slot = emit("inv", slot, -1, None)
                seen[id(e)] = slot
            else:  # the stack ran empty: `slot` is the whole expression's
                break
        outputs.append(slot_of(slot))
    return Tape(n, code, outputs)


def eval_jet(e: Expr, p, order: int) -> "list[np.ndarray]":
    """Evaluate `e` at point `p`, carrying exact partials up to `order` (1..3).

    This is the one-point case of the tape: `e` is compiled and run on p[None],
    and the result is its levels at that point, [value, d1, ..., d_order], of
    shapes (), (n,), (n, n) and (n, n, n).
    """
    if order not in (1, 2, 3):
        raise ValueError(f"jet order must be 1, 2 or 3, got {order}")
    p = np.asarray(p, dtype=float)
    return [level[0, ..., 0] for level in compile_tape([e], p.shape[0]).run(p[None], order)]
