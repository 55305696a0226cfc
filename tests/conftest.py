"""Shared helpers: fixture chart paths and random connection generators."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from projgeo.connection import parse_chart
from projgeo.expr import BinOp, Call, Neg, Num, Pow, Var
from projgeo.projective import parse_alpha

CHARTS = Path(__file__).parent / "charts"
ROOT = Path(__file__).resolve().parent.parent


def chart_path(name):
    return CHARTS / name


def run_fresh_python(script, *args):
    """Run `script` in a new interpreter, where nothing this test process has
    imported (scipy among it) is loaded yet; return its last stdout line read
    as JSON. `args` become sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def chart_spec(n, entries, section="christoffel"):
    """The chart whose 0-based entries {(k, i, j) or (i, j): text} are written as
    `G k i j = text` (or `g i j = text`) lines of chart text."""
    key = "G" if section == "christoffel" else "g"
    lines = "".join(f"{key} {' '.join(str(i + 1) for i in idx)} = {text}\n"
                    for idx, text in entries.items())
    return parse_chart(f"dim = {n}\n[{section}]\n{lines}")


def poly_entry(rng, n, scale):
    u, v, w = rng.integers(1, n + 1, size=3)
    c = scale * rng.uniform(-1.0, 1.0, size=3)
    return f"{c[0]:.4f} + {c[1]:.4f}*x{u} + {c[2]:.4f}*x{v}*x{w}"


def random_torsionfree_spec(n, rng, scale=0.3):
    """Symmetric polynomial Christoffel data, entries of degree <= 2."""
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                text = poly_entry(rng, n, scale)
                entries[(k, i, j)] = text
                if i != j:
                    entries[(k, j, i)] = text
    return chart_spec(n, entries)


def random_spec_with_torsion(n, rng, scale=0.3):
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                entries[(k, i, j)] = poly_entry(rng, n, scale)
    return chart_spec(n, entries)


def model_metric(n):
    """Round metric of constant curvature one: g_ij = 4 delta_ij / (1+|x|^2)^2."""
    ball = " + ".join(f"x{i}^2" for i in range(1, n + 1))
    return parse_chart(f"dim = {n}\n[metric]\n"
                       + "".join(f"g {i} {i} = 4 / (1 + {ball})^2\n" for i in range(1, n + 1)))


def _format_number(value):
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def to_text(e):
    """Render an AST back to source text (fully parenthesized, reparses to the same tree)."""
    if isinstance(e, Num):
        return _format_number(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        return f"(-{to_text(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_text(e.left)} {e.op} {to_text(e.right)})"
    if isinstance(e, Pow):
        exp = e.exponent
        exp_text = _format_number(exp) if exp >= 0 else f"-{_format_number(-exp)}"
        return f"({to_text(e.base)}^{exp_text})"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


def random_alpha(n, rng, scale=0.3):
    texts = []
    for _ in range(n):
        u = rng.integers(1, n + 1)
        c = scale * rng.uniform(-1.0, 1.0, size=2)
        texts.append(f"{c[0]:.4f} + {c[1]:.4f}*x{u}")
    return parse_alpha("".join(f"a {i} = {t}\n" for i, t in enumerate(texts, 1)), n)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
