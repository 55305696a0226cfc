"""Symbolic oracle for the curvature R, the projective Weyl tensor W and (n = 2)
the Cotton tensor C, built in sympy from the defining formulas and compared
with the numerical jet path at a few chart points.

The oracle shares only the chart parser with the code it checks. It starts
from the chart entries (Levi-Civita symbols from the metric where the chart
gives one), differentiates symbolically, evaluates with 30 significant
digits, and applies the index conventions stated in the `connection` and
`algebra` docstrings.
"""

import numpy as np
import pytest

from conftest import chart_path, to_text
from projgeo.algebra import cotton, weyl
from projgeo.connection import curvature, load_chart, parse_chart
from projgeo.projective import sample_points

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

# torsion-free and not projectively flat, so the Cotton comparison is not 0 = 0
CURVED2 = """dim = 2
[christoffel]
G 1 1 1 = x2^2
G 1 2 2 = x1*x2
G 2 1 2 = sin(x1)
G 2 2 1 = sin(x1)
"""

# the tensor that is far from zero on each chart that has one
NONZERO = {"sphere2": "R", "sphere3": "R", "witness3": "W",
           "curved2": "C"}

CHARTS = {
    "sphere2": lambda: load_chart(chart_path("sphere2.chart")),
    "sphere3": lambda: load_chart(chart_path("sphere3.chart")),
    "flat3": lambda: load_chart(chart_path("flat3.chart")),
    "torsion3": lambda: load_chart(chart_path("torsion3.chart")),
    "witness3": lambda: load_chart(chart_path("witness3.chart")),
    "curved2": lambda: parse_chart(CURVED2),
}


def _sym(e, xs):
    text = to_text(e).replace("^", "**").replace("ln(", "log(")
    return sympy.sympify(text, locals={f"x{i + 1}": x for i, x in enumerate(xs)})


def _christoffel(spec, xs):
    """Gamma[k][i][j] as sympy expressions."""
    n = spec.n
    rng = range(n)
    if spec.kind == "christoffel":
        entries = {key: _sym(e, xs) for key, e in spec.entries.items()}
        return [[[entries.get((k, i, j), sympy.Integer(0)) for j in rng] for i in rng]
                for k in rng]
    g = sympy.zeros(n, n)
    for (i, j), e in spec.entries.items():
        g[i, j] = g[j, i] = _sym(e, xs)
    ginv = g.inv()
    return [[[sum(ginv[k, l] * (sympy.diff(g[l, j], xs[i]) + sympy.diff(g[i, l], xs[j])
                                - sympy.diff(g[i, j], xs[l])) for l in rng) / 2
              for j in rng] for i in rng] for k in rng]


def _symbolic_tensors(spec, xs):
    """R[l][k][i][j], and for torsion-free charts W (same slots) and C[i][j][k]."""
    n = spec.n
    rng = range(n)
    gam = _christoffel(spec, xs)
    r = [[[[sympy.diff(gam[l][j][k], xs[i]) - sympy.diff(gam[l][i][k], xs[j])
            + sum(gam[l][i][m] * gam[m][j][k] - gam[l][j][m] * gam[m][i][k] for m in rng)
            for j in rng] for i in rng] for k in rng] for l in rng]
    out = {"R": r}
    if spec.kind == "christoffel" and any(
            spec.entries.get((k, i, j)) != spec.entries.get((k, j, i))
            for k in rng for i in rng for j in rng):
        return out  # torsion: W and C are not defined
    ric = [[sum(r[k][j][i][k] for k in rng) for j in rng] for i in rng]
    q = [[(ric[i][j] + ric[j][i]) / (2 * (n - 1)) + (ric[i][j] - ric[j][i]) / (2 * (n + 1))
          for j in rng] for i in rng]
    delta = lambda a, b: 1 if a == b else 0  # noqa: E731
    out["W"] = [[[[r[l][k][i][j] + (q[j][i] - q[i][j]) * delta(l, k)
                   - q[i][k] * delta(l, j) + q[j][k] * delta(l, i)
                   for j in rng] for i in rng] for k in rng] for l in rng]
    if n == 2:
        def nabla_q(i, j, k):
            return (sympy.diff(q[j][k], xs[i]) - sum(gam[m][i][j] * q[m][k] for m in rng)
                    - sum(gam[m][i][k] * q[j][m] for m in rng))
        out["C"] = [[[nabla_q(i, j, k) - nabla_q(j, i, k) for k in rng] for j in rng]
                    for i in rng]
    return out


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_curvature_weyl_and_cotton_match_the_symbolic_oracle(name):
    spec = CHARTS[name]()
    xs = sympy.symbols(f"x1:{spec.n + 1}")
    symbolic = _symbolic_tensors(spec, xs)
    assert ("W" in symbolic) == (name != "torsion3")
    assert ("C" in symbolic) == (spec.n == 2 and name != "torsion3")
    funcs = {key: sympy.lambdify(xs, value, modules="mpmath", cse=True)
             for key, value in symbolic.items()}
    for p in sample_points(spec.n, 3, seed=11):
        cv = spec.evaluate(p, derivs=2)
        r = curvature(cv)
        got = {"R": r.data}
        if "W" in symbolic:
            got["W"] = weyl(r).W.data
        if "C" in symbolic:
            got["C"] = cotton(cv, tol=1e-10).data
        with mpmath.workdps(30):
            want = {key: np.array(f(*[mpmath.mpf(float(c)) for c in p]), dtype=float)
                    for key, f in funcs.items()}
        if name in NONZERO:
            assert np.max(np.abs(want[NONZERO[name]])) > 1e-2
        for key in symbolic:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12,
                                       err_msg=f"{name} {key} at {p}")
