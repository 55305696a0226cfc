"""Chart loading, Levi-Civita, and pointwise curvature evaluation."""

import tracemalloc

import numpy as np
import pytest

from conftest import chart_path, chart_spec, random_spec_with_torsion, random_torsionfree_spec
from projgeo.connection import (ChartError, ConnectionSpec, MissingJet,
                                SingularMetric, _singular_range, curvature,
                                curvature_derivative, load_chart, parse_chart,
                                ricci, second_bianchi_residual, torsion,
                                trace2form)
from projgeo.expr import Var
from projgeo.tensor import MAX_DIM, alt2, norm


def test_fixture_charts_load():
    for name, n, src in [("flat3.chart", 3, "christoffel"),
                         ("sphere2.chart", 2, "metric"),
                         ("torsion3.chart", 3, "christoffel")]:
        spec = load_chart(chart_path(name))
        assert spec.n == n
        assert (spec.metric is not None) == (src == "metric")


@pytest.mark.parametrize("text,fragment", [
    ("dim = 2\n[metric]\ng 1 1 = 1\ng 1 1 = 2\n", "line 4: duplicate"),
    ("dim = 2\n[christoffel]\n[metric]\n", "only one section"),
    ("dim = 2\n[christoffel]\nG 3 1 1 = 0\n", "out of range"),
    ("dim = 2\n[metric]\ng 2 1 = 1\n", "i <= j"),
    ("[metric]\ndim = 2\n", "dim must come before"),
    ("dim = 2\n[metric]\ng 1 1 = 1 +\n", "line 3"),
    ("dim = 0\n[metric]\n", "2..8"),
    ("dim = 2\n", "missing [metric] or [christoffel]"),
    ("[nonsense]\n", "unknown section"),
])
def test_chart_errors_carry_line_context(text, fragment):
    with pytest.raises(ChartError) as err:
        parse_chart(text)
    assert fragment in str(err.value)


def test_missing_entries_default_to_zero():
    spec = parse_chart("dim = 3\n[christoffel]\nG 1 2 3 = x1\n")
    cv = spec.evaluate(np.array([2.0, 0.0, 0.0]), derivs=0)
    assert cv.gamma[0, 1, 2] == 2.0
    assert np.count_nonzero(cv.gamma) == 1


def test_metric_chart_fills_symmetric_entry():
    spec = parse_chart("dim = 2\n[metric]\ng 1 1 = 2\ng 2 2 = 1\ng 1 2 = 0.5\n")
    # Levi-Civita of a constant metric is zero even with off-diagonal terms
    cv = spec.evaluate(np.array([0.3, 0.4]), derivs=1)
    assert norm(torsion(cv)) == 0.0
    assert np.max(np.abs(cv.gamma)) < 1e-14


def test_singular_metric_detected():
    spec = parse_chart("dim = 2\n[metric]\ng 1 1 = 1\ng 2 2 = 1\ng 1 2 = 1\n")
    with pytest.raises(SingularMetric, match=r"at x = \(0, 0\)"):
        spec.evaluate(np.zeros(2), derivs=1)


def _random_symmetric(n, rng, definite):
    a = rng.normal(size=(n, n))
    if definite:
        return a @ a.T + 0.1 * np.eye(n)
    q, _ = np.linalg.qr(a)
    lam = rng.uniform(0.5, 2.0, size=n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    g = (q * 10.0 ** rng.uniform(-4, 4, size=n) * lam) @ q.T
    return np.triu(g) + np.triu(g, 1).T  # exactly symmetric, as a metric chart's g is


def test_singular_range_gives_the_condition_number():
    """The eigvalsh range reads the same 2-norm condition number as np.linalg.cond."""
    rng = np.random.default_rng(11)
    points = rng.uniform(-0.4, 0.4, size=(5, 4))
    metrics = []
    for n in (2, 3, 4):
        plan = load_chart(chart_path(f"sphere{n}.chart"))._plan()
        metrics.extend(plan.entry_arrays(plan.tape.run(points[:, :n], 1))[0])
    for k in range(6):
        plan = _random_metric_spec(2 + k % 3, np.random.default_rng(60 + k))._plan()
        metrics.extend(plan.entry_arrays(plan.tape.run(points[:, :2 + k % 3], 1))[0])
    for n in range(2, 9):
        metrics.extend(_random_symmetric(n, rng, definite) for definite in (True, False) * 3)
    for g in metrics:
        assert np.array_equal(g, g.T)
        low, high = _singular_range(g)
        # each reads the smallest singular value to about eps |g|, so the
        # two agree to a relative eps * cond
        cond = np.linalg.cond(g)
        assert abs(high / low - cond) <= 50 * np.finfo(float).eps * cond * cond


def _round_metric_christoffel(p):
    """Conformal closed form for g = 4 delta / (1+|x|^2)^2."""
    n = len(p)
    dphi = -2.0 * p / (1.0 + p @ p)
    eye = np.eye(n)
    return (np.einsum("i,kj->kij", dphi, eye) + np.einsum("j,ki->kij", dphi, eye)
            - np.einsum("ij,k->kij", eye, dphi))


@pytest.mark.parametrize("n", [2, 3])
def test_levi_civita_of_round_metric(n):
    """spec.evaluate on a metric chart gives its Levi-Civita connection."""
    spec = load_chart(chart_path(f"sphere{n}.chart"))
    rng = np.random.default_rng(n)
    for _ in range(3):
        p = rng.uniform(-0.5, 0.5, size=n)
        cv = spec.evaluate(p, derivs=0)
        assert np.allclose(cv.gamma, _round_metric_christoffel(p), atol=1e-13)


def _reference_inverse_jets(g0, g1, g2):
    """Derivative arrays of g^{-1} from those of g, via the product-rule recursion."""
    i0 = np.linalg.inv(g0)
    i1 = -(i0[:, None] @ g1 @ i0[:, None])
    inner = (g2 @ i0[:, None, None] + g1[:, :, None] @ i1[:, None]
             + g1[:, None] @ i1[:, :, None])
    return i0, i1, -(i0[:, None, None] @ inner)


def _reference_levi_civita(g0, g1, g2, g3):
    """Levi-Civita gamma, dgamma, ddgamma as g^{-1} jets contracted with c jets,
    an independent route from the solve of g Gamma = c in connection.py."""
    i0, i1, i2 = _reference_inverse_jets(g0, g1, g2)
    c0 = 0.5 * (np.einsum("...ijl->...lij", g1) + np.einsum("...jil->...lij", g1) - g1)
    c1 = 0.5 * (np.einsum("...aijl->...alij", g2) + np.einsum("...ajil->...alij", g2) - g2)
    c2 = 0.5 * (np.einsum("...abijl->...ablij", g3) + np.einsum("...abjil->...ablij", g3)
                - g3)
    gamma = np.einsum("...kl,...lij->...kij", i0, c0)
    dgamma = (np.einsum("...akl,...lij->...akij", i1, c0)
              + np.einsum("...kl,...alij->...akij", i0, c1))
    ddgamma = (np.einsum("...abkl,...lij->...abkij", i2, c0)
               + np.einsum("...akl,...blij->...abkij", i1, c1)
               + np.einsum("...bkl,...alij->...abkij", i1, c1)
               + np.einsum("...kl,...ablij->...abkij", i0, c2))
    return gamma, dgamma, ddgamma


def _random_metric_spec(n, rng):
    """A non-diagonal metric, diagonally dominant on the sample box."""
    entries = {}
    for i in range(n):
        for j in range(i, n):
            c = rng.uniform(-0.3, 0.3, size=3)
            u, v = rng.integers(1, n + 1, size=2)
            entries[(i, j)] = (f"{(2.0 if i == j else 0.0) + c[0]:.4f} + {c[1]:.4f}*x{u}"
                               f" + {c[2]:.4f}*x{u}*sin(x{v})")
    return chart_spec(n, entries, "metric")


LEVI_CIVITA_CASES = (
    [(f"sphere{n}", lambda n=n: load_chart(chart_path(f"sphere{n}.chart"))) for n in (2, 3, 4)]
    + [(f"random{k}-n{2 + k % 3}",
        lambda k=k: _random_metric_spec(2 + k % 3, np.random.default_rng(60 + k)))
       for k in range(6)])


@pytest.mark.parametrize("name,make", LEVI_CIVITA_CASES, ids=[c[0] for c in LEVI_CIVITA_CASES])
def test_levi_civita_matches_the_inverse_metric_reference(name, make):
    spec = make()
    points = np.random.default_rng(3).uniform(-0.4, 0.4, size=(6, spec.n))
    plan = spec._plan()
    metric_jets = plan.entry_arrays(plan.tape.run(points, 3))
    cv = spec.evaluate_many(points, derivs=2)
    for got, want in zip((cv.gamma, cv.dgamma, cv.ddgamma),
                         _reference_levi_civita(*metric_jets)):
        scale = np.max(np.abs(want))
        assert scale > 1e-3
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


def test_metric_evaluation_holds_little_beyond_its_output():
    """The round 4-sphere at derivs 1 and P = 257 returns 0.66 MB; the tape's jets,
    the metric levels and the symbols of the first kind add at most 1.34 MB."""
    spec = load_chart(chart_path("sphere4.chart"))
    points = np.random.default_rng(0).uniform(-0.4, 0.4, size=(257, 4))
    spec.evaluate_many(points[:1], derivs=1)  # compile the tape outside the measurement
    tracemalloc.start()
    try:
        spec.evaluate_many(points, derivs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0e6


def test_torsion_reads_off_the_antisymmetric_part():
    spec = load_chart(chart_path("torsion3.chart"))
    t = torsion(spec.evaluate(np.zeros(3), derivs=0))
    expect = np.zeros((3, 3, 3))
    expect[0, 1, 2] = 1.0
    expect[0, 2, 1] = -1.0
    assert np.array_equal(t.data, expect)


def test_torsion_vanishes_for_symmetric_data():
    spec = random_torsionfree_spec(3, np.random.default_rng(8))
    cv = spec.evaluate(np.array([0.2, -0.1, 0.3]), derivs=0)
    assert norm(torsion(cv)) < 1e-15


def test_flat_chart_has_zero_curvature():
    spec = load_chart(chart_path("flat3.chart"))
    r = curvature(spec.evaluate(np.array([0.4, -0.2, 0.9]), derivs=1))
    assert norm(r) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_metric_curvature_closed_form(n):
    """R^l_{kij} = d^l_i g_jk - d^l_j g_ik for the constant-curvature metric."""
    spec = load_chart(chart_path(f"sphere{n}.chart"))
    p = np.linspace(-0.3, 0.3, n)
    r = curvature(spec.evaluate(p, derivs=1))
    g = 4.0 / (1.0 + p @ p) ** 2 * np.eye(n)
    eye = np.eye(n)
    expect = (np.einsum("li,jk->lkij", eye, g)
              - np.einsum("lj,ik->lkij", eye, g))
    assert np.max(np.abs(r.data - expect)) < 1e-10


def test_round_metric_is_einstein_with_negative_trace():
    # the Ricci trace convention here gives -(n-1) g on the round metric
    n = 3
    spec = load_chart(chart_path("sphere3.chart"))
    p = np.array([0.1, 0.25, -0.2])
    cv = spec.evaluate(p, derivs=1)
    ric = ricci(curvature(cv))
    g = 4.0 / (1.0 + p @ p) ** 2 * np.eye(n)
    assert np.max(np.abs(ric.data + (n - 1) * g)) < 1e-12


def _fd_curvature(spec, p, h=1e-5):
    """Assemble R from centered differences of Gamma values only."""
    n = spec.n
    g0 = spec.evaluate(p, derivs=0).gamma
    dg = np.empty((n, n, n, n))  # dg[m, k, i, j] = d_m Gamma^k_ij
    for m in range(n):
        hi, lo = p.copy(), p.copy()
        hi[m] += h
        lo[m] -= h
        dg[m] = (spec.evaluate(hi, derivs=0).gamma
                 - spec.evaluate(lo, derivs=0).gamma) / (2 * h)
    return (np.einsum("iljk->lkij", dg) - np.einsum("jlik->lkij", dg)
            + np.einsum("lim,mjk->lkij", g0, g0)
            - np.einsum("ljm,mik->lkij", g0, g0))


def test_curvature_against_finite_difference_route():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        spec = random_spec_with_torsion(n, rng)
        p = rng.uniform(-0.4, 0.4, size=n)
        r = curvature(spec.evaluate(p, derivs=1))
        assert np.max(np.abs(r.data - _fd_curvature(spec, p))) < 1e-7


def test_trace_two_form_is_twice_the_ricci_skew():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        spec = random_torsionfree_spec(n, rng)
        r = curvature(spec.evaluate(rng.uniform(-0.3, 0.3, size=n), derivs=1))
        s = trace2form(r)
        assert np.allclose(s.data, 2.0 * alt2(ricci(r)).data, atol=1e-13)
        assert np.allclose(s.data, -s.data.T)


def test_second_bianchi_residual_small():
    rng = np.random.default_rng(12)
    for make in (random_torsionfree_spec, random_spec_with_torsion):
        spec = make(3, rng)
        cv = spec.evaluate(rng.uniform(-0.3, 0.3, size=3), derivs=2)
        assert norm(second_bianchi_residual(cv)) < 1e-12


def test_jet_guards():
    spec = load_chart(chart_path("sphere2.chart"))
    with pytest.raises(MissingJet):
        curvature(spec.evaluate(np.zeros(2), derivs=0))
    with pytest.raises(MissingJet):
        curvature_derivative(spec.evaluate(np.zeros(2), derivs=1))


def test_christoffel_lines_set_their_entries():
    spec = parse_chart("dim = 2\n[christoffel]\nG 1 1 2 = x2\nG 2 2 2 = 0.5\n")
    cv = spec.evaluate(np.array([0.0, 3.0]), derivs=0)
    assert cv.gamma[0, 0, 1] == 3.0
    assert cv.gamma[1, 1, 1] == 0.5


@pytest.mark.parametrize("n,entries", [(0, {}), (1, {(0, 0, 0): Var(1)}),
                                       (MAX_DIM + 1, {})])
def test_spec_refuses_dimension_outside_chart_range(n, entries):
    """The library takes the dimensions a chart file may declare, 2..MAX_DIM;
    a one-dimensional spec used to build and then fail deep in develop or
    curvature_report."""
    with pytest.raises(ValueError, match=f"2..{MAX_DIM}"):
        ConnectionSpec(n, christoffel=entries)

def test_evaluate_rejects_wrong_point_length():
    spec = load_chart(chart_path("flat3.chart"))
    with pytest.raises(ValueError):
        spec.evaluate(np.zeros(2), derivs=1)
