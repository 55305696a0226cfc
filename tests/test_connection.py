"""Chart loading, Levi-Civita, and pointwise curvature evaluation."""

import numpy as np
import pytest

from conftest import chart_path, random_spec_with_torsion, random_torsionfree_spec
from projgeo.connection import (ChartError, ConnectionSpec, MissingJet,
                                SingularMetric, curvature,
                                curvature_derivative, load_chart, parse_chart,
                                ricci, second_bianchi_residual, torsion,
                                trace2form)
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
    cv = spec.evaluate(np.array([0.3, 0.4]))
    assert norm(torsion(cv)) == 0.0
    assert np.max(np.abs(cv.gamma)) < 1e-14


def test_singular_metric_detected():
    spec = parse_chart("dim = 2\n[metric]\ng 1 1 = 1\ng 2 2 = 1\ng 1 2 = 1\n")
    with pytest.raises(SingularMetric, match=r"at x = \(0, 0\)"):
        spec.evaluate(np.zeros(2))


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
    r = curvature(spec.evaluate(np.array([0.4, -0.2, 0.9])))
    assert norm(r) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_metric_curvature_closed_form(n):
    """R^l_{kij} = d^l_i g_jk - d^l_j g_ik for the constant-curvature metric."""
    spec = load_chart(chart_path(f"sphere{n}.chart"))
    p = np.linspace(-0.3, 0.3, n)
    r = curvature(spec.evaluate(p))
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
    cv = spec.evaluate(p)
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
        r = curvature(spec.evaluate(p))
        assert np.max(np.abs(r.data - _fd_curvature(spec, p))) < 1e-7


def test_trace_two_form_is_twice_the_ricci_skew():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        spec = random_torsionfree_spec(n, rng)
        r = curvature(spec.evaluate(rng.uniform(-0.3, 0.3, size=n)))
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


def test_from_christoffel_accepts_strings_and_exprs():
    spec = ConnectionSpec.from_christoffel(2, {(0, 0, 1): "x2", (1, 1, 1): "0.5"})
    cv = spec.evaluate(np.array([0.0, 3.0]), derivs=0)
    assert cv.gamma[0, 0, 1] == 3.0
    assert cv.gamma[1, 1, 1] == 0.5


@pytest.mark.parametrize("n,entries", [(0, {}), (1, {(0, 0, 0): "x1"}),
                                       (MAX_DIM + 1, {})])
def test_spec_refuses_dimension_outside_chart_range(n, entries):
    """The library takes the dimensions a chart file may declare, 2..MAX_DIM;
    a one-dimensional spec used to build and then fail deep in develop or
    curvature_report."""
    with pytest.raises(ValueError, match=f"2..{MAX_DIM}"):
        ConnectionSpec.from_christoffel(n, entries)

def test_evaluate_rejects_wrong_point_length():
    spec = load_chart(chart_path("flat3.chart"))
    with pytest.raises(ValueError):
        spec.evaluate(np.zeros(2))
