"""Projective changes, Weyl invariance, equivalence and torsion removal."""

import numpy as np
import pytest

from conftest import (chart_path, chart_spec, model_metric, poly_entry, random_alpha,
                      random_torsionfree_spec)
from projgeo.algebra import torsion_split
from projgeo.expr import Num, Var, compile_tape
from projgeo.connection import ChartError, curvature, load_chart, parse_chart, torsion
from projgeo.develop import model_connection
from projgeo.projective import (OddDimension, check_weyl_invariance, load_alpha, parse_alpha,
                                projective_change, projectively_equivalent,
                                remove_torsion, same_twistor_structure,
                                sample_points)
from projgeo.tensor import TensorValue, norm
from projgeo.twistor import acs_field_matrix, sample_twistor_points

FLAT2 = "dim = 2\n[christoffel]\n"


def alpha_at(a, p):
    """The value of the 1-form a at the point p, read off the tape of its entries."""
    return compile_tape(a, len(a)).run(p[None], 0)[0][0]


def test_one_form_parsing_and_values():
    a = parse_alpha("a 1 = x2\na 2 = 0.5 - x1\n", 2)
    vals = alpha_at(a, np.array([2.0, 3.0]))
    assert np.allclose(vals, [3.0, -1.5])
    z = parse_alpha("dim = 3\n", 3)
    assert z == (Num(0.0),) * 3
    assert np.array_equal(alpha_at(z, np.ones(3)), np.zeros(3))


def test_load_alpha_file_and_errors():
    a = load_alpha(chart_path("alpha3.alpha"), 3)
    assert len(a) == 3
    vals = alpha_at(a, np.array([1.0, 2.0, 3.0]))
    assert vals[0] == pytest.approx(0.3 * 2.0)
    with pytest.raises(ChartError):
        parse_alpha("dim = 2\na 1 = x1\n", n=3)
    assert parse_alpha("a 2 = x1\n", 3) == (Num(0.0), Var(1), Num(0.0))  # n sets the length


def test_zero_change_is_identity():
    spec = load_chart(chart_path("sphere3.chart"))
    changed = projective_change(spec, parse_alpha("", 3))
    p = np.array([0.2, -0.3, 0.1])
    assert np.allclose(changed.evaluate(p, derivs=0).gamma,
                       spec.evaluate(p, derivs=0).gamma, atol=1e-14)


def test_change_closed_form_constant_alpha():
    # flat plus alpha = dx1 pins every modified entry
    changed = projective_change(parse_chart(FLAT2), parse_alpha("a 1 = 1\na 2 = 0\n", 2))
    g = changed.evaluate(np.array([0.7, -0.4]), derivs=0).gamma
    expect = np.zeros((2, 2, 2))
    expect[0, 0, 0] = 2.0
    expect[1, 0, 1] = expect[1, 1, 0] = 1.0
    assert np.allclose(g, expect)


def test_change_preserves_torsion_exactly():
    rng = np.random.default_rng(1)
    base = chart_spec(3, {(0, 1, 2): "x3", (0, 2, 1): "-x3 + x1"})
    changed = projective_change(base, random_alpha(3, rng))
    for p in sample_points(3, 3, seed=5):
        t0 = torsion(base.evaluate(p, derivs=0))
        t1 = torsion(changed.evaluate(p, derivs=0))
        assert np.allclose(t0.data, t1.data, atol=1e-13)


@pytest.mark.parametrize("n", [3, 4])
def test_weyl_survives_projective_change(n):
    rng = np.random.default_rng(n + 30)
    spec = random_torsionfree_spec(n, rng)
    res = check_weyl_invariance(spec, random_alpha(n, rng), sample_points(n, 10, seed=7), tol=1e-10)
    assert res.weyl_residual < 1e-9
    assert res.cotton_residual is None


def test_planar_invariant_is_the_cotton_tensor():
    rng = np.random.default_rng(40)
    spec = random_torsionfree_spec(2, rng)
    res = check_weyl_invariance(spec, random_alpha(2, rng), sample_points(2, 10, seed=7), tol=1e-10)
    # W is trivially zero in the plane, the content sits in the cotton residual
    assert res.weyl_residual < 1e-12
    assert res.cotton_residual is not None
    assert res.cotton_residual < 1e-9


@pytest.mark.parametrize("name", ["sphere3.chart", "witness3.chart", "random"])
def test_invariance_lowers_each_entry_once(monkeypatch, name):
    """One tape for the chart's m entries and its zero column, one for alpha's n."""
    from projgeo import expr

    rng = np.random.default_rng(41)
    spec = (random_torsionfree_spec(3, rng) if name == "random"
            else load_chart(chart_path(name)))
    m = len(spec.entries)
    lowered = []
    compile_tape = expr.compile_tape

    def counted(exprs, n):
        lowered.append(len(exprs))
        return compile_tape(exprs, n)

    monkeypatch.setattr(expr, "compile_tape", counted)
    check_weyl_invariance(spec, load_alpha(chart_path("alpha3.alpha"), 3), sample_points(3, 10, seed=7),
                          tol=1e-10)
    assert sum(lowered) == m + 1 + 3


def test_equivalence_recovers_the_one_form():
    rng = np.random.default_rng(2)
    spec = random_torsionfree_spec(3, rng)
    alpha = parse_alpha("a 1 = 0.2\na 2 = x1 * 0.1\na 3 = -0.3\n", 3)
    other = projective_change(spec, alpha)
    pts = sample_points(3, 4, seed=1)
    eq = projectively_equivalent(spec, other, points=pts, tol=1e-8)
    assert eq.equivalent
    assert eq.residual < 1e-10
    for p, got in zip(pts, eq.alphas):
        assert np.allclose(got, alpha_at(alpha, p), atol=1e-10)


def test_same_connection_gives_zero_one_form():
    spec = load_chart(chart_path("sphere2.chart"))
    eq = projectively_equivalent(spec, spec, sample_points(2, 10, seed=11), tol=1e-8)
    assert eq.equivalent and eq.residual < 1e-14
    assert all(np.max(np.abs(a)) < 1e-13 for a in eq.alphas)


def test_unstraightenable_difference_is_rejected():
    flat = parse_chart(FLAT2)
    bump = chart_spec(2, {(0, 1, 1): "1"})
    eq = projectively_equivalent(flat, bump, sample_points(2, 10, seed=11), tol=1e-8)
    assert not eq.equivalent
    assert eq.residual > 0.3


def test_model_metric_is_not_the_affine_model():
    """Both are projectively flat, but in the same coordinates their geodesics
    differ: straight lines against great-circle projections."""
    eq = projectively_equivalent(model_connection(3), model_metric(3), sample_points(3, 10, seed=11),
                                 tol=1e-8)
    assert not eq.equivalent
    assert eq.residual > 0.1


def test_remove_torsion_of_symmetric_input_is_identity():
    """A symmetric chart comes back with the same entry objects: a metric chart
    as itself, a Christoffel chart with each entry and its mirror kept."""
    metric = load_chart(chart_path("sphere3.chart"))
    out = remove_torsion(metric)
    assert out.ok and out.t1_residual == 0.0 and out.spec is metric
    for spec in (random_torsionfree_spec(3, np.random.default_rng(5)),
                 load_chart(chart_path("witness3.chart"))):
        out = remove_torsion(spec)
        assert out.ok and out.t1_residual < 1e-13
        assert out.spec.entries.keys() == spec.entries.keys()
        assert all(out.spec.entries[key] is e for key, e in spec.entries.items())
        assert out.spec.alpha is spec.alpha


def _trace_torsion_spec(n, rng):
    """Polynomial Christoffel data plus a trace torsion beta_i delta^k_j, beta varying."""
    texts = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                texts[(k, i, j)] = texts[(k, j, i)] = poly_entry(rng, n, 0.3)
    for i in range(n):
        u = rng.integers(1, n + 1)
        beta = f"{rng.uniform(-0.5, 0.5):.4f} + {rng.uniform(-0.5, 0.5):.4f}*x{u}"
        for k in range(n):
            texts[(k, i, k)] = f"({texts[(k, i, k)]}) + {beta}"
    return chart_spec(n, texts)


def test_remove_torsion_subtracts_half_the_trace_torsion():
    """Oracle: the corrected Gamma and dGamma are Gamma - T2/2 and its derivative,
    with T2 from torsion_split of the input's torsion, and leave no torsion at all."""
    rng = np.random.default_rng(35)
    for case in range(24):
        n = (2, 3, 4)[case % 3]
        spec = _trace_torsion_spec(n, rng)
        if case % 2:
            spec = projective_change(spec, random_alpha(n, rng))
        out = remove_torsion(spec)
        assert out.ok and out.t1_residual < 1e-12
        assert out.spec.alpha is spec.alpha
        points = sample_points(n, 4, seed=case)
        before, after = (s.evaluate_many(points, derivs=1) for s in (spec, out.spec))
        t2 = torsion_split(torsion(before))[1].data
        dt = before.dgamma - np.swapaxes(before.dgamma, -1, -2)
        dt2 = torsion_split(TensorValue(n, ("up", "down", "down"), dt))[1].data
        assert np.max(np.abs(t2)) > 0.01
        assert np.max(np.abs(after.gamma - (before.gamma - t2 / 2))) <= 1e-14
        assert np.max(np.abs(after.dgamma - (before.dgamma - dt2 / 2))) <= 1e-14
        assert not np.any(torsion(after).data)
        assert not np.any(after.dgamma - np.swapaxes(after.dgamma, -1, -2))


def test_remove_trace_torsion():
    n = 3
    texts = ["0.4", "-0.1", "0.25"]
    entries = {}
    for i in range(n):
        for k in range(n):
            entries[(k, i, k)] = texts[i]
    spec = chart_spec(n, entries)
    assert norm(torsion(spec.evaluate(np.zeros(n), derivs=0))) > 0.1
    out = remove_torsion(spec)
    assert out.ok
    assert out.t1_residual < 1e-12
    for p in sample_points(n, 3, seed=3):
        assert norm(torsion(out.spec.evaluate(p, derivs=0))) < 1e-12


def test_torsion_removal_keeps_the_projective_term():
    """Removing trace torsion commutes with a projective change: the alpha a
    changed chart carries survives into the corrected chart."""
    n = 3
    texts = ["0.4 + 0.2*x2", "-0.1*x1", "0.25 - x3*x1"]
    entries = {(k, i, k): texts[i] for i in range(n) for k in range(n)}
    entries[(0, 1, 2)] = entries[(0, 2, 1)] = "0.3*x1 - 0.2"
    spec = chart_spec(n, entries)
    alpha = random_alpha(n, np.random.default_rng(14))
    removed_after = remove_torsion(projective_change(spec, alpha)).spec
    removed_before = projective_change(remove_torsion(spec).spec, alpha)
    points = sample_points(n, 5, seed=2)
    a, b = (s.evaluate_many(points, derivs=1) for s in (removed_after, removed_before))
    assert np.max(np.abs(a.gamma - spec.evaluate_many(points, derivs=0).gamma)) > 0.1
    assert np.max(np.abs(a.gamma - b.gamma)) <= 1e-14
    assert np.max(np.abs(a.dgamma - b.dgamma)) <= 1e-14


def test_remove_torsion_reports_the_obstruction():
    out = remove_torsion(load_chart(chart_path("torsion3.chart")))
    assert not out.ok
    assert out.t1_residual == pytest.approx(1.0, abs=1e-12)


def test_twistor_comparison_agrees_with_equivalence():
    rng = np.random.default_rng(6)
    spec = random_torsionfree_spec(4, rng)
    twin = projective_change(spec, random_alpha(4, rng))
    stranger = random_torsionfree_spec(4, rng)
    good = same_twistor_structure(spec, twin, seed=0)
    bad = same_twistor_structure(spec, stranger, seed=0)
    assert good.same and good.residual < 1e-10
    assert not bad.same and bad.residual > 1e-2


@pytest.mark.parametrize("n", [2, 4])
def test_twistor_comparison_matches_the_structure_matrices(n):
    """The verdict agrees with J itself: the structure matrices of the two connections
    agree at seeded twistor points exactly when the comparison says same, and
    differ only in the horizontal-to-vertical block."""
    rng = np.random.default_rng(30 + n)
    for k in range(20):
        spec = random_torsionfree_spec(n, rng)
        other = (projective_change(spec, random_alpha(n, rng)) if k % 2 == 0
                 else random_torsionfree_spec(n, rng))
        worst = 0.0
        for tp in sample_twistor_points(n, 2, rng):
            gap = (acs_field_matrix(spec.evaluate(tp.x, derivs=1), tp)[0]
                   - acs_field_matrix(other.evaluate(tp.x, derivs=1), tp)[0])
            assert not np.any(gap[:n]) and not np.any(gap[n:, n:])
            worst = max(worst, float(np.max(np.abs(gap))))
        same = same_twistor_structure(spec, other, seed=k).same
        assert same == (k % 2 == 0)
        assert (worst <= 1e-12) == same


def test_twistor_comparison_needs_even_dimension():
    spec = load_chart(chart_path("sphere3.chart"))
    with pytest.raises(OddDimension):
        same_twistor_structure(spec, spec, seed=0)


def test_trace_torsion_correction_is_twistor_invisible():
    """Removing trace-type torsion never moves the complex-structure field."""
    n = 4
    entries = {}
    vals = ["0.3", "-0.2", "0.1", "0.4"]
    for i in range(n):
        for k in range(n):
            entries[(k, i, k)] = vals[i]
    spec = chart_spec(n, entries)
    out = remove_torsion(spec)
    assert out.ok
    cmp = same_twistor_structure(spec, out.spec, seed=0)
    assert cmp.same
    assert cmp.residual < 1e-12
