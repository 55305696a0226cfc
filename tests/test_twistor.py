"""Almost complex structures on the bundle of pointwise complex structures."""

import numpy as np
import pytest

from conftest import chart_path, random_alpha, random_torsionfree_spec
from projgeo.algebra import HasTorsion
from projgeo.connection import load_chart, parse_chart
from projgeo.projective import projective_change
from projgeo.tensor import OddDimension
from projgeo.twistor import (NotAlmostComplex, StepTooSmall, TwistorChart, TwistorPoint,
                             acs_field_matrix, anticommutant_basis,
                             coordinate_pairs, integrability_verdict,
                             mild_complex_structure, nijenhuis,
                             nijenhuis_fields, random_complex_structure,
                             sample_twistor_points,
                             standard_complex_structure, twistor_acs)

FLAT2 = "dim = 2\n[christoffel]\n"
FLAT4 = "dim = 4\n[christoffel]\n"


def test_standard_structure_squares_to_minus_one():
    for n in (2, 4, 6):
        j = standard_complex_structure(n)
        assert np.array_equal(j @ j, -np.eye(n))


def test_twistor_point_validation():
    with pytest.raises(OddDimension):
        TwistorPoint(np.zeros(3), np.eye(3))
    with pytest.raises(NotAlmostComplex):
        TwistorPoint(np.zeros(2), np.eye(2))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_random_structures_are_polished(n):
    rng = np.random.default_rng(n)
    for maker in (random_complex_structure, mild_complex_structure):
        j = maker(n, rng)
        assert np.max(np.abs(j @ j + np.eye(n))) < 1e-12


def test_anticommutant_basis_shape_and_orthonormality():
    for n in (2, 4):
        j = standard_complex_structure(n)
        basis = anticommutant_basis(j)
        d = n * n // 2
        assert basis.shape == (d, n, n)
        for a in range(d):
            assert np.max(np.abs(j @ basis[a] + basis[a] @ j)) < 1e-12
            for b in range(d):
                dot = np.tensordot(basis[a], basis[b], 2)
                assert dot == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_flat_structure_matrix_is_block_diagonal():
    """With zero coefficients the horizontal block is j itself and the fibre
    block is left multiplication by j; the mixed blocks vanish."""
    flat = parse_chart(FLAT2)
    j0 = standard_complex_structure(2)
    tp = TwistorPoint(np.zeros(2), j0)
    big = twistor_acs(flat.evaluate(np.zeros(2), derivs=0), tp)
    assert big.shape == (4, 4)
    assert np.allclose(big[:2, :2], j0, atol=1e-13)
    assert np.max(np.abs(big[:2, 2:])) < 1e-13
    assert np.max(np.abs(big[2:, :2])) < 1e-13
    basis = anticommutant_basis(j0)
    left = np.array([[np.tensordot(basis[b], j0 @ basis[a], 2)
                      for a in range(2)] for b in range(2)])
    assert np.allclose(big[2:, 2:], left, atol=1e-13)


@pytest.mark.parametrize("n", [2, 4])
def test_structure_matrix_squares_to_minus_identity(n):
    rng = np.random.default_rng(50 + n)
    spec = random_torsionfree_spec(n, rng)
    for tp in sample_twistor_points(n, 3, rng):
        cv = spec.evaluate(tp.x, derivs=0)
        big = twistor_acs(cv, tp)
        m = n + n * n // 2
        assert np.max(np.abs(big @ big + np.eye(m))) < 1e-10


def test_structure_matrix_ignores_derivative_jets():
    # only Gamma values at the point enter, never dGamma
    rng = np.random.default_rng(60)
    spec = random_torsionfree_spec(2, rng)
    tp = sample_twistor_points(2, 1, rng)[0]
    a = twistor_acs(spec.evaluate(tp.x, derivs=0), tp)
    b = twistor_acs(spec.evaluate(tp.x, derivs=2), tp)
    assert np.array_equal(a, b)


def test_structure_matrix_is_projectively_invariant():
    rng = np.random.default_rng(61)
    spec = random_torsionfree_spec(4, rng)
    twin = projective_change(spec, random_alpha(4, rng))
    for tp in sample_twistor_points(4, 2, rng):
        a = twistor_acs(spec.evaluate(tp.x, derivs=0), tp)
        b = twistor_acs(twin.evaluate(tp.x, derivs=0), tp)
        assert np.max(np.abs(a - b)) < 1e-12


def test_chart_round_trip_through_fibre_coordinates():
    rng = np.random.default_rng(62)
    j = mild_complex_structure(4, rng)
    chart = TwistorChart(TwistorPoint(np.zeros(4), j))
    assert chart.n == 4 and chart.fibre_dim == 8 and chart.dim == 12
    m = 0.05 * rng.standard_normal(8)
    moved = chart.point(np.zeros(4), m)
    assert np.max(np.abs(moved.j @ moved.j + np.eye(4))) < 1e-12
    # the coordinate matrix anticommutes with the anchor structure
    mm = chart.fibre_matrix(m)
    assert np.max(np.abs(j @ mm + mm @ j)) < 1e-12
    # m = 0 returns the anchor structure itself
    home = chart.point(np.zeros(4), np.zeros(8))
    assert np.max(np.abs(home.j - j)) < 1e-13


def test_acs_field_matrix_matches_pointwise_builder():
    rng = np.random.default_rng(63)
    spec = random_torsionfree_spec(2, rng)
    tp = sample_twistor_points(2, 1, rng)[0]
    chart = TwistorChart(tp)
    via_field = acs_field_matrix(spec, chart, tp.x, np.zeros(2))
    direct = twistor_acs(spec.evaluate(tp.x, derivs=0), tp)
    assert np.allclose(via_field, direct, atol=1e-11)


def test_nijenhuis_rejects_torsion():
    from projgeo.connection import ConnectionSpec
    spec = ConnectionSpec.from_christoffel(4, {(0, 1, 2): "1"})
    with pytest.raises(HasTorsion):
        nijenhuis(spec, TwistorPoint(np.zeros(4), standard_complex_structure(4)),
                  coordinate_pairs(12, 2))


def test_flat_bundle_structure_is_integrable():
    spec = parse_chart(FLAT4)
    rng = np.random.default_rng(64)
    tps = sample_twistor_points(4, 2, rng)
    pairs = coordinate_pairs(12, 4, rng)
    worst = max(nijenhuis(spec, tp, pairs) for tp in tps)
    assert worst < 1e-6
    assert integrability_verdict(worst) == "integrable at sample"


def test_surface_bundles_are_always_integrable():
    rng = np.random.default_rng(65)
    worst = 0.0
    for _ in range(3):
        spec = random_torsionfree_spec(2, rng)
        for tp in sample_twistor_points(2, 2, rng):
            worst = max(worst, nijenhuis(spec, tp, coordinate_pairs(4, 3, rng)))
    assert worst < 1e-5


def test_curved_witness_obstructs():
    spec = load_chart(chart_path("witness4.chart"))
    rng = np.random.default_rng(66)
    tp = sample_twistor_points(4, 1, rng)[0]
    res = nijenhuis(spec, tp, coordinate_pairs(12, 4, rng))
    assert res > 1e-2
    assert integrability_verdict(res) == "obstruction detected"


def test_step_that_moves_no_coordinate_is_refused():
    spec = load_chart(chart_path("witness4.chart"))
    rng = np.random.default_rng(66)
    tp = sample_twistor_points(4, 1, rng)[0]
    pairs = coordinate_pairs(12, 4, rng)
    assert integrability_verdict(nijenhuis(spec, tp, pairs)) == "obstruction detected"
    with pytest.raises(StepTooSmall, match="step h = 1e-300"):
        nijenhuis(spec, tp, pairs, h=1e-300)


def test_antisymmetry_of_the_defect():
    rng = np.random.default_rng(67)
    spec = random_torsionfree_spec(2, rng)
    tp = sample_twistor_points(2, 1, rng)[0]
    u = np.zeros(4)
    v = np.zeros(4)
    u[0] = 1.0
    v[3] = 1.0
    r_uv = nijenhuis(spec, tp, [(u, v)])
    r_vu = nijenhuis(spec, tp, [(v, u)])
    assert abs(r_uv - r_vu) < 1e-12


def test_defect_shrinks_quadratically_in_step():
    spec = load_chart(chart_path("witness4.chart"))
    rng = np.random.default_rng(68)
    tp = sample_twistor_points(4, 1, rng)[0]
    pairs = coordinate_pairs(12, 2, rng)

    def drift(h):
        """Difference from the converged value measures the h^2 error term."""
        return nijenhuis(spec, tp, pairs, h=h)

    r0 = drift(1e-5)
    gap_coarse = abs(drift(4e-3) - r0)
    gap_fine = abs(drift(1e-3) - r0)
    assert gap_coarse > 4 * gap_fine  # 16x expected for a clean h^2 law


def test_field_variant_accepts_callables():
    spec = parse_chart(FLAT4)
    tp = TwistorPoint(np.zeros(4), standard_complex_structure(4))

    def u_field(z):
        out = np.zeros(12)
        out[0] = 1.0
        out[5] = 0.3 * z[1]
        return out

    def v_field(z):
        out = np.zeros(12)
        out[2] = 1.0
        return out

    assert nijenhuis_fields(spec, tp, [(u_field, v_field)]) < 1e-6


def test_verdict_bands():
    assert integrability_verdict(1e-7) == "integrable at sample"
    assert integrability_verdict(0.5) == "obstruction detected"
    assert "inconclusive" in integrability_verdict(1e-3)
