"""Almost complex structures on the bundle of pointwise complex structures."""

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from conftest import chart_path, random_alpha, random_torsionfree_spec
from projgeo.algebra import HasTorsion
from projgeo.connection import load_chart, parse_chart
from projgeo.projective import projective_change
import projgeo.twistor as twistor
from projgeo.tensor import OddDimension
from projgeo.twistor import (NotAlmostComplex, StepTooSmall, TwistorChart, TwistorPoint,
                             acs_field_matrix, anticommutant_basis,
                             coordinate_pairs, integrability_verdict,
                             mild_complex_structure, nijenhuis,
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
    js = np.array([mild_complex_structure(n, rng) for _ in range(2000)])
    assert np.max(np.abs(js @ js + np.eye(n))) <= 1e-12


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
    # the coordinate matrix anticommutes with the anchor structure
    mm = chart.fibre_matrix(m)
    assert np.max(np.abs(j @ mm + mm @ j)) < 1e-12
    # so the fibre point exp(2m) j squares to -I
    moved = expm(2.0 * mm) @ j
    assert np.max(np.abs(moved @ moved + np.eye(4))) < 1e-12


def test_acs_field_matrix_matches_pointwise_builder():
    rng = np.random.default_rng(63)
    spec = random_torsionfree_spec(2, rng)
    tp = sample_twistor_points(2, 1, rng)[0]
    chart = TwistorChart(tp)
    via_field = acs_field_matrix(spec, chart, tp.x, np.zeros(2))
    direct = twistor_acs(spec.evaluate(tp.x, derivs=0), tp)
    assert np.allclose(via_field, direct, atol=1e-11)


def column_loop_structure(spec, chart, x, m_coords):
    """The structure matrix one column at a time, as a reference for the
    stacked blocks: a horizontal d_i goes to j d_i, with jdot the motion
    -[Gamma(j d_i), j] plus j times d_i's own motion -[Gamma(d_i), j]; a
    vertical direction goes to j times its jdot."""
    n, d = chart.n, chart.fibre_dim
    gamma = spec.evaluate(x, derivs=0).gamma
    m = chart.fibre_matrix(m_coords)
    jp = expm(2.0 * m) @ chart.anchor.j
    push = np.column_stack([(expm_frechet(2.0 * m, 2.0 * b, compute_expm=False)
                             @ chart.anchor.j).ravel() for b in chart.basis])
    pull = np.linalg.pinv(push)
    out = np.zeros((n + d, n + d))
    for i in range(n):
        gx = gamma[:, i, :]
        gy = np.einsum("i,lim->lm", jp[:, i], gamma)
        kdot = -(gy @ jp - jp @ gy) + jp @ (gx @ jp - jp @ gx)
        out[:n, i] = jp[:, i]
        out[n:, i] = pull @ kdot.ravel()
    for a in range(d):
        out[n:, n + a] = pull @ (jp @ push[:, a].reshape(n, n)).ravel()
    return out


@pytest.mark.parametrize("n", [2, 4])
def test_stacked_builders_match_their_loops(n):
    rng = np.random.default_rng(71 + n)
    spec = random_torsionfree_spec(n, rng)
    tp = sample_twistor_points(n, 1, rng)[0]
    chart = TwistorChart(tp)
    projections = []
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n))
            unit[a, b] = 1.0
            projections.append((0.5 * (unit + tp.j @ unit @ tp.j)).ravel())
    u = np.linalg.svd(np.array(projections).T, full_matrices=False)[0]
    assert np.array_equal(chart.basis, u[:, :n * n // 2].T.reshape(-1, n, n))
    m = 0.05 * rng.standard_normal(chart.fibre_dim)
    stacked = acs_field_matrix(spec, chart, tp.x, m)
    loop = column_loop_structure(spec, chart, tp.x, m)
    assert np.max(np.abs(stacked - loop)) <= 1e-14 * max(1.0, np.max(np.abs(loop)))


def test_nijenhuis_rejects_torsion():
    from projgeo.connection import ConnectionSpec
    spec = ConnectionSpec.from_christoffel(4, {(0, 1, 2): "1"})
    with pytest.raises(HasTorsion):
        nijenhuis(spec, TwistorPoint(np.zeros(4), standard_complex_structure(4)),
                  coordinate_pairs(12, 2, np.random.default_rng(0)))


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


def bracket_residuals(spec, tp, pairs, h):
    """|N(u, v)| per constant pair, from N(U, V) = [JU, JV] - [U, V] - J[JU, V] - J[U, JV]
    with every bracket a central difference of J along a field's value at the
    point: an independent route to the tensor that nijenhuis builds."""
    chart = TwistorChart(tp)
    n = chart.n
    z0 = np.concatenate([tp.x, np.zeros(chart.fibre_dim)])

    def j_at(z):
        return acs_field_matrix(spec, chart, z[:n], z[n:])

    def along(w, f):  # the derivative of z -> J(z) f along w
        return (j_at(z0 + h * w) @ f - j_at(z0 - h * w) @ f) / (2.0 * h)

    j = j_at(z0)
    out = []
    for u, v in pairs:
        resid = (along(j @ u, v) - along(j @ v, u)  # [JU, JV]; [U, V] = 0
                 + j @ along(v, u)                  # -J[JU, V]
                 - j @ along(u, v))                 # -J[U, JV]
        out.append(float(np.max(np.abs(resid))))
    return np.array(out)


@pytest.mark.parametrize("name", ["witness4", "sphere4", "flat4", "random2"])
def test_tensor_agrees_with_the_bracket_formula(name):
    """The two routes differ by O(h^2): at most 1e-7 at h = 1e-4, and about
    100x less per decade of h wherever the gap is above rounding."""
    rng = np.random.default_rng(69)
    if name == "flat4":
        spec = parse_chart(FLAT4)
    elif name == "random2":
        spec = random_torsionfree_spec(2, rng)
    else:
        spec = load_chart(chart_path(f"{name}.chart"))
    n = spec.n
    tp = sample_twistor_points(n, 1, rng)[0]
    pairs = coordinate_pairs(n + n * n // 2, 2, rng)

    def gap(h):
        tensor = np.array([nijenhuis(spec, tp, [pair], h=h) for pair in pairs])
        return np.abs(tensor - bracket_residuals(spec, tp, pairs, h))

    coarse, fine = gap(1e-3), gap(1e-4)
    assert np.all(fine <= 1e-7)
    above = fine > 1e-12
    assert np.all(coarse[above] >= 30.0 * fine[above])


@pytest.mark.parametrize("n,calls", [(2, 9), (4, 25)])
def test_one_sample_builds_two_per_coordinate_plus_one(monkeypatch, n, calls):
    """2 dim + 1 structure matrices per nijenhuis call, dim = n + n^2/2, each
    with one expm_frechet per fibre basis element."""
    counts = {"acs": 0, "frechet": 0}

    def counted(name, f):
        def inner(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return inner

    monkeypatch.setattr(twistor, "acs_field_matrix",
                        counted("acs", twistor.acs_field_matrix))
    monkeypatch.setattr(twistor, "expm_frechet", counted("frechet", twistor.expm_frechet))
    rng = np.random.default_rng(70)
    spec = random_torsionfree_spec(n, rng)
    tp = sample_twistor_points(n, 1, rng)[0]
    nijenhuis(spec, tp, coordinate_pairs(n + n * n // 2, 6, rng))
    assert counts == {"acs": calls, "frechet": calls * n * n // 2}


def test_verdict_bands():
    assert integrability_verdict(1e-7) == "integrable at sample"
    assert integrability_verdict(0.5) == "obstruction detected"
    assert "inconclusive" in integrability_verdict(1e-3)
