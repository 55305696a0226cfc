"""Almost complex structures on the bundle of pointwise complex structures."""

import re

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from conftest import chart_path, chart_spec, random_alpha, random_torsionfree_spec
from projgeo.algebra import weyl
from projgeo.connection import (BLOCK_ENTRIES, ConnectionSpec, ConnectionValue, HasTorsion,
                                curvature, load_chart, parse_chart)
from projgeo.expr import DomainError
from projgeo.projective import projective_change
import projgeo.twistor as twistor
from projgeo.tensor import OddDimension, norm
from projgeo.twistor import (COMPLEX_STEP, NotAlmostComplex, TwistorChart, TwistorPoint,
                             acs_field_matrix, anticommutant_basis,
                             coordinate_pairs, integrability_verdict,
                             mild_complex_structure, nijenhuis, nijenhuis_tensor,
                             sample_twistor_points,
                             standard_complex_structure)

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
    for bad in (np.nan, np.inf):
        j = standard_complex_structure(4)
        j[0, 1] = bad
        with pytest.raises(NotAlmostComplex):
            TwistorPoint(np.zeros(4), j)
        with pytest.raises(NotAlmostComplex):
            anticommutant_basis(j)


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
    big = acs_field_matrix(flat.evaluate(np.zeros(2), derivs=0), TwistorChart(tp), np.zeros(2))
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
        big = acs_field_matrix(cv, TwistorChart(tp), np.zeros(n * n // 2))
        m = n + n * n // 2
        assert np.max(np.abs(big @ big + np.eye(m))) < 1e-10


def test_structure_matrix_ignores_derivative_jets():
    # only Gamma values at the point enter, never dGamma
    rng = np.random.default_rng(60)
    spec = random_torsionfree_spec(2, rng)
    tp = sample_twistor_points(2, 1, rng)[0]
    chart = TwistorChart(tp)
    a = acs_field_matrix(spec.evaluate(tp.x, derivs=0), chart, np.zeros(2))
    b = acs_field_matrix(spec.evaluate(tp.x, derivs=2), chart, np.zeros(2))
    assert np.array_equal(a, b)


def test_structure_matrix_broadcasts_over_a_gamma_stack():
    """A stack of Gamma values gives the stack of structures, each as built
    alone; J is affine in Gamma, so differences of structures are linear in it.
    The fibre point is a complex step, off m = 0 but at the anchor."""
    rng = np.random.default_rng(63)
    spec = random_torsionfree_spec(4, rng)
    tp = sample_twistor_points(4, 1, rng)[0]
    chart = TwistorChart(tp)
    cv = spec.evaluate(tp.x, derivs=1)
    stack = np.concatenate([cv.gamma[None], cv.dgamma, np.zeros((1, 4, 4, 4))])
    m = 1j * COMPLEX_STEP * rng.standard_normal(8)
    built = acs_field_matrix(ConnectionValue(4, tp.x, stack), chart, m)
    alone = [acs_field_matrix(ConnectionValue(4, tp.x, g), chart, m) for g in stack]
    assert built.shape == (6, 12, 12)
    assert np.max(np.abs(built - alone)) <= 1e-14
    mixed = acs_field_matrix(ConnectionValue(4, tp.x, cv.gamma + 3.0 * cv.dgamma[1]), chart, m)
    assert np.max(np.abs(mixed - built[0] - 3.0 * (built[2] - built[5]))) <= 1e-13


@pytest.mark.parametrize("size", [1e-3, 200.0, 1000.0, np.inf, np.nan, complex(0.0, np.nan)])
def test_large_fibre_coordinates_are_refused_naming_the_point(size):
    """The chart is built at its anchor only: a fibre point as far off as one
    central-difference step, 1e-3, is refused, and so are points where the
    exponential would overflow (1000) or its chart derivative would (200),
    and infinite and NaN ones. One such row in a stack of fibre points
    refuses the whole stack."""
    spec = load_chart(chart_path("witness4.chart"))
    tp = sample_twistor_points(4, 1, np.random.default_rng(66))[0]
    cv = spec.evaluate(tp.x, derivs=0)
    stack = 1j * COMPLEX_STEP * np.eye(8)
    stack[5] = size
    for m_coords in (np.full(8, size), stack):
        with pytest.raises(DomainError, match=re.escape(
                "off the chart's anchor, where exp(2m) = I + 2m, "
                "at x = (0.338987102349, 0.154254504899, ")):
            acs_field_matrix(cv, TwistorChart(tp), m_coords)


@pytest.mark.parametrize("n", [4, 6])
def test_stacked_fibre_build_matches_one_build_per_direction(n):
    """The stack of complex steps in one build equals, bit for bit, one build
    per step: the loop that nijenhuis_tensor made before, kept as the reference."""
    rng = np.random.default_rng(82 + n)
    spec = random_torsionfree_spec(n, rng)
    tp = sample_twistor_points(n, 1, rng)[0]
    chart = TwistorChart(tp)
    d = chart.fibre_dim
    value = spec.evaluate(tp.x, derivs=0)
    steps = 1j * COMPLEX_STEP * np.eye(d)
    stacked = acs_field_matrix(value, chart, steps)
    assert stacked.shape == (d, n + d, n + d)
    assert np.array_equal(stacked, [acs_field_matrix(value, chart, s) for s in steps])


def test_structure_matrix_is_projectively_invariant():
    rng = np.random.default_rng(61)
    spec = random_torsionfree_spec(4, rng)
    twin = projective_change(spec, random_alpha(4, rng))
    for tp in sample_twistor_points(4, 2, rng):
        chart = TwistorChart(tp)
        a = acs_field_matrix(spec.evaluate(tp.x, derivs=0), chart, np.zeros(8))
        b = acs_field_matrix(twin.evaluate(tp.x, derivs=0), chart, np.zeros(8))
        assert np.max(np.abs(a - b)) < 1e-12


def test_chart_round_trip_through_fibre_coordinates():
    rng = np.random.default_rng(62)
    j = mild_complex_structure(4, rng)
    chart = TwistorChart(TwistorPoint(np.zeros(4), j))
    assert chart.n == 4 and chart.fibre_dim == 8
    m = 0.05 * rng.standard_normal(8)
    # the coordinate matrix anticommutes with the anchor structure
    mm = chart.fibre_matrix(m)
    assert np.max(np.abs(j @ mm + mm @ j)) < 1e-12
    # so the fibre point exp(2m) j squares to -I
    moved = expm(2.0 * mm) @ j
    assert np.max(np.abs(moved @ moved + np.eye(4))) < 1e-12


def column_loop_structure(spec, chart, x, m_coords):
    """The structure matrix one column at a time, as a reference for the
    stacked blocks: a horizontal d_i goes to j d_i, with jdot the motion
    -[Gamma(j d_i), j] plus j times d_i's own motion -[Gamma(d_i), j]; a
    vertical direction goes to j times its jdot. The fibre chart comes from
    scipy's expm, expm_frechet and pinv, so it holds at a general m, where
    acs_field_matrix, built at its anchor only, refuses."""
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
    m = np.zeros(chart.fibre_dim)
    stacked = acs_field_matrix(spec.evaluate(tp.x, derivs=0), chart, m)
    loop = column_loop_structure(spec, chart, tp.x, m)
    assert np.max(np.abs(stacked - loop)) <= 1e-14 * max(1.0, np.max(np.abs(loop)))


def _one_norm(m):
    return np.max(np.abs(m).sum(axis=0))


def _small_arguments(n):
    """Arguments about the linear-series thresholds: the name, a, and whether
    the series cut after its linear term is taken."""
    rng = np.random.default_rng(78)
    r, b = rng.standard_normal((2, n, n))
    re, im = twistor.LINEAR_RE_NORM / _one_norm(r), twistor.LINEAR_IM_NORM / _one_norm(b)
    return [("zero", np.zeros((n, n)), True),
            ("complex step", 1j * COMPLEX_STEP * b, True),
            ("real inside", 0.999 * re * r, True),
            ("real outside", 1.001 * re * r, False),
            ("imaginary inside", 0.999j * im * b, True),
            ("imaginary outside", 1.001j * im * b, False),
            ("real part and a complex step", 1e-8 * r + 1j * COMPLEX_STEP * b, False)]


def _close(got, ref, tol):
    return np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("complex_e", [False, True])
def test_frechet_kernel_takes_the_linear_series_only_where_exact(n, complex_e):
    """About the thresholds, against scipy's expm_frechet: within 1e-13, and
    the imaginary part, the complex step's derivative, within 1e-15 of its own
    size. Outside them, _series_is_linear is False, so the fibre chart refuses
    the point."""
    rng = np.random.default_rng(79)
    e = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_e else 0.0)
    for name, a, linear in _small_arguments(n):
        assert twistor._series_is_linear(a) == linear, name
        if not linear:
            continue
        got = twistor.expm_frechet(a, e)
        ref = expm_frechet(a, e, compute_expm=False)
        assert _close(got, ref, 1e-13), name
        assert _close(got.imag, ref.imag, 1e-15), name


@pytest.mark.parametrize("n", [2, 4, 6])
def test_exponential_takes_the_linear_series_only_where_exact(n):
    """The fibre point's exponential, I + a, about the same thresholds,
    against scipy's expm, with the same tolerances."""
    for name, a, linear in _small_arguments(n):
        assert twistor._series_is_linear(a) == linear, name
        if not linear:
            continue
        got = np.eye(n) + a
        ref = expm(a)
        assert _close(got, ref, 1e-13), name
        assert _close(got.imag, ref.imag, 1e-15), name


def _origin4():
    return TwistorPoint(np.zeros(4), standard_complex_structure(4))


def test_nijenhuis_rejects_torsion():
    spec = chart_spec(4, {(0, 1, 2): "1"})
    with pytest.raises(HasTorsion):
        nijenhuis(spec, [_origin4()], coordinate_pairs(12, 2, np.random.default_rng(0)))


def test_torsion_is_refused_before_any_neighbour_is_evaluated(monkeypatch):
    """The sample is the one point evaluated, and torsion there is refused
    before any structure matrix is built."""
    calls = []
    evaluate_many = ConnectionSpec.evaluate_many

    def counted(self, points, derivs=1):
        calls.append((len(points), derivs))
        return evaluate_many(self, points, derivs)

    def refused(*args, **kwargs):
        raise AssertionError("a structure matrix was built")

    monkeypatch.setattr(ConnectionSpec, "evaluate_many", counted)
    monkeypatch.setattr(twistor, "acs_field_matrix", refused)
    spec = parse_chart("dim = 4\n[christoffel]\nG 1 1 1 = ln(x1 + 0.5)\nG 1 2 3 = 1\n")
    with pytest.raises(HasTorsion, match=r"at x = \(0, 0, 0, 0\)$"):
        nijenhuis(spec, [_origin4()], coordinate_pairs(12, 2, np.random.default_rng(0)))
    assert calls == [(1, 1)]


def test_domain_refusal_names_the_sample():
    spec = parse_chart("dim = 4\n[christoffel]\nG 1 1 1 = ln(x1 + 0.5)\n")
    tp = TwistorPoint(np.array([-0.6, 0.0, 0.0, 0.0]), standard_complex_structure(4))
    with pytest.raises(DomainError, match=r"at x = \(-0\.6, 0, 0, 0\)$"):
        nijenhuis(spec, [tp], coordinate_pairs(12, 2, np.random.default_rng(0)))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_samples_evaluate_the_chart_once_per_block(monkeypatch, n):
    """S samples take ceil(S / (BLOCK_ENTRIES // n^4)) evaluate_many calls,
    each of Gamma and its first partials over one block of base points, and
    no one-point evaluate."""
    calls = []
    evaluate_many = ConnectionSpec.evaluate_many

    def counted(self, points, derivs=1):
        calls.append((len(points), derivs))
        return evaluate_many(self, points, derivs)

    def refused(*args, **kwargs):
        raise AssertionError("nijenhuis evaluates one point at a time")

    monkeypatch.setattr(ConnectionSpec, "evaluate_many", counted)
    monkeypatch.setattr(ConnectionSpec, "evaluate", refused)
    rng = np.random.default_rng(72)
    spec = random_torsionfree_spec(n, rng)
    pairs = coordinate_pairs(n + n * n // 2, 2, rng)
    rows = BLOCK_ENTRIES // n ** 4
    for samples in (1, 3, 27):
        calls.clear()
        nijenhuis(spec, sample_twistor_points(n, samples, rng), pairs)
        assert len(calls) == -(-samples // rows)
        assert calls == [(min(rows, samples - start), 1) for start in range(0, samples, rows)]


@pytest.mark.parametrize("name,samples", [("flat4", 3), ("sphere4", 3), ("witness4", 4),
                                          ("random2", 5), ("random4", 3), ("random6", 3),
                                          ("random6", 27)])
def test_batched_residuals_equal_one_call_per_sample(name, samples):
    """nijenhuis over a job's samples equals, bit for bit, one call per sample
    with a one-sample list: each block's rows are evaluated as each would be
    alone. At n = 6 a block holds BLOCK_ENTRIES // 6^4 = 25 rows, so 27
    samples take two blocks."""
    rng = np.random.default_rng(73)
    spec = named_spec(name, rng)
    n = spec.n
    tps = sample_twistor_points(n, samples, rng)
    pairs = coordinate_pairs(n + n * n // 2, 6, rng)
    batched = nijenhuis(spec, tps, pairs)
    one_by_one = np.concatenate([nijenhuis(spec, [tp], pairs) for tp in tps])
    assert batched.shape == (samples,)
    assert batched.tobytes() == one_by_one.tobytes()


def test_no_samples_give_no_residuals():
    pairs = coordinate_pairs(12, 2, np.random.default_rng(0))
    assert nijenhuis(parse_chart(FLAT4), [], pairs).shape == (0,)


def test_flat_bundle_structure_is_integrable():
    spec = parse_chart(FLAT4)
    rng = np.random.default_rng(64)
    tps = sample_twistor_points(4, 2, rng)
    pairs = coordinate_pairs(12, 4, rng)
    worst = nijenhuis(spec, tps, pairs).max()
    assert worst < 1e-6
    assert integrability_verdict(worst) == "integrable at sample"


def test_surface_bundles_are_always_integrable():
    rng = np.random.default_rng(65)
    worst = 0.0
    for _ in range(3):
        spec = random_torsionfree_spec(2, rng)
        for tp in sample_twistor_points(2, 2, rng):
            worst = max(worst, nijenhuis(spec, [tp], coordinate_pairs(4, 3, rng))[0])
    assert worst < 1e-5


def test_curved_witness_obstructs():
    spec = load_chart(chart_path("witness4.chart"))
    rng = np.random.default_rng(66)
    tp = sample_twistor_points(4, 1, rng)[0]
    res, = nijenhuis(spec, [tp], coordinate_pairs(12, 4, rng))
    assert res > 1e-2
    assert integrability_verdict(res) == "obstruction detected"


def test_antisymmetry_of_the_defect():
    rng = np.random.default_rng(67)
    spec = random_torsionfree_spec(2, rng)
    tp = sample_twistor_points(2, 1, rng)[0]
    u = np.zeros(4)
    v = np.zeros(4)
    u[0] = 1.0
    v[3] = 1.0
    r_uv, = nijenhuis(spec, [tp], [(u, v)])
    r_vu, = nijenhuis(spec, [tp], [(v, u)])
    assert abs(r_uv - r_vu) < 1e-12


def exp_chart_structure(spec, tp):
    """The anchor tp in chart coordinates z = (x, m), and J as a function of
    z near it, from column_loop_structure."""
    chart = TwistorChart(tp)
    n = chart.n
    return (np.concatenate([tp.x, np.zeros(chart.fibre_dim)]),
            lambda z: column_loop_structure(spec, chart, z[:n], z[n:]))


def central_difference_tensor(spec, tp, h):
    """The Nijenhuis tensor with each d_l J the central difference of J at
    tp +- h along chart coordinate l: the finite-difference route that
    nijenhuis_tensor's exact partials replaced, kept as a reference over an
    independent build of the chart."""
    z0, j_at = exp_chart_structure(spec, tp)
    j = j_at(z0)
    dj = np.array([j_at(z0 + s) - j_at(z0 - s) for s in h * np.eye(z0.size)]) / (2.0 * h)
    half = np.einsum("li,lkj->kij", j, dj) - np.einsum("kl,ilj->kij", j, dj)
    return half - np.swapaxes(half, 1, 2)


def pair_residuals(tensor, pairs):
    """|N(u, v)| per pair, as nijenhuis reduces the tensor."""
    return np.array([float(np.max(np.abs(tensor @ v @ u))) for u, v in pairs])


def test_defect_shrinks_quadratically_in_step():
    spec = load_chart(chart_path("witness4.chart"))
    rng = np.random.default_rng(68)
    tp = sample_twistor_points(4, 1, rng)[0]
    pairs = coordinate_pairs(12, 2, rng)
    exact, = nijenhuis(spec, [tp], pairs)

    def drift(h):
        """The distance of the central-difference residual from the exact one
        is its h^2 error term."""
        return abs(pair_residuals(central_difference_tensor(spec, tp, h), pairs).max() - exact)

    assert drift(4e-3) > 4 * drift(1e-3)  # 16x expected for a clean h^2 law


def bracket_residuals(spec, tp, pairs, h):
    """|N(u, v)| per constant pair, from N(U, V) = [JU, JV] - [U, V] - J[JU, V] - J[U, JV]
    with every bracket a central difference of J along a field's value at the
    point: an independent route to the tensor that nijenhuis builds."""
    z0, j_at = exp_chart_structure(spec, tp)

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


def named_spec(name, rng):
    """flat4, randomN (a random torsion-free chart of dimension N) or a fixture chart."""
    if name == "flat4":
        return parse_chart(FLAT4)
    if name.startswith("random"):
        return random_torsionfree_spec(int(name[len("random"):]), rng)
    return load_chart(chart_path(f"{name}.chart"))


@pytest.mark.parametrize("name", ["witness4", "sphere4", "flat4", "random2"])
def test_tensor_agrees_with_the_bracket_formula(name):
    """The central-difference tensor and the bracket formula at the same step
    h differ by O(h^2): at most 1e-7 at h = 1e-4, and about 100x less per
    decade of h wherever the gap is above rounding."""
    rng = np.random.default_rng(69)
    spec = named_spec(name, rng)
    n = spec.n
    tp = sample_twistor_points(n, 1, rng)[0]
    pairs = coordinate_pairs(n + n * n // 2, 2, rng)

    def gap(h):
        tensor = pair_residuals(central_difference_tensor(spec, tp, h), pairs)
        return np.abs(tensor - bracket_residuals(spec, tp, pairs, h))

    coarse, fine = gap(1e-3), gap(1e-4)
    assert np.all(fine <= 1e-7)
    above = fine > 1e-12
    assert np.all(coarse[above] >= 30.0 * fine[above])


@pytest.mark.parametrize("name", ["witness4", "sphere4", "flat4", "random2"])
def test_central_differences_converge_to_the_exact_tensor(name):
    """Entry by entry, the central-difference tensor approaches the exact one
    at O(h^2): 30x or more closer from h = 1e-3 to 1e-4 wherever the gap is
    above rounding, and within 1e-7 at h = 1e-4."""
    rng = np.random.default_rng(78)
    spec = named_spec(name, rng)
    for tp in sample_twistor_points(spec.n, 2, rng):
        exact = nijenhuis_tensor(spec.evaluate(tp.x, derivs=1), tp)

        def gap(h):
            return np.abs(central_difference_tensor(spec, tp, h) - exact)

        coarse, fine = gap(1e-3), gap(1e-4)
        assert np.all(fine <= 1e-7)
        above = fine > 1e-10
        assert np.all(coarse[above] >= 30.0 * fine[above])


@pytest.mark.parametrize("n", [2, 4])
def test_one_sample_builds_two_structure_stacks(monkeypatch, n):
    """Two structure builds per nijenhuis call, the Gamma stack at m = 0 and
    the stack of n^2/2 complex steps, each with one expm_frechet per fibre
    basis element."""
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
    nijenhuis(spec, [tp], coordinate_pairs(n + n * n // 2, 6, rng))
    assert counts == {"acs": 2, "frechet": 2 * n * n // 2}


@pytest.mark.parametrize("name", ["flat4", "sphere4", "witness4", "random2"])
def test_residuals_match_scipys_frechet_kernel(monkeypatch, name):
    """nijenhuis with the doubled-exponential kernel and with scipy's
    expm_frechet: the same verdict, and residuals within 1e-10 where
    integrable and 1e-9 relative where obstructed."""
    rng = np.random.default_rng(77)
    spec = named_spec(name, rng)
    n = spec.n
    pairs = coordinate_pairs(n + n * n // 2, 4, rng)
    tps = sample_twistor_points(n, 2, rng)
    new = nijenhuis(spec, tps, pairs)
    monkeypatch.setattr(twistor, "expm_frechet",
                        lambda a, e: expm_frechet(a, e, compute_expm=False))
    old = nijenhuis(spec, tps, pairs)
    assert [integrability_verdict(r) for r in new] == [integrability_verdict(r) for r in old]
    gap = np.abs(new - old)
    small, large = old <= 1e-5, old >= 1e-2
    assert np.all(small | large)
    assert np.all(gap[small] <= 1e-10)
    assert np.all(gap[large] <= 1e-9 * old[large])


def test_verdict_bands():
    assert integrability_verdict(1e-7) == "integrable at sample"
    assert integrability_verdict(0.5) == "obstruction detected"
    assert integrability_verdict(1e-3) == "inconclusive"


def test_nijenhuis_tensor_is_projectively_invariant():
    """Paper claim 2: J, and so N, is the same for a connection and its
    projective changes; the exact tensors agree to rounding."""
    rng = np.random.default_rng(79)
    worst = 0.0
    for _ in range(12):
        spec = random_torsionfree_spec(4, rng)
        twin = projective_change(spec, random_alpha(4, rng))
        for tp in sample_twistor_points(4, 3, rng):
            gap = (nijenhuis_tensor(spec.evaluate(tp.x, derivs=1), tp)
                   - nijenhuis_tensor(twin.evaluate(tp.x, derivs=1), tp))
            worst = max(worst, float(np.max(np.abs(gap))))
    assert worst <= 1e-14


def _weyl_and_nijenhuis(spec, tp):
    cv = spec.evaluate(tp.x, derivs=1)
    return norm(weyl(curvature(cv)).W), float(np.max(np.abs(nijenhuis_tensor(cv, tp))))


def test_nijenhuis_vanishes_exactly_where_weyl_does():
    """Paper claim 3 at n = 4: projective changes of the flat chart have
    W = 0 and an integrable J; generic charts have neither."""
    rng = np.random.default_rng(80)
    flat = parse_chart(FLAT4)
    for _ in range(4):
        changed = projective_change(flat, random_alpha(4, rng))
        for tp in sample_twistor_points(4, 2, rng):
            w, n = _weyl_and_nijenhuis(changed, tp)
            assert w <= 1e-13 and n <= 1e-13
    for _ in range(4):
        spec = random_torsionfree_spec(4, rng)
        for tp in sample_twistor_points(4, 2, rng):
            w, n = _weyl_and_nijenhuis(spec, tp)
            assert w >= 1e-2 and n >= 1e-2


def closed_form_block(r, j, basis):
    """The fibre-on-base block [c, a, b] of the Nijenhuis tensor at the anchor,
    from a curvature-type tensor r[l, k, a, b]: with R_ab the matrix of
    R(e_a, e_b) and je_a = sum_i j[i, a] e_i,
    K_ab = [R_ab - R(je_a, je_b), j] + j [R(je_a, e_b) + R(e_a, je_b), j],
    in the coordinates <-K_ab j / 2, B_c> over the anticommutant basis B."""
    rab = np.moveaxis(r, (2, 3), (0, 1))           # [a, b, l, k]
    rjj = np.einsum("ia,jb,ijlk->ablk", j, j, rab)  # R(je_a, je_b)
    rj_ = np.einsum("ia,iblk->ablk", j, rab)        # R(je_a, e_b)
    r_j = np.einsum("jb,ajlk->ablk", j, rab)        # R(e_a, je_b)

    def bracket(x):
        return x @ j - j @ x

    k = bracket(rab - rjj) + j @ bracket(rj_ + r_j)
    return np.einsum("abpq,cpq->cab", -0.5 * k @ j, basis)


@pytest.mark.parametrize("name", ["flat4", "sphere4", "witness4", "random2", "random4",
                                  "random6"])
def test_fibre_block_is_the_closed_form_in_the_curvature_and_in_weyl(name):
    """Paper claim 3 in closed form: at the anchor the Nijenhuis tensor of a
    torsion-free connection is its fibre-on-base block, the bracket formula of
    closed_form_block in R, and the same formula in the projective Weyl
    tensor W; every other block vanishes."""
    rng = np.random.default_rng(81)
    spec = named_spec(name, rng)
    n = spec.n
    for tp in sample_twistor_points(n, 2, rng):
        cv = spec.evaluate(tp.x, derivs=1)
        tensor = nijenhuis_tensor(cv, tp)
        block = tensor[n:, :n, :n]
        rest = tensor.copy()
        rest[n:, :n, :n] = 0.0
        assert np.max(np.abs(rest)) <= 1e-13
        r = curvature(cv).data
        basis = anticommutant_basis(tp.j)
        scale = max(1.0, float(np.max(np.abs(block))))
        for source in (r, weyl(curvature(cv)).W.data):
            gap = np.max(np.abs(closed_form_block(source, tp.j, basis) - block))
            assert gap <= 1e-12 * scale
