"""Almost complex structures on the bundle of pointwise complex structures."""

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from conftest import (chart_path, chart_spec, one_sample_stack, random_alpha,
                      random_torsionfree_spec)
from projgeo.algebra import first_bianchi_residual, weyl
from projgeo import connection
from projgeo.connection import (ConnectionSpec, ConnectionValue, HasTorsion, curvature,
                                load_chart, parse_chart)
from projgeo.expr import DomainError
from projgeo.projective import projective_change
import projgeo.twistor as twistor
from projgeo.tensor import OddDimension, TensorValue, norm
from projgeo.twistor import (NotAlmostComplex, TwistorPoint,
                             acs_field_matrix, anticommutant_basis,
                             coordinate_pairs, integrability_verdict,
                             mild_complex_structure, nijenhuis, nijenhuis_tensor,
                             sample_twistor_points,
                             standard_complex_structure, vertical_motion)

FLAT2 = "dim = 2\n[christoffel]\n"
FLAT4 = "dim = 4\n[christoffel]\n"


def structure(cv, tp):
    """J and dJ of the one sample tp, cv its point's connection data."""
    j, dj = acs_field_matrix(*one_sample_stack(cv, tp))
    return j[0], dj[0]


def tensor_at(cv, tp):
    """The Nijenhuis tensor of the one sample tp, cv its point's connection data."""
    return nijenhuis_tensor(*one_sample_stack(cv, tp))[0]


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
    big, _ = structure(flat.evaluate(np.zeros(2), derivs=1), tp)
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
        big, _ = structure(spec.evaluate(tp.x, derivs=1), tp)
        m = n + n * n // 2
        assert np.max(np.abs(big @ big + np.eye(m))) < 1e-10


def test_structure_matrix_ignores_derivative_jets():
    """Only Gamma values at the point enter J and its fibre partials; dGamma
    enters only the partials along the base, which vanish with it."""
    rng = np.random.default_rng(60)
    spec = random_torsionfree_spec(4, rng)
    tp = sample_twistor_points(4, 1, rng)[0]
    cv = spec.evaluate(tp.x, derivs=1)
    big, partials = structure(cv, tp)
    flat = ConnectionValue(4, tp.x, cv.gamma, np.zeros_like(cv.dgamma))
    big_flat, partials_flat = structure(flat, tp)
    assert np.array_equal(big, big_flat)
    assert not np.any(partials_flat[:4]) and np.any(partials[:4])
    assert np.array_equal(partials[4:], partials_flat[4:])


def test_structure_matrix_is_projectively_invariant():
    """J is the same for a connection and its projective changes at every
    point, so its partials are too."""
    rng = np.random.default_rng(61)
    spec = random_torsionfree_spec(4, rng)
    twin = projective_change(spec, random_alpha(4, rng))
    for tp in sample_twistor_points(4, 2, rng):
        a = structure(spec.evaluate(tp.x, derivs=1), tp)
        b = structure(twin.evaluate(tp.x, derivs=1), tp)
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] - b[1])) < 1e-12


def test_chart_round_trip_through_fibre_coordinates():
    rng = np.random.default_rng(62)
    j = mild_complex_structure(4, rng)
    basis = anticommutant_basis(j)
    assert basis.shape == (8, 4, 4)
    m = 0.05 * rng.standard_normal(8)
    # the coordinate matrix anticommutes with the anchor structure
    mm = np.einsum("a,aij->ij", m, basis)
    assert np.max(np.abs(j @ mm + mm @ j)) < 1e-12
    # so the fibre point exp(2m) j squares to -I
    moved = expm(2.0 * mm) @ j
    assert np.max(np.abs(moved @ moved + np.eye(4))) < 1e-12


def column_loop_structure(spec, tp, x, m_coords):
    """The structure matrix one column at a time, as a reference for the
    stacked blocks: a horizontal d_i goes to j d_i, with jdot the motion
    -[Gamma(j d_i), j] plus j times d_i's own motion -[Gamma(d_i), j]; a
    vertical direction goes to j times its jdot. The fibre chart around tp
    comes from scipy's expm, expm_frechet and pinv, so it holds at a general
    m, where acs_field_matrix builds the anchor only."""
    n, basis = tp.x.size, anticommutant_basis(tp.j)
    d = basis.shape[0]
    gamma = spec.evaluate(x, derivs=0).gamma
    m = np.einsum("a,aij->ij", m_coords, basis)
    jp = expm(2.0 * m) @ tp.j
    push = np.column_stack([(expm_frechet(2.0 * m, 2.0 * b, compute_expm=False)
                             @ tp.j).ravel() for b in basis])
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
    projections = []
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n))
            unit[a, b] = 1.0
            projections.append((0.5 * (unit + tp.j @ unit @ tp.j)).ravel())
    u = np.linalg.svd(np.array(projections).T, full_matrices=False)[0]
    assert np.array_equal(anticommutant_basis(tp.j), u[:, :n * n // 2].T.reshape(-1, n, n))
    stacked, _ = structure(spec.evaluate(tp.x, derivs=1), tp)
    loop = column_loop_structure(spec, tp, tp.x, np.zeros(n * n // 2))
    assert np.max(np.abs(stacked - loop)) <= 1e-14 * max(1.0, np.max(np.abs(loop)))


# The complex step along the fibre: J(i eps e_a) = J + i eps d_a J + O(eps^2),
# and no difference is taken, so any eps far below rounding gives d_a J exactly.
COMPLEX_STEP = 1e-30


def complex_step_structure(gamma, tp, m_coords):
    """The structure matrix at fibre points m_coords (..., n^2/2) of the chart
    around tp, for Gamma (..., n, n, n), both stacks broadcasting: the build
    nijenhuis_tensor took its fibre partials from before they came by forward
    mode, kept as their oracle. exp(2m) and its Frechet derivative are cut
    after their linear terms, I + 2m and e + (2m e + e 2m)/2, exact to
    rounding at m = 0 and at the complex steps, where it is called; no step
    conjugates, so the build stays analytic in m."""
    n, basis = tp.x.size, anticommutant_basis(tp.j)
    d = basis.shape[0]
    two_m = 2.0 * np.einsum("...a,aij->...ij", m_coords, basis)
    fibre_lead = two_m.shape[:-2]
    jp = (np.eye(n) + two_m) @ tp.j
    push = np.stack([(2.0 * b + 0.5 * (two_m @ (2.0 * b) + (2.0 * b) @ two_m)) @ tp.j
                     for b in basis], axis=-3)
    pt = push.reshape(fibre_lead + (d, n * n))
    pull = np.linalg.solve(pt @ np.swapaxes(pt, -1, -2), pt)
    lead = np.broadcast_shapes(gamma.shape[:-3], fibre_lead)
    motion = vertical_motion(gamma, jp).reshape(lead + (n, n * n))
    turn = (jp[..., None, :, :] @ push).reshape(fibre_lead + (d, n * n))
    out = np.zeros(lead + (n + d, n + d), dtype=np.result_type(jp, motion))
    out[..., :n, :n] = jp
    out[..., n:, :n] = pull @ np.swapaxes(motion, -1, -2)
    out[..., n:, n:] = pull @ np.swapaxes(turn, -1, -2)
    return out


def complex_step_partials(cv, tp):
    """Every first partial of J at the anchor, from complex_step_structure:
    along x_l the structure of d_l Gamma less that of Gamma = 0, along m_a
    Im J(i eps e_a) / eps with eps = COMPLEX_STEP."""
    n = tp.x.size
    d = n * n // 2
    stack = np.concatenate([cv.dgamma, np.zeros((1, n, n, n))])
    base = complex_step_structure(stack, tp, np.zeros(d))
    stepped = complex_step_structure(cv.gamma, tp, 1j * COMPLEX_STEP * np.eye(d))
    return np.concatenate([base[:n] - base[n], stepped.imag / COMPLEX_STEP])


def test_structure_matrix_broadcasts_over_a_gamma_stack():
    """The oracle's build over a stack of Gamma values gives the stack of
    structures, each as built alone; J is affine in Gamma, so differences of
    structures are linear in it. The fibre point is a complex step, off m = 0
    but at the anchor."""
    rng = np.random.default_rng(63)
    spec = random_torsionfree_spec(4, rng)
    tp = sample_twistor_points(4, 1, rng)[0]
    cv = spec.evaluate(tp.x, derivs=1)
    stack = np.concatenate([cv.gamma[None], cv.dgamma, np.zeros((1, 4, 4, 4))])
    m = 1j * COMPLEX_STEP * rng.standard_normal(8)
    built = complex_step_structure(stack, tp, m)
    alone = [complex_step_structure(g, tp, m) for g in stack]
    assert built.shape == (6, 12, 12)
    assert np.max(np.abs(built - alone)) <= 1e-14
    mixed = complex_step_structure(cv.gamma + 3.0 * cv.dgamma[1], tp, m)
    assert np.max(np.abs(mixed - built[0] - 3.0 * (built[2] - built[5]))) <= 1e-13


@pytest.mark.parametrize("n", [4, 6])
def test_stacked_fibre_build_matches_one_build_per_direction(n):
    """The oracle's stack of complex steps in one build equals, bit for bit,
    one build per step."""
    rng = np.random.default_rng(82 + n)
    spec = random_torsionfree_spec(n, rng)
    tp = sample_twistor_points(n, 1, rng)[0]
    d = n * n // 2
    gamma = spec.evaluate(tp.x, derivs=0).gamma
    steps = 1j * COMPLEX_STEP * np.eye(d)
    stacked = complex_step_structure(gamma, tp, steps)
    assert stacked.shape == (d, n + d, n + d)
    assert np.array_equal(stacked, [complex_step_structure(gamma, tp, s) for s in steps])


@pytest.mark.parametrize("name", ["flat4", "sphere4", "witness4", "random2", "random4",
                                  "random6"])
def test_partials_match_the_complex_step_oracle(name):
    """The forward-mode fibre partials, and the base partials, of one real
    build equal those of the complex-step build within 1e-14 of their size,
    and so does J."""
    rng = np.random.default_rng(83)
    spec = named_spec(name, rng)
    n = spec.n
    for tp in sample_twistor_points(n, 3, rng):
        cv = spec.evaluate(tp.x, derivs=1)
        big, partials = structure(cv, tp)
        oracle = complex_step_partials(cv, tp)
        assert partials.shape == oracle.shape == (n + n * n // 2,) + big.shape
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(partials - oracle)) <= 1e-14 * scale
        alone = complex_step_structure(cv.gamma, tp, np.zeros(n * n // 2))
        assert np.max(np.abs(big - alone)) <= 1e-14 * max(1.0, float(np.max(np.abs(alone))))


def scipy_frechet_tangent(da, e):
    """expm_frechet's tangent from scipy: the complex step of its Frechet
    derivative at i eps da, one direction at a time, looping over the leading
    axes of da and e (..., n, n), which broadcast as in twistor.expm_frechet."""
    da, e = np.broadcast_arrays(da, e)
    n = da.shape[-1]
    return np.reshape([expm_frechet(1j * COMPLEX_STEP * a, b, compute_expm=False).imag
                       for a, b in zip(da.reshape(-1, n, n), e.reshape(-1, n, n))],
                      da.shape) / COMPLEX_STEP


@pytest.mark.parametrize("n", [2, 4, 6])
def test_frechet_tangent_is_the_second_derivative_of_exp(n):
    """expm_frechet(da, e), the tangent of D exp(m)[e] at m = 0 along each
    direction of da, against the complex step of scipy's expm_frechet at
    i eps da, within 1e-14 of its size."""
    rng = np.random.default_rng(79)
    da = rng.standard_normal((3, n, n))
    e = rng.standard_normal((n, n))
    got = twistor.expm_frechet(da, e)
    ref = scipy_frechet_tangent(da, e)
    assert got.shape == (3, n, n)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


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
    """S samples take ceil(S / rows) evaluate_many calls, rows the block size
    BLOCK_ENTRIES // (2 n^4 + 12 n^3) of nijenhuis's width, here made 10,
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
    rows = 10
    monkeypatch.setattr(connection, "BLOCK_ENTRIES", rows * (2 * n ** 4 + 12 * n ** 3) + 7)
    for samples in (1, 3, 10, 27):
        calls.clear()
        nijenhuis(spec, sample_twistor_points(n, samples, rng), pairs)
        assert len(calls) == -(-samples // rows)
        assert calls == [(min(rows, samples - start), 1) for start in range(0, samples, rows)]


@pytest.mark.parametrize("name,samples", [("flat4", 3), ("sphere4", 3), ("witness4", 4),
                                          ("random2", 5), ("random4", 3), ("random6", 3),
                                          ("random6", 4), ("random6", 7), ("random4", 26),
                                          ("random6", 27), ("random6", 53)])
def test_batched_residuals_equal_one_call_per_sample(name, samples):
    """nijenhuis over a job's samples equals, bit for bit, one call per sample
    with a one-sample list: each block's rows are evaluated, and each
    sub-block's samples built, as each would be alone. At n = 6 a block holds
    BLOCK_ENTRIES // (2 * 6^4 + 12 * 6^3) = 50 rows, so 53 samples take two
    blocks, and a build sub-block BLOCK_ENTRIES // (6 * 24^3) = 3 rows, so 4
    and 7 samples take two and three; at n = 4 a sub-block holds 25 rows."""
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
    n = tp.x.size
    return (np.concatenate([tp.x, np.zeros(n * n // 2)]),
            lambda z: column_loop_structure(spec, tp, z[:n], z[n:]))


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
        exact = tensor_at(spec.evaluate(tp.x, derivs=1), tp)

        def gap(h):
            return np.abs(central_difference_tensor(spec, tp, h) - exact)

        coarse, fine = gap(1e-3), gap(1e-4)
        assert np.all(fine <= 1e-7)
        above = fine > 1e-10
        assert np.all(coarse[above] >= 30.0 * fine[above])


def count_builds(monkeypatch):
    """Counts, from here on, of the acs_field_matrix and expm_frechet calls
    nijenhuis makes."""
    counts = {"acs": 0, "frechet": 0}

    def counted(name, f):
        def inner(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return inner

    monkeypatch.setattr(twistor, "acs_field_matrix",
                        counted("acs", twistor.acs_field_matrix))
    monkeypatch.setattr(twistor, "expm_frechet", counted("frechet", twistor.expm_frechet))
    return counts


@pytest.mark.parametrize("n", [2, 4, 6])
def test_one_sample_builds_one_structure_stack(monkeypatch, n):
    """A one-sample nijenhuis call makes one structure build, which takes J,
    its partials along the base and, by forward mode, along the fibre, with
    one expm_frechet per fibre basis element."""
    counts = count_builds(monkeypatch)
    rng = np.random.default_rng(70)
    spec = random_torsionfree_spec(n, rng)
    tp = sample_twistor_points(n, 1, rng)[0]
    nijenhuis(spec, [tp], coordinate_pairs(n + n * n // 2, 6, rng))
    assert counts == {"acs": 1, "frechet": n * n // 2}


@pytest.mark.parametrize("n,samples,builds", [(2, 5, 1), (4, 3, 1), (4, 26, 2), (6, 1, 1),
                                              (6, 3, 1), (6, 4, 2), (6, 7, 3), (6, 53, 18)])
def test_each_sub_block_is_one_structure_build(monkeypatch, n, samples, builds):
    """A block's samples are built in sub-blocks of BLOCK_ENTRIES // (6 N^3)
    rows, N = n + n^2/2 (25 at n = 4, 3 at n = 6), each one acs_field_matrix
    call with n^2/2 expm_frechet calls; 53 samples at n = 6 are blocks of 50
    and 3 rows, so 17 and 1 sub-blocks."""
    counts = count_builds(monkeypatch)
    rng = np.random.default_rng(74)
    spec = random_torsionfree_spec(n, rng)
    nijenhuis(spec, sample_twistor_points(n, samples, rng),
              coordinate_pairs(n + n * n // 2, 2, rng))
    assert counts == {"acs": builds, "frechet": builds * n * n // 2}


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stacked_builds_equal_one_build_per_sample(n):
    """anticommutant_basis, acs_field_matrix and nijenhuis_tensor on a stack
    of samples equal, bit for bit, the same calls on each sample alone."""
    rng = np.random.default_rng(85 + n)
    spec = random_torsionfree_spec(n, rng)
    tps = sample_twistor_points(n, 5, rng)
    js = np.array([tp.j for tp in tps])
    cv = spec.evaluate_many(np.array([tp.x for tp in tps]), derivs=1)
    basis = anticommutant_basis(js)
    big, partials = acs_field_matrix(cv, js)
    tensor = nijenhuis_tensor(cv, js)
    assert basis.shape == (5, n * n // 2, n, n)
    for r, tp in enumerate(tps):
        row = ConnectionValue(n, cv.point[r:r + 1], cv.gamma[r:r + 1], cv.dgamma[r:r + 1])
        assert np.array_equal(basis[r], anticommutant_basis(tp.j))
        alone, alone_partials = acs_field_matrix(row, js[r:r + 1])
        assert np.array_equal(big[r], alone[0])
        assert np.array_equal(partials[r], alone_partials[0])
        assert np.array_equal(tensor[r], nijenhuis_tensor(row, js[r:r + 1])[0])


def test_overflow_is_refused_at_the_first_sample_that_overflows():
    """Within one sub-block a finite tensor does not hide a later sample's
    overflow, and the refusal names the first overflowing sample, as a walk
    sample by sample does: at x1 = 0 Gamma vanishes and the tensor is
    finite; at x1 = 0.3 and 0.4 the products of Gamma with its partials pass
    the float range."""
    spec = parse_chart("dim = 4\n[christoffel]\nG 1 1 1 = 1e155 * x1\n")
    j = standard_complex_structure(4)
    pairs = coordinate_pairs(12, 2, np.random.default_rng(0))
    tps = [TwistorPoint(np.array([x1, 0.0, 0.0, 0.0]), j) for x1 in (0.0, 0.3, 0.4)]
    assert np.isfinite(nijenhuis(spec, tps[:1], pairs)).all()
    for samples in (tps, tps[:2], tps[1:]):
        first = samples[0] if samples[0].x[0] else samples[1]
        with pytest.raises(DomainError, match=rf"not finite at x = \({first.x[0]:g}, 0, 0, 0\)$"):
            nijenhuis(spec, samples, pairs)


@pytest.mark.parametrize("name", ["flat4", "sphere4", "witness4", "random2"])
def test_residuals_match_scipys_frechet_kernel(monkeypatch, name):
    """nijenhuis with the closed-form second derivative of exp and with one
    taken from scipy's expm_frechet: the same verdict, and residuals within
    1e-10 where integrable and 1e-9 relative where obstructed."""
    rng = np.random.default_rng(77)
    spec = named_spec(name, rng)
    n = spec.n
    pairs = coordinate_pairs(n + n * n // 2, 4, rng)
    tps = sample_twistor_points(n, 2, rng)
    new = nijenhuis(spec, tps, pairs)
    monkeypatch.setattr(twistor, "expm_frechet", scipy_frechet_tangent)
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
            gap = (tensor_at(spec.evaluate(tp.x, derivs=1), tp)
                   - tensor_at(twin.evaluate(tp.x, derivs=1), tp))
            worst = max(worst, float(np.max(np.abs(gap))))
    assert worst <= 1e-14


def _weyl_and_nijenhuis(spec, tp):
    cv = spec.evaluate(tp.x, derivs=1)
    return norm(weyl(curvature(cv)).W), float(np.max(np.abs(tensor_at(cv, tp))))


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
    """The fibre-on-base block [..., c, a, b] of the Nijenhuis tensor at the
    anchor, from a curvature-type tensor r[..., l, k, a, b]: with R_ab the
    matrix of R(e_a, e_b) and je_a = sum_i j[i, a] e_i,
    K_ab = [R_ab - R(je_a, je_b), j] + j [R(je_a, e_b) + R(e_a, je_b), j],
    in the coordinates <-K_ab j / 2, B_c> over the anticommutant basis B."""
    rab = np.moveaxis(r, (-2, -1), (-4, -3))                             # [..., a, b, l, k]
    rjj = np.einsum("ia,jb,...ijlk->...ablk", j, j, rab, optimize=True)  # R(je_a, je_b)
    rj_ = np.einsum("ia,...iblk->...ablk", j, rab)                       # R(je_a, e_b)
    r_j = np.einsum("jb,...ajlk->...ablk", j, rab)                       # R(e_a, je_b)

    def bracket(x):
        return x @ j - j @ x

    k = bracket(rab - rjj) + j @ bracket(rj_ + r_j)
    return np.einsum("...abpq,cpq->...cab", -0.5 * k @ j, basis, optimize=True)


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
        tensor = tensor_at(cv, tp)
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


def weyl_space_basis(n, rng, count):
    """An orthonormal basis (rows) of the span of the projective Weyl tensors
    of `count` random Bianchi tensors: the Weyl space once count exceeds its
    dimension."""
    a = rng.standard_normal((count, n, n, n, n))
    a = a - np.swapaxes(a, -1, -2)
    r = TensorValue(n, ("up", "down", "down", "down"), a)
    r = TensorValue(n, r.variance, a - first_bianchi_residual(r).data / 3.0)
    u, sv, _ = np.linalg.svd(weyl(r).W.data.reshape(count, -1).T, full_matrices=False)
    return u[:, :int(np.sum(sv > 1e-10 * sv[0]))].T.reshape(-1, n, n, n, n)


# Seeded structures stacked in the rank certificate: 7 leave it rank-deficient
# (56 < 64 at n = 4), 8 make it injective with sigma_min 3e-3 to 7e-3, and 12
# lift sigma_min to 0.3 to 1.
CERTIFICATE_STRUCTURES = 12


@pytest.mark.parametrize("n,dim_w", [(4, 64), (6, 384)])
def test_integrable_structures_certify_that_weyl_vanishes(n, dim_w):
    """Paper claim 3 as a rank certificate. At a point, the fibre block is a
    linear map L_j of W (closed_form_block). Stacked over 12 seeded
    mild_complex_structure draws, the L_j have rank dim W on the Weyl space,
    with smallest singular value at least 0.1 against an orthonormal basis:
    so J integrable at those 12 structures forces W = 0 there, with
    |W| <= |(N_1, ..., N_12)| / sigma_min."""
    rng = np.random.default_rng(90 + n)
    basis = weyl_space_basis(n, rng, dim_w + 16)
    assert basis.shape[0] == dim_w
    blocks = []
    for _ in range(CERTIFICATE_STRUCTURES):
        j = mild_complex_structure(n, rng)
        blocks.append(closed_form_block(basis, j, anticommutant_basis(j)).reshape(dim_w, -1))
    sv = np.linalg.svd(np.concatenate(blocks, axis=1), compute_uv=False)
    assert int(np.sum(sv > 1e-10 * sv[0])) == dim_w
    assert sv[-1] >= 0.1
