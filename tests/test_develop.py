"""Frame transport, flatness certification and the developing map."""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import chart_path, chart_spec, model_metric
from projgeo import develop
from projgeo.connection import BLOCK_ENTRIES, ConnectionSpec, load_chart
from projgeo.develop import (NotFlat, ProjectivePoint, StepFailure, _hat_matrix, _rk4_frame,
                             cartan_transport, collinearity_defect, develop_map,
                             flatness_defect, geodesic_trace, holonomy_loops,
                             model_connection, transport_many)
from projgeo.projective import load_alpha, parse_alpha, projective_change
from projgeo.algebra import cotton, weyl
from projgeo.connection import HasTorsion, curvature, ricci
from projgeo.tensor import norm


def test_model_charts_are_flat():
    p = np.array([0.3, -0.2, 0.4])
    for spec in (model_connection(3), model_metric(3)):
        w = weyl(curvature(spec.evaluate(p, derivs=1))).W
        assert norm(w) < 1e-12
    c = cotton(model_metric(2).evaluate(np.array([0.2, 0.1]), derivs=2), tol=1e-10)
    assert norm(c) < 1e-11


def test_affine_transport_carries_the_base_point():
    flat = model_connection(2)
    target = np.array([0.4, -0.2])
    frame = cartan_transport(flat, [np.zeros(2), target])
    assert np.allclose(frame[:, 0], [1.0, 0.4, -0.2], atol=1e-14)


def test_transport_composes_and_inverts():
    sph = load_chart(chart_path("sphere2.chart"))
    a, b, c = np.zeros(2), np.array([0.3, 0.1]), np.array([0.1, 0.4])
    ab = cartan_transport(sph, [a, b])
    bc = cartan_transport(sph, [b, c])
    ac = cartan_transport(sph, [a, b, c])
    assert np.max(np.abs(ab @ bc - ac)) < 1e-12
    ba = cartan_transport(sph, [b, a])
    assert np.max(np.abs(ab @ ba - np.eye(3))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_round_metric_has_no_holonomy(n):
    spec = load_chart(chart_path(f"sphere{n}.chart"))
    assert flatness_defect(spec, np.zeros(n), seed=1) < 1e-7


def test_witness_chart_has_holonomy():
    spec = load_chart(chart_path("witness3.chart"))
    assert flatness_defect(spec, np.zeros(3), seed=4) > 1e-3


def test_develop_map_refuses_curved_input():
    spec = load_chart(chart_path("witness3.chart"))
    with pytest.raises(NotFlat) as err:
        develop_map(spec, np.zeros(3), [np.array([0.1, 0.0, 0.0])], flat_tol=1e-7, seed=4)
    assert err.value.deviation > 1e-3


def test_affine_chart_develops_to_homogeneous_coordinates():
    flat = model_connection(3)
    targets = [np.array([0.2, -0.1, 0.3]), np.array([-0.4, 0.2, 0.1])]
    images, path_errors = develop_map(flat, np.zeros(3), targets, flat_tol=1e-7, seed=0)
    for target, image in zip(targets, images):
        expect = ProjectivePoint(np.concatenate([[1.0], target]))
        assert np.max(np.abs(image.homogeneous - expect.homogeneous)) <= 1e-9
    assert path_errors.shape == (2,)
    assert np.all(path_errors < 1e-9)


def test_development_straightens_round_geodesics():
    sph = load_chart(chart_path("sphere2.chart"))
    x0 = np.array([0.05, -0.1])
    trace = geodesic_trace(sph, x0, np.array([0.7, 0.4]), 0.5, 8)
    images, path_errors = develop_map(sph, x0, list(trace), flat_tol=1e-7, seed=0)
    assert np.max(path_errors) < 1e-7
    assert collinearity_defect(images) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_metric_develops_by_central_projection(n):
    """The round metric is the stereographic chart of the n-sphere, and central
    projection sends its great circles to lines, so the developed image of x is
    [2x : 1 - |x|^2] up to one projective map H. Each target gives the linear
    equations p_a (H q)_b - p_b (H q)_a = 0 on the entries of H; the smallest
    singular value of their unit-row system is the misfit of the best H."""
    rng = np.random.default_rng(10 + n)
    x0 = rng.uniform(-0.1, 0.1, n)
    targets = rng.uniform(-0.4, 0.4, (12, n))
    images = [image.homogeneous
              for image in develop_map(model_metric(n), x0, targets, flat_tol=1e-7, seed=0)[0]]
    rows = []
    for x, p in zip(targets, images):
        q = np.concatenate([2.0 * x, [1.0 - x @ x]])
        p, q = p / np.linalg.norm(p), q / np.linalg.norm(q)
        for a, b in combinations(range(n + 1), 2):
            row = np.zeros((n + 1, n + 1))
            row[b] += p[a] * q
            row[a] -= p[b] * q
            rows.append(row.ravel() / np.linalg.norm(row))
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    assert sv[-1] <= 1e-10
    assert sv[-2] >= 1e-3  # the fitted map is unique


@pytest.mark.parametrize("n, alpha", [
    (2, "a 1 = 0.3*x2\na 2 = -0.2*x1 + 0.1*x1*x2\n"),
    (3, "a 1 = 0.2*x2 - 0.1*x3\na 2 = 0.3*x1*x3\na 3 = 0.25*x1 + 0.1*x2*x2\n"),
], ids=["n2", "n3"])
def test_skew_ricci_chart_develops_to_affine_coordinates(n, alpha):
    """A projective change of the flat chart by a 1-form alpha that is not
    closed has a skew Ricci trace, so Q's skew term enters every transport
    node. The change keeps the straight lines, and with alpha = 0 at the base
    it keeps the developing map too: the image of t is [1 : t]."""
    spec = projective_change(model_connection(n), parse_alpha(alpha, n))
    x0 = np.zeros(n)
    targets = np.random.default_rng(n).uniform(-0.4, 0.4, (6, n))
    ric = ricci(curvature(spec.evaluate_many(targets, derivs=1))).data
    assert np.max(np.abs(ric - np.swapaxes(ric, -1, -2))) >= 0.5
    assert flatness_defect(spec, x0, seed=0) <= 1e-12
    images, _ = develop_map(spec, x0, targets, flat_tol=1e-7, seed=0)
    for target, image in zip(targets, images):
        h = image.homogeneous
        assert np.max(np.abs(h[1:] / h[0] - target)) <= 1e-12


def test_projective_point_normalization():
    p = ProjectivePoint(np.array([-2.0, 4.0, 1.0]))
    assert np.max(np.abs(p.homogeneous)) == 1.0
    nz = p.homogeneous[np.nonzero(p.homogeneous)[0][0]]
    assert nz > 0
    same = ProjectivePoint(np.array([1.0, -2.0, -0.5]))
    assert np.max(np.abs(p.homogeneous - same.homogeneous)) <= 1e-9
    with pytest.raises(ValueError):
        ProjectivePoint(np.zeros(3))


def test_collinearity_defect_detects_bent_triples():
    line = [ProjectivePoint(np.array([1.0, t, 2 * t])) for t in (0.0, 0.25, 0.5, 0.75)]
    assert collinearity_defect(line) < 1e-14
    bent = line[:3] + [ProjectivePoint(np.array([1.0, 0.75, 2.0]))]
    assert collinearity_defect(bent) > 1e-3


def test_flat_geodesics_are_straight():
    flat = model_connection(2)
    pts = geodesic_trace(flat, np.array([0.1, 0.2]), np.array([0.3, -0.1]), 1.0, 10)
    expect = np.array([0.1, 0.2]) + np.outer(np.linspace(0, 1, 11), [0.3, -0.1])
    assert np.max(np.abs(pts - expect)) < 1e-13


def test_geodesic_integrator_is_fourth_order():
    sph = load_chart(chart_path("sphere2.chart"))
    x0 = np.array([0.0, 0.1])
    v0 = np.array([0.9, 0.2])
    ends = [geodesic_trace(sph, x0, v0, 0.8, steps)[-1]
            for steps in (10, 20, 40)]
    coarse = np.linalg.norm(ends[0] - ends[2])
    fine = np.linalg.norm(ends[1] - ends[2])
    assert coarse / fine > 12  # 16 for an exact fourth-order law


def test_reparametrized_connections_share_geodesic_traces():
    """A projective change bends parametrizations, never the curves."""
    sph = load_chart(chart_path("sphere2.chart"))
    twin = projective_change(sph, parse_alpha("a 1 = 0.4\na 2 = -0.2*x1\n", 2))
    x0, v0 = np.array([0.05, -0.1]), np.array([0.8, 0.5])
    dense = geodesic_trace(sph, x0, v0, 0.6, 600)
    other = geodesic_trace(twin, x0, v0, 0.45, 40)

    def dist_to_polyline(p):
        best = np.inf
        for q0, q1 in zip(dense[:-1], dense[1:]):
            d = q1 - q0
            t = np.clip(np.dot(p - q0, d) / np.dot(d, d), 0.0, 1.0)
            best = min(best, float(np.linalg.norm(p - (q0 + t * d))))
        return best

    assert max(dist_to_polyline(p) for p in other) < 1e-6


def test_unreachable_tolerance_fails_loudly(monkeypatch):
    sph = load_chart(chart_path("sphere2.chart"))
    monkeypatch.setattr(develop, "TRANSPORT_TOL", 1e-19)
    with pytest.raises(StepFailure, match=r"more than 1024 steps .* at x = \(0, 0\)"):
        cartan_transport(sph, [np.zeros(2), np.array([0.3, 0.1])])


def test_torsion_is_refused_at_the_first_failing_node():
    spec = chart_spec(3, {(0, 1, 2): "x1"})
    with pytest.raises(HasTorsion, match=r"torsion-free connection at x = \(0\.1, 0\.2, 0\.3\)$"):
        cartan_transport(spec, [[0.1, 0.2, 0.3], [0.2, 0.2, 0.3]])


def _reference_transport(spec, path, tol=1e-10):
    """Step-doubling adaptive RK4 with the connection evaluated one node at a
    time, when a step first needs it."""
    path = np.atleast_2d(np.asarray(path, dtype=float))
    phi = np.eye(spec.n + 1)
    for p0, p1 in zip(path[:-1], path[1:]):
        u = p1 - p0
        seg_len = float(np.linalg.norm(u))
        cache = {}

        def a(s):
            if s not in cache:
                cache[s] = _hat_matrix(spec.evaluate(p0 + s * u, derivs=1), u)
            return cache[s]

        def rk4(phi_in, t, h):
            k1 = phi_in @ a(t)
            k2 = (phi_in + 0.5 * h * k1) @ a(t + 0.5 * h)
            k3 = (phi_in + 0.5 * h * k2) @ a(t + 0.5 * h)
            k4 = (phi_in + h * k3) @ a(t + h)
            return phi_in + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        t, h = 0.0, 1.0
        while t < 1.0 - 1e-14:
            h = min(h, 1.0 - t)
            full = rk4(phi, t, h)
            half = rk4(rk4(phi, t, 0.5 * h), t + 0.5 * h, 0.5 * h)
            err = float(np.max(np.abs(full - half)))
            budget = tol * seg_len * h
            if err > budget:
                h *= 0.5
                assert h >= 1e-6, "reference step collapsed"
                continue
            phi = half
            t += h
            if err < 0.01 * budget:
                h *= 2.0
    return phi


def _changed_flat3():
    return projective_change(load_chart(chart_path("flat3.chart")),
                             load_alpha(chart_path("alpha3.alpha"), 3))


@pytest.mark.parametrize("make", [
    lambda: load_chart(chart_path("sphere3.chart")),
    lambda: load_chart(chart_path("witness3.chart")),
    _changed_flat3,
], ids=["sphere3", "witness3", "flat3-alpha3"])
def test_batched_transport_matches_node_by_node_reference(make):
    """The nested uniform grids agree with adaptive RK4 within the transport's
    own tol."""
    spec = make()
    x0, raw = np.zeros(3), np.array([0.3, -0.2, 0.25])
    mid = 0.5 * (x0 + raw) + np.array([0.04, 0.03, -0.02])
    develop_path = np.array([x0, mid, raw])
    for path in holonomy_loops(x0, seed=1)[:2] + [develop_path]:
        ref_phi = _reference_transport(spec, path)
        scale = float(np.max(np.abs(ref_phi)))
        assert np.max(np.abs(cartan_transport(spec, path) - ref_phi)) <= 1e-10 * scale


def _segment_frame(spec, p0, u, k):
    """The plain RK4 frame of K steps along p0 + t u, t in [0, 1]."""
    t = np.linspace(0.0, 1.0, 2 * k + 1)
    return _rk4_frame(_hat_matrix(spec.evaluate_many(p0 + t[:, None] * u, derivs=1), u))


def _romberg_frame(frame, k):
    """E2 at K from the RK4 frames frame(K/4), frame(K/2) and frame(K)."""
    quarter, half, full = frame(k // 4), frame(k // 2), frame(k)
    e1_half = half + (half - quarter) / 15.0
    e1 = full + (full - half) / 15.0
    return e1 + (e1 - e1_half) / 31.0


_SEGMENT = np.array([0.1, -0.2, 0.05]), np.array([0.3, 0.25, -0.2])


def test_rk4_frame_is_fourth_order():
    """|Phi_K - Phi_2K| on one sphere3 segment falls ~16x per doubling of K."""
    spec = load_chart(chart_path("sphere3.chart"))
    frames = {k: _segment_frame(spec, *_SEGMENT, k) for k in (2, 4, 8, 16, 32)}
    diffs = [np.max(np.abs(frames[k] - frames[2 * k])) for k in (2, 4, 8, 16)]
    assert all(coarse / fine >= 12 for coarse, fine in zip(diffs, diffs[1:]))


def test_romberg_frame_is_sixth_order():
    """On the same segment the E2 error against a K = 2048 E2 falls >= 48x per
    doubling of K (64 for an exact sixth-order law; plain RK4 gives ~15)."""
    spec = load_chart(chart_path("sphere3.chart"))
    p0, u = _SEGMENT
    t = np.linspace(0.0, 1.0, 4097)
    nodes = _hat_matrix(spec.evaluate_many(p0 + t[:, None] * u, derivs=1), u)

    def frame(k):  # the nodes of K steps are every (2048 / K)-th of 2048's
        return _rk4_frame(nodes[::2048 // k])

    reference = _romberg_frame(frame, 2048)
    errors = [np.max(np.abs(_romberg_frame(frame, k) - reference)) for k in (8, 16, 32, 64)]
    assert all(coarse / fine >= 48 for coarse, fine in zip(errors, errors[1:]))


def test_segment_keeps_e2_at_the_first_settled_step_count():
    """A segment keeps E2 at the first K whose E2 agrees with E2 at K/2 to
    tol * length (E2 is first defined at K = 4); a zero-length segment gives I."""
    spec = load_chart(chart_path("sphere3.chart"))
    a, b = np.zeros(3), np.array([0.2, 0.1, -0.1])
    e2 = {k: _romberg_frame(lambda m: _segment_frame(spec, a, b - a, m), k)
          for k in (4, 8, 16, 32, 64)}
    settled = next(k for k in (8, 16, 32, 64)
                   if np.max(np.abs(e2[k] - e2[k // 2])) <= 1e-10 * np.linalg.norm(b - a))
    assert np.max(np.abs(cartan_transport(spec, [a, a, b, b]) - e2[settled])) <= 1e-14
    eye = np.eye(4)
    assert np.array_equal(cartan_transport(spec, [a]), eye)
    assert np.array_equal(cartan_transport(spec, [a, a]), eye)


def test_batching_does_not_change_a_path(monkeypatch):
    """Each path's frame from one transport_many call is its frame run alone,
    although the segments settle at different step counts."""
    spec = load_chart(chart_path("sphere3.chart"))
    x0 = np.zeros(3)
    paths = holonomy_loops(x0, seed=1)[:2] + [
        [x0, np.array([0.3, -0.2, 0.25])], [x0, x0], [x0, np.array([0.01, 0.0, 0.0])]]
    # K -> segments that asked for the K new nodes of K steps (K = 1's three nodes
    # count as 3; the first call asks for the levels up to K = 8, where E2 is first
    # compared)
    unfinished = Counter()
    hat_nodes = develop._hat_nodes

    def counted(spec, starts, dirs, levels):
        for t in levels:
            unfinished[t.size] += len(starts)
        return hat_nodes(spec, starts, dirs, levels)

    monkeypatch.setattr(develop, "_hat_nodes", counted)
    together = transport_many(spec, paths)
    settled = {k for k in unfinished if k >= 8 and unfinished[k] > unfinished[2 * k]}
    assert len(settled) >= 3
    for path, frame in zip(paths, together):
        alone = cartan_transport(spec, path)
        scale = float(np.max(np.abs(alone)))
        assert np.max(np.abs(frame - alone)) <= 1e-13 * scale


def test_segment_blocks_do_not_change_a_frame(monkeypatch):
    """Frames from segment blocks of four are bit for bit those of one block."""
    spec = load_chart(chart_path("sphere3.chart"))
    x0 = np.zeros(3)
    paths = holonomy_loops(x0, seed=1)[:2] + [
        [x0, np.array([0.3, -0.2, 0.25])], [x0, x0], [x0, np.array([0.01, 0.0, 0.0])]]
    unblocked = transport_many(spec, paths)
    monkeypatch.setattr(develop, "SEGMENT_ENTRIES", 4 * (2 * develop.MAX_STEPS + 1) * 16)
    blocked = transport_many(spec, paths)  # 10 moving segments: blocks of 4, 4 and 2
    assert np.array_equal(unblocked, blocked)


def test_transport_memory_does_not_grow_with_the_paths():
    """Past one block of segments (113 at n = 2), more paths take no more memory."""
    spec = load_chart(chart_path("sphere2.chart"))
    rng = np.random.default_rng(0)

    def peak(count):
        paths = [[np.zeros(2), x] for x in rng.uniform(-0.3, 0.3, (count, 2))]
        tracemalloc.start()
        try:
            transport_many(spec, paths)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = peak(120)
    assert one_block <= 3e6
    assert peak(360) <= 1.1 * one_block


def _evaluation_record(monkeypatch, run):
    """Call sizes of every evaluate_many made by run(), and its tracemalloc peak."""
    sizes = []
    evaluate_many = ConnectionSpec.evaluate_many

    def counted(self, points, derivs=1):
        sizes.append(len(points))
        return evaluate_many(self, points, derivs)

    monkeypatch.setattr(ConnectionSpec, "evaluate_many", counted)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sizes, peak


def test_failing_tolerance_evaluates_in_small_batches(monkeypatch):
    """A segment that never converges is refined up to the step cap in calls of
    at most BLOCK_ENTRIES // (2 n^4 + 12 n^3) nodes, the width of _hat_nodes,
    in bounded memory."""
    sph = load_chart(chart_path("sphere2.chart"))
    monkeypatch.setattr(develop, "TRANSPORT_TOL", 1e-19)

    def run():
        with pytest.raises(StepFailure):
            cartan_transport(sph, [np.zeros(2), np.array([0.3, 0.1])])

    sizes, peak = _evaluation_record(monkeypatch, run)
    assert max(sizes) <= BLOCK_ENTRIES // (2 * 2 ** 4 + 12 * 2 ** 3)
    assert peak <= 1e6


def test_flatness_certificate_evaluates_in_few_calls(monkeypatch):
    """On the round metric each certificate takes one first pass of the 17 nodes
    of K = 8 per distinct segment, then the odd nodes of the few unsettled ones,
    in blocks of BLOCK_ENTRIES // (2 n^4 + 12 n^3) nodes: 2048, 539 and 204."""
    for n, calls, nodes in ((2, 3, 686), (3, 3, 1339), (4, 9, 1339)):
        sizes, peak = _evaluation_record(
            monkeypatch, lambda: flatness_defect(model_metric(n), np.zeros(n), seed=0))
        assert len(sizes) <= calls and sum(sizes) <= nodes
        assert peak <= 3e6
        monkeypatch.undo()


def _segments(paths):
    """The (start, direction) pairs of the moving segments of the paths."""
    return [(tuple(p), tuple(q - p)) for path in paths
            for p, q in zip(path[:-1], path[1:]) if np.any(q != p)]


def test_repeated_paths_are_transported_once(monkeypatch):
    """transport_many on the paths twice gives two bit-equal halves, each the
    frames of the paths given once, and evaluates no node more."""
    spec = load_chart(chart_path("sphere3.chart"))
    x0 = np.zeros(3)
    paths = holonomy_loops(x0, seed=1)[:3] + [[x0, np.array([0.3, -0.2, 0.25])], [x0, x0]]
    frames = {}

    def run(copies):
        frames[copies] = transport_many(spec, paths * copies)

    once, _ = _evaluation_record(monkeypatch, lambda: run(1))
    monkeypatch.undo()
    twice, _ = _evaluation_record(monkeypatch, lambda: run(2))
    assert twice == once  # the sizes of the evaluate_many calls
    assert np.array_equal(frames[2][:len(paths)], frames[2][len(paths):])
    assert np.array_equal(frames[2][:len(paths)], frames[1])


def test_plane_certificate_evaluates_17_nodes_per_distinct_segment(monkeypatch):
    """At n = 2 every loop lies in the plane (1, 2), so the eight loops are at
    most four (two sizes, two signs), and their distinct moving segments take
    one first pass of the 17 nodes of K = 8 each."""
    x0 = np.zeros(2)
    loops = holonomy_loops(x0, seed=0)
    assert len({loop.tobytes() for loop in loops}) == 4
    distinct = set(_segments(loops))
    assert len(_segments(loops)) == 32
    assert len(distinct) == 14  # per side length, the two signs share the side x0 + e2 -> x0
    first_pass = []
    hat_nodes = develop._hat_nodes

    def recorded(spec, starts, dirs, levels):
        first_pass.append((len(starts), sum(t.size for t in levels)))
        return hat_nodes(spec, starts, dirs, levels)

    monkeypatch.setattr(develop, "_hat_nodes", recorded)
    sizes, _ = _evaluation_record(monkeypatch, lambda: flatness_defect(model_metric(2), x0, seed=0))
    assert first_pass[0] == (len(distinct), 17)
    assert sizes[0] == 17 * len(distinct)  # one evaluate_many at n = 2


def _level_by_level_frames(spec, starts, dirs, budget):
    """The Romberg loop that evaluates each level when its doubling asks for it:
    K = 1's three nodes, then the new odd nodes of the unfinished segments. Also
    returns the largest K it reached."""
    frames = np.empty((len(dirs), spec.n + 1, spec.n + 1))
    todo = np.arange(len(dirs))
    a = develop._hat_nodes(spec, starts, dirs, [np.linspace(0.0, 1.0, 3)])
    row, k = [_rk4_frame(a)], 1
    while todo.size:
        k *= 2
        t = (2 * np.arange(k) + 1) / (2 * k)
        new = develop._hat_nodes(spec, starts[todo], dirs[todo], [t])
        a = np.insert(a, range(1, k + 1), new, axis=1)
        prev, row = row, [_rk4_frame(a)]
        for j, coarse in enumerate(prev[:2]):
            row.append(row[j] + (row[j] - coarse) / (2 ** (j + 4) - 1))
        if len(prev) < 3:
            continue
        done = np.abs(row[2] - prev[2]).max(axis=(-2, -1)) <= budget[todo]
        frames[todo[done]] = row[2][done]
        todo, a, row = todo[~done], a[~done], [r[~done] for r in row]
    return frames, k


def test_first_pass_frames_equal_the_level_by_level_loop():
    """Taking the nodes up to K = 8 in one pass changes no bit of a frame, also
    for a segment that settles past K = 8."""
    spec = load_chart(chart_path("sphere3.chart"))
    x0 = np.zeros(3)
    paths = holonomy_loops(x0, seed=1) + [[x0, np.array([0.3, -0.2, 0.25])]]
    starts, dirs = (np.array(c) for c in zip(*_segments(paths)))
    budget = develop.TRANSPORT_TOL * np.linalg.norm(dirs, axis=1)
    reference, reached = _level_by_level_frames(spec, starts, dirs, budget)
    assert reached > 8
    assert np.array_equal(develop._romberg_frames(spec, starts, dirs, budget), reference)
