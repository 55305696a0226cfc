"""The curvature algebra on stacked points against the same calls one point at a time."""

import tracemalloc

import numpy as np
import pytest

from conftest import CHARTS, chart_path, model_metric, random_alpha, random_torsionfree_spec
from projgeo import develop, projective, twistor
from projgeo.algebra import NotAntisymmetric, NotBianchi, cotton, torsion_split, weyl
from projgeo.connection import (BLOCK_ENTRIES, curvature, curvature_derivative, load_chart,
                                point_blocks, ricci, second_bianchi_residual, torsion,
                                trace2form)
from projgeo.projective import (check_weyl_invariance, projective_change,
                                projectively_equivalent, remove_torsion, sample_points)
from projgeo.tensor import TensorValue, norm


def _assert_row_matches(stacked, single):
    scale = max(1.0, float(np.max(np.abs(single))))
    np.testing.assert_allclose(stacked, single, rtol=0.0, atol=1e-13 * scale)


def _quantities(cv, derivs):
    """Every algebra result the point's connection data supports, by name."""
    t = torsion(cv)
    out = {"torsion": t.data}
    if derivs == 0:
        return out
    r = curvature(cv)
    out.update(curvature=r.data, ricci=ricci(r).data, trace2form=trace2form(r).data)
    if derivs == 2:
        out.update(curvature_derivative=curvature_derivative(cv),
                   second_bianchi=second_bianchi_residual(cv).data)
    if norm(t) > 1e-10:
        return out
    w, q, f = weyl(r)
    out.update(W=w.data, Q=q.data, F=f.data)
    if derivs == 2:
        out.update(cotton=cotton(cv, tol=1e-10).data)
    return out


@pytest.mark.parametrize("derivs", (0, 1, 2))
@pytest.mark.parametrize("path", sorted(CHARTS.glob("*.chart")), ids=lambda p: p.name)
def test_stacked_rows_match_single_points(path, derivs):
    spec = load_chart(path)
    points = sample_points(spec.n, 6, seed=9)
    stacked = _quantities(spec.evaluate_many(points, derivs=derivs), derivs)
    for r, p in enumerate(points):
        single = _quantities(spec.evaluate(p, derivs=derivs), derivs)
        assert single.keys() == stacked.keys()
        for name, data in single.items():
            assert stacked[name].shape == (len(points),) + data.shape, name
            _assert_row_matches(stacked[name][r], data)


def test_bianchi_check_measures_each_point_on_its_own_scale():
    spec = load_chart(chart_path("sphere3.chart"))
    big = 1e6 * curvature(spec.evaluate(np.array([0.1, 0.2, -0.1]), derivs=1)).data
    small = 1e-6 * np.random.default_rng(0).standard_normal((3,) * 4)
    variance = ("up", "down", "down", "down")
    weyl(TensorValue(3, variance, big))
    with pytest.raises(NotBianchi):
        weyl(TensorValue(3, variance, small))
    # a scale taken over the whole stack would let the small row through
    with pytest.raises(NotBianchi, match=r"at x = \(0\.5, 0, 0\)"):
        weyl(TensorValue(3, variance, np.stack([big, small])), points=[[0, 0, 0], [0.5, 0, 0]])


def test_antisymmetry_check_measures_each_point_on_its_own_scale():
    rng = np.random.default_rng(1)
    w = 1e6 * rng.standard_normal((3, 3, 3))
    big = w - w.transpose(0, 2, 1)
    small = 1e-6 * rng.standard_normal((3, 3, 3))
    torsion_split(TensorValue(3, ("up", "down", "down"), big))
    with pytest.raises(NotAntisymmetric):
        torsion_split(TensorValue(3, ("up", "down", "down"), np.stack([big, small])))


def test_slot_operations_address_trailing_axes():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((5, 3, 3, 3))
    t = TensorValue(3, ("up", "down", "down"), data)
    assert norm(t) == float(np.abs(data).max())
    with pytest.raises(ValueError):
        TensorValue(3, ("up", "down"), np.zeros((5, 3, 2)))


# the widths the callers of point_blocks pass at n = 2..6 (see BLOCK_ENTRIES),
# widths around the budget and around 2^15, and a few others
WIDTHS = sorted({w for n in range(2, 7) for w in (
    8 * n ** 4, 8 * n ** 5, 2 * n ** 4 + 12 * n ** 3, 8 * n ** 3)} | {
    1, 3, 81, 1296, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1,
    BLOCK_ENTRIES - 1, BLOCK_ENTRIES, BLOCK_ENTRIES + 1, 10 ** 6})


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("count", (1, 7, 161, 300, 40_000))
def test_blocks_hold_the_entry_budget_and_cover_the_rows(width, count):
    rows = np.arange(3.0 * count).reshape(count, 3)
    blocks = point_blocks(rows, width)
    assert all(len(b) * width <= BLOCK_ENTRIES or len(b) == 1 for b in blocks)
    assert all(len(b) == len(blocks[0]) for b in blocks[:-1])
    assert np.array_equal(np.concatenate(blocks), rows)


def _block_rule_cases():
    rng = np.random.default_rng(4)
    cases = {name: load_chart(chart_path(name)) for name in
             ("sphere2.chart", "sphere3.chart", "witness4.chart")}
    cases["christoffel3"] = random_torsionfree_spec(3, rng)
    return [pytest.param(spec, random_alpha(spec.n, rng), id=name)
            for name, spec in cases.items()]


def _per_point_residuals(spec, changed, points):
    """The invariance and equivalence residuals of each point on its own, and the
    recovered alphas: the oracle for the blocked walks."""
    n = spec.n
    derivs = 2 if n == 2 else 1
    weyls, cottons, diffs = [], [], []
    for p in points:
        cv_a, cv_b = (s.evaluate_many(p[None], derivs) for s in (spec, changed))
        weyls.append(np.max(np.abs(weyl(curvature(cv_a)).W.data - weyl(curvature(cv_b)).W.data)))
        if n == 2:
            c_a, c_b = cotton(cv_a, tol=1e-10), cotton(cv_b, tol=1e-10)
            cottons.append(np.max(np.abs(c_a.data - c_b.data)))
        diffs.append(cv_b.gamma - cv_a.gamma)
    d = np.concatenate(diffs)
    alphas = np.einsum("...kik->...i", d) / (n + 1)
    eye = np.eye(n)
    recon = np.einsum("...i,kj->...kij", alphas, eye) + np.einsum("...j,ki->...kij", alphas, eye)
    return (np.array(weyls), np.array(cottons),
            np.max(np.abs(d - recon), axis=(1, 2, 3)), alphas)


@pytest.mark.parametrize("spec, alpha", _block_rule_cases())
def test_blocked_residuals_are_the_per_point_ones_bit_for_bit(spec, alpha):
    changed = projective_change(spec, alpha)
    points = sample_points(spec.n, 300, seed=5)
    weyls, cottons, equivalence, alphas = _per_point_residuals(spec, changed, points)
    for count in (1, 7, 161, 300):
        inv = check_weyl_invariance(spec, alpha, points[:count], tol=1e-10)
        eq = projectively_equivalent(spec, changed, points[:count], tol=1e-8)
        assert inv.weyl_residual == np.max(weyls[:count])
        if spec.n == 2:
            assert inv.cotton_residual == np.max(cottons[:count])
        assert eq.residual == np.max(equivalence[:count])
        assert np.array_equal(eq.alphas, alphas[:count])


# (one block's memory) each caller of point_blocks, on one full block of the
# rows its width gives, peaks within BLOCK_ENTRIES float64 entries


def _chart(kind, n):
    if kind == "metric":
        return model_metric(n)
    return random_torsionfree_spec(n, np.random.default_rng(n))


def _one_block_peak(monkeypatch, module, prepare):
    """The tracemalloc peak of the call prepare(rows) returns, rows the block
    size of the width that `module` passes to point_blocks; a first call
    prepare(1)() learns that width and compiles the tapes."""
    widths = []

    def spy(points, width):
        widths.append(width)
        return point_blocks(points, width)

    monkeypatch.setattr(module, "point_blocks", spy)
    prepare(1)()
    run = prepare(max(1, BLOCK_ENTRIES // widths[0]))
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


DIMS = pytest.mark.parametrize("n", (2, 3, 4, 6))
KINDS = pytest.mark.parametrize("kind", ("metric", "christoffel"))


@DIMS
@KINDS
def test_invariance_block_peaks_within_the_budget(monkeypatch, kind, n):
    spec, alpha = _chart(kind, n), random_alpha(n, np.random.default_rng(1))

    def prepare(rows):
        points = sample_points(n, rows, seed=2)
        return lambda: check_weyl_invariance(spec, alpha, points, tol=1e-8)

    assert _one_block_peak(monkeypatch, projective, prepare) <= 8 * BLOCK_ENTRIES


@DIMS
@KINDS
def test_gamma_difference_block_peaks_within_the_budget(monkeypatch, kind, n):
    spec = _chart(kind, n)
    changed = projective_change(spec, random_alpha(n, np.random.default_rng(1)))

    def prepare(rows):
        points = sample_points(n, rows, seed=2)
        return lambda: projective._gamma_difference(spec, changed, points)

    assert _one_block_peak(monkeypatch, projective, prepare) <= 8 * BLOCK_ENTRIES


@KINDS
def test_equivalence_peaks_within_the_budget_at_many_points(kind):
    """projectively_equivalent reduces alpha and its residual block by block,
    so at 8,192 points, n = 4 (16 blocks of 512 rows), only
    the alphas outlive a block."""
    spec = _chart(kind, 4)
    changed = projective_change(spec, random_alpha(4, np.random.default_rng(1)))
    points = sample_points(4, 8192, seed=2)
    projectively_equivalent(spec, changed, points[:1], tol=1e-8)  # compiles the tapes
    tracemalloc.start()
    try:
        projectively_equivalent(spec, changed, points, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * BLOCK_ENTRIES


@DIMS
def test_torsion_removal_block_peaks_within_the_budget(monkeypatch, n):
    """remove_torsion walks its 5 seeded points; it returns a metric chart as it is."""
    spec = _chart("christoffel", n)
    assert _one_block_peak(monkeypatch, projective,
                           lambda rows: lambda: remove_torsion(spec)) <= 8 * BLOCK_ENTRIES


@DIMS
@KINDS
def test_transport_node_block_peaks_within_the_budget(monkeypatch, kind, n):
    spec = _chart(kind, n)

    def prepare(rows):
        starts, dirs = np.full((1, n), -0.1), np.full((1, n), 0.2)
        return lambda: develop._hat_nodes(spec, starts, dirs, [np.linspace(0.0, 1.0, rows)])

    assert _one_block_peak(monkeypatch, develop, prepare) <= 8 * BLOCK_ENTRIES


@pytest.mark.parametrize("n", (2, 4, 6))  # twistor samples need an even dimension
@KINDS
def test_nijenhuis_block_peaks_within_the_budget(monkeypatch, kind, n):
    spec = _chart(kind, n)
    pairs = twistor.coordinate_pairs(n + n * n // 2, 2, np.random.default_rng(3))

    def prepare(rows):
        tps = twistor.sample_twistor_points(n, rows, np.random.default_rng(4))
        return lambda: twistor.nijenhuis(spec, tps, pairs)

    assert _one_block_peak(monkeypatch, twistor, prepare) <= 8 * BLOCK_ENTRIES
