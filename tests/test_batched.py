"""The curvature algebra on stacked points against the same calls one point at a time."""

import numpy as np
import pytest

from conftest import CHARTS, chart_path, random_alpha, random_torsionfree_spec
from projgeo.algebra import NotAntisymmetric, NotBianchi, cotton, torsion_split, weyl
from projgeo.connection import (BLOCK_ENTRIES, curvature, curvature_derivative, load_chart,
                                point_blocks, ricci, second_bianchi_residual, torsion,
                                trace2form)
from projgeo.projective import (check_weyl_invariance, projective_change,
                                projectively_equivalent, sample_points)
from projgeo.tensor import TensorValue, norm, swap


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
        out.update(cotton=cotton(cv).data)
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
    big = 1e6 * curvature(spec.evaluate(np.array([0.1, 0.2, -0.1]))).data
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
    np.testing.assert_array_equal(swap(t, 1, 2).data, data.transpose(0, 1, 3, 2))
    assert norm(t) == float(np.abs(data).max())
    with pytest.raises(ValueError):
        TensorValue(3, ("up", "down"), np.zeros((5, 3, 2)))


@pytest.mark.parametrize("width", (1, 3, 81, 1296, BLOCK_ENTRIES - 1, BLOCK_ENTRIES,
                                   BLOCK_ENTRIES + 1, 10 ** 6))
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
            cottons.append(np.max(np.abs(cotton(cv_a).data - cotton(cv_b).data)))
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
        inv = check_weyl_invariance(spec, alpha, points[:count])
        eq = projectively_equivalent(spec, changed, points[:count])
        assert inv.weyl_residual == np.max(weyls[:count])
        if spec.n == 2:
            assert inv.cotton_residual == np.max(cottons[:count])
        assert eq.residual == np.max(equivalence[:count])
        assert np.array_equal(eq.alphas, alphas[:count])
