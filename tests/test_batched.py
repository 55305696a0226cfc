"""The curvature algebra on stacked points against the same calls one point at a time."""

import numpy as np
import pytest

from conftest import CHARTS, chart_path
from projgeo.algebra import NotAntisymmetric, NotBianchi, cotton, torsion_split, weyl
from projgeo.connection import (curvature, curvature_derivative, load_chart, ricci,
                                second_bianchi_residual, torsion, trace2form)
from projgeo.projective import sample_points
from projgeo.tensor import TensorValue, contract, norm, swap


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
    np.testing.assert_array_equal(contract(t, 0, 2).data, np.einsum("pkik->pi", data))
    np.testing.assert_array_equal(swap(t, 1, 2).data, data.transpose(0, 1, 3, 2))
    assert norm(t) == float(np.abs(data).max())
    with pytest.raises(ValueError):
        TensorValue(3, ("up", "down"), np.zeros((5, 3, 2)))
