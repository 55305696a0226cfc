import numpy as np
import pytest

from projgeo.tensor import TensorValue, alt2, norm, sym2


def _rand(n, variance, seed=0):
    rng = np.random.default_rng(seed)
    return TensorValue(n, variance, rng.standard_normal((n,) * len(variance)))


def test_shape_must_match_rank():
    with pytest.raises(ValueError):
        TensorValue(3, ("up", "down"), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        TensorValue(3, ("up",), np.zeros((4,)))


def test_dimension_bounds():
    with pytest.raises(ValueError):
        TensorValue(0, (), np.zeros(()))
    with pytest.raises(ValueError):
        TensorValue(9, ("up",), np.zeros(9))


def test_variance_labels_checked():
    with pytest.raises(ValueError):
        TensorValue(2, ("up", "sideways"), np.zeros((2, 2)))


def test_sym_alt_decompose_the_pair():
    single = _rand(3, ("down", "down"), seed=3)
    stack = TensorValue(3, ("down", "down"), np.random.default_rng(4).standard_normal((5, 3, 3)))
    for t in (single, stack):
        s = sym2(t)
        a = alt2(t)
        assert np.allclose(s.data + a.data, t.data)
        assert np.allclose(s.data, np.swapaxes(s.data, -1, -2))
        assert np.allclose(a.data, -np.swapaxes(a.data, -1, -2))
        # projections: applying twice changes nothing
        assert np.allclose(alt2(a).data, a.data)
        assert np.allclose(sym2(s).data, s.data)
        assert norm(alt2(s)) < 1e-15
    with pytest.raises(ValueError, match="equal variance"):
        alt2(_rand(3, ("down", "up")))


def test_norm_is_max_abs():
    t = TensorValue(2, ("down",), np.array([0.25, -1.75]))
    assert norm(t) == 1.75

