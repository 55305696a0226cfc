import numpy as np
import pytest

from projgeo.tensor import (SlotOutOfRange, TensorValue, VarianceMismatch,
                            alt2, norm, swap, sym2)


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


def test_slot_checks():
    t = _rand(3, ("up", "down"))
    with pytest.raises(SlotOutOfRange):
        swap(t, 0, 2)
    with pytest.raises(SlotOutOfRange):
        swap(t, 1, 1)


def test_swap_permutes_data():
    t = _rand(3, ("down", "up", "down"), seed=2)
    got = swap(t, 0, 2)
    assert got.variance == ("down", "up", "down")
    assert np.array_equal(got.data, t.data.transpose(2, 1, 0))
    with pytest.raises(VarianceMismatch):
        swap(t, 0, 1)


def test_sym_alt_decompose_the_pair():
    t = _rand(3, ("down", "down", "up"), seed=3)
    s = sym2(t, 0, 1)
    a = alt2(t, 0, 1)
    assert np.allclose(s.data + a.data, t.data)
    assert np.allclose(s.data, s.data.transpose(1, 0, 2))
    assert np.allclose(a.data, -a.data.transpose(1, 0, 2))
    # projections: applying twice changes nothing
    assert np.allclose(alt2(a, 0, 1).data, a.data)
    assert np.allclose(sym2(s, 0, 1).data, s.data)
    assert norm(alt2(s, 0, 1)) < 1e-15


def test_norm_is_max_abs():
    t = TensorValue(2, ("down",), np.array([0.25, -1.75]))
    assert norm(t) == 1.75

