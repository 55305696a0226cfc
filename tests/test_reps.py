"""Weight combinatorics, dimension counts and the eigenvalue census."""

import itertools

import numpy as np
import pytest

import census_reference
from census_reference import _antisymmetric_basis, _curvature_pieces, _lie_action, projector_census
from projgeo import reps
from projgeo.algebra import torsion_split
from projgeo.connection import point_blocks
from projgeo.reps import (NotDominant, WeightVector, curvature_component_weights,
                          decompose_with, fundamental, j0_census,
                          torsion_component_weights, weights_of_V, weyl_dim)
from projgeo.tensor import OddDimension, TensorValue
from projgeo.twistor import standard_complex_structure


def test_weight_vector_arithmetic_and_rendering():
    w1 = fundamental(1, 4)
    w3 = fundamental(3, 4)
    assert str(w1 + w3) == "w1+w3"
    assert str(w1 + w1) == "2*w1"
    assert str(-w1 + w3) == "-w1+w3"
    assert str(fundamental(0, 4)) == "0"
    assert (w1 + w3).dominant
    assert not (-w1 + w3).dominant


def test_fundamental_bounds():
    with pytest.raises(ValueError):
        fundamental(4, 4)
    with pytest.raises(ValueError):
        fundamental(-1, 4)


def test_standard_weights_and_duals():
    assert [str(w) for w in weights_of_V(3)] == ["w1", "-w1+w2", "-w2"]
    for n in (2, 3, 4, 5):
        total = weights_of_V(n)[0]
        for w in weights_of_V(n)[1:]:
            total = total + w
        assert str(total) == "0"


def test_tensor_decomposition_requires_dominant_weight():
    with pytest.raises(NotDominant):
        decompose_with(-fundamental(1, 4), 4)


def test_decompose_reproduces_known_products():
    # symmetric plus alternating split of V tensor V
    got = decompose_with(fundamental(1, 5), 5)
    assert sorted(str(w) for w in got) == ["2*w1", "w2"]


def test_weyl_dimension_formula():
    for n in (2, 3, 4, 5, 6):
        assert weyl_dim(fundamental(1, n), n) == n
        assert weyl_dim(fundamental(0, n), n) == 1
        # adjoint representation
        adj = fundamental(1, n) + fundamental(n - 1, n)
        assert weyl_dim(adj, n) == n * n - 1
    assert weyl_dim(WeightVector((1, 1)), 3) == 8
    assert weyl_dim(WeightVector((2, 0)), 3) == 6
    assert weyl_dim(WeightVector((1, 0, 1)), 4) == 15


def test_component_dimensions_fill_their_spaces():
    for n in (3, 4, 5, 6):
        t_dim = sum(weyl_dim(w, n) for w in torsion_component_weights(n))
        assert t_dim == n * n * (n - 1) // 2
        weights = curvature_component_weights(n)
        full = n * n * n * (n - 1) // 2
        alternating = n * n * (n - 1) * (n - 2) // 6
        assert sum(weyl_dim(w, n) for w in weights) == full
        # the last three components always fill the kernel of the cyclic
        # sum; whatever precedes them is the fully alternating branch
        assert sum(weyl_dim(w, n) for w in weights[-3:]) == full - alternating
        assert sum(weyl_dim(w, n) for w in weights[:-3]) == alternating


def test_component_lists_small_dimensions():
    assert [str(w) for w in torsion_component_weights(4)] == ["w1+w2", "w3"]
    assert [str(w) for w in curvature_component_weights(4)] == [
        "2*w1", "w2", "w1+w2+w3", "2*w3", "w2"]
    assert [str(w) for w in curvature_component_weights(6)] == [
        "w1+w3", "w4", "w1+w4+w5", "2*w5", "w4"]


def test_curvature_components_need_three_dimensions():
    with pytest.raises(ValueError):
        curvature_component_weights(2)


def test_census_rejects_odd_or_unsupported_dimensions():
    with pytest.raises(OddDimension):
        j0_census("torsion", 5)
    with pytest.raises(ValueError):
        j0_census("torsion", 2)
    with pytest.raises(ValueError):
        j0_census("weyl", 4)


def _spectrum_table(space, n):
    return {(str(c.highest), c.dim): dict(sorted(c.spectrum.items()))
            for c in j0_census(space, n)}


def test_torsion_census_dimension_four():
    got = _spectrum_table("torsion", 4)
    assert got[("w1+w2", 20)] == {-3: 2, -1: 8, 1: 8, 3: 2}
    assert got[("w3", 4)] == {-1: 2, 1: 2}


def test_curvature_census_dimension_four():
    got = _spectrum_table("curvature", 4)
    assert got[("w1+w2+w3", 64)] == {-4: 4, -2: 16, 0: 24, 2: 16, 4: 4}
    assert got[("2*w1", 10)] == {-2: 3, 0: 4, 2: 3}
    assert got[("2*w3", 10)] == {-2: 3, 0: 4, 2: 3}
    assert got[("w2", 6)] == {-2: 1, 0: 4, 2: 1}


def test_census_dimension_six():
    torsion = _spectrum_table("torsion", 6)
    assert torsion[("w1+w4", 84)][3] == 9
    assert torsion[("w5", 6)] == {-1: 3, 1: 3}
    curv = _spectrum_table("curvature", 6)
    assert curv[("w1+w4+w5", 384)][4] == 24
    # the fully alternating branch also reaches 4 in six dimensions
    assert curv[("w1+w3", 105)][4] == 3
    assert 4 not in curv[("2*w5", 21)]
    assert 4 not in curv[("w4", 15)]


def test_census_spectra_are_symmetric_and_complete():
    for space, n in (("torsion", 4), ("curvature", 4), ("torsion", 6), ("curvature", 6)):
        for comp in j0_census(space, n):
            assert sum(comp.spectrum.values()) == comp.dim
            for k, mult in comp.spectrum.items():
                assert comp.spectrum.get(-k) == mult


def test_extreme_speed_eigenvalue_sits_on_one_torsion_piece_only():
    for n in (4, 6):
        comps = j0_census("torsion", n)
        with_three = [str(c.highest) for c in comps if 3 in c.spectrum]
        assert with_three == [str(fundamental(1, n) + fundamental(n - 2, n))]


def _reference_matrix_of(linear, basis, n, rank, width):
    """The matrix of `linear` on the basis rows, applied in blocks of rows
    that each hold `width` entries."""
    variance = ("up",) + ("down",) * (rank - 1)
    out = np.empty((len(basis), len(basis)))
    start = 0
    for block in point_blocks(basis, width):
        image = linear(TensorValue(n, variance, block.reshape((-1,) + (n,) * rank))).data
        out[:, start:start + len(block)] = basis @ image.reshape(len(block), -1).T
        start += len(block)
    return out


def _reference_census(space, n):
    """An independent census: each component's image from an SVD of its projector
    matrix, and each multiplicity from the rank defect of (M - ik I) on it."""
    if space == "torsion":
        rank, pieces, labels = 3, torsion_split, torsion_component_weights(n)
    else:
        rank, pieces, labels = 4, _curvature_pieces, curvature_component_weights(n)
    basis = _antisymmetric_basis(n, rank)
    j0 = standard_complex_structure(n)
    action = _reference_matrix_of(lambda a: _lie_action(j0, a), basis, n, rank,
                                  census_reference.action_width(n, rank))
    out = []
    for index, label in enumerate(labels):
        cols = _reference_matrix_of(lambda a: pieces(a)[index], basis, n, rank,
                                    census_reference.piece_width(n, rank))
        u, sv, _ = np.linalg.svd(cols)
        d = int(np.sum(sv > 1e-8))
        comp = u[:, :d]
        m = comp.T @ action @ comp
        spectrum = {}
        for k in range(0, rank + 1):
            defect = d - np.linalg.matrix_rank(m - 1j * k * np.eye(d), tol=1e-8)
            if defect > 0:
                spectrum[k] = spectrum[-k] = int(defect)
        out.append((str(label), d, dict(sorted(spectrum.items()))))
    return out


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("space", ["torsion", "curvature"])
def test_census_matches_the_rank_defect_reference(space, n):
    got = [(str(c.highest), c.dim, c.spectrum) for c in j0_census(space, n)]
    assert got == _reference_census(space, n)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("space", ["torsion", "curvature"])
def test_projector_census_matches_the_tableau_count(space, n):
    assert projector_census(space, n) == j0_census(space, n)


def test_census_refuses_a_piece_that_is_not_idempotent(monkeypatch):
    def doubled_trace_free(t):
        t1, t2 = torsion_split(t)
        return TensorValue(t.n, t.variance, 2.0 * t1.data), t2

    monkeypatch.setattr(census_reference, "torsion_split", doubled_trace_free)
    with pytest.raises(ValueError, match="dimension 40, expected 20"):
        projector_census("torsion", 4)


def test_census_refuses_a_structure_whose_square_is_not_minus_one(monkeypatch):
    monkeypatch.setattr(census_reference, "standard_complex_structure",
                        lambda n: 1.5 * standard_complex_structure(n))
    with pytest.raises(ValueError, match="eigenvalue of A\\^T A"):
        projector_census("torsion", 4)


def test_census_refuses_a_tableau_count_off_the_dimension_formula(monkeypatch):
    monkeypatch.setattr(reps, "weyl_dim", lambda hw, n: weyl_dim(hw, n) + 1)
    with pytest.raises(ValueError, match="tableau count for w1\\+w2 is 20, expected 21"):
        j0_census("torsion", 4)


def _dominant_weights(n, size):
    """Every dominant weight of sl(n) whose partition has at most `size` cells."""
    for coeffs in itertools.product(range(size + 1), repeat=n - 1):
        if sum(a * m for a, m in enumerate(coeffs, start=1)) <= size:
            yield WeightVector(coeffs)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_tableau_spectra_are_symmetric_complete_and_graded(n):
    weights = list(_dominant_weights(n, 4))
    # the partitions of 0..4 into at most n - 1 rows: (1, 1, 1, 1) needs n > 4
    assert len(weights) == (11 if n == 4 else 12)
    for hw in weights:
        cells = sum(a * m for a, m in enumerate(hw.coeffs, start=1))
        spectrum = reps._tableau_spectrum(hw, n)
        assert sum(spectrum.values()) == weyl_dim(hw, n)
        for k, mult in spectrum.items():
            assert spectrum.get(-k) == mult
            assert (k - cells) % 2 == 0 and abs(k) <= cells
