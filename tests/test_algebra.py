"""Bracket algebra and the curvature decomposition pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chart_path, random_spec_with_torsion, random_torsionfree_spec
from projgeo.algebra import (AlgebraElement, NotAntisymmetric,
                             NotBianchi, bianchi_project, bracket,
                             cartan_curvature, cotton, curvature_report,
                             first_bianchi_residual, three_form_split,
                             torsion_split, wedge_id, wedge_id3, weyl)
from projgeo.connection import HasTorsion, curvature, load_chart, ricci
from projgeo.reps import _curvature_pieces, _lie_action, j0_census
from projgeo.tensor import TensorValue, alt2, norm, sym2


def _element(n, rng):
    return AlgebraElement(n, rng.standard_normal(n),
                          rng.standard_normal((n, n)), rng.standard_normal(n))


def test_element_parts_default_to_zero():
    e = AlgebraElement(3, vec=[1.0, 0.0, 0.0])
    assert np.array_equal(e.endo, np.zeros((3, 3)))
    assert np.array_equal(e.form, np.zeros(3))
    with pytest.raises(ValueError):
        AlgebraElement(3, vec=np.zeros(2))


def test_bracket_degenerate_cases():
    n = 3
    rng = np.random.default_rng(0)
    x = AlgebraElement(n, vec=rng.standard_normal(n))
    y = AlgebraElement(n, vec=rng.standard_normal(n))
    a = AlgebraElement(n, form=rng.standard_normal(n))
    b = AlgebraElement(n, form=rng.standard_normal(n))
    # vectors commute with vectors, forms with forms
    for e in (bracket(x, y), bracket(a, b)):
        assert norm_of(e) < 1e-15
    # endomorphism part alone brackets as a matrix commutator
    p = AlgebraElement(n, endo=rng.standard_normal((n, n)))
    q = AlgebraElement(n, endo=rng.standard_normal((n, n)))
    got = bracket(p, q)
    assert np.allclose(got.endo, p.endo @ q.endo - q.endo @ p.endo)
    assert np.max(np.abs(got.vec)) == 0.0
    assert np.max(np.abs(got.form)) == 0.0


def test_bracket_vector_with_form():
    n = 3
    x = AlgebraElement(n, vec=[1.0, 2.0, -1.0])
    a = AlgebraElement(n, form=[0.5, 0.0, 1.0])
    got = bracket(x, a)
    pairing = 0.5 * 1 + 1.0 * (-1)
    expect = pairing * np.eye(n) + np.outer(x.vec, a.form)
    assert np.allclose(got.endo, expect)


def norm_of(e):
    return max(np.max(np.abs(e.vec)), np.max(np.abs(e.endo)),
               np.max(np.abs(e.form)))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_bracket_antisymmetry_and_jacobi(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a, b, c = (_element(n, rng) for _ in range(3))
    ab = bracket(a, b)
    ba = bracket(b, a)
    assert np.allclose(ab.endo, -ba.endo, atol=1e-12)
    assert np.allclose(ab.vec, -ba.vec, atol=1e-12)
    jac = [bracket(a, bracket(b, c)), bracket(b, bracket(c, a)),
           bracket(c, bracket(a, b))]
    for part in ("vec", "endo", "form"):
        total = sum(getattr(e, part) for e in jac)
        assert np.max(np.abs(total)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ricci_trace_of_wedge_constants(n):
    """ricci(wedge(Q)) = -(n-1) Q_sym - (n+1) Q_skew, the calibration identity."""
    rng = np.random.default_rng(n)
    q = TensorValue(n, ("down", "down"), rng.standard_normal((n, n)))
    tr = ricci(wedge_id(q))
    expect = -(n - 1) * sym2(q).data - (n + 1) * alt2(q).data
    assert np.max(np.abs(tr.data - expect)) < 1e-12


def test_wedge_rejects_wrong_variance():
    with pytest.raises(ValueError):
        wedge_id(TensorValue(3, ("up", "down"), np.zeros((3, 3))))


def test_three_form_split_properties():
    rng = np.random.default_rng(4)
    n = 4
    w = rng.standard_normal((n, n, n))
    w = w - w.transpose(1, 0, 2)
    om = TensorValue(n, ("down",) * 3, w)
    plus, minus = three_form_split(om)
    assert np.allclose(plus.data + minus.data, w)
    # the minus part is invariant under cyclic slot rotation
    assert np.allclose(minus.data, minus.data.transpose(1, 2, 0))
    # the plus part has vanishing cyclic sum
    cyc = plus.data + plus.data.transpose(1, 2, 0) + plus.data.transpose(2, 0, 1)
    assert np.max(np.abs(cyc)) < 1e-13
    with pytest.raises(NotAntisymmetric):
        three_form_split(TensorValue(n, ("down",) * 3, rng.standard_normal((n, n, n))))


def test_three_form_trace_identity():
    # trace of [omega ^ Id] over the endo slot and the last argument
    rng = np.random.default_rng(17)
    for n in (3, 4, 5):
        w = rng.standard_normal((n, n, n))
        w = w - w.transpose(1, 0, 2)
        om = TensorValue(n, ("down",) * 3, w)
        plus, minus = three_form_split(om)
        tr = np.einsum("lmxyl->xym", wedge_id3(om).data)
        expect = -((n - 2) * plus.data + (n + 1) * minus.data)
        assert np.max(np.abs(tr - expect)) < 1e-12


def test_first_bianchi_holds_for_symmetric_connections():
    rng = np.random.default_rng(2)
    spec = random_torsionfree_spec(4, rng)
    r = curvature(spec.evaluate(rng.uniform(-0.3, 0.3, size=4), derivs=1))
    assert norm(first_bianchi_residual(r)) < 1e-12
    # projection leaves such a tensor with zero alternating branch
    assert norm(bianchi_project(r)) < 1e-12


def test_bianchi_project_is_idempotent():
    rng = np.random.default_rng(3)
    t = TensorValue(3, ("up",) + ("down",) * 3, rng.standard_normal((3,) * 4))
    once = bianchi_project(t)
    twice = bianchi_project(once)
    assert np.allclose(once.data, twice.data, atol=1e-13)


def test_weyl_requires_bianchi_input():
    rng = np.random.default_rng(5)
    junk = TensorValue(3, ("up",) + ("down",) * 3, rng.standard_normal((3,) * 4))
    with pytest.raises(NotBianchi):
        weyl(junk)


def test_weyl_parts_reassemble_the_curvature():
    rng = np.random.default_rng(6)
    for n in (3, 4):
        spec = random_torsionfree_spec(n, rng)
        r = curvature(spec.evaluate(rng.uniform(-0.3, 0.3, size=n), derivs=1))
        w, q, f = weyl(r)
        assert norm(ricci(w)) < 1e-11
        assert np.max(np.abs(r.data + wedge_id(q).data - w.data)) < 1e-13
        assert np.allclose(f.data, -2.0 / (n + 1) * alt2(ricci(r)).data)


def test_weyl_vanishes_in_dimension_two():
    rng = np.random.default_rng(7)
    for _ in range(5):
        spec = random_torsionfree_spec(2, rng)
        r = curvature(spec.evaluate(rng.uniform(-0.3, 0.3, size=2), derivs=1))
        w, _, _ = weyl(r)
        assert norm(w) < 1e-12


def test_torsion_split_recovers_trace_part():
    n = 3
    alpha = np.array([0.4, -0.2, 0.7])
    eye = np.eye(n)
    t2 = np.einsum("i,kj->kij", alpha, eye) - np.einsum("j,ki->kij", alpha, eye)
    rng = np.random.default_rng(8)
    w = rng.standard_normal((n, n, n))
    w = w - w.transpose(0, 2, 1)
    tr = np.einsum("kik->i", w) / (n - 1)
    w = w - np.einsum("i,kj->kij", tr, eye) + np.einsum("j,ki->kij", tr, eye)
    t = TensorValue(n, ("up", "down", "down"), w + t2)
    t1, got2 = torsion_split(t)
    assert np.allclose(got2.data, t2, atol=1e-13)
    assert np.allclose(t1.data, w, atol=1e-13)
    assert np.max(np.abs(np.einsum("kik->i", t1.data))) < 1e-13


def test_torsion_split_checks_antisymmetry():
    rng = np.random.default_rng(9)
    with pytest.raises(NotAntisymmetric):
        torsion_split(TensorValue(3, ("up", "down", "down"),
                                  rng.standard_normal((3, 3, 3))))


def test_cotton_zero_on_round_metric():
    for name in ("sphere2.chart", "sphere3.chart"):
        spec = load_chart(chart_path(name))
        p = np.full(spec.n, 0.15)
        c = cotton(spec.evaluate(p, derivs=2), tol=1e-10)
        assert norm(c) < 1e-11
        assert np.allclose(c.data, -c.data.transpose(1, 0, 2))


def test_cotton_refuses_torsion():
    spec = load_chart(chart_path("torsion3.chart"))
    with pytest.raises(HasTorsion):
        cotton(spec.evaluate(np.zeros(3), derivs=2), tol=1e-10)


def test_cartan_blocks_of_round_metric_vanish():
    spec = load_chart(chart_path("sphere3.chart"))
    cc = cartan_curvature(spec.evaluate(np.array([0.2, -0.1, 0.3]), derivs=2))
    for block in (cc.topleft, cc.topright, cc.bottomleft, cc.bottomright):
        assert norm(block) < 1e-10


def test_cartan_line_block_is_identically_zero():
    """The scalar block cancels for every symmetric connection, flat or not."""
    rng = np.random.default_rng(10)
    for n in (2, 3, 4):
        spec = random_torsionfree_spec(n, rng)
        cv = spec.evaluate(rng.uniform(-0.3, 0.3, size=n), derivs=2)
        cc = cartan_curvature(cv)
        assert norm(cc.topleft) < 1e-13
        assert norm(cc.bottomleft) < 1e-13
        # with a vanishing line block the big block reduces to the trace-free part
        w = weyl(curvature(cv)).W
        assert np.max(np.abs(cc.bottomright.data - w.data)) < 1e-12


def test_curvature_report_torsion_free():
    spec = load_chart(chart_path("sphere2.chart"))
    rep = curvature_report(spec.evaluate(np.array([0.1, 0.2]), derivs=2), tol=1e-10)
    assert rep.W is not None and rep.C is not None
    assert rep.residuals["first_bianchi"] < 1e-12
    assert rep.residuals["ricci_of_weyl"] < 1e-12
    assert rep.residuals["reconstruction"] < 1e-12
    assert rep.residuals["s_minus_2ricci_skew"] < 1e-12


def test_curvature_report_with_torsion_skips_projective_parts():
    rng = np.random.default_rng(11)
    spec = random_spec_with_torsion(3, rng)
    rep = curvature_report(spec.evaluate(np.zeros(3), derivs=2), tol=1e-10)
    assert norm(rep.torsion) > 1e-3
    assert rep.W is None and rep.Q is None and rep.F is None and rep.C is None


def _census_pieces(a):
    return list(torsion_split(a)) if a.rank == 3 else _curvature_pieces(a)


def _gl_action(x, d):
    """x in gl(n) acting on stacked tensors (one up slot, then down slots), slot by slot."""
    out = np.moveaxis(np.tensordot(x, d, axes=([1], [1])), 0, 1)
    for axis in range(2, d.ndim):
        out -= np.moveaxis(np.tensordot(d, x, axes=([axis], [0])), -1, axis)
    return out


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_census_pieces_are_complementary_equivariant_projectors(n, rank):
    rng = np.random.default_rng(10 * n + rank)
    variance = ("up",) + ("down",) * (rank - 1)
    d = rng.standard_normal((3,) + (n,) * rank)
    d = d - np.swapaxes(d, -1, -2)
    pieces = [p.data for p in _census_pieces(TensorValue(n, variance, d))]
    assert len(pieces) == (2 if rank == 3 else 5)
    assert np.abs(sum(pieces) - d).max() <= 1e-12
    for k, p in enumerate(pieces):
        again = _census_pieces(TensorValue(n, variance, p))
        for j, q in enumerate(again):
            assert np.abs(q.data - (p if j == k else 0.0)).max() <= 1e-12
    x = rng.standard_normal((n, n))
    moved = _gl_action(x, d)
    assert np.abs(_lie_action(x, TensorValue(n, variance, d)).data - moved).max() <= 1e-12
    for p, q in zip(pieces, _census_pieces(TensorValue(n, variance, moved))):
        assert np.abs(q.data - _gl_action(x, p)).max() <= 1e-12


def test_curvature_census_memory_is_bounded():
    # the n = 6 curvature census sets the twistor workload's memory high-water
    # mark: the basis, the 540 x 540 action and its eigenvectors, about 12 MiB
    # in all, with the pieces applied to one block of eigenvector rows at a time
    tracemalloc.start()
    try:
        j0_census("curvature", 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2**20
