"""The projector census: j0's spectra read as traces of the equivariant
projectors the verdicts use, over the eigenspaces of one eigendecomposition.

`reps.j0_census` counts tableaux instead; this numeric census is the check
that `torsion_split`, `bianchi_project` (kept here: the package has no use
for it), `weyl` and `wedge_id` split the torsion and curvature spaces into
equivariant idempotents whose traces match those counts.
"""

import numpy as np

from projgeo.algebra import first_bianchi_residual, torsion_split, wedge_id, weyl
from projgeo.connection import point_blocks, trace2form
from projgeo.reps import (IrrepComponent, curvature_component_weights,
                          torsion_component_weights, weyl_dim)
from projgeo.tensor import TensorValue, alt2, sym2
from projgeo.twistor import standard_complex_structure


def bianchi_project(r):
    """Equivariant projection of a curvature-variance tensor onto its fully
    alternating (Lambda^3 tensor V) branch: one third of the cyclic sum."""
    return TensorValue(r.n, r.variance, first_bianchi_residual(r).data / 3.0)


# The float64 entries one row of a block holds (see connection.BLOCK_ENTRIES),
# at or above the per-row tracemalloc slope at n = 4 and 6: the Lie action
# on its rows 3.0-4.4 n^rank, then the pieces, formed together, 4.4 n^3 for
# torsion and 8.7-9.5 n^4 for curvature.
def action_width(n, rank):
    return 5 * n ** rank


def piece_width(n, rank):
    return (10 if rank == 4 else 5) * n ** rank


def _antisymmetric_basis(n, rank):
    """Orthonormal basis of the rank-`rank` tensors antisymmetric in their last
    two slots, as flattened rows; the leading slots vary slowest."""
    i, j = np.triu_indices(n, 1)
    pairs = np.zeros((i.size, n, n))
    pairs[np.arange(i.size), i, j] = 1.0 / np.sqrt(2.0)
    pairs[np.arange(i.size), j, i] = -1.0 / np.sqrt(2.0)
    return np.kron(np.eye(n ** (rank - 2)), pairs.reshape(i.size, n * n))


def _curvature_pieces(a):
    """The alternating branch (trace-free, trace), then W and the symmetric and
    skew [Q ^ Id] parts of the Bianchi branch."""
    n = a.n
    lam3 = bianchi_project(a)
    # Id (x) omega: its alternating projection has trace 2-form (n-2)/3 omega
    embedded = np.einsum("lk,...ij->...lkij", np.eye(n), trace2form(lam3).data)
    trace = bianchi_project(TensorValue(n, a.variance, embedded)).data * (3.0 / (n - 2))
    w, q, _ = weyl(TensorValue(n, a.variance, a.data - lam3.data))
    return [TensorValue(n, a.variance, data) for data in
            (lam3.data - trace, trace, w.data, -wedge_id(sym2(q)).data, -wedge_id(alt2(q)).data)]


def _lie_action(x, a):
    """The action of x in gl(n) on a stack of tensors with one up slot, then down slots."""
    d = a.data
    out = np.einsum("lm,bm...->bl...", x, d)
    for axis in range(2, d.ndim):
        out -= np.moveaxis(np.moveaxis(d, axis, -1) @ x, -1, axis)
    return TensorValue(a.n, a.variance, out)


def _require_near(values, nearest, what):
    """Refuse when a census value lies more than 1e-8 from the integer it stands for."""
    far = np.abs(values - nearest) > 1e-8
    if far.any():
        raise ValueError(f"{what} {values[far][0]:.12g} is not within 1e-8 of {nearest[far][0]:g}")


def projector_census(space, n):
    """Eigenvalues of the standard complex structure on each component.

    j0 acts on an orthonormal tensor basis by a skew matrix A, so one real
    eigh of A^T A splits the space into the real spans of the +-ik
    eigenspaces, with eigenvalue k^2. Each component's projector P is an
    equivariant idempotent, so it preserves those spans, and the sum of
    <v, P v> over one span's eigenvectors, halved for k > 0, is the
    multiplicity of ik on the component. P runs once per block of eigenvector
    rows. An eigenvalue of A^T A or a multiplicity more than 1e-8 from an
    integer is refused, and so is a component whose whole trace differs from
    the dimension formula.
    """
    if space == "torsion":
        rank, pieces, labels = 3, torsion_split, torsion_component_weights(n)
    else:
        rank, pieces, labels = 4, _curvature_pieces, curvature_component_weights(n)

    basis = _antisymmetric_basis(n, rank)
    variance, shape = ("up",) + ("down",) * (rank - 1), (-1,) + (n,) * rank
    j0 = standard_complex_structure(n)
    # row i holds the image of basis row i in basis coordinates: the rows form A^T
    images = np.concatenate([
        _lie_action(j0, TensorValue(n, variance, b.reshape(shape))).data.reshape(len(b), -1)
        @ basis.T for b in point_blocks(basis, action_width(n, rank))])
    squares, vectors = np.linalg.eigh(images @ images.T)
    ks = np.rint(np.sqrt(np.clip(squares, 0.0, None))).astype(int)
    _require_near(squares, ks ** 2, "eigenvalue of A^T A")

    traces = []  # <v, P v> for each piece P and eigenvector v
    for block in point_blocks(vectors.T, piece_width(n, rank)):
        rows = block @ basis
        traces.append([np.sum(rows * p.data.reshape(len(rows), -1), axis=1)
                       for p in pieces(TensorValue(n, variance, rows.reshape(shape)))])
    traces = np.concatenate(traces, axis=1)
    sums = np.array([np.bincount(ks, weights=t) for t in traces])
    sums[:, 1:] /= 2  # the eigenspace of k > 0 carries both +ik and -ik
    mults = np.rint(sums).astype(int)
    _require_near(sums, mults, "census multiplicity")

    out = []
    for label, trace, mult in zip(labels, traces, mults):
        d = int(np.rint(trace.sum()))
        expected = weyl_dim(label, n)
        if d != expected:
            raise ValueError(
                f"projector image for {label} has dimension {d}, expected {expected}")
        spectrum = {sign * k: int(m) for k, m in enumerate(mult) if m for sign in (-1, 1)}
        if sum(spectrum.values()) != d:
            raise ValueError(f"census multiplicities for {label} do not add to {d}")
        out.append(IrrepComponent(label, d, dict(sorted(spectrum.items()))))
    return out
