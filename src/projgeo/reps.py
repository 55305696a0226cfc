"""Weight combinatorics for sl(n) and the standard-structure eigenvalue census.

Torsion-type tensors (T^l_{ij}, antisymmetric in ij) and curvature-type
tensors (A^l_{kij}, antisymmetric in ij) decompose into irreducible pieces
under sl(n). The decompositions are driven by one fact: tensoring an
irreducible with the defining representation V (or its dual) splits with
multiplicity one, the components being indexed by the dominant sums of the
highest weight with the weights of the factor. Dimensions come from the
classical product formula. The census reads the standard complex structure's
eigenvalues on each component as traces of its equivariant projector over the
eigenspaces of one eigendecomposition. The projectors are those of
projgeo.algebra (torsion_split, bianchi_project, weyl, wedge_id), the ones the
verdicts use, so the census is also an equivariance and dimension check on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import bianchi_project, torsion_split, wedge_id, weyl
from .connection import point_blocks, trace2form
from .tensor import OddDimension, TensorValue, alt2, sym2
from .twistor import standard_complex_structure

__all__ = [
    "NotDominant", "WeightVector", "IrrepComponent",
    "weights_of_V", "weights_of_dual", "decompose_with", "weyl_dim",
    "fundamental", "torsion_component_weights", "curvature_component_weights",
    "j0_census",
]


class NotDominant(ValueError):
    """The weight has a negative fundamental-weight coefficient."""


@dataclass(frozen=True)
class WeightVector:
    """Integer coefficients in the fundamental-weight basis w1..w(n-1)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "WeightVector":
        return WeightVector(tuple(-c for c in self.coeffs))

    def __str__(self) -> str:
        out = ""
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            out += sign + (f"w{i}" if mag == 1 else f"{mag}*w{i}")
        return out or "0"


def fundamental(i: int, n: int) -> WeightVector:
    """The fundamental weight w_i for sl(n), or the zero weight for i = 0."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"fundamental index must be in 0..{n - 1}, got {i}")
    coeffs = [0] * (n - 1)
    if i > 0:
        coeffs[i - 1] = 1
    return WeightVector(tuple(coeffs))


def weights_of_V(n: int) -> "list[WeightVector]":
    """The n weights of the defining representation: w1, w2-w1, ..., -w(n-1)."""
    out = [fundamental(1, n)]
    for k in range(2, n):
        out.append(fundamental(k, n) + (-fundamental(k - 1, n)))
    out.append(-fundamental(n - 1, n))
    return out


def weights_of_dual(n: int) -> "list[WeightVector]":
    """The weights of V*, the negatives of the weights of V."""
    return [-w for w in weights_of_V(n)]


def decompose_with(hw: WeightVector, factor: str, n: int) -> "list[WeightVector]":
    """Highest weights of (irreducible with highest weight hw) tensor V or V*.

    Valid because V and V* have multiplicity-one weights: the components are
    exactly the dominant elements among hw + (weight of factor), each once.
    """
    if not hw.dominant:
        raise NotDominant(f"{hw} is not dominant")
    if factor == "V":
        mu = weights_of_V(n)
    elif factor in ("V*", "dual"):
        mu = weights_of_dual(n)
    else:
        raise ValueError(f"factor must be 'V' or 'V*', got {factor!r}")
    return [hw + m for m in mu if (hw + m).dominant]


def weyl_dim(hw: WeightVector, n: int) -> int:
    """Dimension of the sl(n) irreducible with highest weight hw.

    Uses the partition lambda_a = sum of m_k for k >= a and the hook-style
    product over index pairs, in exact rational arithmetic.
    """
    if not hw.dominant:
        raise NotDominant(f"{hw} is not dominant")
    if len(hw.coeffs) != n - 1:
        raise ValueError(f"weight length {len(hw.coeffs)} does not fit sl({n})")
    lam = [sum(hw.coeffs[a:]) for a in range(n - 1)] + [0]
    out = Fraction(1)
    for a in range(n):
        for b in range(a + 1, n):
            out *= Fraction(lam[a] - lam[b] + b - a, b - a)
    assert out.denominator == 1
    return int(out)


def torsion_component_weights(n: int) -> "list[WeightVector]":
    """Components of the torsion space (vector-valued 2-forms): trace-free, trace."""
    return decompose_with(fundamental(n - 2, n), "V", n)


def curvature_component_weights(n: int) -> "list[WeightVector]":
    """Components of the curvature space: the fully antisymmetric branch
    (trace-free then trace; a single entry at n=3), then the cyclic-symmetry
    branch (Weyl, symmetric-Ricci, skew-Ricci images)."""
    if n < 3:
        raise ValueError("the curvature component list needs n >= 3")
    lam3 = decompose_with(fundamental(n - 3, n), "V", n)
    bianchi = decompose_with(fundamental(n - 2, n) + fundamental(n - 1, n), "V", n)
    return lam3 + bianchi


@dataclass(frozen=True)
class IrrepComponent:
    """One irreducible constituent with its standard-structure eigenvalue data."""

    highest: WeightVector
    dim: int
    spectrum: "dict[int, int]"  # imaginary part k -> multiplicity of eigenvalue ik


def _antisymmetric_basis(n: int, rank: int) -> np.ndarray:
    """Orthonormal basis of the rank-`rank` tensors antisymmetric in their last
    two slots, as flattened rows; the leading slots vary slowest."""
    i, j = np.triu_indices(n, 1)
    pairs = np.zeros((i.size, n, n))
    pairs[np.arange(i.size), i, j] = 1.0 / np.sqrt(2.0)
    pairs[np.arange(i.size), j, i] = -1.0 / np.sqrt(2.0)
    return np.kron(np.eye(n ** (rank - 2)), pairs.reshape(i.size, n * n))


def _curvature_pieces(a: TensorValue) -> "list[TensorValue]":
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


def _lie_action(x: np.ndarray, a: TensorValue) -> TensorValue:
    """The action of x in gl(n) on a stack of tensors with one up slot, then down slots."""
    d = a.data
    out = np.einsum("lm,bm...->bl...", x, d)
    for axis in range(2, d.ndim):
        out -= np.moveaxis(np.moveaxis(d, axis, -1) @ x, -1, axis)
    return TensorValue(a.n, a.variance, out)


def _require_near(values: np.ndarray, nearest: np.ndarray, what: str) -> None:
    """Refuse when a census value lies more than 1e-8 from the integer it stands for."""
    far = np.abs(values - nearest) > 1e-8
    if far.any():
        raise ValueError(f"{what} {values[far][0]:.12g} is not within 1e-8 of {nearest[far][0]:g}")


def j0_census(space: str, n: int) -> "list[IrrepComponent]":
    """Eigenvalues of the standard complex structure on each component.

    j0 acts on an orthonormal tensor basis by a skew matrix A, so one real
    eigh of A^T A splits the space into the real spans of the +-ik
    eigenspaces, with eigenvalue k^2. Each component's projector P is an
    equivariant idempotent, so it preserves those spans, and the sum of
    <v, P v> over one span's eigenvectors, halved for k > 0, is the
    multiplicity of ik on the component. P runs once per block of eigenvector
    rows. An eigenvalue of A^T A or a multiplicity more than 1e-8 from an
    integer is refused. Labels come positionally from the decomposition lists;
    each component's whole trace is checked against the dimension formula.
    """
    if n % 2 != 0:
        raise OddDimension("the census pairs coordinates into 2-planes")
    if n not in (4, 6):
        raise ValueError(
            "census supports n = 4 and 6; the generic component lists collapse at n = 2")
    if space == "torsion":
        rank, pieces, labels = 3, torsion_split, torsion_component_weights(n)
    elif space == "curvature":
        rank, pieces, labels = 4, _curvature_pieces, curvature_component_weights(n)
    else:
        raise ValueError(f"space must be 'torsion' or 'curvature', got {space!r}")

    basis = _antisymmetric_basis(n, rank)
    variance, shape = ("up",) + ("down",) * (rank - 1), (-1,) + (n,) * rank
    j0 = standard_complex_structure(n)
    # row i holds the image of basis row i in basis coordinates: the rows form A^T
    images = np.concatenate([
        _lie_action(j0, TensorValue(n, variance, b.reshape(shape))).data.reshape(len(b), -1)
        @ basis.T for b in point_blocks(basis)])
    squares, vectors = np.linalg.eigh(images @ images.T)
    ks = np.rint(np.sqrt(np.clip(squares, 0.0, None))).astype(int)
    _require_near(squares, ks ** 2, "eigenvalue of A^T A")

    traces = []  # <v, P v> for each piece P and eigenvector v
    for block in point_blocks(vectors.T):
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
