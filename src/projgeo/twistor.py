"""Local twistor space and its connection-induced almost complex structure.

Over an even-dimensional chart, the twistor bundle carries at each (x, j) the
splitting of tangent directions into horizontal curves (those with
dj = -[Gamma(xdot), j]) and vertical ones (endomorphisms anticommuting with j).
The almost complex structure acts by j on the horizontal part, via the base
projection, and by left multiplication by j on the vertical part. Its
Nijenhuis tensor, built here from the structure matrix J over a chart of the
bundle and the central differences of J along each chart coordinate, measures
integrability.

scipy supplies `expm`, the matrix exponential of the exp fibre chart, and is
imported on first use, so the rest of projgeo starts without it. The Frechet
derivative of exp is a block of one exponential of a doubled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import ConnectionSpec, ConnectionValue, torsion
from .expr import DomainError, at_point
from .tensor import OddDimension, norm

__all__ = [
    "NotAlmostComplex", "StepTooSmall", "OddDimension", "TwistorPoint", "TwistorChart",
    "standard_complex_structure", "mild_complex_structure", "anticommutant_basis",
    "vertical_motion", "acs_field_matrix", "nijenhuis",
    "integrability_verdict", "sample_twistor_points", "coordinate_pairs",
]

ACS_SQUARE_TOL = 1e-12


class NotAlmostComplex(ValueError):
    """The endomorphism does not square to minus the identity."""


class StepTooSmall(ValueError):
    """A finite-difference step leaves unchanged a coordinate its direction moves."""


def standard_complex_structure(n: int) -> np.ndarray:
    """Block-diagonal rotation by a quarter turn in each coordinate 2-plane."""
    if n % 2 != 0:
        raise OddDimension(f"no complex structure on an odd dimension ({n})")
    j = np.zeros((n, n))
    for b in range(0, n, 2):
        j[b, b + 1] = -1.0
        j[b + 1, b] = 1.0
    return j


def _polish(j: np.ndarray) -> np.ndarray:
    # Newton step for X^2 = -I; quadratic convergence from any nearby start
    for _ in range(5):
        if norm_sq_defect(j) <= 1e-13:
            break
        j = 0.5 * (j - np.linalg.inv(j))
    return j


def norm_sq_defect(j: np.ndarray) -> float:
    return float(np.max(np.abs(j @ j + np.eye(j.shape[0]))))


def mild_complex_structure(n: int, rng: np.random.Generator) -> np.ndarray:
    """A generic but well-conditioned structure q (I + A/4) j0 (...)^{-1}.

    Conjugating by an orthogonal q keeps |j| = 1; the extra (I + A/4)
    factor moves j off the orthogonal orbit while keeping the condition number
    near 1, which is what finite-difference work on the fibre needs.
    """
    j0 = standard_complex_structure(n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    g = q @ (np.eye(n) + 0.25 * rng.uniform(-1.0, 1.0, size=(n, n)))
    return _polish(g @ j0 @ np.linalg.inv(g))


def anticommutant_basis(j: np.ndarray) -> np.ndarray:
    """Orthonormal (Frobenius) basis of {m : m j = -j m}, shape (d, n, n).

    d = n^2/2: the projection M -> (M + j M j)/2 maps onto the anticommutant
    when j^2 = -I, and an orthonormal basis of its image is extracted by SVD.
    """
    n = j.shape[0]
    if norm_sq_defect(j) > 1e-10:
        raise NotAlmostComplex("basis anchor must satisfy j^2 = -I")
    units = np.eye(n * n).reshape(n * n, n, n)  # the matrix units e_ab, row-major
    cols = (0.5 * (units + j @ units @ j)).reshape(n * n, n * n).T
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(sv > 1e-10))
    return u[:, :rank].T.reshape(rank, n, n)


@dataclass(frozen=True, eq=False)
class TwistorPoint:
    """A base point together with a complex structure on its tangent space."""

    x: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        j = np.asarray(self.j, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "j", j)
        if x.ndim != 1 or j.shape != (x.size, x.size):
            raise ValueError("point/structure shapes disagree")
        if x.size % 2 != 0:
            raise OddDimension("twistor points need even base dimension")
        if norm_sq_defect(j) > ACS_SQUARE_TOL:
            raise NotAlmostComplex(
                f"j^2 + I has max entry {norm_sq_defect(j):.2e} > {ACS_SQUARE_TOL}")


@dataclass(frozen=True, eq=False)
class TwistorChart:
    """Chart around an anchor twistor point.

    Coordinates are (x, m) with m in the anticommutant of the anchor j; the
    fibre point is exp(2m) j_anchor, which squares to -I identically because
    exp(m) j exp(-m) = exp(2m) j for anticommuting m. Fibre coordinates are
    taken in an orthonormal basis of the anticommutant (dimension n^2/2).
    """

    anchor: TwistorPoint
    basis: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", anticommutant_basis(self.anchor.j))

    @property
    def n(self) -> int:
        return self.anchor.x.size

    @property
    def fibre_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.n + self.fibre_dim

    def fibre_matrix(self, m_coords: np.ndarray) -> np.ndarray:
        return np.einsum("a,aij->ij", m_coords, self.basis)


def expm_frechet(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The Frechet derivative of the matrix exponential at a along e.

    It is the upper-right block of exp([[a, e], [0, a]]) (Van Loan, IEEE TAC
    23 (1978) 395; Mathias, SIAM J. Matrix Anal. Appl. 17 (1996) 610), taken
    here from one scipy `expm` of that 2n x 2n matrix.
    """
    from scipy.linalg import expm

    n = a.shape[0]
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = big[n:, n:] = a
    big[:n, n:] = e
    return expm(big)[:n, n:]


def vertical_motion(gamma: np.ndarray, j: np.ndarray) -> np.ndarray:
    """How J depends on Gamma: kdot_i = -[Gamma(j d_i), j] + j [Gamma(d_i), j].

    A horizontal direction d_i moves j by -[Gamma(d_i), j]; J sends it to
    j d_i, whose own motion is -[Gamma(j d_i), j], plus j times the first.
    kdot is linear in gamma. gamma (..., n, n, n) and j (..., n, n) broadcast
    over their leading axes; the result is (..., n, n, n), indexed [..., i, l, m].
    """
    gx = np.moveaxis(gamma, -2, -3)                   # Gamma(d_i), stacked over i
    gy = np.einsum("...ji,...ljm->...ilm", j, gamma)  # Gamma(j d_i)
    ji = j[..., None, :, :]                           # j, broadcast over i
    return -(gy @ ji - ji @ gy) + ji @ (gx @ ji - ji @ gx)


def acs_field_matrix(cv: ConnectionValue, chart: TwistorChart,
                     m_coords: np.ndarray) -> np.ndarray:
    """Matrix of the almost complex structure at chart coordinates (cv.point, m).

    Tangent vectors are (xdot, mdot); the matrix derivative of the fibre point
    is jdot = D exp(2m)[2 mdot] j0, with the Frechet derivative of the matrix
    exponential (a block of one doubled exponential, see expm_frechet)
    supplying the chart-to-intrinsic conversion, and a least squares solve
    inverting it again after j acts. Gamma at cv.point, and
    nothing else of the connection, enters: only the horizontal-to-vertical
    block, through vertical_motion. At m = 0 horizontal directions map through
    j on the base and vertical ones by left multiplication by j. A fibre point
    that overflows raises DomainError.
    """
    from scipy.linalg import expm

    n, d = chart.n, chart.fibre_dim
    j0 = chart.anchor.j
    m = chart.fibre_matrix(m_coords)
    e2m = expm(2.0 * m)
    if not np.isfinite(e2m).all():
        raise DomainError(f"twistor fibre point exp(2m) j is not finite {at_point(cv.point)}")
    jp = e2m @ j0

    # jdot matrices of the fibre coordinate directions, and the inverse map
    push = np.array([expm_frechet(2.0 * m, 2.0 * b) @ j0
                     for b in chart.basis])
    pull = np.linalg.pinv(push.reshape(d, n * n).T)

    out = np.zeros((n + d, n + d))
    out[:n, :n] = jp
    out[n:, :n] = pull @ vertical_motion(cv.gamma, jp).reshape(n, n * n).T
    out[n:, n:] = pull @ (jp @ push).reshape(d, n * n).T
    return out


def _rows(cv: ConnectionValue) -> "list[ConnectionValue]":
    """Each point of a stacked derivs-0 ConnectionValue as a value of its own."""
    return [ConnectionValue(cv.n, p, gamma) for p, gamma in zip(cv.point, cv.gamma)]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def nijenhuis(spec: ConnectionSpec, tp: TwistorPoint,
              pairs: "list[tuple[np.ndarray, np.ndarray]]",
              h: float = 1e-4) -> float:
    """Max over the tangent pairs (u, v) of |N(u, v)|, at the chart point of tp.

    N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i)
    is the Nijenhuis tensor of the structure matrix J over the (x, m) chart
    anchored at tp. J is built at tp and at tp +- h along each of the
    n + n^2/2 chart coordinates, and each d_l J is their central difference.
    Gamma is evaluated at tp, which also gives the torsion check, and then
    once for the 2n base points x +- h e_l; the fibre steps reuse tp's value.
    A step h too small to move every chart coordinate raises StepTooSmall; a
    tensor that is not finite raises DomainError naming the point.
    """
    from .algebra import HasTorsion

    (sample,) = _rows(spec.evaluate_many(tp.x[None], derivs=0))
    if norm(torsion(sample)) > 1e-10:
        raise HasTorsion("integrability test expects a torsion-free connection "
                         + at_point(tp.x))
    chart = TwistorChart(tp)
    n = chart.n
    z0 = np.zeros(chart.dim)
    z0[:n] = tp.x
    if np.any((z0 + h == z0) | (z0 - h == z0)):
        raise StepTooSmall(f"step h = {h:.3g} leaves a chart coordinate "
                           f"unchanged {at_point(tp.x)}")

    shifts = h * np.eye(chart.dim)
    ends = np.stack([z0 + shifts, z0 - shifts], axis=1)  # ends[l] = z0 +- h e_l
    moved = _rows(spec.evaluate_many(ends[:n, :, :n].reshape(2 * n, n), derivs=0))

    def j_at(l: int, side: int) -> np.ndarray:
        return acs_field_matrix(moved[2 * l + side] if l < n else sample, chart,
                                ends[l, side, n:])

    j = acs_field_matrix(sample, chart, z0[n:])
    dj = np.array([j_at(l, 0) - j_at(l, 1)  # dj[l] = d_l J
                   for l in range(chart.dim)]) / (2.0 * h)
    half = np.einsum("li,lkj->kij", j, dj) - np.einsum("kl,ilj->kij", j, dj)
    tensor = half - np.swapaxes(half, 1, 2)
    if not np.isfinite(tensor).all():
        raise DomainError(f"Nijenhuis tensor is not finite {at_point(tp.x)}")
    return max((float(np.max(np.abs(tensor @ v @ u))) for u, v in pairs), default=0.0)


def integrability_verdict(residual: float) -> str:
    """Threshold reading of a Nijenhuis residual, whose partials of J carry an
    O(h^2) error: at most 1e-5 passes, at least 1e-2 fails, and between the
    two a smaller h decides."""
    if residual <= 1e-5:
        return "integrable at sample"
    if residual >= 1e-2:
        return "obstruction detected"
    return "inconclusive - refine h"


def sample_twistor_points(n: int, count: int,
                          rng: np.random.Generator) -> "list[TwistorPoint]":
    """Seeded twistor samples: base points uniform in the box |x_i| <= 0.4,
    well-conditioned structures."""
    return [TwistorPoint(rng.uniform(-0.4, 0.4, n),
                         mild_complex_structure(n, rng))
            for _ in range(count)]


def coordinate_pairs(dim: int, count: int, rng: np.random.Generator):
    """`count` unit-normalized random tangent-vector pairs for the Nijenhuis test."""
    pairs = []
    for _ in range(count):
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    return pairs
