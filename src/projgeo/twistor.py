"""Local twistor space and its connection-induced almost complex structure.

Over an even-dimensional chart, the twistor bundle carries at each (x, j) the
splitting of tangent directions into horizontal curves (those with
dj = -[Gamma(xdot), j]) and vertical ones (endomorphisms anticommuting with j).
The almost complex structure acts by j on the horizontal part, via the base
projection, and by left multiplication by j on the vertical part. Its
Nijenhuis tensor, built here from the structure matrix J over a chart of the
bundle and the exact partials of J at the chart's anchor, measures
integrability. J is affine in Gamma, so its partials along the base come
from the partials of Gamma; it is analytic in the fibre coordinates, so its
partials along the fibre come from a complex step, exact to rounding.
`nijenhuis` takes a job's samples together: Gamma and its partials come from
one evaluation per block of their base points, and `nijenhuis_tensor` builds
each sample's tensor from its row.

The exp fibre chart needs the matrix exponential and its Frechet derivative,
a block of one exponential of a doubled matrix. At the fibre points the
Nijenhuis tensor visits, m = 0 and the complex steps m = i eps e_a, the series
cut after its linear term is exact to rounding (see LINEAR_RE_NORM), so those
take I + a and e + (a e + e a)/2. scipy's `expm` is reached only off the
anchor, for a slice of larger norm, and is imported on that first use, so no
subcommand loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import ConnectionSpec, ConnectionValue, point_blocks, require_torsion_free
from .expr import DomainError, refuse_where
from .tensor import OddDimension

__all__ = [
    "NotAlmostComplex", "OddDimension", "TwistorPoint", "TwistorChart",
    "standard_complex_structure", "mild_complex_structure", "anticommutant_basis",
    "vertical_motion", "acs_field_matrix", "nijenhuis_tensor", "nijenhuis",
    "integrability_verdict", "sample_twistor_points", "coordinate_pairs",
]

ACS_SQUARE_TOL = 1e-12
# The complex step along the fibre: J(i eps e_a) = J + i eps d_a J + O(eps^2),
# and no difference is taken, so any eps far below rounding gives d_a J exactly.
COMPLEX_STEP = 1e-30
# A matrix a with |Re a|_1 <= LINEAR_RE_NORM and |Im a|_1 <= LINEAR_IM_NORM
# (max column sums) has exp(a) = I + a and D exp(a)[e] = e + (a e + e a)/2 to
# rounding. The dropped terms are at most |a|^2 e^|a| / 2 < 2^-54 (times |e|
# for the derivative), below half an ulp of I; the Re a Im a cross terms are at
# most 2^-53 |Im a|, so the imaginary part, a complex step's derivative, keeps
# its own relative precision. NaN and inf fail both tests.
LINEAR_RE_NORM = 2.0 ** -53
LINEAR_IM_NORM = 2.0 ** -27


class NotAlmostComplex(ValueError):
    """The endomorphism does not square to minus the identity."""


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
    near 1, which the fibre chart's pull needs: it solves the normal
    equations of the push, whose condition number is squared there.
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
        """The matrix m of fibre coordinates (..., n^2/2), shape (..., n, n)."""
        return np.einsum("...a,aij->...ij", m_coords, self.basis)


def _series_is_linear(a: np.ndarray) -> np.ndarray:
    """Per slice of a (..., n, n): is exp(a) its linear term to rounding?"""
    return ((np.abs(a.real).sum(axis=-2).max(axis=-1) <= LINEAR_RE_NORM)
            & (np.abs(a.imag).sum(axis=-2).max(axis=-1) <= LINEAR_IM_NORM))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a stack a (..., n, n): I + a on the slices that pass
    _series_is_linear, scipy's expm on the rest."""
    out = np.eye(a.shape[-1]) + a
    rest = ~_series_is_linear(a)
    if rest.any():
        from scipy.linalg import expm
        out[rest] = expm(a[rest])
    return out


def expm_frechet(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The Frechet derivative of the matrix exponential at a along e.

    a may carry leading axes, against which e (n, n) broadcasts, and each
    slice of a is taken as it would be alone. A slice within LINEAR_RE_NORM
    and LINEAR_IM_NORM gets e + (a e + e a)/2, the series cut after its
    linear term, whose error is below half an ulp of |e| and, in the
    imaginary part, 2^-53 relative to that part's size. Any other slice gets
    the upper-right block of exp([[a, e], [0, a]]) (Van Loan, IEEE TAC 23
    (1978) 395; Mathias, SIAM J. Matrix Anal. Appl. 17 (1996) 610), from one
    scipy `expm` of that 2n x 2n matrix.
    """
    linear = _series_is_linear(a)
    # the other slices are zeroed first, so that inf there raises no warning
    cut = np.where(linear[..., None, None], a, 0.0)
    out = e + 0.5 * (cut @ e + e @ cut)
    rest = ~linear
    if rest.any():
        from scipy.linalg import expm
        n = a.shape[-1]
        a = a[rest]
        big = np.zeros(a.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(a, e))
        big[..., :n, :n] = big[..., n:, n:] = a
        big[..., :n, n:] = e
        out[rest] = expm(big)[..., :n, n:]
    return out


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


@np.errstate(over="ignore", invalid="ignore")
def acs_field_matrix(cv: ConnectionValue, chart: TwistorChart,
                     m_coords: np.ndarray) -> np.ndarray:
    """Matrix of the almost complex structure at chart coordinates (cv.point, m).

    Tangent vectors are (xdot, mdot); the matrix derivative of the fibre point
    is jdot = D exp(2m)[2 mdot] j0, with the Frechet derivative of the matrix
    exponential (see expm_frechet) supplying the chart-to-intrinsic
    conversion, and its left inverse (P^T P)^-1 P^T converting back after j
    acts. Gamma at cv.point, and
    nothing else of the connection, enters: only the horizontal-to-vertical
    block, through vertical_motion, linearly. m_coords (..., n^2/2) may carry
    leading axes, a stack of fibre points, and cv.gamma (..., n, n, n) a stack
    of Gamma values at the one point; the two broadcast, and the result
    (..., n + n^2/2, n + n^2/2) carries their leading axes. The fibre part is
    built once for the whole stack, with one expm_frechet call per basis
    element. At m = 0 horizontal directions map through j on the base and
    vertical ones by left multiplication by j. m may be complex: no step
    conjugates, so J stays analytic in m. A fibre point or fibre chart
    derivative that overflows anywhere in the stack raises DomainError naming
    cv.point. Fibre points whose 2m is within LINEAR_RE_NORM and
    LINEAR_IM_NORM, among them m = 0 and the complex steps, take the
    exponential and its derivative from the series cut after its linear term,
    exact to rounding; scipy's expm is reached only off the anchor.
    """
    n, d = chart.n, chart.fibre_dim
    j0 = chart.anchor.j
    m = chart.fibre_matrix(m_coords)
    fibre_lead = m.shape[:-2]
    e2m = _expm(2.0 * m)
    # jdot matrices of the fibre coordinate directions, flattened into the
    # rows of P^T (..., d, n*n), and the inverse map
    push = np.stack([expm_frechet(2.0 * m, 2.0 * b) @ j0 for b in chart.basis], axis=-3)
    pt = push.reshape(fibre_lead + (d, n * n))
    gram = pt @ np.swapaxes(pt, -1, -2)
    refuse_where(DomainError, not (np.isfinite(e2m).all() and np.isfinite(gram).all()),
                 "twistor fibre point exp(2m) j or its chart derivative is not finite", None,
                 cv.point)
    jp = e2m @ j0
    pull = np.linalg.solve(gram, pt)

    lead = np.broadcast_shapes(cv.gamma.shape[:-3], fibre_lead)
    motion = vertical_motion(cv.gamma, jp).reshape(lead + (n, n * n))
    turn = (jp[..., None, :, :] @ push).reshape(fibre_lead + (d, n * n))
    out = np.zeros(lead + (n + d, n + d), dtype=np.result_type(jp, motion))
    out[..., :n, :n] = jp
    out[..., n:, :n] = pull @ np.swapaxes(motion, -1, -2)
    out[..., n:, n:] = pull @ np.swapaxes(turn, -1, -2)
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def nijenhuis_tensor(cv: ConnectionValue, tp: TwistorPoint) -> np.ndarray:
    """N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i),
    as an array [k, i, j] over the (x, m) chart anchored at tp, at its anchor.

    cv holds Gamma (n, n, n) and its first partials (n, n, n, n) at tp.x, as
    one row of `ConnectionSpec.evaluate_many(..., derivs=1)`; nothing is
    evaluated here, and the caller checks torsion. The partials of J are exact:
    - along x_l: J is affine in Gamma at fixed m, so d_l J is the structure
      built from d_l Gamma less the one built from Gamma = 0; one
      acs_field_matrix call builds J, those and the zero structure together
      at m = 0;
    - along m_a: Im J(i eps e_a) / eps with eps = COMPLEX_STEP; one more
      acs_field_matrix call builds the stack of the n^2/2 complex steps.
    So a sample makes two structure builds. A tensor that is not finite
    raises DomainError naming the point.
    """
    cv.require(1)
    n = tp.x.size
    chart = TwistorChart(tp)
    stack = np.concatenate([cv.gamma[None], cv.dgamma, np.zeros((1, n, n, n))])
    built = acs_field_matrix(ConnectionValue(n, tp.x, stack), chart,
                             np.zeros(chart.fibre_dim))
    j = built[0]
    stepped = acs_field_matrix(ConnectionValue(n, tp.x, cv.gamma), chart,
                               1j * COMPLEX_STEP * np.eye(chart.fibre_dim))
    dj = np.concatenate([built[1:n + 1] - built[n + 1],  # dj[l] = d_l J
                         stepped.imag / COMPLEX_STEP])
    half = np.einsum("li,lkj->kij", j, dj) - np.einsum("kl,ilj->kij", j, dj)
    tensor = half - np.swapaxes(half, 1, 2)
    refuse_where(DomainError, not np.isfinite(tensor).all(), "Nijenhuis tensor is not finite",
                 None, tp.x)
    return tensor


def nijenhuis(spec: ConnectionSpec, tps: "list[TwistorPoint]",
              pairs: "list[tuple[np.ndarray, np.ndarray]]") -> np.ndarray:
    """Max over the tangent pairs (u, v) of |N(u, v)| at the chart point of each
    twistor sample in tps (see nijenhuis_tensor), as an array (len(tps),).

    The samples' base points are walked in point_blocks of width n^4, the
    entries of a point's dgamma; each block takes Gamma and its first
    partials from one evaluate_many call, and one torsion check, naming the
    first sample of the block that has torsion. So for a block, a refusal of
    the evaluation (a DomainError or SingularMetric) or of torsion comes
    before any of its structure builds, whichever sample of the block it
    names. Then each sample's tensor is built and reduced over the pairs in
    turn, so the tensors of a block are never held together.
    """
    n = spec.n
    residuals = []
    for block in point_blocks(np.reshape([tp.x for tp in tps], (-1, n)), n ** 4):
        cv = spec.evaluate_many(block, derivs=1)
        require_torsion_free(cv, 1e-10, "integrability test expects a torsion-free connection")
        for gamma, dgamma in zip(cv.gamma, cv.dgamma):
            tp = tps[len(residuals)]
            tensor = nijenhuis_tensor(ConnectionValue(n, tp.x, gamma, dgamma), tp)
            residuals.append(max((float(np.max(np.abs(tensor @ v @ u))) for u, v in pairs),
                                 default=0.0))
    return np.array(residuals, dtype=float)


def integrability_verdict(residual: float) -> str:
    """Threshold reading of a Nijenhuis residual, which carries only rounding
    error: at most 1e-5 passes, at least 1e-2 fails, and between the two the
    sample is inconclusive."""
    if residual <= 1e-5:
        return "integrable at sample"
    if residual >= 1e-2:
        return "obstruction detected"
    return "inconclusive"


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
