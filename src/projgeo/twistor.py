"""Local twistor space and its connection-induced almost complex structure.

Over an even-dimensional chart, the twistor bundle carries at each (x, j) the
splitting of tangent directions into horizontal curves (those with
dj = -[Gamma(xdot), j]) and vertical ones (endomorphisms anticommuting with j).
The almost complex structure acts by j on the horizontal part, via the base
projection, and by left multiplication by j on the vertical part. Its
Nijenhuis tensor, built here from the structure matrix J over a chart of the
bundle and the exact partials of J at the chart's anchor, measures
integrability.

The chart around an anchor (x0, j0) has coordinates (x, m), with m in the
anticommutant of j0, taken in its orthonormal basis B (anticommutant_basis,
n^2/2 elements); the fibre point is exp(2m) j0, which squares to -I because
exp(m) j0 exp(-m) = exp(2m) j0 for anticommuting m. acs_field_matrix builds J
at the anchor, m = 0, only, where exp(2m) = I and its Frechet derivative is
the identity, and with it every first partial of J there, in real
arithmetic: J is affine in Gamma, so its partials along the base come from
the partials of Gamma; along the fibre they are forward-mode tangents of each
factor of the build, which reach exp's series only up to its quadratic term
(see expm_frechet), so they too are exact. So the package needs numpy alone.

`nijenhuis` takes a job's samples together: Gamma and its partials come from
one evaluation per block of their base points, and `nijenhuis_tensor` builds
each sample's tensor from its row with one structure build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import ConnectionSpec, ConnectionValue, point_blocks, require_torsion_free
from .expr import DomainError, refuse_where
from .tensor import OddDimension

__all__ = [
    "NotAlmostComplex", "OddDimension", "TwistorPoint",
    "standard_complex_structure", "mild_complex_structure", "anticommutant_basis",
    "vertical_motion", "acs_field_matrix", "nijenhuis_tensor", "nijenhuis",
    "integrability_verdict", "sample_twistor_points", "coordinate_pairs",
]

ACS_SQUARE_TOL = 1e-12


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite j gives NaN or inf
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
    if not norm_sq_defect(j) <= 1e-10:  # NaN fails too
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
        if not norm_sq_defect(j) <= ACS_SQUARE_TOL:  # NaN fails too
            raise NotAlmostComplex(
                f"j^2 + I has max entry {norm_sq_defect(j):.2e} > {ACS_SQUARE_TOL}")


def expm_frechet(da: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The tangent at m = 0 of the Frechet derivative of the matrix
    exponential, D exp(m)[e], along each direction of da (..., n, n).

    D exp(m)[e] = e + (m e + e m)/2 + O(|m|^2), the derivative of
    exp's series I + m + m^2/2 + ..., so the tangent is (da e + e da)/2,
    exact: the second derivative of exp at 0. Its value at m = 0 is e.
    """
    return 0.5 * (da @ e + e @ da)


def _motion(gamma: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The bilinear form -[Gamma(a d_i), b] + a [Gamma(d_i), b] whose diagonal,
    a = b = j, is vertical_motion; shapes as there."""
    gx = np.moveaxis(gamma, -2, -3)                   # Gamma(d_i), stacked over i
    gy = np.einsum("...ji,...ljm->...ilm", a, gamma)  # Gamma(a d_i)
    ai, bi = a[..., None, :, :], b[..., None, :, :]   # broadcast over i
    return -(gy @ bi - bi @ gy) + ai @ (gx @ bi - bi @ gx)


def vertical_motion(gamma: np.ndarray, j: np.ndarray) -> np.ndarray:
    """How J depends on Gamma: kdot_i = -[Gamma(j d_i), j] + j [Gamma(d_i), j].

    A horizontal direction d_i moves j by -[Gamma(d_i), j]; J sends it to
    j d_i, whose own motion is -[Gamma(j d_i), j], plus j times the first.
    kdot is linear in gamma and quadratic in j. gamma (..., n, n, n) and
    j (..., n, n) broadcast over their leading axes; the result is
    (..., n, n, n), indexed [..., i, l, m].
    """
    return _motion(gamma, j, j)


def acs_field_matrix(cv: ConnectionValue, tp: TwistorPoint) -> "tuple[np.ndarray, np.ndarray]":
    """The almost complex structure J at the anchor of the chart around tp,
    and its first partials there along every chart coordinate, as
    (J (N, N), dJ (N, N, N)) with N = n + n^2/2 and dJ[l] = d_l J.

    Tangent vectors are (xdot, mdot), and J acts by
    [[jp, 0], [pull motion^T, pull turn^T]]: jp = exp(2m) j0 the fibre point,
    push the matrix P^T whose rows are the motions D exp(2m)[2 B_a] j0 of jp
    along the basis, pull = (P^T P)^-1 P^T its left inverse through the Gram
    matrix, motion = vertical_motion(Gamma, jp) and turn the rows jp push_a.
    cv holds Gamma (n, n, n) and its first partials (n, n, n, n) at tp.x, as
    one row of `ConnectionSpec.evaluate_many(..., derivs=1)`.
    - Along x_l: only motion holds Gamma, linearly, so d_l J is the lower
      left block pull motion(d_l Gamma)^T; one vertical_motion call takes
      Gamma and its partials together.
    - Along m_c: each factor's forward-mode tangent at m = 0: d jp = 2 B_c j0;
      d push_a = D^2 exp(0)[2 B_c, 2 B_a] j0, one expm_frechet call per basis
      element a; d pull = G^-1 (dP - dG pull) with G the Gram matrix; the
      motion's tangent is the sum of its two bilinear terms (see _motion); and
      d turn_a = d jp push_a + jp d push_a. push and G are formed once and
      shared by the value and its tangents.
    """
    cv.require(1)
    n, j = tp.x.size, tp.j
    two_b = 2.0 * anticommutant_basis(j)
    d = two_b.shape[0]
    # at m = 0: jp = j, and push_a = 2 B_a j, which is also jp's tangent along B_a
    djp = two_b @ j                                                     # [c]
    push = djp.reshape(d, n * n)
    dpush = np.stack([expm_frechet(two_b, e) for e in two_b], axis=1) @ j  # [c, a]
    dpush = dpush.reshape(d, d, n * n)
    # the Gram matrix G = P^T P is as well conditioned as j squared (see
    # mild_complex_structure), so one inverse serves pull and its d tangents
    inverse = np.linalg.inv(push @ push.T)
    pull = inverse @ push
    dgram = dpush @ push.T
    dgram = dgram + np.swapaxes(dgram, 1, 2)
    dpull = inverse @ (dpush - dgram @ pull)

    gammas = np.concatenate([cv.gamma[None], cv.dgamma])
    motion = np.swapaxes(vertical_motion(gammas, j).reshape(n + 1, n, n * n), -1, -2)
    dmotion = _motion(cv.gamma, djp, j) + _motion(cv.gamma, j, djp)
    dmotion = np.swapaxes(dmotion.reshape(d, n, n * n), -1, -2)
    turn = (j @ djp).reshape(d, n * n).T
    dturn = (djp[:, None] @ djp + j @ dpush.reshape(d, d, n, n)).reshape(d, d, n * n)
    dturn = np.swapaxes(dturn, -1, -2)

    out = np.zeros((1 + n + d, n + d, n + d))
    out[0, :n, :n] = j
    out[0, n:, :n] = pull @ motion[0]
    out[0, n:, n:] = pull @ turn
    out[1:n + 1, n:, :n] = pull @ motion[1:]
    out[n + 1:, :n, :n] = djp
    out[n + 1:, n:, :n] = dpull @ motion[0] + pull @ dmotion
    out[n + 1:, n:, n:] = dpull @ turn + pull @ dturn
    return out[0], out[1:]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def nijenhuis_tensor(cv: ConnectionValue, tp: TwistorPoint) -> np.ndarray:
    """N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i),
    as an array [k, i, j] over the (x, m) chart anchored at tp, at its anchor.

    cv holds Gamma (n, n, n) and its first partials (n, n, n, n) at tp.x, as
    one row of `ConnectionSpec.evaluate_many(..., derivs=1)`; nothing is
    evaluated here, and the caller checks torsion. J and its partials come
    from one acs_field_matrix build, exact to rounding. A tensor that is not
    finite raises DomainError naming the point.
    """
    j, dj = acs_field_matrix(cv, tp)
    half = np.swapaxes(np.tensordot(j, dj, (0, 0)) - j @ dj, 0, 1)  # [k, i, j]
    tensor = half - np.swapaxes(half, 1, 2)
    refuse_where(DomainError, not np.isfinite(tensor).all(), "Nijenhuis tensor is not finite",
                 None, tp.x)
    return tensor


def nijenhuis(spec: ConnectionSpec, tps: "list[TwistorPoint]",
              pairs: "list[tuple[np.ndarray, np.ndarray]]") -> np.ndarray:
    """Max over the tangent pairs (u, v) of |N(u, v)| at the chart point of each
    twistor sample in tps (see nijenhuis_tensor), as an array (len(tps),).

    The samples' base points are walked in point_blocks of width
    2 n^4 + 12 n^3, the entries a point holds while its jets are formed (see
    connection.BLOCK_ENTRIES); each block takes Gamma and its first
    partials from one evaluate_many call, and one torsion check, naming the
    first sample of the block that has torsion. So for a block, a refusal of
    the evaluation (a DomainError or SingularMetric) or of torsion comes
    before any of its structure builds, whichever sample of the block it
    names. Then each sample's tensor is built and reduced over the pairs in
    turn, so the tensors of a block are never held together.
    """
    n = spec.n
    residuals = []
    bases = np.reshape([tp.x for tp in tps], (-1, n))
    for block in point_blocks(bases, 2 * n ** 4 + 12 * n ** 3):
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
