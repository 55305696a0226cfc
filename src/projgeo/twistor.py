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
one evaluation per block of their base points, and within a block the
samples are built in order in sub-blocks, each one structure build
(acs_field_matrix over the sub-block's stack) and one tensor contraction
(nijenhuis_tensor). Every stacked step acts on the samples' leading axis
with the calls a single sample makes, so each residual is the one its sample
gives alone, bit for bit.
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
    return float(np.max(np.abs(j @ j + np.eye(j.shape[-1]))))


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
    """Orthonormal (Frobenius) basis of {m : m j = -j m}, shape (..., d, n, n)
    for a structure or a stack of them, j (..., n, n).

    d = n^2/2: when j^2 = -I, the projection M -> (M + j M j)/2 is idempotent
    with trace (n^2 + tr(j)^2)/2 = n^2/2 and maps onto the anticommutant, so
    the d leading left singular vectors of its matrix are an orthonormal basis
    of its image (its nonzero singular values are at least 1). One batched SVD
    serves the whole stack.
    """
    n = j.shape[-1]
    if not norm_sq_defect(j) <= 1e-10:  # NaN fails too
        raise NotAlmostComplex("basis anchor must satisfy j^2 = -I")
    lead, d = j.shape[:-2], n * n // 2
    units = np.eye(n * n).reshape(n * n, n, n)  # the matrix units e_ab, row-major
    jb = j[..., None, :, :]
    cols = np.swapaxes((0.5 * (units + jb @ units @ jb)).reshape(lead + (n * n, n * n)), -1, -2)
    u = np.linalg.svd(cols, full_matrices=False)[0]
    return np.swapaxes(u[..., :d], -1, -2).reshape(lead + (d, n, n))


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
    exponential, D exp(m)[e], along each direction of da (..., n, n); e
    (..., n, n) broadcasts against da.

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


def acs_field_matrix(cv: ConnectionValue, js: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The almost complex structure J at the anchor of the chart around each
    sample, and its first partials there along every chart coordinate, as
    (J (S, N, N), dJ (S, N, N, N)) with N = n + n^2/2 and dJ[s, l] = d_l J.

    A sample is a row of cv, Gamma (S, n, n, n) and its first partials
    (S, n, n, n, n) at the base point, as from
    `ConnectionSpec.evaluate_many(..., derivs=1)`, and its structure in js
    (S, n, n); one sample is the stack S = 1. Each step acts on the
    samples' leading axis with the calls one sample alone makes, so each
    slice of the result is bit for bit that sample's own build.
    Tangent vectors are (xdot, mdot), and J acts by
    [[jp, 0], [pull motion^T, pull turn^T]]: jp = exp(2m) j0 the fibre point,
    push the matrix P^T whose rows are the motions D exp(2m)[2 B_a] j0 of jp
    along the basis, pull = (P^T P)^-1 P^T its left inverse through the Gram
    matrix, motion = vertical_motion(Gamma, jp) and turn the rows jp push_a.
    - Along x_l: only motion holds Gamma, linearly, so d_l J is the lower
      left block pull motion(d_l Gamma)^T; one vertical_motion call takes
      Gamma and its partials together.
    - Along m_c: each factor's forward-mode tangent at m = 0: d jp = 2 B_c j0;
      d push_a = D^2 exp(0)[2 B_c, 2 B_a] j0, one expm_frechet call per basis
      element a; d pull = G^-1 (dP - dG pull) with G the Gram matrix; the
      motion's tangent is the sum of its two bilinear terms (see _motion); and
      d turn_a = d jp push_a + jp d push_a. push and G are formed once and
      shared by the value and its tangents, and each n^6/4-entry tangent is
      released after its last use.
    """
    cv.require(1)
    s, n = js.shape[:2]
    j = js[:, None]                                                     # (S, 1, n, n)
    two_b = 2.0 * anticommutant_basis(js)
    d = two_b.shape[1]
    # at m = 0: jp = j, and push_a = 2 B_a j, which is also jp's tangent along B_a
    djp = two_b @ j                                                     # [s, c]
    push = djp.reshape(s, d, n * n)
    push_t = np.swapaxes(push, -1, -2)
    dpush = np.empty((s, d, d, n, n))                                   # [s, c, a]
    for a in range(d):
        dpush[:, :, a] = expm_frechet(two_b, two_b[:, a, None])
    dpush = dpush @ j[:, None]
    # the Gram matrix G = P^T P is as well conditioned as j squared (see
    # mild_complex_structure), so one inverse serves pull and its d tangents
    inverse = np.linalg.inv(push @ push_t)
    pull = inverse @ push
    dturn = djp[:, :, None] @ djp[:, None]
    dturn += j[:, None] @ dpush
    dturn = np.swapaxes(dturn.reshape(s, d, d, n * n), -1, -2)
    dpush = dpush.reshape(s, d, d, n * n)
    dgram = dpush @ push_t[:, None]
    dgram = dgram + np.swapaxes(dgram, -1, -2)
    dpull = dgram @ pull[:, None]
    np.subtract(dpush, dpull, out=dpull)
    del dgram, dpush
    dpull = inverse[:, None] @ dpull

    turn = np.swapaxes((j @ djp).reshape(s, d, n * n), -1, -2)
    # J and dJ are written in place, each n^6/4-entry tangent released after
    # its last use; a sum x + y is written as out = x, out += y
    out = np.zeros((s, 1 + n + d, n + d, n + d))
    vv = out[:, n + 1:, n:, n:]
    np.matmul(dpull, turn[:, None], out=vv)
    vv += pull[:, None] @ dturn
    del dturn
    gammas = np.concatenate([cv.gamma[:, None], cv.dgamma], axis=1)
    motion = np.swapaxes(vertical_motion(gammas, j).reshape(s, n + 1, n, n * n), -1, -2)
    gamma = cv.gamma[:, None]
    dmotion = _motion(gamma, djp, j) + _motion(gamma, j, djp)
    dmotion = np.swapaxes(dmotion.reshape(s, d, n, n * n), -1, -2)
    vh = out[:, n + 1:, n:, :n]
    np.matmul(dpull, motion[:, :1], out=vh)
    vh += pull[:, None] @ dmotion
    del dpull
    out[:, 0, :n, :n] = js
    out[:, 0, n:, :n] = pull @ motion[:, 0]
    out[:, 0, n:, n:] = pull @ turn
    out[:, 1:n + 1, n:, :n] = pull[:, None] @ motion[:, 1:]
    out[:, n + 1:, :n, :n] = djp
    return out[:, 0], out[:, 1:]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def nijenhuis_tensor(cv: ConnectionValue, js: np.ndarray) -> np.ndarray:
    """N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i),
    as an array [s, k, i, j] over the (x, m) chart anchored at each sample,
    at its anchor.

    The samples are the rows of cv and js as acs_field_matrix takes them;
    nothing is evaluated here, and the caller checks torsion. J and its
    partials come from one acs_field_matrix build, exact to rounding. A
    tensor that is not finite raises DomainError naming the first such
    sample's point.
    """
    j, dj = acs_field_matrix(cv, js)
    s, dim = j.shape[:2]
    half = np.swapaxes(j, -1, -2) @ dj.reshape(s, dim, dim * dim)   # l contracted: [s, i, k j]
    half = half.reshape(s, dim, dim, dim)
    half -= j[:, None] @ dj                                         # [s, i, k, j]
    del j, dj
    half = np.swapaxes(half, 1, 2)                                  # [s, k, i, j]
    tensor = half - np.swapaxes(half, -1, -2)
    refuse_where(DomainError, ~np.isfinite(tensor).all(axis=(1, 2, 3)),
                 "Nijenhuis tensor is not finite", None, cv.point)
    return tensor


def _pair_max(tensor: np.ndarray, pairs) -> np.ndarray:
    """Max over the pairs (u, v) of max |N(u, v)| for each tensor of the stack
    (S, N, N, N), as Python's max takes it from the pairs in turn, so a NaN
    is kept or passed over as there; 0 with no pairs."""
    worst = np.zeros(tensor.shape[0])
    for k, (u, v) in enumerate(pairs):
        r = np.max(np.abs(tensor @ v @ u), axis=-1)
        worst = r if k == 0 else np.where(r > worst, r, worst)
    return worst


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
    names. Then the block's samples are built in order, in point_blocks of
    width 6 N^3 (N = n + n^2/2), the entries one sample holds while its J,
    dJ and tensor are formed: each sub-block takes one structure build, one
    tensor contraction and one reduction over the pairs, and a sub-block
    whose tensor is not finite refuses at its first such sample before any
    later sub-block is built, so the refusal names the sample a
    sample-by-sample walk would.
    """
    n = spec.n
    residuals = []
    bases = np.reshape([tp.x for tp in tps], (-1, n))
    js = np.reshape([tp.j for tp in tps], (-1, n, n))
    for block in point_blocks(bases, 2 * n ** 4 + 12 * n ** 3):
        cv = spec.evaluate_many(block, derivs=1)
        require_torsion_free(cv, 1e-10, "integrability test expects a torsion-free connection")
        start, block_js = 0, js[len(residuals):len(residuals) + len(block)]
        for sub in point_blocks(block, 6 * (n + n * n // 2) ** 3):
            rows = slice(start, start + len(sub))
            start = rows.stop
            cv_sub = ConnectionValue(n, sub, cv.gamma[rows], cv.dgamma[rows])
            residuals.extend(_pair_max(nijenhuis_tensor(cv_sub, block_js[rows]), pairs))
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
