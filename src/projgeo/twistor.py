"""Local twistor space and its connection-induced almost complex structure.

Over an even-dimensional chart, the twistor bundle carries at each (x, j) the
splitting of tangent directions into horizontal curves (those with
dj = -[Gamma(xdot), j]) and vertical ones (endomorphisms anticommuting with j).
The almost complex structure acts by j on the horizontal part, via the base
projection, and by left multiplication by j on the vertical part. Its
Nijenhuis tensor, computed here by central differences of the structure
matrix over a chart of the bundle, measures integrability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, expm_frechet

from .connection import ConnectionSpec, ConnectionValue, torsion
from .expr import DomainError, at_point
from .tensor import OddDimension, norm

__all__ = [
    "NotAlmostComplex", "StepTooSmall", "OddDimension", "TwistorPoint", "TwistorChart",
    "standard_complex_structure", "random_complex_structure",
    "mild_complex_structure", "anticommutant_basis", "twistor_acs",
    "acs_field_matrix", "nijenhuis", "nijenhuis_fields",
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


def random_complex_structure(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random conjugate g j0 g^{-1} of the standard structure.

    g has entries uniform in [-1, 1]; draws with condition number above 1e6
    are rejected, and the result is polished so that j^2 = -I holds to 1e-13.
    """
    j0 = standard_complex_structure(n)
    for _ in range(100):
        g = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(g) <= 1e6:
            return _polish(g @ j0 @ np.linalg.solve(g.T, np.eye(n)).T)
    raise RuntimeError("could not draw a well-conditioned conjugating matrix")


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
    cols = []
    for a in range(n):
        for b in range(n):
            m = np.zeros((n, n))
            m[a, b] = 1.0
            cols.append((0.5 * (m + j @ m @ j)).ravel())
    u, sv, _ = np.linalg.svd(np.array(cols).T, full_matrices=False)
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
    basis: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.basis is None:
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

    def point(self, x: np.ndarray, m_coords: np.ndarray) -> TwistorPoint:
        j = expm(2.0 * self.fibre_matrix(m_coords)) @ self.anchor.j
        return TwistorPoint(np.asarray(x, dtype=float), _polish(j))


def _structure_matrix(cv: ConnectionValue, chart: TwistorChart,
                      m_coords: np.ndarray) -> np.ndarray:
    """Matrix of the almost complex structure at chart coordinates (cv.point, m).

    Tangent vectors are (xdot, mdot); the matrix derivative of the fibre point
    is jdot = D exp(2m)[2 mdot] j0, with the Frechet derivative of the matrix
    exponential supplying the chart-to-intrinsic conversion, and a least
    squares solve inverting it again after j acts. A fibre point that
    overflows raises DomainError.
    """
    n, d = chart.n, chart.fibre_dim
    j0, gamma = chart.anchor.j, cv.gamma
    m = chart.fibre_matrix(m_coords)
    e2m = expm(2.0 * m)
    if not np.isfinite(e2m).all():
        raise DomainError(f"twistor fibre point exp(2m) j is not finite {at_point(cv.point)}")
    jp = e2m @ j0

    # columns of the linear map mdot-coords -> jdot matrices, and its inverse
    push = np.empty((n * n, d))
    for a in range(d):
        push[:, a] = (expm_frechet(2.0 * m, 2.0 * chart.basis[a],
                                   compute_expm=False) @ j0).ravel()
    pull = np.linalg.pinv(push)

    def intrinsic(xdot: np.ndarray, jdot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gx = np.einsum("i,lim->lm", xdot, gamma)
        vert = jdot + gx @ jp - jp @ gx
        yd = jp @ xdot
        gy = np.einsum("i,lim->lm", yd, gamma)
        kdot = -(gy @ jp - jp @ gy) + jp @ vert
        return yd, kdot

    out = np.empty((n + d, n + d))
    zero_m = np.zeros((n, n))
    for i in range(n):
        xdot = np.zeros(n)
        xdot[i] = 1.0
        yd, kdot = intrinsic(xdot, zero_m)
        out[:n, i] = yd
        out[n:, i] = pull @ kdot.ravel()
    for a in range(d):
        yd, kdot = intrinsic(np.zeros(n), push[:, a].reshape(n, n))
        out[:n, n + a] = yd
        out[n:, n + a] = pull @ kdot.ravel()
    return out


def twistor_acs(cv: ConnectionValue, tp: TwistorPoint) -> np.ndarray:
    """Matrix of the almost complex structure at tp, in (x, m) chart coordinates.

    The chart is anchored at tp itself, so only Gamma at the point enters:
    horizontal directions map through j on the base, vertical ones by left
    multiplication by j. The result squares to -I.
    """
    if tp.x.size != cv.n:
        raise ValueError("twistor point dimension does not match the connection")
    chart = TwistorChart(tp)
    return _structure_matrix(cv, chart, np.zeros(chart.fibre_dim))


def acs_field_matrix(spec: ConnectionSpec, chart: TwistorChart,
                     x: np.ndarray, m_coords: np.ndarray) -> np.ndarray:
    """The structure matrix at displaced chart coordinates (x, m)."""
    return _structure_matrix(spec.evaluate(x, derivs=0), chart, m_coords)


def nijenhuis_fields(spec: ConnectionSpec, tp: TwistorPoint, pairs,
                     h: float = 1e-4) -> float:
    """Max Nijenhuis residual over pairs of tangent vector fields on the chart.

    Each pair entry is a callable z -> vector over the (x, m) chart.
    N(U, V) = [JU, JV] - [U, V] - J[JU, V] - J[U, JV], every bracket computed
    by central finite differences of the relevant field with step h. The
    structure matrix is memoized per chart point, so constant-coefficient
    pairs cost nine evaluations each. A step h too small to move every chart
    coordinate its direction moves raises StepTooSmall.
    """
    from .algebra import HasTorsion

    if norm(torsion(spec.evaluate(tp.x, derivs=0))) > 1e-10:
        raise HasTorsion("integrability test expects a torsion-free connection")
    chart = TwistorChart(tp)
    n, dim = chart.n, chart.dim
    z0 = np.zeros(dim)
    z0[:n] = tp.x

    cache: dict[bytes, np.ndarray] = {}

    def j_at(z: np.ndarray) -> np.ndarray:
        key = z.tobytes()
        if key not in cache:
            cache[key] = acs_field_matrix(spec, chart, z[:n], z[n:])
        return cache[key]

    j_here = j_at(z0)

    def bracket(af, bf) -> np.ndarray:
        a0, b0 = af(z0), bf(z0)
        if any(np.any((z0 + h * v == z0) & (v != 0)) for v in (a0, b0)):
            raise StepTooSmall(f"step h = {h:.3g} leaves a chart coordinate "
                               f"unchanged {at_point(tp.x)}")
        da = (bf(z0 + h * a0) - bf(z0 - h * a0)) / (2.0 * h)
        db = (af(z0 + h * b0) - af(z0 - h * b0)) / (2.0 * h)
        return da - db

    worst = 0.0
    for uf, vf in pairs:
        juf = lambda z, f=uf: j_at(z) @ f(z)
        jvf = lambda z, f=vf: j_at(z) @ f(z)
        resid = (bracket(juf, jvf) - bracket(uf, vf)
                 - j_here @ bracket(juf, vf) - j_here @ bracket(uf, jvf))
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def nijenhuis(spec: ConnectionSpec, tp: TwistorPoint,
              pairs: "list[tuple[np.ndarray, np.ndarray]]",
              h: float = 1e-4) -> float:
    """Nijenhuis residual for constant-coefficient tangent pairs (see nijenhuis_fields)."""
    as_fields = [
        (lambda z, u=np.asarray(u, dtype=float): u,
         lambda z, v=np.asarray(v, dtype=float): v)
        for u, v in pairs
    ]
    return nijenhuis_fields(spec, tp, as_fields, h=h)


def integrability_verdict(residual: float) -> str:
    """Threshold reading of a Nijenhuis residual from the finite-difference test:
    at most 1e-5 passes, at least 1e-2 fails."""
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


def coordinate_pairs(dim: int, count: int, rng: np.random.Generator | None = None):
    """Tangent-vector pairs for the Nijenhuis test.

    Without an rng, the first `count` pairs of distinct coordinate directions;
    with one, unit-normalized random pairs.
    """
    pairs = []
    if rng is None:
        for a in range(dim):
            for b in range(a + 1, dim):
                if len(pairs) >= count:
                    return pairs
                ea, eb = np.zeros(dim), np.zeros(dim)
                ea[a], eb[b] = 1.0, 1.0
                pairs.append((ea, eb))
        return pairs
    for _ in range(count):
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    return pairs
