"""Transport of the projective Cartan frame and the developing map.

A torsion-free connection induces a connection on the rank-(n+1) bundle
whose blocks (in the line-plus-tangent splitting) are the trace adjustment,
the normalized Ricci form Q, the identity, and Gamma itself. Its parallel
frames along paths are computed here by adaptive RK4; flat inputs (zero Weyl
tensor, zero Cotton tensor for n = 2) then admit a developing map into
projective space whose first column gives homogeneous image coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import weyl
from .connection import ConnectionSpec, ConnectionValue, curvature
from .expr import at_point

__all__ = [
    "NotFlat", "StepFailure", "PathOutsideDomain", "LeftDomain",
    "CartanFrame", "ProjectivePoint", "DevelopedPoint",
    "model_connection", "model_metric",
    "cartan_transport", "holonomy_loops", "flatness_defect",
    "develop_map", "geodesic_trace", "collinearity_defect",
]


class NotFlat(RuntimeError):
    """Loop holonomy exceeded the flatness tolerance."""

    def __init__(self, deviation: float, tol: float):
        super().__init__(
            f"loop holonomy deviation {deviation:.3e} exceeds {tol:.1e}; "
            "the chart does not develop")
        self.deviation = deviation
        self.tol = tol


class StepFailure(RuntimeError):
    """Adaptive step size underflowed without meeting the error target."""


class PathOutsideDomain(ValueError):
    """A path vertex left the declared chart box."""


class LeftDomain(RuntimeError):
    """A geodesic left the declared chart box."""


def model_connection(n: int) -> ConnectionSpec:
    """The flat affine chart of projective space: all Christoffel entries zero."""
    return ConnectionSpec.from_christoffel(n, {}, name="model-flat")


def model_metric(n: int) -> ConnectionSpec:
    """Round metric of constant curvature one: g_ij = 4 delta_ij / (1+|x|^2)^2."""
    ball = " + ".join(f"x{i}^2" for i in range(1, n + 1))
    entry = f"4 / (1 + {ball})^2"
    entries = {(i, i): entry for i in range(n)}
    return ConnectionSpec.from_metric(n, entries, name="round-sphere")


@dataclass(eq=False)
class CartanFrame:
    """Parallel frame of the induced bundle along a path."""

    phi: np.ndarray  # (n+1) x (n+1), line column first
    start: np.ndarray
    end: np.ndarray
    error_estimate: float


def _hat_matrix(cv: ConnectionValue, u: np.ndarray) -> np.ndarray:
    """Connection matrix of the induced bundle at each point of cv, contracted
    with direction u: (..., n+1, n+1) for connection data stacked over (...)."""
    n = cv.n
    _, q, _ = weyl(curvature(cv))
    au = (-np.einsum("...kki->...i", cv.gamma) / (n + 1)) @ u
    out = np.empty(cv.gamma.shape[:-3] + (n + 1, n + 1))
    out[..., 0, 0] = au
    out[..., 0, 1:] = np.einsum("i,...ij->...j", u, q.data)
    out[..., 1:, 0] = u
    out[..., 1:, 1:] = (np.einsum("i,...lim->...lm", u, cv.gamma)
                        + au[..., None, None] * np.eye(n))
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cartan_transport(spec: ConnectionSpec, path, tol: float = 1e-10,
                     domain: float | None = None) -> CartanFrame:
    """Integrate the frame ODE dPhi/dt = Phi A(gamma(t)) from Phi = I along a polyline.

    `path` is a list of vertices; each segment is traversed with classical
    RK4 under step doubling, error target `tol` per unit length. The returned
    error estimate is the accumulated Richardson estimate.

    The connection is evaluated only when a step attempt meets a node not yet
    seen, and then ahead of need, in one call: the attempt's missing nodes,
    the nodes of each halving from h down to the step last accepted in this
    transport, and a grid t + k q, q = min(h, last accepted h) / 4, of at
    most four nodes per step accepted so far, clipped to the segment end.
    The grid is bounded by work already done, so a step that never passes
    still costs a few nodes per attempt. Nodes are dyadic fractions of the
    segment, so every prefetched float equals the one the step builds, and
    step sizes and frames are those of node-by-node evaluation.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    n = spec.n
    if path.shape[1] != n:
        raise ValueError("path vertices do not match the chart dimension")
    if domain is not None and np.any(np.abs(path) > domain):
        raise PathOutsideDomain(f"path leaves the box of half-width {domain}")
    phi = np.eye(n + 1)
    total_err = 0.0
    accepted, h_ok = 0, np.inf  # steps accepted, and the last one's size

    for p0, p1 in zip(path[:-1], path[1:]):
        u = p1 - p0
        seg_len = float(np.linalg.norm(u))
        if seg_len == 0.0:
            continue
        a_cache: dict[float, np.ndarray] = {}

        def rk4_nodes(t: float, h: float) -> tuple[float, float, float]:
            return t, t + 0.5 * h, t + h

        def attempt_nodes(t: float, h: float) -> tuple[float, ...]:
            # the full step and its two halves, built with the same float
            # expressions as the rk4 calls below so the cache hits
            return (rk4_nodes(t, h) + rk4_nodes(t, 0.5 * h)
                    + rk4_nodes(t + 0.5 * h, 0.5 * h))

        def rk4(phi_in: np.ndarray, t: float, h: float) -> np.ndarray:
            a0, a_mid, a1 = (a_cache[s] for s in rk4_nodes(t, h))
            k1 = phi_in @ a0
            k2 = (phi_in + 0.5 * h * k1) @ a_mid
            k3 = (phi_in + 0.5 * h * k2) @ a_mid
            k4 = (phi_in + h * k3) @ a1
            return phi_in + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        t, h = 0.0, 1.0
        while t < 1.0 - 1e-14:
            h = min(h, 1.0 - t)
            nodes = attempt_nodes(t, h)
            if any(s not in a_cache for s in nodes):
                # prefetch the halvings a rejection would try, and a grid
                # ahead that grows with the steps accepted so far
                level = h
                while level > h_ok:
                    level *= 0.5
                    nodes += attempt_nodes(t, level)
                q = 0.25 * min(h, h_ok)
                nodes += tuple(t + k * q for k in range(1, 4 * accepted + 1))
                fresh = [s for s in dict.fromkeys(nodes) if s <= 1.0 and s not in a_cache]
                xs = p0 + np.array(fresh)[:, None] * u
                a_cache.update(zip(fresh, _hat_matrix(spec.evaluate_many(xs, derivs=1), u)))
            full = rk4(phi, t, h)
            half = rk4(rk4(phi, t, 0.5 * h), t + 0.5 * h, 0.5 * h)
            err = float(np.max(np.abs(full - half)))
            if not math.isfinite(err):
                raise StepFailure(f"transport frame is not finite {at_point(p0 + t * u)}")
            budget = tol * seg_len * h
            if err > budget:
                h *= 0.5
                if h < 1e-6:
                    raise StepFailure(
                        f"step collapsed below 1e-6 with error {err:.2e} "
                        f"{at_point(p0 + t * u)}")
                continue
            phi = half
            t += h
            h_ok = h
            accepted += 1
            total_err += err / 15.0
            if err < 0.01 * budget:
                h *= 2.0

    return CartanFrame(phi, path[0].copy(), path[-1].copy(), total_err)


def holonomy_loops(x0: np.ndarray, seed: int = 0) -> "list[np.ndarray]":
    """Eight seeded square loops through x0 in coordinate 2-planes, with sides
    0.1 and 0.2 in turn."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    rng = np.random.default_rng(seed)
    loops = []
    for idx in range(8):
        s = (0.1, 0.2)[idx % 2]
        if n == 2:
            i, j = 0, 1
        else:
            i, j = rng.choice(n, size=2, replace=False)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        ei, ej = np.zeros(n), np.zeros(n)
        ei[i], ej[j] = s * sign, s
        loops.append(np.array([x0, x0 + ei, x0 + ei + ej, x0 + ej, x0]))
    return loops


def flatness_defect(spec: ConnectionSpec, x0, seed: int = 0,
                    tol: float = 1e-10) -> float:
    """Worst holonomy deviation from the identity over the seeded loop family."""
    worst = 0.0
    for loop in holonomy_loops(np.asarray(x0, dtype=float), seed=seed):
        frame = cartan_transport(spec, loop, tol=tol)
        worst = max(worst, float(np.max(np.abs(frame.phi - np.eye(spec.n + 1)))))
    return worst


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """Homogeneous coordinates, scaled to unit max-abs with a positive leading entry."""

    homogeneous: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.homogeneous, dtype=float).copy()
        peak = np.max(np.abs(v))
        if peak == 0.0:
            raise ValueError("homogeneous coordinates cannot all vanish")
        v /= peak
        lead = v[np.nonzero(v)[0][0]]
        if lead < 0.0:
            v = -v
        object.__setattr__(self, "homogeneous", v)

    def approx_equal(self, other: "ProjectivePoint", tol: float = 1e-9) -> bool:
        return float(np.max(np.abs(self.homogeneous - other.homogeneous))) <= tol


@dataclass(frozen=True, eq=False)
class DevelopedPoint:
    """Image of one target, with its two-path consistency residual."""

    target: np.ndarray
    point: ProjectivePoint
    path_error: float


def develop_map(spec: ConnectionSpec, x0, targets, flat_tol: float = 1e-7,
                seed: int = 0) -> "list[DevelopedPoint]":
    """Develop targets into projective space from base x0.

    Flatness is certified first on the seeded loop family (NotFlat on
    failure). Each target is reached along the straight segment and again
    through a seeded waypoint; the image is the normalized first frame
    column and the two-path discrepancy is reported per target.
    """
    x0 = np.asarray(x0, dtype=float)
    defect = flatness_defect(spec, x0, seed=seed)
    if defect > flat_tol:
        raise NotFlat(defect, flat_tol)
    rng = np.random.default_rng(seed + 1)
    out = []
    for raw in np.atleast_2d(np.asarray(targets, dtype=float)):
        frame = cartan_transport(spec, [x0, raw])
        first = ProjectivePoint(frame.phi[:, 0])
        mid = 0.5 * (x0 + raw) + rng.uniform(-0.05, 0.05, x0.size)
        frame2 = cartan_transport(spec, [x0, mid, raw])
        second = ProjectivePoint(frame2.phi[:, 0])
        err = float(np.max(np.abs(first.homogeneous - second.homogeneous)))
        out.append(DevelopedPoint(raw.copy(), first, err))
    return out


def collinearity_defect(points: "list[ProjectivePoint]") -> float:
    """Largest 3x3 minor over consecutive point triples, after normalization.

    Zero means every triple of homogeneous vectors is linearly dependent,
    i.e. the points lie on one projective line.
    """
    if len(points) < 3:
        return 0.0
    worst = 0.0
    dim = points[0].homogeneous.size
    for a, b, c in zip(points[:-2], points[1:-1], points[2:]):
        m = np.vstack([a.homogeneous, b.homogeneous, c.homogeneous])
        for cols in combinations(range(dim), 3):
            worst = max(worst, abs(float(np.linalg.det(m[:, cols]))))
    return worst


def geodesic_trace(spec: ConnectionSpec, x0, v0, t_end: float, steps: int,
                   domain: float | None = None) -> np.ndarray:
    """Fixed-step RK4 trace of the geodesic equation; rows are points.

    Integrates xdot = v, vdot^k = -Gamma^k_{ij} v^i v^j from (x0, v0).
    """
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    h = t_end / steps
    out = [x.copy()]

    def accel(xx: np.ndarray, vv: np.ndarray) -> np.ndarray:
        gamma = spec.evaluate(xx, derivs=0).gamma
        return -np.einsum("kij,i,j->k", gamma, vv, vv)

    for _ in range(steps):
        k1x, k1v = v, accel(x, v)
        k2x, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, accel(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if domain is not None and np.any(np.abs(x) > domain):
            raise LeftDomain(f"geodesic left the box of half-width {domain}")
        out.append(x.copy())
    return np.array(out)
