"""Transport of the projective Cartan frame and the developing map.

A torsion-free connection induces a connection on the rank-(n+1) bundle
whose blocks (in the line-plus-tangent splitting) are the trace adjustment,
the normalized Ricci form Q, the identity, and Gamma itself. Transport
refuses torsion at its nodes, and takes Q from a Ricci trace read straight
off the jets of Gamma, never forming the curvature. Its parallel
frames along polylines come from uniform RK4 refined by doubling and
extrapolated across the doublings, many segments at once; flat inputs (zero
Weyl tensor, zero Cotton tensor for n = 2) then admit a developing map into
projective space whose first column gives homogeneous image coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .algebra import _normalized
from .connection import ConnectionSpec, ConnectionValue, point_blocks, require_torsion_free
from .expr import DomainError, refuse_where

__all__ = [
    "NotFlat", "StepFailure", "ProjectivePoint",
    "model_connection",
    "cartan_transport", "transport_many", "holonomy_loops", "flatness_defect",
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
    """A segment or path frame is not finite, or a segment needs more than MAX_STEPS steps."""


def model_connection(n: int) -> ConnectionSpec:
    """The flat affine chart of projective space: all Christoffel entries zero."""
    return ConnectionSpec(n, "christoffel", {})


# A segment is done when its Romberg frames agree to TRANSPORT_TOL * its length.
TRANSPORT_TOL = 1e-10
MAX_STEPS = 1024  # RK4 steps per segment; the bench and fixture charts need <= 32
# Entries of the node array of one block of segments at MAX_STEPS (16 MB of
# float64): 40 segments at n = 4, so a flatness certificate (32 segments) is
# one block for n <= 4.
SEGMENT_ENTRIES = 2 ** 21


def _hat_matrix(cv: ConnectionValue, u: np.ndarray) -> np.ndarray:
    """Connection matrix of the induced bundle at each point of cv, contracted
    with the direction u, (n,) or one per point (..., n): (..., n+1, n+1) for
    connection data stacked over (...).

    Torsion above 1e-10 raises HasTorsion naming the first such point. Q is
    the normalized Ricci trace, read straight from the jets,
    r_ij = d_i Gamma^k_kj - d_k Gamma^k_ij + Gamma^k_im Gamma^m_kj - Gamma^k_km Gamma^m_ij,
    without forming the curvature, its Gamma Gamma terms (and the contractions
    with u) as matmuls of (n x n^2) and (n^2 x n) reshapes; a Ricci trace that
    is not finite raises DomainError naming the first such point.
    """
    n = cv.n
    require_torsion_free(cv, 1e-10, "Cartan transport expects a torsion-free connection")
    g, dg, lead = cv.gamma, cv.dgamma, cv.gamma.shape[:-3]
    gi = np.swapaxes(g, -3, -2).reshape(lead + (n, n * n))  # gi[..., i, (k, m)] = Gamma^k_im
    tr = np.einsum("...kki->...i", g)
    ric = (np.einsum("...ikkj->...ij", dg) - np.einsum("...kkij->...ij", dg)
           + gi @ gi.reshape(lead + (n * n, n))
           - (tr[..., None, :] @ g.reshape(lead + (n, n * n))).reshape(lead + (n, n)))
    refuse_where(DomainError, ~np.isfinite(ric).all(axis=(-2, -1)), "Ricci trace is not finite",
                 None, cv.point)
    q = _normalized(ric, n)
    au = np.einsum("...i,...i->...", tr, u) / -(n + 1)
    out = np.empty(lead + (n + 1, n + 1))
    out[..., 0, 0] = au
    out[..., 0, 1:] = (u[..., None, :] @ q)[..., 0, :]
    out[..., 1:, 0] = u
    out[..., 1:, 1:] = ((u[..., None, :] @ gi).reshape(lead + (n, n))
                        + au[..., None, None] * np.eye(n))
    return out


def _rk4_frame(a: np.ndarray) -> np.ndarray:
    """Frame of dPhi/dt = Phi A over t in [0, 1] from Phi = I by K uniform RK4
    steps, K a power of two; a holds A at t = i/(2K), i = 0..2K: (..., 2K+1, m, m).
    Step maps S = I + h/6 (A0 + 2 K2 + 2 K3 + K4), K2 = (I + h/2 A0) Am,
    K3 = (I + h/2 K2) Am, K4 = (I + h K3) A1 are multiplied as a pairwise tree."""
    h = 2.0 / (a.shape[-3] - 1)
    eye = np.eye(a.shape[-1])
    a0, am, a1 = a[..., :-1:2, :, :], a[..., 1::2, :, :], a[..., 2::2, :, :]
    k = (0.5 * h * a0 + eye) @ am  # K2
    s = a0 + 2.0 * k
    k = (0.5 * h * k + eye) @ am  # K3
    s += 2.0 * k
    s += (h * k + eye) @ a1  # K4
    s = eye + h / 6.0 * s
    while s.shape[-3] > 1:
        s = s[..., 0::2, :, :] @ s[..., 1::2, :, :]
    return s[..., 0, :, :]


def _hat_nodes(spec: ConnectionSpec, starts, dirs, levels) -> np.ndarray:
    """A at starts[s] + t dirs[s] as out[s, j], t the j-th smallest node of the
    levels (1-D arrays), evaluated level by level, each segment by segment, in
    point_blocks of width 2 n^4 + 12 n^3, the entries a node holds while its
    jets and hat matrix are formed (see connection.BLOCK_ENTRIES)."""
    n = spec.n
    seg = np.concatenate([np.repeat(np.arange(len(starts)), lv.size) for lv in levels])
    t = np.concatenate([np.tile(lv, len(starts)) for lv in levels])
    col = np.searchsorted(np.sort(np.concatenate(levels)), t)
    out = np.empty((len(starts), col.max() + 1, n + 1, n + 1))
    i = 0
    for block in point_blocks(starts[seg] + t[:, None] * dirs[seg], 2 * n ** 4 + 12 * n ** 3):
        j = i + len(block)
        out[seg[i:j], col[i:j]] = _hat_matrix(spec.evaluate_many(block, derivs=1), dirs[seg[i:j]])
        i = j
    return out


def _romberg_frames(spec: ConnectionSpec, starts, dirs, budget):
    """Frames of the segments starts + t dirs, t in [0, 1], all of nonzero
    length, as transport_many describes them; budget holds each segment's
    TRANSPORT_TOL * length. One first pass evaluates the 17 nodes of K = 8,
    where E2 is first compared, and Phi_1 ... Phi_8 take every 8th, 4th, 2nd
    and 1st of them."""
    frames = np.empty((len(dirs), spec.n + 1, spec.n + 1))
    todo = np.arange(len(dirs))  # unfinished segments
    a = _hat_nodes(spec, starts, dirs, [np.linspace(0.0, 1.0, 3)]
                   + [(2 * np.arange(k) + 1) / (2 * k) for k in (2, 4, 8)])
    row, k = [_rk4_frame(a[:, ::8])], 1  # the Romberg row at K: Phi_K, E1_K, E2_K
    while todo.size:
        k *= 2
        if k > 8:  # the new odd nodes
            new = _hat_nodes(spec, starts[todo], dirs[todo], [(2 * np.arange(k) + 1) / (2 * k)])
            a = np.insert(a, range(1, k + 1), new, axis=1)
        prev, row = row, [_rk4_frame(a[:, ::max(1, 8 // k)])]
        refuse_where(StepFailure, ~np.isfinite(row[0]).all(axis=(-2, -1)),
                     "transport frame is not finite", None, starts[todo])
        for j, coarse in enumerate(prev[:2]):  # E1 cancels the h^4 error term, E2 the h^5 one
            row.append(row[j] + (row[j] - coarse) / (2 ** (j + 4) - 1))
        if len(prev) < 3:
            continue
        done = np.abs(row[2] - prev[2]).max(axis=(-2, -1)) <= budget[todo]
        frames[todo[done]] = row[2][done]
        if k == MAX_STEPS:
            refuse_where(StepFailure, ~done, f"transport needs more than {MAX_STEPS} steps "
                         "per segment", None, starts[todo])
        todo, a, row = todo[~done], a[~done], [r[~done] for r in row]
    return frames


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def transport_many(spec: ConnectionSpec, paths) -> np.ndarray:
    """Integrate dPhi/dt = Phi A(gamma(t)) from Phi = I along each polyline in `paths`;
    the frames at the ends, (len(paths), n+1, n+1) with the line column first.

    Each distinct segment of nonzero length (a repeated start and direction is
    transported once) takes K uniform RK4 steps, nodes t = i/(2K), from K = 1;
    the nodes up to K = 8 come in one pass, and each later doubling adds the
    odd nodes, for all unfinished segments of a block together. The RK4 frames
    Phi_K are extrapolated across the doublings (Romberg): E1_K = Phi_K + (Phi_K
    - Phi_K/2)/15 and E2_K = E1_K + (E1_K - E1_K/2)/31. A segment is done when
    max|E2_K - E2_K/2| <= TRANSPORT_TOL * length, and keeps E2_K. Blocks of
    segments are transported one after another, so the node arrays held do not
    grow with the number of paths. StepFailure names the start of a segment
    whose frame is not finite or that needs more than MAX_STEPS steps, and the
    first vertex of a path whose frame, the product of its segment frames, is
    not finite.
    """
    n = spec.n
    paths = [np.atleast_2d(np.asarray(path, dtype=float)) for path in paths]
    if any(path.shape[1] != n for path in paths):
        raise ValueError("path vertices do not match the chart dimension")
    starts = np.concatenate([np.empty((0, n))] + [path[:-1] for path in paths])
    dirs = np.concatenate([np.empty((0, n))] + [np.diff(path, axis=0) for path in paths])
    frames = np.tile(np.eye(n + 1), (len(dirs), 1, 1))
    lengths = np.linalg.norm(dirs, axis=1)
    moving = np.flatnonzero(lengths)
    rows = np.hstack([starts, dirs])[moving].view(f"V{16 * n}")[:, 0]  # compared bitwise
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    distinct = moving[np.sort(first)]  # in order of first appearance
    per_block = max(1, SEGMENT_ENTRIES // ((2 * MAX_STEPS + 1) * (n + 1) ** 2))
    for i in range(0, distinct.size, per_block):
        block = distinct[i:i + per_block]
        frames[block] = _romberg_frames(spec, starts[block], dirs[block],
                                        TRANSPORT_TOL * lengths[block])
    frames[moving] = frames[moving[first[inverse]]]

    ends = np.cumsum([0] + [len(path) - 1 for path in paths])
    out = np.array([reduce(np.matmul, frames[i:j], np.eye(n + 1))
                    for i, j in zip(ends, ends[1:])]).reshape(len(paths), n + 1, n + 1)
    refuse_where(StepFailure, ~np.isfinite(out).all(axis=(-2, -1)), "path frame is not finite",
                 None, [path[0] for path in paths])
    return out


def cartan_transport(spec: ConnectionSpec, path) -> np.ndarray:
    """The frame along one polyline: transport_many with a single path."""
    return transport_many(spec, [path])[0]


def holonomy_loops(x0: np.ndarray, seed: int) -> "list[np.ndarray]":
    """Eight seeded square loops through x0 in coordinate 2-planes, with sides 0.1
    and 0.2 in turn and a seeded sign; at n = 2 all lie in the plane (1, 2), so
    they are at most four distinct loops."""
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


def flatness_defect(spec: ConnectionSpec, x0, seed: int) -> float:
    """Worst holonomy deviation from the identity over the seeded loop family."""
    loops = holonomy_loops(np.asarray(x0, dtype=float), seed=seed)
    return float(np.max(np.abs(transport_many(spec, loops) - np.eye(spec.n + 1))))


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


def develop_map(spec: ConnectionSpec, x0, targets, flat_tol: float,
                seed: int) -> "tuple[list[ProjectivePoint], np.ndarray]":
    """Develop targets into projective space from base x0: the image of each
    target, and its two-path discrepancy as a (len(targets),) array.

    Flatness is certified first on the seeded loop family (NotFlat on
    failure). Each target is reached along the straight segment and again
    through a seeded waypoint; the image is the normalized first frame
    column of the straight path.
    """
    x0 = np.asarray(x0, dtype=float)
    defect = flatness_defect(spec, x0, seed=seed)
    if defect > flat_tol:
        raise NotFlat(defect, flat_tol)
    rng = np.random.default_rng(seed + 1)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    paths = []
    for raw in targets:
        mid = 0.5 * (x0 + raw) + rng.uniform(-0.05, 0.05, x0.size)
        paths += [[x0, raw], [x0, mid, raw]]
    images = [ProjectivePoint(frame[:, 0]) for frame in transport_many(spec, paths)]
    errors = np.array([np.max(np.abs(first.homogeneous - second.homogeneous))
                       for first, second in zip(images[0::2], images[1::2])])
    return images[0::2], errors


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


def geodesic_trace(spec: ConnectionSpec, x0, v0, t_end: float, steps: int) -> np.ndarray:
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
        out.append(x.copy())
    return np.array(out)
