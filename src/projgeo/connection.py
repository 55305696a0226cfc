"""Affine connections on a coordinate chart and their curvature data.

Index conventions (fixed once, used by every downstream module):

    Gamma^k_{ij}        = gamma[k, i, j]       (nabla_{d_i} d_j = Gamma^k_{ij} d_k)
    d_l Gamma^k_{ij}    = dgamma[l, k, i, j]
    d_m d_l Gamma^k_{ij} = ddgamma[m, l, k, i, j]

    R(d_i, d_j) d_k = R^l_{kij} d_l   with
    R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}

so curvature values have variance (up, down, down, down) in slot order
[l, k, i, j]. The Ricci trace is r_ij = R^k_{jik} (trace of Z -> R(X,Z)Y over
Z), and the trace 2-form is s_ij = R^k_{kij}.

A connection comes from one table of closed-form entries, Christoffel symbols
or a metric as `ConnectionSpec.kind` says, optionally plus a projective
perturbation alpha (which adds alpha_i delta^k_j + alpha_j delta^k_i at every
derivative level). parse_chart reads that table with readers.read_entries, the
reader alpha files share. Levi-Civita solves g Gamma = c on the metric's jets
at each point, never symbolically.

Every array above may carry leading point axes: `ConnectionSpec.evaluate_many`
stacks its rows on one, and the curvature functions below act on such a stack
as on a single point, which is the case with no leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as ex
from .readers import ChartError, read_entries, read_text
from .tensor import MAX_DIM, TensorValue

__all__ = [
    "ConnectionSpec", "ConnectionValue", "load_chart", "parse_chart",
    "point_blocks",
    "torsion", "require_torsion_free", "curvature", "ricci", "trace2form",
    "curvature_derivative", "second_bianchi_residual",
    "SingularMetric", "MissingJet", "HasTorsion", "ChartError",
]


class SingularMetric(ArithmeticError):
    """Metric not invertible to working precision (condition estimate > 1e12)."""


class MissingJet(ValueError):
    """Operation needs a derivative level the ConnectionValue does not carry."""


class HasTorsion(ValueError):
    """Operation requires a torsion-free connection."""


# Float64 entries one block holds at its peak, its arrays and temporaries
# together: 2 MB. Each caller of point_blocks passes the entries it holds per
# row as a formula in n, at or above the per-row slope that tracemalloc
# measures for it on the round metric and on random Christoffel charts, n = 2..6
# (the slope as a share of the formula; the peak of one full block at n = 2, 3,
# 4 and 6, which adds about 0.2 MB of einsum buffers that do not grow with it):
#   check_weyl_invariance  8 n^(3 + derivs)  0.79-0.99  1.71-1.94 MB
#   develop._hat_nodes     2 n^4 + 12 n^3    0.68-0.78  1.05-1.65 MB
#   twistor.nijenhuis      2 n^4 + 12 n^3    0.66-0.68  0.87-1.45 MB (n even)
#   _gamma_difference      8 n^3             0.45-0.70  0.93-1.41 MB
# remove_torsion walks its 5 points in blocks of the width 8 n^3.
BLOCK_ENTRIES = 2 ** 18


def point_blocks(points, width: int) -> "list[np.ndarray]":
    """Consecutive blocks of the rows of a 2-D array (a (P, n) point array, or
    any stack of flattened rows), each of max(1, BLOCK_ENTRIES // width) rows
    for callers that hold `width` float64 entries per row at their peak."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = max(1, BLOCK_ENTRIES // width)
    return [points[start:start + rows] for start in range(0, points.shape[0], rows)]


@dataclass
class ConnectionValue:
    """Connection data: Gamma and optionally its first two derivative levels.

    From `ConnectionSpec.evaluate` the fields belong to one point; from
    `ConnectionSpec.evaluate_many` they are stacked along a leading point axis.
    """

    n: int
    point: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray | None = None
    ddgamma: np.ndarray | None = None

    def require(self, level: int) -> None:
        if level >= 1 and self.dgamma is None:
            raise MissingJet("dgamma (first derivatives of Gamma) not evaluated")
        if level >= 2 and self.ddgamma is None:
            raise MissingJet("ddgamma (second derivatives of Gamma) not evaluated")


@dataclass
class ConnectionSpec:
    """A connection given in closed form on a chart of dimension n.

    `kind` is the chart section the `entries` come from: "christoffel"
    (0-based (k, i, j) -> Expr) or "metric" (0-based (i, j), i <= j -> Expr),
    as parse_chart reads them from chart text; absent entries are zero.
    `alpha` optionally holds n expressions adding the projective perturbation
    alpha_i delta^k_j + alpha_j delta^k_i on top of the base connection.
    The entries and alpha are compiled into one tape on first evaluation.
    """

    n: int
    kind: str
    entries: dict[tuple[int, ...], ex.Expr]
    alpha: tuple[ex.Expr, ...] | None = None
    _compiled: "_Compiled | None" = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if not 2 <= self.n <= MAX_DIM:
            raise ValueError(f"chart dimension must be in 2..{MAX_DIM}, got {self.n}")
        if self.kind not in ("christoffel", "metric"):
            raise ValueError(f"kind must be 'christoffel' or 'metric', got {self.kind!r}")

    def _plan(self) -> "_Compiled":
        if self._compiled is None:
            self._compiled = _Compiled.build(self)
        return self._compiled

    def evaluate(self, p, derivs: int) -> ConnectionValue:
        """Connection data at point p with `derivs` derivative levels of Gamma (0..2)."""
        p = np.asarray(p, dtype=float)
        cv = self.evaluate_many(p[None], derivs)
        return ConnectionValue(self.n, p, *(None if a is None else a[0]
                                            for a in (cv.gamma, cv.dgamma, cv.ddgamma)))

    def evaluate_many(self, points, derivs: int) -> ConnectionValue:
        """Connection data at each row of `points` (P, n), stacked along a leading axis.

        gamma is (P, n, n, n), dgamma (P, n, n, n, n) and ddgamma
        (P, n, n, n, n, n), in the index order of the single-point fields.
        """
        if derivs not in (0, 1, 2):
            raise ValueError("derivs must be 0, 1 or 2")
        points = np.asarray(points, dtype=float)
        plan = self._plan()
        metric = self.kind == "metric"
        jets = plan.tape.run(points, derivs + metric)
        # copied, so that a metric chart's jets can be released before Levi-Civita
        alpha = [jet[..., plan.m + 1:].copy() for jet in jets[:derivs + 1]]
        if metric:
            g, c = plan.entry_arrays(jets[:-1]), [plan.first_kind(j) for j in jets[1:]]
            del jets
            levels = _levi_civita(g, c, points)
        else:
            levels = plan.entry_arrays(jets)
        if self.alpha is not None:
            _add_projective_term(levels, alpha)
        return ConnectionValue(self.n, points, *levels)


@dataclass(frozen=True, eq=False)
class _Compiled:
    """A spec's tape plus where each output column lands in the stacked arrays.

    Columns [0, m) are the base entries, in dict order; column m is zero;
    [m + 1, m + 1 + n) are alpha. `slot` holds, for every index of Gamma
    (k, i, j) or g (i, j), the column of its entry, or m where it is absent (a
    metric entry fills g_ij and g_ji). On a metric chart `c_index` holds the
    three flat gathers of the symbols of the first kind.
    """

    n: int
    tape: ex.Tape
    m: int
    slot: np.ndarray
    c_index: "np.ndarray | None"

    @classmethod
    def build(cls, spec: "ConnectionSpec") -> "_Compiled":
        n, entries = spec.n, spec.entries
        metric = spec.kind == "metric"
        m = len(entries)
        slot = np.full((n,) * (2 if metric else 3), m, dtype=np.intp)
        for col, key in enumerate(entries):
            slot[key] = col
            if metric:
                slot[key[::-1]] = col
        c_index = None
        if metric:
            # c[l, i, j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, each term a flat
            # index (derivative slot, column) into an output level
            l, i, j = np.indices((n, n, n))
            c_index = np.stack([i * (m + 1) + slot[j, l], j * (m + 1) + slot[i, l],
                                l * (m + 1) + slot[i, j]]).reshape(3, -1)
        exprs = [*entries.values(), ex.Num(0.0), *(spec.alpha or ())]
        return cls(n, ex.compile_tape(exprs, n), m, slot, c_index)

    def entry_arrays(self, jets) -> list:
        """Dense base-entry arrays, one per tape output level.

        For Gamma: gamma, dgamma[l, k, i, j], ddgamma[m, l, k, i, j]; for g:
        g, dg[a, i, j], ddg[a, b, i, j], dddg[a, b, c, i, j].
        """
        return [jet[..., self.slot] for jet in jets]

    @np.errstate(over="ignore", invalid="ignore")
    def first_kind(self, jet) -> np.ndarray:
        """Symbols of the first kind c[..., l, i * n + j] one level below the
        metric output level `jet`, read from its last derivative slot, so the
        dense array of that metric level is never formed. The gathers take
        whole rows of a (derivative slot, column) x point matrix. A sum that
        overflows is left infinite."""
        n, m, lead = self.n, self.m, jet.shape[:-2]
        rows = np.ascontiguousarray(jet[..., :m + 1].reshape(-1, n * (m + 1)).T)
        c = rows[self.c_index[0]]
        c += rows[self.c_index[1]]
        c -= rows[self.c_index[2]]
        c *= 0.5
        return np.ascontiguousarray(c.T).reshape(lead + (n, n * n))


def _singular_range(g: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Smallest and largest singular values of symmetric matrices g (..., n, n).

    For a symmetric matrix these are the extreme eigenvalue magnitudes, which
    eigvalsh finds without the full SVD that np.linalg.cond makes.
    """
    lam = np.abs(np.linalg.eigvalsh(g))
    return lam.min(axis=-1), lam.max(axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _levi_civita(g, c, points) -> list:
    """Levi-Civita gamma and its derivative levels from metric levels g and
    first-kind levels c (as from _Compiled), as many levels as c holds.

    Solves g Gamma = c by the product rule, level by level, with Gamma as
    (n, n^2) matrices. Empties both lists, so each level is released after its
    last use. A row whose metric is not invertible to working precision raises
    SingularMetric naming its point. An entry that overflows is left infinite
    for the curvature check to refuse.
    """
    g0 = g.pop(0)
    low, high = _singular_range(g0)
    # not high >= 1e12 * low, which overflows; <= refuses a metric of scale 0 or < 1e-312 too
    bad = low <= 1e-12 * high
    if np.any(bad):
        r = int(np.argmax(bad))
        cond = high[r] / low[r] if low[r] else np.inf
        raise SingularMetric(f"metric condition estimate {cond:.3e} exceeds 1e12 "
                             f"{ex.at_point(points[r])}")
    ginv = np.linalg.inv(g0)
    n = g0.shape[-1]
    levels = [ginv @ c.pop(0)]
    if c:  # g d_a Gamma = d_a c - d_a g Gamma
        g1, rhs = g.pop(0), c.pop(0)
        rhs -= g1 @ levels[0][:, None]
        levels.append(ginv[:, None] @ rhs)
        del rhs
    if c:  # g d_a d_b Gamma = d_a d_b c minus the three products below
        gamma, dgamma = levels
        rhs = c.pop(0)
        tmp = np.empty_like(rhs)
        rhs -= np.matmul(g.pop(0), gamma[:, None, None], out=tmp)  # d_a d_b g Gamma
        rhs -= np.matmul(g1[:, :, None], dgamma[:, None], out=tmp)  # d_a g d_b Gamma
        rhs -= np.matmul(g1[:, None], dgamma[:, :, None], out=tmp)  # d_b g d_a Gamma
        levels.append(np.matmul(ginv[:, None, None], rhs, out=tmp))
    return [level.reshape(level.shape[:-2] + (n, n, n)) for level in levels]


@np.errstate(over="ignore", invalid="ignore")
def _add_projective_term(levels, alpha) -> None:
    """Add alpha_i delta^k_j + alpha_j delta^k_i to every level in place; levels[d]
    and alpha[d] carry d derivative slots ahead of their index slots. An entry
    that overflows is left infinite for the curvature check to refuse."""
    for level, a in zip(levels, alpha):
        level += _projective_term(a)


def _projective_term(a) -> np.ndarray:
    """alpha_i delta^k_j + alpha_j delta^k_i as (..., n, n, n) for alpha (..., n),
    each term written into the diagonal it lives on."""
    n = a.shape[-1]
    term = np.zeros(a.shape[:-1] + (n, n, n))
    np.einsum("...kik->...ki", term)[...] = a[..., None, :]
    diag = np.einsum("...kkj->...kj", term)
    diag += a[..., None, :]
    return term


@np.errstate(invalid="ignore")
def torsion(cv: ConnectionValue) -> TensorValue:
    """Torsion T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}, variance (up, down, down);
    NaN where infinite entries cancel."""
    return TensorValue(cv.n, ("up", "down", "down"), cv.gamma - np.swapaxes(cv.gamma, -1, -2))


def require_torsion_free(cv: ConnectionValue, tol: float, what: str) -> None:
    """Raise HasTorsion with the message `what`, naming the first point of cv
    whose max-abs torsion exceeds tol. NaN torsion passes, for the finiteness
    check of the caller's result to refuse."""
    ex.refuse_where(HasTorsion, np.max(np.abs(torsion(cv).data), axis=(-3, -2, -1)) > tol,
                    what, None, cv.point)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def curvature(cv: ConnectionValue) -> TensorValue:
    """Curvature R^l_{kij} in the fixed convention, variance (up, down, down, down).

    Raises DomainError naming the first point whose curvature is not finite.
    """
    cv.require(1)
    t1 = np.einsum("...iljk->...lkij", cv.dgamma)
    t3 = np.einsum("...lim,...mjk->...lkij", cv.gamma, cv.gamma)
    r = t1 - np.swapaxes(t1, -1, -2) + t3 - np.swapaxes(t3, -1, -2)
    ex.refuse_where(ex.DomainError, ~np.isfinite(r).all(axis=(-4, -3, -2, -1)),
                    "curvature is not finite", None, cv.point)
    return TensorValue(cv.n, ("up", "down", "down", "down"), r)


def ricci(r: TensorValue) -> TensorValue:
    """Ricci r_ij = R^k_{jik}: trace of Z -> R(X, Z)Y over Z."""
    if r.variance != ("up", "down", "down", "down"):
        raise ValueError("ricci expects a curvature-variance tensor")
    return TensorValue(r.n, ("down", "down"), np.einsum("...kjik->...ij", r.data))


def trace2form(r: TensorValue) -> TensorValue:
    """Trace 2-form s_ij = R^k_{kij} (trace of the curvature endomorphism)."""
    if r.variance != ("up", "down", "down", "down"):
        raise ValueError("trace2form expects a curvature-variance tensor")
    return TensorValue(r.n, ("down", "down"), np.einsum("...kkij->...ij", r.data))


def curvature_derivative(cv: ConnectionValue) -> np.ndarray:
    """Coordinate derivative d_m R^l_{kij}, as a raw array [..., m, l, k, i, j]."""
    cv.require(2)
    g, dg, ddg = cv.gamma, cv.dgamma, cv.ddgamma
    t = np.einsum("...miljk->...mlkij", ddg)
    u = (np.einsum("...mlip,...pjk->...mlkij", dg, g)
         + np.einsum("...lip,...mpjk->...mlkij", g, dg))
    return t - np.swapaxes(t, -1, -2) + u - np.swapaxes(u, -1, -2)


def second_bianchi_residual(cv: ConnectionValue) -> TensorValue:
    """Residual of the differential Bianchi identity with torsion terms.

    (nabla_X R)(Y,Z) + (nabla_Y R)(Z,X) + (nabla_Z R)(X,Y)
      + R(T(X,Y), Z) + R(T(Y,Z), X) + R(T(Z,X), Y) = 0
    returned as a rank-5 tensor over (X, Y, Z) = (d_a, d_b, d_c).
    """
    g = cv.gamma
    r = curvature(cv).data
    dr = curvature_derivative(cv)
    nabla_r = (dr
               + np.einsum("...lap,...pkij->...alkij", g, r)
               - np.einsum("...pak,...lpij->...alkij", g, r)
               - np.einsum("...pai,...lkpj->...alkij", g, r)
               - np.einsum("...paj,...lkip->...alkij", g, r))
    total = (np.einsum("...alkbc->...lkabc", nabla_r)
             + np.einsum("...blkca->...lkabc", nabla_r)
             + np.einsum("...clkab->...lkabc", nabla_r))
    t = torsion(cv).data
    total = total + (np.einsum("...pab,...lkpc->...lkabc", t, r)
                     + np.einsum("...pbc,...lkpa->...lkabc", t, r)
                     + np.einsum("...pca,...lkpb->...lkabc", t, r))
    return TensorValue(cv.n, ("up",) + ("down",) * 4, total)


def load_chart(path: "str | Path") -> ConnectionSpec:
    """Read a chart file (see parse_chart)."""
    return parse_chart(read_text(path))


def parse_chart(text: str) -> ConnectionSpec:
    """A chart from its text: a dim header plus one [metric]/[christoffel] section.

    File indices are 1-based (`g 1 2 = ...`, `G 1 2 3 = ...`); missing entries
    are zero, metric entries require i <= j, duplicates are rejected (see
    readers.read_entries).
    """
    return ConnectionSpec(*read_entries(text, None))
