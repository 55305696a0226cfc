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

Connections come from closed-form Christoffel entries, from a metric
(Levi-Civita, computed from the metric's jets at each point, never
symbolically), or from either of those plus a projective perturbation alpha
(which adds alpha_i delta^k_j + alpha_j delta^k_i).

Every array above may carry leading point axes: `ConnectionSpec.evaluate_many`
stacks its rows on one, and the curvature functions below act on such a stack
as on a single point, which is the case with no leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as ex
from .readers import ChartError, content_lines, parse_expr, read_dim, read_text, split_entry
from .tensor import MAX_DIM, TensorValue

__all__ = [
    "ConnectionSpec", "ConnectionValue", "load_chart", "parse_chart",
    "POINT_BLOCK", "point_blocks",
    "torsion", "curvature", "ricci", "trace2form", "curvature_derivative",
    "second_bianchi_residual", "SingularMetric", "MissingJet", "ChartError",
]


class SingularMetric(ArithmeticError):
    """Metric not invertible to working precision (condition estimate > 1e12)."""


class MissingJet(ValueError):
    """Operation needs a derivative level the ConnectionValue does not carry."""


# Consumers that evaluate many points walk them in blocks of this many rows:
# big enough to spread the per-instruction cost of a tape run, small enough
# that the order-3 partials of a block stay a few hundred kilobytes.
POINT_BLOCK = 8


def point_blocks(points) -> "list[np.ndarray]":
    """Consecutive blocks of at most POINT_BLOCK rows of a 2-D array: a (P, n)
    point array, or any stack of flattened rows."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return [points[start:start + POINT_BLOCK]
            for start in range(0, points.shape[0], POINT_BLOCK)]


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

    Exactly one of `christoffel` (0-based (k, i, j) -> Expr) or `metric`
    (0-based (i, j), i <= j -> Expr) is set; absent entries are zero. `alpha`
    optionally holds n expressions adding the projective perturbation
    alpha_i delta^k_j + alpha_j delta^k_i on top of the base connection.
    The entries and alpha are compiled into one tape on first evaluation.
    """

    n: int
    christoffel: dict[tuple[int, int, int], ex.Expr] | None = None
    metric: dict[tuple[int, int], ex.Expr] | None = None
    alpha: tuple[ex.Expr, ...] | None = None
    name: str = ""
    _compiled: "_Compiled | None" = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if not 2 <= self.n <= MAX_DIM:
            raise ValueError(f"chart dimension must be in 2..{MAX_DIM}, got {self.n}")
        if (self.christoffel is None) == (self.metric is None):
            raise ValueError("exactly one of christoffel/metric must be given")

    @property
    def source(self) -> str:
        return "metric" if self.metric is not None else "christoffel"

    @classmethod
    def from_christoffel(cls, n: int, entries: dict[tuple[int, int, int], "ex.Expr | str"],
                         name: str = "") -> "ConnectionSpec":
        return cls(n, christoffel=_parse_entries(entries, n), name=name)

    @classmethod
    def from_metric(cls, n: int, entries: dict[tuple[int, int], "ex.Expr | str"],
                    name: str = "") -> "ConnectionSpec":
        parsed = _parse_entries(entries, n)
        for (i, j) in parsed:
            if i > j:
                raise ValueError(f"metric entries use i <= j, got ({i}, {j})")
        return cls(n, metric=parsed, name=name)

    @property
    def tape(self) -> ex.Tape:
        """The entries followed by alpha, compiled into one tape."""
        return self._plan().tape

    def _plan(self) -> "_Compiled":
        if self._compiled is None:
            self._compiled = _Compiled.build(self)
        return self._compiled

    def evaluate(self, p, derivs: int = 1) -> ConnectionValue:
        """Connection data at point p with `derivs` derivative levels of Gamma (0..2)."""
        p = np.asarray(p, dtype=float)
        cv = self.evaluate_many(p[None], derivs)
        return ConnectionValue(self.n, p, *(None if a is None else a[0]
                                            for a in (cv.gamma, cv.dgamma, cv.ddgamma)))

    def evaluate_many(self, points, derivs: int = 1) -> ConnectionValue:
        """Connection data at each row of `points` (P, n), stacked along a leading axis.

        gamma is (P, n, n, n), dgamma (P, n, n, n, n) and ddgamma
        (P, n, n, n, n, n), in the index order of the single-point fields.
        """
        if derivs not in (0, 1, 2):
            raise ValueError("derivs must be 0, 1 or 2")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ValueError(f"points have shape {points.shape}, chart dimension is {self.n}")
        plan = self._plan()
        if self.metric is not None:
            jets = plan.tape.run(points, derivs + 1)
            gamma, dgamma, ddgamma = _levi_civita(plan.entry_arrays(jets, 4), points, derivs)
        else:
            jets = plan.tape.run(points, derivs)
            gamma, dgamma, ddgamma = plan.entry_arrays(jets, 3)
        if self.alpha is not None:
            # alpha_i, d_l alpha_i as [l, i], d_m d_l alpha_i as [m, l, i]
            alpha = [jet[..., plan.m:] for jet in jets]
            _add_projective_term(gamma, dgamma, ddgamma, alpha)
        return ConnectionValue(self.n, points, gamma, dgamma, ddgamma)


@dataclass(frozen=True, eq=False)
class _Compiled:
    """A spec's tape plus where each output column lands in the stacked arrays.

    Columns [0, m) are the base entries, in dict order; [m, m + n) are alpha.
    `flat` holds the raveled index of each entry's slot(s) in an array of
    `rank` (3 for Gamma, 2 for g) and `cols` the output column feeding it
    (a metric entry fills g_ij and g_ji).
    """

    n: int
    rank: int
    tape: ex.Tape
    m: int
    flat: np.ndarray
    cols: np.ndarray

    @classmethod
    def build(cls, spec: "ConnectionSpec") -> "_Compiled":
        n = spec.n
        entries = spec.metric if spec.metric is not None else spec.christoffel
        flat, cols = [], []
        for col, key in enumerate(entries):
            if spec.metric is not None:
                i, j = key
                places = [i * n + j] if i == j else [i * n + j, j * n + i]
            else:
                k, i, j = key
                places = [(k * n + i) * n + j]
            flat += places
            cols += [col] * len(places)
        exprs = list(entries.values()) + list(spec.alpha or ())
        return cls(n, 2 if spec.metric is not None else 3, ex.compile_tape(exprs, n),
                   len(entries), np.array(flat, dtype=np.intp), np.array(cols, dtype=np.intp))

    def entry_arrays(self, jets, levels: int) -> list:
        """Dense base-entry arrays, one per tape output level, None-padded to `levels`.

        For Gamma: gamma, dgamma[l, k, i, j], ddgamma[m, l, k, i, j]; for g:
        g, dg[a, i, j], ddg[a, b, i, j], dddg[a, b, c, i, j].
        """
        out = []
        for jet in jets:
            lead = jet.shape[:-1]
            dense = np.zeros(lead + (self.n ** self.rank,))
            dense[..., self.flat] = jet[..., self.cols]
            out.append(dense.reshape(lead + (self.n,) * self.rank))
        return out + [None] * (levels - len(out))


def _parse_entries(entries, n):
    parsed = {}
    interned: dict[str, ex.Expr] = {}
    for key, value in entries.items():
        if isinstance(value, str):
            if value not in interned:
                interned[value] = ex.parse(value, n)
            value = interned[value]
        for idx in key:
            if not 0 <= idx < n:
                raise ValueError(f"index {idx} out of range for dimension {n}")
        parsed[key] = value
    return parsed


def _inverse_jets(g0, g1, g2, points):
    """Derivative arrays of g^{-1} from those of g, via the product-rule recursion.

    Every array carries a leading point axis; i2 is formed only when g2 is
    given. A row whose metric is not invertible to working precision raises
    SingularMetric naming its point.
    """
    cond = np.linalg.cond(g0)
    bad = cond > 1e12
    if np.any(bad):
        r = int(np.argmax(bad))
        raise SingularMetric(f"metric condition estimate {cond[r]:.3e} exceeds 1e12 "
                             f"{ex.at_point(points[r])}")
    i0 = np.linalg.inv(g0)
    # i1[a] = -i0 g1[a] i0
    i1 = -(i0[:, None] @ g1 @ i0[:, None])
    i2 = None
    if g2 is not None:
        # i2[a, b] = -i0 (g2[a, b] i0 + g1[a] i1[b] + g1[b] i1[a])
        inner = (g2 @ i0[:, None, None] + g1[:, :, None] @ i1[:, None]
                 + g1[:, None] @ i1[:, :, None])
        i2 = -(i0[:, None, None] @ inner)
    return i0, i1, i2


def _levi_civita(metric_arrays, points, derivs):
    """Stacked gamma, dgamma, ddgamma of the Levi-Civita connection, one row per point."""
    g0, g1, g2, g3 = metric_arrays
    i0, i1, i2 = _inverse_jets(g0, g1, g2 if derivs >= 2 else None, points)

    # c[l,i,j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, with derivative levels
    # read off one order higher in the metric jets
    c0 = 0.5 * (np.einsum("...ijl->...lij", g1) + np.einsum("...jil->...lij", g1) - g1)
    gamma = np.einsum("...kl,...lij->...kij", i0, c0)
    dgamma = ddgamma = None
    if derivs >= 1:
        c1 = 0.5 * (np.einsum("...aijl->...alij", g2) + np.einsum("...ajil->...alij", g2)
                    - g2)
        dgamma = (np.einsum("...akl,...lij->...akij", i1, c0)
                  + np.einsum("...kl,...alij->...akij", i0, c1))
    if derivs >= 2:
        c2 = 0.5 * (np.einsum("...abijl->...ablij", g3) + np.einsum("...abjil->...ablij", g3)
                    - g3)
        ddgamma = (np.einsum("...abkl,...lij->...abkij", i2, c0)
                   + np.einsum("...akl,...blij->...abkij", i1, c1)
                   + np.einsum("...bkl,...alij->...abkij", i1, c1)
                   + np.einsum("...kl,...ablij->...abkij", i0, c2))
    return gamma, dgamma, ddgamma


def _add_projective_term(gamma, dgamma, ddgamma, alpha):
    """Add alpha_i delta^k_j + alpha_j delta^k_i, and its derivatives, in place."""
    eye = np.eye(gamma.shape[-1])
    a0 = alpha[0]
    gamma += (np.einsum("...i,kj->...kij", a0, eye)
              + np.einsum("...j,ki->...kij", a0, eye))
    if dgamma is not None:
        a1 = alpha[1]  # a1[l, i] = d_l alpha_i
        dgamma += (np.einsum("...li,kj->...lkij", a1, eye)
                   + np.einsum("...lj,ki->...lkij", a1, eye))
    if ddgamma is not None:
        a2 = alpha[2]  # a2[m, l, i]
        ddgamma += (np.einsum("...mli,kj->...mlkij", a2, eye)
                    + np.einsum("...mlj,ki->...mlkij", a2, eye))


def torsion(cv: ConnectionValue) -> TensorValue:
    """Torsion T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}, variance (up, down, down)."""
    return TensorValue(cv.n, ("up", "down", "down"), cv.gamma - np.swapaxes(cv.gamma, -1, -2))


def curvature(cv: ConnectionValue) -> TensorValue:
    """Curvature R^l_{kij} in the fixed convention, variance (up, down, down, down).

    Raises DomainError naming the first point whose curvature is not finite.
    """
    cv.require(1)
    t1 = np.einsum("...iljk->...lkij", cv.dgamma)
    t3 = np.einsum("...lim,...mjk->...lkij", cv.gamma, cv.gamma)
    r = t1 - np.swapaxes(t1, -1, -2) + t3 - np.swapaxes(t3, -1, -2)
    ex.refuse_where(~np.isfinite(r).all(axis=(-4, -3, -2, -1)), "curvature is not finite",
                    None, cv.point.reshape(-1, cv.n))
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


def load_chart(path: "str | Path", name: str | None = None) -> ConnectionSpec:
    """Read a chart file (see parse_chart); the chart is named after the file."""
    return parse_chart(read_text(path), Path(path).name if name is None else name)


def parse_chart(text: str, name: str = "") -> ConnectionSpec:
    """A chart from its text: a dim header plus one [metric]/[christoffel] section.

    File indices are 1-based (`g 1 2 = ...`, `G 1 2 3 = ...`); missing entries
    are zero, metric entries require i <= j, duplicates are rejected.
    """
    n = None
    section = None
    entries: dict[tuple[int, ...], ex.Expr] = {}
    interned: dict[str, ex.Expr] = {}

    for lineno, line in content_lines(text):
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if header not in ("metric", "christoffel"):
                raise ChartError(f"line {lineno}: unknown section [{header}]")
            if section is not None:
                raise ChartError(
                    f"line {lineno}: [metric] and [christoffel] are exclusive, "
                    f"and only one section is allowed")
            if n is None:
                raise ChartError(f"line {lineno}: dim must come before any section")
            section = header
            continue
        words, rhs = split_entry(lineno, line)
        if words == ["dim"]:
            if n is not None:
                raise ChartError(f"line {lineno}: duplicate dim")
            n = read_dim(lineno, rhs)
            continue
        if section is None:
            raise ChartError(f"line {lineno}: entry before any section")
        try:
            indices = [int(word) for word in words[1:]]
        except ValueError:
            raise ChartError(f"line {lineno}: bad indices in {' '.join(words)!r}") from None
        if any(not 1 <= i <= n for i in indices):
            raise ChartError(f"line {lineno}: index out of range 1..{n}")
        if rhs not in interned:
            interned[rhs] = parse_expr(lineno, rhs, n)
        if section == "metric":
            if words[0] != "g" or len(indices) != 2:
                raise ChartError(f"line {lineno}: metric entries look like 'g i j = ...'")
            if indices[0] > indices[1]:
                raise ChartError(f"line {lineno}: metric entries use i <= j")
        elif words[0] != "G" or len(indices) != 3:
            raise ChartError(f"line {lineno}: christoffel entries look like 'G k i j = ...'")
        key = tuple(i - 1 for i in indices)
        if key in entries:
            raise ChartError(f"line {lineno}: duplicate entry "
                             f"{words[0]} {' '.join(str(i) for i in indices)}")
        entries[key] = interned[rhs]

    if n is None:
        raise ChartError("missing dim header")
    if section is None:
        raise ChartError("missing [metric] or [christoffel] section")
    return ConnectionSpec(n, **{section: entries}, name=name)
