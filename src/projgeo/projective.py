"""Projective changes of connection and equivalence tests.

A projective change by a 1-form alpha replaces Gamma^k_{ij} with
Gamma^k_{ij} + alpha_i delta^k_j + alpha_j delta^k_i. It keeps the
unparametrized geodesics, the Weyl tensor W (n >= 3), the Cotton tensor
(n = 2) and the twistor almost complex structure; those invariances are what
this module measures. A changed chart keeps its own entries, metric or
Christoffel, and adds alpha to the 1-form it carries as `ConnectionSpec.alpha`.
Alpha files are read by readers.read_entries, the reader charts share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import expr as ex
from .algebra import cotton, torsion_split, weyl
from .connection import (ConnectionSpec, ConnectionValue, _add_projective_term,
                         _projective_term, curvature, point_blocks, require_torsion_free,
                         torsion)
from .readers import read_entries, read_text
from .tensor import OddDimension, norm
from .twistor import mild_complex_structure, vertical_motion

__all__ = [
    "load_alpha", "parse_alpha", "sample_points", "projective_change",
    "WeylInvariance", "check_weyl_invariance",
    "Equivalence", "projectively_equivalent",
    "TorsionRemoval", "remove_torsion",
    "TwistorComparison", "same_twistor_structure", "OddDimension",
]


def load_alpha(path: "str | Path", n: int) -> tuple[ex.Expr, ...]:
    """Read an alpha-field file (see parse_alpha)."""
    return parse_alpha(read_text(path), n)


def parse_alpha(text: str, n: int) -> tuple[ex.Expr, ...]:
    """The 1-form alpha_1 .. alpha_n on a chart of dimension n from its text:
    lines `a <i> = <expr>`, after an optional `dim = n` header that must agree.

    Indices are 1-based; missing entries are zero. Every malformed line raises
    ChartError("line N: ...") (see readers.read_entries).
    """
    _, _, entries = read_entries(text, n)
    return tuple(entries.get((i,), ex.Num(0.0)) for i in range(n))


def sample_points(n: int, count: int, seed: int, half_width: float = 0.4) -> np.ndarray:
    """Deterministic sample of chart points, uniform in a centered box."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-half_width, half_width, size=(count, n))


def projective_change(spec: ConnectionSpec, alpha: "tuple[ex.Expr, ...]") -> ConnectionSpec:
    """The connection with Gamma^k_{ij} + alpha_i delta^k_j + alpha_j delta^k_i.

    The chart keeps its own entries, metric or Christoffel, and alpha is added
    to the spec's projective 1-form, which evaluation applies to every jet level.
    """
    if len(alpha) != spec.n:
        raise ValueError("alpha dimension does not match the chart")
    combined = tuple(alpha) if spec.alpha is None else tuple(
        ex.BinOp("+", old, new) for old, new in zip(spec.alpha, alpha))
    return replace(spec, alpha=combined)


@dataclass
class WeylInvariance:
    """Projective-invariance residuals over a point sample."""

    weyl_residual: float
    cotton_residual: float | None  # n = 2 only, where W vanishes identically


def check_weyl_invariance(spec: ConnectionSpec, alpha: "tuple[ex.Expr, ...]",
                          points, tol: float) -> WeylInvariance:
    """Max difference of W (and of C when n = 2) between spec and its alpha-change.

    W and C are projective invariants of torsion-free connections, so
    torsion above tol raises HasTorsion naming the first such point (alpha
    adds none). The chart is evaluated once per block of points. The changed
    connection is a copy of those levels plus alpha's projective term, which
    is what evaluating projective_change(spec, alpha) adds to them; alpha's
    expressions run on a tape of their own.
    """
    n = spec.n
    if len(alpha) != n:
        raise ValueError("alpha dimension does not match the chart")
    alpha_tape = ex.compile_tape(alpha, n)
    derivs = 2 if n == 2 else 1
    worst_w = 0.0
    worst_c: float | None = 0.0 if n == 2 else None
    for block in point_blocks(points, 8 * n ** (3 + derivs)):
        cv_a = spec.evaluate_many(block, derivs=derivs)
        require_torsion_free(cv_a, tol, "projective invariance test expects a torsion-free "
                             "connection")
        levels = [a.copy() for a in (cv_a.gamma, cv_a.dgamma, cv_a.ddgamma)[:derivs + 1]]
        _add_projective_term(levels, alpha_tape.run(block, derivs))
        cv_b = ConnectionValue(n, cv_a.point, *levels)
        w_a, w_b = (weyl(curvature(cv), tol=tol, points=block).W for cv in (cv_a, cv_b))
        worst_w = max(worst_w, float(np.max(np.abs(w_a.data - w_b.data))))
        if n == 2:
            c_a, c_b = cotton(cv_a, tol=tol), cotton(cv_b, tol=tol)
            worst_c = max(worst_c, float(np.max(np.abs(c_a.data - c_b.data))))
    return WeylInvariance(worst_w, worst_c)


@dataclass
class Equivalence:
    """Verdict of the pointwise projective-equivalence test."""

    equivalent: bool
    residual: float
    alphas: np.ndarray  # recovered alpha_i per sample point, shape (count, n)


def projectively_equivalent(spec_a: ConnectionSpec, spec_b: ConnectionSpec,
                            points, tol: float) -> Equivalence:
    """Whether Gamma_B - Gamma_A is alpha_i delta^k_j + alpha_j delta^k_i pointwise.

    alpha is recovered from the trace (n+1) alpha_i = D^k_{ik} and the
    reconstruction residual is measured in max-abs norm, both block by block
    of the points (see _gamma_differences), so only the alphas outlive a
    block. Once every block is evaluated, a difference that is not finite
    raises DomainError naming the first such point.
    """
    if spec_a.n != spec_b.n:
        raise ValueError("charts have different dimensions")
    n = spec_a.n
    alphas, finite, gaps = [np.zeros((0, n))], [np.ones(0, dtype=bool)], [0.0]
    for d in _gamma_differences(spec_a, spec_b, points):
        finite.append(np.isfinite(d).all(axis=(1, 2, 3)))
        if finite[-1].all():  # else refused below
            alpha = np.einsum("...kik->...i", d) / (n + 1)
            alphas.append(alpha)
            gaps.append(np.max(np.abs(d - _projective_term(alpha)), initial=0.0))
    ex.refuse_where(ex.DomainError, ~np.concatenate(finite), "Gamma difference is not finite",
                    None, points)
    worst = float(np.max(gaps))  # NaN if any gap is, as one max over all points gives
    return Equivalence(worst <= tol, worst, np.concatenate(alphas))


def _gamma_differences(spec_a: ConnectionSpec, spec_b: ConnectionSpec, points):
    """Gamma_B - Gamma_A over each point_block of the rows of points (P, n),
    one (rows, n, n, n) array per block, in order. An entry of either chart
    that overflows is left non-finite for the caller to refuse."""
    n = spec_a.n
    for block in point_blocks(points, 8 * n ** 3):
        with np.errstate(over="ignore", invalid="ignore"):
            d = (spec_b.evaluate_many(block, derivs=0).gamma
                 - spec_a.evaluate_many(block, derivs=0).gamma)
        yield d


def _gamma_difference(spec_a: ConnectionSpec, spec_b: ConnectionSpec, points) -> np.ndarray:
    """Gamma_B - Gamma_A at each row of points (P, n), as (P, n, n, n).

    A difference that is not finite (an entry of either chart overflowed)
    raises DomainError naming the first such point.
    """
    n = spec_a.n
    d = np.concatenate([np.zeros((0, n, n, n))] + list(_gamma_differences(spec_a, spec_b, points)))
    ex.refuse_where(ex.DomainError, ~np.isfinite(d).all(axis=(1, 2, 3)),
                    "Gamma difference is not finite", None, points)
    return d


@dataclass
class TorsionRemoval:
    """Outcome of the canonical torsion removal nabla' = nabla - T2/2: the
    corrected chart, or None when the trace-free part T1 is in the way."""

    ok: bool
    t1_residual: float
    spec: ConnectionSpec | None


def remove_torsion(spec: ConnectionSpec) -> TorsionRemoval:
    """Remove trace-type torsion, if that is all there is.

    Fails (ok=False) when the trace-free torsion part T1 exceeds 1e-9 at 5
    seeded sample points, since only the T2 component can be removed
    canonically. Otherwise T = T2, so nabla - T2/2 is the symmetric part of
    nabla, Gamma^k_{ij} -> (Gamma^k_{ij} + Gamma^k_{ji}) / 2: an entry whose
    mirror is the same tree is kept, any other pair shares one half-sum (an
    absent mirror reads as zero). The chart keeps its alpha.
    """
    n = spec.n
    if spec.kind == "metric":
        # Levi-Civita (plus a projective term) is already symmetric
        return TorsionRemoval(True, 0.0, spec)
    worst_t1 = 0.0
    for block in point_blocks(sample_points(n, 5, seed=3), 8 * n ** 3):
        t1, _ = torsion_split(torsion(spec.evaluate_many(block, derivs=0)))
        worst_t1 = max(worst_t1, norm(t1))
    if worst_t1 > 1e-9:
        return TorsionRemoval(False, worst_t1, None)
    entries: dict[tuple[int, ...], ex.Expr] = {}
    for (k, i, j), entry in spec.entries.items():
        mirror = spec.entries.get((k, j, i))
        if mirror is entry:
            entries[(k, i, j)] = entry
        elif (k, i, j) not in entries:  # else set with its mirror
            entries[(k, i, j)] = entries[(k, j, i)] = ex.BinOp(
                "*", ex.Num(0.5), entry if mirror is None else ex.BinOp("+", entry, mirror))
    return TorsionRemoval(True, worst_t1, ConnectionSpec(n, "christoffel", entries, spec.alpha))


@dataclass
class TwistorComparison:
    """Verdict of the shared-twistor-structure criterion."""

    same: bool
    residual: float


def same_twistor_structure(spec_a: ConnectionSpec, spec_b: ConnectionSpec,
                           seed: int) -> TwistorComparison:
    """Whether the two connections give the same twistor almost complex structure J.

    J depends on Gamma only through twistor.vertical_motion, linearly, in its
    horizontal-to-vertical block, which maps that motion injectively into
    fibre coordinates. So J_A = J_B exactly where the motion of
    A = Gamma_B - Gamma_A vanishes. Its max-abs over 3 seeded sample points
    and 10 structures drawn by mild_complex_structure is the residual; the
    structures agree when it is at most 1e-8.
    """
    n = spec_a.n
    if spec_a.n != spec_b.n:
        raise ValueError("charts have different dimensions")
    if n % 2 != 0:
        raise OddDimension("the twistor criterion needs even dimension")
    points = sample_points(n, 3, seed=seed + 1)
    rng = np.random.default_rng(seed)
    js = np.array([mild_complex_structure(n, rng) for _ in range(10)])
    motion = vertical_motion(_gamma_difference(spec_a, spec_b, points)[:, None], js)
    worst = float(np.max(np.abs(motion)))
    return TwistorComparison(worst <= 1e-8, worst)
