"""Algebraic curvature decomposition: bracket, wedge products, Weyl and Cotton parts.

The underlying graded algebra is V + gl(V) + V* (V = R^n) with

    [A, X] = A X          [alpha, A] = alpha o A      [A, B] = AB - BA
    [X, alpha] Y = alpha(X) Y + alpha(Y) X            [X, Y] = [alpha, beta] = 0

For a bilinear form Q the curvature-like tensor [Q ^ Id] is
[Q ^ Id](X, Y) = [Q(X), Y] - [Q(Y), X], explicitly

    [Q ^ Id](X,Y)Z = (Q(Y,X) - Q(X,Y)) Z - Q(X,Z) Y + Q(Y,Z) X,

and the Ricci trace of it is -(n-1) Q_+ - (n+1) Q_-. The projective pieces are

    Q = ricci_+ / (n-1) + ricci_- / (n+1)      (normalized Ricci)
    W = R + [Q ^ Id]                           (trace-free Weyl part)
    F = -2/(n+1) ricci_-                       (trace 2-form of the pair, F = -s/(n+1))
    C = d^nabla Q                              (Cotton 2-form, needs ddGamma)

The tensor functions take stacked points as well as single ones (see
projgeo.tensor); relative checks compare each point with its own scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connection import (ConnectionValue, curvature, curvature_derivative,
                         require_torsion_free, ricci, torsion, trace2form)
from .expr import DomainError, refuse_where
from .tensor import TensorValue, alt2, norm

__all__ = [
    "AlgebraElement", "bracket", "wedge_id", "wedge_id3", "three_form_split",
    "first_bianchi_residual", "WeylParts", "weyl",
    "torsion_split", "cotton", "CartanCurvature", "cartan_curvature",
    "CurvatureReport", "curvature_report",
    "NotBianchi", "NotAntisymmetric",
]


class NotBianchi(ValueError):
    """Curvature input fails the first Bianchi identity beyond tolerance."""


class NotAntisymmetric(ValueError):
    """Input is not antisymmetric in the slots the operation alternates."""


@dataclass(frozen=True)
class AlgebraElement:
    """Element of V + gl(V) + V*: a vector, an endomorphism and a covector part."""

    n: int
    vec: np.ndarray = None  # type: ignore[assignment]
    endo: np.ndarray = None  # type: ignore[assignment]
    form: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        n = self.n
        for name, shape in (("vec", (n,)), ("endo", (n, n)), ("form", (n,))):
            value = getattr(self, name)
            value = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, value)


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Lie bracket on V + gl(V) + V*, bilinear over the three components."""
    if a.n != b.n:
        raise ValueError("mixed dimensions")
    n = a.n
    eye = np.eye(n)
    vec = a.endo @ b.vec - b.endo @ a.vec
    endo = (a.endo @ b.endo - b.endo @ a.endo
            + (b.form @ a.vec) * eye + np.outer(a.vec, b.form)
            - (a.form @ b.vec) * eye - np.outer(b.vec, a.form))
    form = a.form @ b.endo - b.form @ a.endo
    return AlgebraElement(n, vec, endo, form)


def wedge_id(q: TensorValue) -> TensorValue:
    """[Q ^ Id] of a bilinear form Q, in curvature variance (up, down, down, down)."""
    if q.variance != ("down", "down"):
        raise ValueError("wedge_id expects a (down, down) tensor")
    n, qd = q.n, q.data
    qt = np.swapaxes(qd, -1, -2)[..., None, :, :]
    # Q_ji d^l_k - Q_ij d^l_k - Q_ik d^l_j + Q_jk d^l_i, in that order, each
    # term written into the diagonal it lives on
    data = np.zeros(qd.shape[:-2] + (n,) * 4)
    np.einsum("...llij->...lij", data)[...] = qt - qd[..., None, :, :]
    diag = np.einsum("...lkil->...lki", data)
    diag -= qt
    diag = np.einsum("...lklj->...lkj", data)
    diag += qt
    return TensorValue(n, ("up", "down", "down", "down"), data)


def wedge_id3(omega: TensorValue) -> TensorValue:
    """[omega ^ Id] of a T*-valued 2-form: the End-valued 3-form

    [omega ^ Id](X,Y,Z) = [omega(X,Y), Z] - [omega(X,Z), Y] + [omega(Y,Z), X]

    returned with slots [l, m, x, y, z], variance (up, down, down, down, down).
    """
    if omega.variance != ("down", "down", "down"):
        raise ValueError("wedge_id3 expects a (down, down, down) tensor")
    _require_antisym01(omega)
    n, w = omega.n, omega.data
    eye = np.eye(n)
    data = (-np.einsum("...xyz,lm->...lmxyz", w, eye) - np.einsum("...xym,lz->...lmxyz", w, eye)
            + np.einsum("...xzy,lm->...lmxyz", w, eye) + np.einsum("...xzm,ly->...lmxyz", w, eye)
            - np.einsum("...yzx,lm->...lmxyz", w, eye) - np.einsum("...yzm,lx->...lmxyz", w, eye))
    return TensorValue(n, ("up",) + ("down",) * 4, data)


def three_form_split(omega: TensorValue) -> tuple[TensorValue, TensorValue]:
    """Split a T*-valued 2-form into (Bianchi-closed part, fully alternating part)."""
    if omega.variance != ("down", "down", "down"):
        raise ValueError("three_form_split expects a (down, down, down) tensor")
    _require_antisym01(omega)
    w = omega.data
    minus = (w + np.einsum("...zxy->...xyz", w) + np.einsum("...yzx->...xyz", w)) / 3.0
    t_minus = TensorValue(omega.n, omega.variance, minus)
    t_plus = TensorValue(omega.n, omega.variance, w - minus)
    return t_plus, t_minus


def _exceeds(residual: np.ndarray, t: TensorValue, tol: float) -> np.ndarray:
    """Whether a residual shaped like t.data passes tol * max(1, |t|), at each
    point of t's leading axes, each measured against its own max-abs scale."""
    axes = tuple(range(-t.rank, 0))
    scale = np.maximum(1.0, np.abs(t.data).max(axis=axes))
    return np.abs(residual).max(axis=axes) > tol * scale


def _require_antisym01(t: TensorValue) -> None:
    if np.any(_exceeds(t.data + np.swapaxes(t.data, -3, -2), t, 1e-12)):
        raise NotAntisymmetric("expected antisymmetry in the first two slots")


def first_bianchi_residual(r: TensorValue) -> TensorValue:
    """Cyclic sum R^l_{kij} + R^l_{ijk} + R^l_{jki} (zero for torsion-free curvature)."""
    if r.variance != ("up", "down", "down", "down"):
        raise ValueError("expected a curvature-variance tensor")
    d = r.data
    total = d + np.einsum("...ljki->...lkij", d) + np.einsum("...lijk->...lkij", d)
    return TensorValue(r.n, r.variance, total)


class WeylParts(NamedTuple):
    W: TensorValue
    Q: TensorValue
    F: TensorValue


@np.errstate(over="ignore", invalid="ignore")
def weyl(r: TensorValue, tol: float = 1e-10, points=None) -> WeylParts:
    """Projective decomposition of a Bianchi curvature tensor.

    Returns W (trace-free part, ricci(W) = 0), the normalized Ricci Q and the
    trace 2-form F = -2/(n+1) ricci_-. Raises NotBianchi when the first Bianchi
    cyclic sum exceeds max(tol, 1e-13) relative to the input scale, and
    DomainError when W, Q or F is not finite, each naming the first such point
    of `points` (the chart points of r's leading axes) when they are given.
    The floor 1e-13 is rounding: torsion-free curvature leaves a cyclic sum up
    to 3.4e-16 of max(1, |R|), which a tighter verdict tol would refuse.
    """
    n = r.n
    if n < 2:
        raise ValueError("projective decomposition needs dimension >= 2")
    refuse_where(NotBianchi, _exceeds(first_bianchi_residual(r).data, r, max(tol, 1e-13)),
                 "first Bianchi identity fails; remove torsion first", None, points)
    ric = ricci(r)
    q = TensorValue(n, ("down", "down"), _normalized(ric.data, n))
    w = TensorValue(n, r.variance, r.data + wedge_id(q).data)
    f = TensorValue(n, ("down", "down"), -2.0 / (n + 1) * alt2(ric).data)
    finite = (np.isfinite(w.data).all(axis=(-4, -3, -2, -1))
              & np.isfinite(q.data).all(axis=(-2, -1)) & np.isfinite(f.data).all(axis=(-2, -1)))
    refuse_where(DomainError, ~finite, "projective decomposition (W, Q, F) is not finite", None,
                 points)
    return WeylParts(w, q, f)


def _normalized(ric: np.ndarray, n: int) -> np.ndarray:
    """Q = ric_+ / (n-1) + ric_- / (n+1), over the last two axes of a Ricci-type array."""
    t = np.swapaxes(ric, -1, -2)
    return (ric + t) / (2 * (n - 1)) + (ric - t) / (2 * (n + 1))


def torsion_split(t: TensorValue) -> tuple[TensorValue, TensorValue]:
    """Split torsion into (trace-free part T1, trace part T2).

    T2 is alpha(X) Y - alpha(Y) X for the recovered alpha_j = T^k_{jk} / (n-1);
    T1 = T - T2 is the trace-free complement.
    """
    if t.variance != ("up", "down", "down"):
        raise ValueError("torsion_split expects an (up, down, down) tensor")
    n, d = t.n, t.data
    if n < 2:
        raise ValueError("torsion split needs dimension >= 2")
    if np.any(_exceeds(d + np.swapaxes(d, -1, -2), t, 1e-12)):
        raise NotAntisymmetric("torsion must be antisymmetric in its form slots")
    alpha = np.einsum("...kjk->...j", d) / (n - 1)
    eye = np.eye(n)
    t2 = np.einsum("...i,kj->...kij", alpha, eye) - np.einsum("...j,ki->...kij", alpha, eye)
    return (TensorValue(n, t.variance, d - t2), TensorValue(n, t.variance, t2))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cotton(cv: ConnectionValue, tol: float) -> TensorValue:
    """Projective Cotton tensor C = d^nabla Q, C_{ijk} antisymmetric in (i, j).

    Needs two derivative levels of Gamma and a torsion-free connection; raises
    HasTorsion naming the first point with torsion, and DomainError naming the
    first point whose C is not finite.
    """
    require_torsion_free(cv, tol, "cotton is defined for torsion-free connections")
    g = cv.gamma
    # the normalized Ricci Q and its coordinate derivatives d_m Q_ij
    q0 = _normalized(ricci(curvature(cv)).data, cv.n)
    dq = _normalized(np.einsum("...mkjik->...mij", curvature_derivative(cv)), cv.n)
    nabla_q = (dq - np.einsum("...mij,...mk->...ijk", g, q0)
               - np.einsum("...mik,...jm->...ijk", g, q0))
    c = nabla_q - np.swapaxes(nabla_q, -3, -2)
    refuse_where(DomainError, ~np.isfinite(c).all(axis=(-3, -2, -1)),
                 "Cotton tensor is not finite", None, cv.point)
    return TensorValue(cv.n, ("down", "down", "down"), c)


@dataclass
class CartanCurvature:
    """Curvature blocks of the associated Cartan connection on Lambda + TM Lambda."""

    topleft: TensorValue      # Lambda-line block: F + [Q ^ Id]|_Lambda, vanishes identically
    topright: TensorValue     # Cotton tensor d^nabla Q
    bottomleft: TensorValue   # d^nabla Id = torsion
    bottomright: TensorValue  # W block (plus the vanishing line contribution)


def cartan_curvature(cv: ConnectionValue) -> CartanCurvature:
    """Assemble the Cartan curvature blocks; flatness means all four vanish
    (for n >= 3 the bottomright W block forces the rest)."""
    n = cv.n
    r = curvature(cv)
    w, q, f = weyl(r, tol=1e-10, points=cv.point)
    topleft = TensorValue(n, ("down", "down"), f.data + 2.0 * alt2(q).data)
    topright = cotton(cv, tol=1e-10)
    bottomleft = torsion(cv)
    bottomright = TensorValue(n, ("up", "down", "down", "down"),
                              w.data + np.einsum("...ij,lk->...lkij", topleft.data, np.eye(n)))
    return CartanCurvature(topleft, topright, bottomleft, bottomright)


@dataclass
class CurvatureReport:
    """All pointwise curvature data of a connection, with self-check residuals.

    The projective pieces (W, Q, F, C) are None for input with torsion, and C
    also without second derivatives of Gamma.
    """

    n: int
    point: np.ndarray
    torsion: TensorValue
    R: TensorValue
    ricci: TensorValue
    s: TensorValue
    W: TensorValue | None
    Q: TensorValue | None
    F: TensorValue | None
    C: TensorValue | None
    residuals: dict[str, float]


def curvature_report(cv: ConnectionValue, tol: float) -> CurvatureReport:
    """Evaluate every curvature quantity at cv.point and cross-check identities; raise
    DomainError there if the torsion, Ricci trace, trace 2-form or a residual is not finite."""
    n = cv.n
    t = torsion(cv)
    r = curvature(cv)
    ric, s = ricci(r), trace2form(r)
    residuals = {"first_bianchi": norm(first_bianchi_residual(r))}
    w = q = f = c = None
    if norm(t) <= tol:
        w, q, f = weyl(r, tol=tol, points=cv.point)
        residuals["ricci_of_weyl"] = norm(ricci(w))
        recon = w.data - wedge_id(q).data
        residuals["reconstruction"] = float(np.max(np.abs(recon - r.data)))
        residuals["s_minus_2ricci_skew"] = norm(
            TensorValue(n, ("down", "down"), s.data - 2.0 * alt2(ric).data))
        if cv.ddgamma is not None:
            c = cotton(cv, tol=tol)
    # weyl refuses a Ricci trace that is not finite, but torsion skips it
    values = [norm(t), norm(ric), norm(s), *residuals.values()]
    refuse_where(DomainError, not np.isfinite(values).all(),
                 "torsion, Ricci trace, trace 2-form or an identity residual is not finite",
                 None, cv.point)
    return CurvatureReport(n, cv.point, t, r, ric, s, w, q, f, c, residuals)
