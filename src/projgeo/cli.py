"""Command-line front end.

Subcommands load chart files, run the corresponding analysis, and print a
report either as indented text or as JSON (`--json`). The JSON document is
the source of truth: the text renderer walks the same payload, so every
number shown in text mode is present in the JSON, and identical invocations
produce byte-identical output (all sampling is seeded).

Exit codes: 0 success (and all asserted verdicts pass), 1 verdict failure,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import HasTorsion, NotBianchi, curvature_report
from .connection import ChartError, SingularMetric, load_chart
from .develop import NotFlat, StepFailure, collinearity_defect, develop_map, flatness_defect
from .expr import DomainError, ParseError
from .projective import (check_weyl_invariance, load_alpha, projectively_equivalent,
                         sample_points)
from .reps import j0_census
from .tensor import OddDimension, norm
from .twistor import (integrability_verdict, coordinate_pairs, nijenhuis,
                      sample_twistor_points)

__all__ = ["RunConfig", "main", "entry"]

SCHEMA = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, inputs, sampling controls, output routing."""

    command: str
    inputs: tuple[str, ...]
    point: np.ndarray | None
    samples: int
    seed: int
    tol: float
    h: float
    as_json: bool
    out: str | None


class _UsageError(ValueError):
    pass


def _parse_point(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated numbers, got {text!r}")


def _load_targets(path: str) -> np.ndarray:
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([float(p) for p in line.split(",")])
        except ValueError:
            raise _UsageError(f"targets file line {lineno}: not a point: {line!r}")
    if not rows:
        raise _UsageError("targets file contains no points")
    return np.array(rows)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _render_text(payload, indent: int = 0, skip=("schema",)) -> "list[str]":
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if indent == 0 and key in skip:
                continue
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_fmt(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt(value)}")
    else:
        lines.append(f"{pad}{_fmt(payload)}")
    return lines


def _emit(payload: dict, cfg: RunConfig) -> None:
    if cfg.as_json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(_render_text(payload)) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _tensor_norm(t) -> float | None:
    return None if t is None else norm(t)


def _run_analyze(cfg: RunConfig) -> tuple[dict, bool]:
    spec = load_chart(cfg.inputs[0])
    if cfg.point is None:
        raise _UsageError("analyze needs --point")
    if cfg.point.size != spec.n:
        raise _UsageError(f"--point has {cfg.point.size} coordinates, chart has {spec.n}")
    derivs = 2 if spec.n == 2 else 1
    try:
        report = curvature_report(spec.evaluate(cfg.point, derivs=derivs), tol=cfg.tol)
    except SingularMetric as err:
        raise _UsageError(str(err))
    if report.W is None:
        verdict = "torsion present: projective invariants not computed"
    elif spec.n == 2:
        flat = norm(report.C) <= cfg.tol if report.C is not None else False
        verdict = ("projectively flat at point (n=2 criterion: C=0)"
                   if flat else "not projectively flat (C != 0)")
    else:
        flat = norm(report.W) <= cfg.tol
        verdict = ("projectively flat at point (W=0)"
                   if flat else "not projectively flat (W != 0)")
    payload = {
        "schema": SCHEMA,
        "command": "analyze",
        "chart": cfg.inputs[0],
        "dim": report.n,
        "point": list(cfg.point),
        "tol": cfg.tol,
        "norms": {
            "torsion": norm(report.torsion),
            "curvature": norm(report.R),
            "ricci": norm(report.ricci),
            "trace_2form": norm(report.s),
            "weyl": _tensor_norm(report.W),
            "ricci_normalized": _tensor_norm(report.Q),
            "line_curvature": _tensor_norm(report.F),
            "cotton": _tensor_norm(report.C),
        },
        "residuals": {k: v for k, v in sorted(report.residuals.items())},
        "verdict": verdict,
    }
    return payload, True


def _run_cotton(cfg: RunConfig) -> tuple[dict, bool]:
    spec = load_chart(cfg.inputs[0])
    if spec.n != 2:
        raise _UsageError("cotton is the n=2 convenience command; use analyze instead")
    if cfg.point is None:
        raise _UsageError("cotton needs --point")
    from .algebra import cotton as cotton_tensor

    cv = spec.evaluate(cfg.point, derivs=2)
    c = cotton_tensor(cv, tol=cfg.tol)
    flat = norm(c) <= cfg.tol
    payload = {
        "schema": SCHEMA,
        "command": "cotton",
        "chart": cfg.inputs[0],
        "point": list(cfg.point),
        "tol": cfg.tol,
        "cotton_norm": norm(c),
        "verdict": ("projectively flat at point (C=0)"
                    if flat else "not projectively flat (C != 0)"),
    }
    return payload, True


def _run_invariance(cfg: RunConfig, alpha_path: str) -> tuple[dict, bool]:
    spec = load_chart(cfg.inputs[0])
    alpha = load_alpha(alpha_path, spec.n)
    points = sample_points(spec.n, cfg.samples, seed=cfg.seed)
    result = check_weyl_invariance(spec, alpha, points, tol=cfg.tol)
    ok = result.weyl_residual <= cfg.tol and (
        result.cotton_residual is None or result.cotton_residual <= cfg.tol)
    payload = {
        "schema": SCHEMA,
        "command": "invariance",
        "chart": cfg.inputs[0],
        "alpha": alpha_path,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "weyl_residual": result.weyl_residual,
        "cotton_residual": result.cotton_residual,
        "verdict": "invariant" if ok else "invariance violated",
    }
    return payload, ok


def _run_equivalent(cfg: RunConfig) -> tuple[dict, bool]:
    spec_a = load_chart(cfg.inputs[0])
    spec_b = load_chart(cfg.inputs[1])
    if spec_a.n != spec_b.n:
        raise _UsageError("charts have different dimensions")
    points = sample_points(spec_a.n, cfg.samples, seed=cfg.seed)
    result = projectively_equivalent(spec_a, spec_b, points, tol=cfg.tol)
    marginal = cfg.tol / 10.0 < result.residual <= cfg.tol * 10.0
    payload = {
        "schema": SCHEMA,
        "command": "equivalent",
        "charts": [cfg.inputs[0], cfg.inputs[1]],
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "residual": result.residual,
        "alpha_at_first_point": list(result.alphas[0]),
        "marginal": marginal,
        "verdict": "projectively equivalent" if result.equivalent else "not equivalent",
    }
    return payload, result.equivalent


def _run_twistor(cfg: RunConfig) -> tuple[dict, bool]:
    spec = load_chart(cfg.inputs[0])
    if spec.n % 2 != 0:
        raise OddDimension("twistor analysis needs an even-dimensional chart")
    rng = np.random.default_rng(cfg.seed)
    tps = sample_twistor_points(spec.n, cfg.samples, rng)
    pairs = coordinate_pairs(spec.n + spec.n * spec.n // 2, 6,
                             np.random.default_rng(cfg.seed + 1))
    reports = []
    obstructed = False
    for tp in tps:
        residual = nijenhuis(spec, tp, pairs, h=cfg.h)
        verdict = integrability_verdict(residual)
        obstructed = obstructed or verdict == "obstruction detected"
        reports.append({
            "point": list(tp.x),
            "j": [list(row) for row in tp.j],
            "residual": residual,
            "verdict": verdict,
        })
    payload = {
        "schema": SCHEMA,
        "command": "twistor",
        "chart": cfg.inputs[0],
        "samples": cfg.samples,
        "seed": cfg.seed,
        "h": cfg.h,
        "reports": reports,
        "verdict": ("obstruction detected" if obstructed
                    else "no obstruction at samples"),
    }
    return payload, not obstructed


def _run_reps(cfg: RunConfig, dim: int, space: str) -> tuple[dict, bool]:
    components = j0_census(space, dim)
    payload = {
        "schema": SCHEMA,
        "command": "reps",
        "dim": dim,
        "space": space,
        "components": [
            {
                "label": str(c.highest),
                "weight": list(c.highest.coeffs),
                "dim": c.dim,
                "spectrum": {str(k): m for k, m in c.spectrum.items()},
            }
            for c in components
        ],
        "dim_total": sum(c.dim for c in components),
    }
    return payload, True


def _run_develop(cfg: RunConfig, base: np.ndarray, targets_path: str) -> tuple[dict, bool]:
    spec = load_chart(cfg.inputs[0])
    targets = _load_targets(targets_path)
    if targets.shape[1] != spec.n or base.size != spec.n:
        raise _UsageError("base/targets do not match the chart dimension")
    defect = flatness_defect(spec, base, seed=cfg.seed)
    if defect > cfg.tol:
        payload = {
            "schema": SCHEMA,
            "command": "develop",
            "chart": cfg.inputs[0],
            "base": list(base),
            "flatness_defect": defect,
            "tol": cfg.tol,
            "verdict": "not flat: developing map refused",
        }
        return payload, False
    images = develop_map(spec, base, targets, flat_tol=cfg.tol, seed=cfg.seed)
    payload = {
        "schema": SCHEMA,
        "command": "develop",
        "chart": cfg.inputs[0],
        "base": list(base),
        "flatness_defect": defect,
        "tol": cfg.tol,
        "images": [
            {
                "target": list(d.target),
                "homogeneous": list(d.point.homogeneous),
                "path_error": d.path_error,
            }
            for d in images
        ],
        "collinearity_defect": collinearity_defect([d.point for d in images]),
        "verdict": "developed",
    }
    return payload, True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projgeo",
        description="Projective curvature analysis of chart connections")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples_default=10, tol_default=1e-8):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--tol", type=float, default=tol_default)

    p = sub.add_parser("analyze", help="curvature report and flatness verdict at a point")
    p.add_argument("chart")
    p.add_argument("--point", required=True)
    common(p, tol_default=1e-10)

    p = sub.add_parser("invariance", help="projective invariance residual of the Weyl tensor")
    p.add_argument("chart")
    p.add_argument("--alpha", required=True, help="1-form file: lines 'a i = expr'")
    common(p, tol_default=1e-9)

    p = sub.add_parser("equivalent", help="pointwise projective equivalence of two charts")
    p.add_argument("chartA")
    p.add_argument("chartB")
    common(p)

    p = sub.add_parser("twistor", help="Nijenhuis integrability test at twistor samples")
    p.add_argument("chart")
    p.add_argument("--h", type=float, default=1e-4, help="finite-difference step")
    common(p, samples_default=3)

    p = sub.add_parser("reps", help="component table with structure eigenvalues")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--space", choices=("torsion", "curvature"), required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("develop", help="develop targets into projective space")
    p.add_argument("chart")
    p.add_argument("--base", required=True)
    p.add_argument("--targets", required=True, help="file of comma-separated points")
    common(p, tol_default=1e-7)

    p = sub.add_parser("cotton", help="n=2 flatness obstruction at a point")
    p.add_argument("chart")
    p.add_argument("--point", required=True)
    common(p, tol_default=1e-10)
    return parser


_POINT_FLAGS = ("--point", "--base")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_points(argv: "list[str]") -> "list[str]":
    """Write `--point -0.1,0.2` as `--point=-0.1,0.2`.

    argparse reads a separate value that starts with '-' as an option unless
    it is a single plain number, so a point with a negative leading
    coordinate would be refused as a missing argument.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _POINT_FLAGS and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_points(argv))
    try:
        cfg = RunConfig(
            command=args.command,
            inputs=tuple(getattr(args, name)
                         for name in ("chart", "chartA", "chartB")
                         if getattr(args, name, None) is not None),
            point=(_parse_point(args.point, "--point")
                   if getattr(args, "point", None) else None),
            samples=getattr(args, "samples", 0),
            seed=getattr(args, "seed", 0),
            tol=getattr(args, "tol", 1e-8),
            h=getattr(args, "h", 1e-4),
            as_json=args.json,
            out=args.out,
        )
        if cfg.tol <= 0:
            raise _UsageError("--tol must be positive")
        if args.command == "analyze":
            payload, ok = _run_analyze(cfg)
        elif args.command == "cotton":
            payload, ok = _run_cotton(cfg)
        elif args.command == "invariance":
            payload, ok = _run_invariance(cfg, args.alpha)
        elif args.command == "equivalent":
            payload, ok = _run_equivalent(cfg)
        elif args.command == "twistor":
            payload, ok = _run_twistor(cfg)
        elif args.command == "reps":
            payload, ok = _run_reps(cfg, args.dim, args.space)
        elif args.command == "develop":
            payload, ok = _run_develop(cfg, _parse_point(args.base, "--base"),
                                       args.targets)
        else:  # pragma: no cover - argparse enforces the choices
            raise _UsageError(f"unknown command {args.command}")
    except (_UsageError, ChartError, ParseError, DomainError, SingularMetric,
            OddDimension, HasTorsion, NotBianchi, StepFailure, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NotFlat as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _emit(payload, cfg)
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
