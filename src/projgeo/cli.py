"""Command-line front end.

Subcommands load chart files, run the corresponding analysis, and print a
report either as indented text or as JSON (`--json`). The JSON document is
the source of truth: the text renderer walks the same payload, so every
number shown in text mode is present in the JSON, and identical invocations
produce byte-identical output (all sampling is seeded).

Exit codes: 0 success (and all asserted verdicts pass), 1 only for a failed
verdict, 2 for any bad input: a malformed flag, file or chart, or a numerical
refusal at a chart point. Flags are checked once, by argparse types built on
the shared number reader, so every number that reaches a command is finite.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .algebra import NotBianchi, curvature_report
from .connection import HasTorsion, SingularMetric, load_chart
from .develop import NotFlat, StepFailure, collinearity_defect, develop_map, flatness_defect
from .expr import DomainError
from .projective import (check_weyl_invariance, load_alpha, projectively_equivalent,
                         sample_points)
from .readers import ChartError, parse_points, read_numbers, read_text
from .reps import j0_census
from .tensor import OddDimension, norm
from .twistor import integrability_verdict, coordinate_pairs, nijenhuis, sample_twistor_points

__all__ = ["main", "entry"]

SCHEMA = 1


class _UsageError(ValueError):
    pass


def _numbers(count: int | None = None, kind: type = float, above: float | None = None):
    """An argparse type: comma-separated finite numbers, each greater than `above`.

    The value is the number itself when count is 1, else an array.
    """
    noun = "an integer" if kind is int else "a number"

    def convert(text: str):
        try:
            values = read_numbers(text, count, kind)
        except ChartError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        if above is not None and min(values) <= above:
            raise argparse.ArgumentTypeError(f"expected {noun} > {above}, got {text!r}")
        return values[0] if count == 1 else np.array(values)
    return convert


_POINT = _numbers()
_POSITIVE = _numbers(1, above=0)
_COUNT = _numbers(1, int, above=0)
_SEED = _numbers(1, int, above=-1)
# The largest --samples taken. The commands walk their samples in point
# blocks, so what grows with the count is the points, what is reported per
# sample (a twistor sample's j has n² entries) and the run time.
MAX_SAMPLES = 10_000


def _sample_count(text: str) -> int:
    """An argparse type: a sample count in 1..MAX_SAMPLES."""
    count = _COUNT(text)
    if count > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected an integer <= {MAX_SAMPLES}, got {text!r}")
    return count


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _render_text(payload, indent: int = 0) -> "list[str]":
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if indent == 0 and key == "schema":
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


def _emit(payload: dict, args: argparse.Namespace) -> None:
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(_render_text(payload)) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _tensor_norm(t) -> float | None:
    return None if t is None else norm(t)


def _run_analyze(args: argparse.Namespace) -> tuple[dict, bool]:
    spec = load_chart(args.chart)
    if args.point.size != spec.n:
        raise _UsageError(f"--point has {args.point.size} coordinates, chart has {spec.n}")
    derivs = 2 if spec.n == 2 else 1
    report = curvature_report(spec.evaluate(args.point, derivs=derivs), tol=args.tol)
    if report.W is None:
        verdict = "torsion present: projective invariants not computed"
    elif spec.n == 2:
        flat = norm(report.C) <= args.tol if report.C is not None else False
        verdict = ("projectively flat at point (n=2 criterion: C=0)"
                   if flat else "not projectively flat (C != 0)")
    else:
        flat = norm(report.W) <= args.tol
        verdict = ("projectively flat at point (W=0)"
                   if flat else "not projectively flat (W != 0)")
    payload = {
        "chart": args.chart,
        "dim": report.n,
        "point": list(args.point),
        "tol": args.tol,
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


def _run_invariance(args: argparse.Namespace) -> tuple[dict, bool]:
    spec = load_chart(args.chart)
    alpha = load_alpha(args.alpha, spec.n)
    points = sample_points(spec.n, args.samples, seed=args.seed)
    result = check_weyl_invariance(spec, alpha, points, tol=args.tol)
    ok = result.weyl_residual <= args.tol and (
        result.cotton_residual is None or result.cotton_residual <= args.tol)
    payload = {
        "chart": args.chart,
        "alpha": args.alpha,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "weyl_residual": result.weyl_residual,
        "cotton_residual": result.cotton_residual,
        "verdict": "invariant" if ok else "invariance violated",
    }
    return payload, ok


def _run_equivalent(args: argparse.Namespace) -> tuple[dict, bool]:
    spec_a = load_chart(args.chartA)
    spec_b = load_chart(args.chartB)
    if spec_a.n != spec_b.n:
        raise _UsageError("charts have different dimensions")
    points = sample_points(spec_a.n, args.samples, seed=args.seed)
    result = projectively_equivalent(spec_a, spec_b, points, tol=args.tol)
    marginal = args.tol / 10.0 < result.residual <= args.tol * 10.0
    payload = {
        "charts": [args.chartA, args.chartB],
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "residual": result.residual,
        "alpha_at_first_point": list(result.alphas[0]),
        "marginal": marginal,
        "verdict": "projectively equivalent" if result.equivalent else "not equivalent",
    }
    return payload, result.equivalent


def _run_twistor(args: argparse.Namespace) -> tuple[dict, bool]:
    spec = load_chart(args.chart)
    if spec.n % 2 != 0:
        raise OddDimension("twistor analysis needs an even-dimensional chart")
    rng = np.random.default_rng(args.seed)
    tps = sample_twistor_points(spec.n, args.samples, rng)
    pairs = coordinate_pairs(spec.n + spec.n * spec.n // 2, 6,
                             np.random.default_rng(args.seed + 1))
    reports = []
    obstructed = False
    for tp, residual in zip(tps, nijenhuis(spec, tps, pairs).tolist()):
        verdict = integrability_verdict(residual)
        obstructed = obstructed or verdict == "obstruction detected"
        reports.append({
            "point": list(tp.x),
            "j": [list(row) for row in tp.j],
            "residual": residual,
            "verdict": verdict,
        })
    payload = {
        "chart": args.chart,
        "samples": args.samples,
        "seed": args.seed,
        "reports": reports,
        "verdict": ("obstruction detected" if obstructed
                    else "no obstruction at samples"),
    }
    return payload, not obstructed


def _run_reps(args: argparse.Namespace) -> tuple[dict, bool]:
    components = j0_census(args.space, args.dim)
    payload = {
        "dim": args.dim,
        "space": args.space,
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


def _run_develop(args: argparse.Namespace) -> tuple[dict, bool]:
    spec = load_chart(args.chart)
    base = args.base
    if base.size != spec.n:
        raise _UsageError(f"--base has {base.size} coordinates, chart has {spec.n}")
    targets = parse_points(read_text(args.targets), spec.n)
    defect = flatness_defect(spec, base, seed=args.seed)
    payload = {
        "chart": args.chart,
        "base": list(base),
        "flatness_defect": defect,
        "tol": args.tol,
    }
    if defect > args.tol:
        payload["verdict"] = "not flat: developing map refused"
        return payload, False
    images, path_errors = develop_map(spec, base, targets, flat_tol=args.tol, seed=args.seed)
    payload["images"] = [
        {
            "target": list(target),
            "homogeneous": list(image.homogeneous),
            "path_error": path_error,
        }
        for target, image, path_error in zip(targets, images, path_errors.tolist())
    ]
    payload["collinearity_defect"] = collinearity_defect(images)
    payload["verdict"] = "developed"
    return payload, True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projgeo",
        description="Projective curvature analysis of chart connections")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, run):
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", help="write the report to this file")

    # each subcommand takes only the flags its run function reads
    def seed(p):
        p.add_argument("--seed", type=_SEED, default=0)

    def samples(p, default):
        p.add_argument("--samples", type=_sample_count, default=default)

    def tol(p, default):
        p.add_argument("--tol", type=_POSITIVE, default=default)

    def command(name, summary):
        # flags are spelt in full: with abbreviations allowed, `--h` would be `--help`
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = command("analyze", "curvature report and flatness verdict at a point")
    p.add_argument("chart")
    p.add_argument("--point", type=_POINT, required=True)
    output(p, _run_analyze)
    tol(p, 1e-10)

    p = command("invariance", "projective invariance residual of the Weyl tensor")
    p.add_argument("chart")
    p.add_argument("--alpha", required=True, help="1-form file: lines 'a i = expr'")
    output(p, _run_invariance)
    seed(p)
    samples(p, 10)
    tol(p, 1e-9)

    p = command("equivalent", "pointwise projective equivalence of two charts")
    p.add_argument("chartA")
    p.add_argument("chartB")
    output(p, _run_equivalent)
    seed(p)
    samples(p, 10)
    tol(p, 1e-8)

    p = command("twistor", "Nijenhuis integrability test at twistor samples")
    p.add_argument("chart")
    output(p, _run_twistor)
    seed(p)
    samples(p, 3)

    p = command("reps", "component table with structure eigenvalues")
    p.add_argument("--dim", type=_numbers(1, int), choices=(4, 6), required=True)
    p.add_argument("--space", choices=("torsion", "curvature"), required=True)
    output(p, _run_reps)

    p = command("develop", "develop targets into projective space")
    p.add_argument("chart")
    p.add_argument("--base", type=_POINT, required=True)
    p.add_argument("--targets", required=True, help="file of comma-separated points")
    output(p, _run_develop)
    seed(p)
    tol(p, 1e-7)
    return parser


# Built once per process: building takes ~30 times as long as a parse with it.
_PARSER = _build_parser()

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
    """Run one command and return its exit code; every report leads with schema and command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_attach_negative_points(argv))
    except SystemExit as stop:  # argparse printed the usage error (2) or the help (0)
        return stop.code
    try:
        payload, ok = args.run(args)
        _emit({"schema": SCHEMA, "command": args.command, **payload}, args)
    except (_UsageError, ChartError, DomainError, SingularMetric,
            OddDimension, HasTorsion, NotBianchi, StepFailure, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NotFlat as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
