"""Rewrite the golden report corpus in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Each case in CASES runs one CLI command in process, with tests/charts as the
working directory, and is stored as <case>.json: its argv, exit code, stderr
and report. A `--json` report is stored parsed; a text report as its list of
lines. tests/test_golden.py reruns every case and compares. A change that
regenerates the corpus lists every file and key that moved, with the old and
new values.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from projgeo.cli import main

GOLDEN = Path(__file__).resolve().parent
CHARTS = GOLDEN.parent / "charts"

_P3, _P4 = "0.1,0.2,-0.1", "0.1,-0.2,0.05,0.3"
_TARGETS = ("--base", "0,0,0", "--targets", "targets3.txt", "--json")

CASES = {
    "analyze-flat3": ["analyze", "flat3.chart", "--point", _P3, "--json"],
    "analyze-sphere2": ["analyze", "sphere2.chart", "--point", "0.3,-0.2", "--json"],
    "analyze-sphere3": ["analyze", "sphere3.chart", "--point", _P3, "--json"],
    "analyze-sphere4": ["analyze", "sphere4.chart", "--point", _P4, "--json"],
    "analyze-torsion3": ["analyze", "torsion3.chart", "--point", _P3, "--json"],
    "analyze-witness3": ["analyze", "witness3.chart", "--point", _P3, "--json"],
    "analyze-witness4": ["analyze", "witness4.chart", "--point", _P4, "--json"],
    "invariance-sphere3": ["invariance", "sphere3.chart", "--alpha", "alpha3.alpha", "--json"],
    "invariance-witness3": ["invariance", "witness3.chart", "--alpha", "alpha3.alpha",
                            "--json"],
    "equivalent-flat3-flat3": ["equivalent", "flat3.chart", "flat3.chart", "--json"],
    "equivalent-flat3-witness3": ["equivalent", "flat3.chart", "witness3.chart", "--json"],
    "equivalent-dimension-mismatch": ["equivalent", "flat3.chart", "sphere2.chart", "--json"],
    "twistor-sphere4": ["twistor", "sphere4.chart", "--json"],
    "twistor-witness4": ["twistor", "witness4.chart", "--json"],
    "twistor-odd-dimension": ["twistor", "sphere3.chart", "--json"],
    "reps-4-torsion": ["reps", "--dim", "4", "--space", "torsion", "--json"],
    "reps-4-curvature": ["reps", "--dim", "4", "--space", "curvature", "--json"],
    "reps-6-torsion": ["reps", "--dim", "6", "--space", "torsion", "--json"],
    "reps-6-curvature": ["reps", "--dim", "6", "--space", "curvature", "--json"],
    "develop-sphere3": ["develop", "sphere3.chart", *_TARGETS],
    "develop-witness3": ["develop", "witness3.chart", *_TARGETS],
    "text-twistor-sphere4": ["twistor", "sphere4.chart", "--samples", "1"],
}


def run_case(argv: "list[str]") -> dict:
    """The argv, exit code, stderr and report of one command run from tests/charts."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CHARTS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = out.getvalue()
    report = json.loads(text) if "--json" in argv and text else text.splitlines()
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "report": report}


if __name__ == "__main__":
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(run_case(argv), indent=2, sort_keys=True) + "\n")
