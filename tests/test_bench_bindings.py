"""The traced benchmark run patches named projgeo functions (bench/spans.py).

A rename or a move of any of them makes `Tracer.install` fail and the traced
run exit 1, with nothing measured. This test reads the span list as it is
and checks that every name still resolves and that installing the spans
leaves no unwrapped binding.
"""

import importlib
import types
from pathlib import Path

import pytest

from conftest import chart_path, run_fresh_python

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    """bench/spans.py as a module, compiled from its text so no bytecode is written."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", spans.TARGETS, ids=lambda v: v)
def test_span_target_resolves(module, attr):
    owner = importlib.import_module(f"projgeo.{module}")
    if "." in attr:  # a method, patched in the class body
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), f"{module}.{attr} is not in the class body"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{attr} does not resolve"


def test_tracer_installs_with_full_coverage():
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.coverage_problems() == []
    finally:
        tracer.uninstall()


# In a process where neither projgeo nor scipy is loaded yet, as in the bench
# worker: load the spans as _load_spans does, install (which imports
# projgeo.cli), then run one twistor job of the given sample count.
TRACED_TWISTOR = """
import json, sys, types
spans_path, chart, samples, out = sys.argv[1:]
spans = types.ModuleType("bench_spans")
with open(spans_path) as f:
    exec(compile(f.read(), spans_path, "exec"), spans.__dict__)
tracer = spans.Tracer()
tracer.install()
import projgeo.cli as cli
code = cli.main(["twistor", chart, "--samples", samples, "--out", out])
print(json.dumps({"code": code, "problems": tracer.coverage_problems(),
                  "calls": dict(tracer.calls)}))
"""


def test_traced_twistor_job_counts_every_frechet_derivative(tmp_path):
    """One structure matrix per chart point calls expm_frechet n^2/2 = 8 times."""
    seen = run_fresh_python(TRACED_TWISTOR, SPANS, chart_path("sphere4.chart"), "1",
                            tmp_path / "report.json")
    assert seen["code"] == 0
    assert seen["problems"] == []
    calls = seen["calls"]
    assert calls["twistor.expm_frechet"] == 8 * calls["twistor.acs_field_matrix"] > 0


def test_traced_three_sample_twistor_job_makes_one_structure_build(tmp_path):
    """The three samples of a twistor job at n = 4 (the CLI default count)
    share one sub-block, so one structure build with n^2/2 = 8 expm_frechet
    calls."""
    seen = run_fresh_python(TRACED_TWISTOR, SPANS, chart_path("sphere4.chart"), "3",
                            tmp_path / "report.json")
    assert seen["code"] == 0
    assert seen["problems"] == []
    calls = seen["calls"]
    assert (calls["twistor.acs_field_matrix"], calls["twistor.expm_frechet"]) == (1, 8)
