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
