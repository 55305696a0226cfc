"""Layer spans for the traced run, recorded from outside the program.

Each public function named in TARGETS is replaced by a wrapper that counts
calls and accumulates self time: span time minus the time of the traced
spans it caused. A function imported with `from ... import` is looked up in
the importing module, so every binding of it in a projgeo module is patched,
not only the defining one. Spans are aggregated as they close rather than
stored, because the jet layer alone closes hundreds of thousands per run.
The tensor layer has no spans: its functions take microseconds, so a wrapper
would cost as much as the work; its time shows in its callers' self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) pairs; the span is named "<module>.<function>".
TARGETS = (
    ("cli", "main"),
    ("expr", "parse"), ("expr", "eval_jet"),
    ("connection", "load_chart"), ("connection", "ConnectionSpec.evaluate"),
    ("connection", "curvature"),
    ("algebra", "weyl"), ("algebra", "curvature_report"), ("algebra", "cotton"),
    ("projective", "load_alpha"), ("projective", "projective_change"),
    ("projective", "check_weyl_invariance"), ("projective", "projectively_equivalent"),
    ("develop", "flatness_defect"), ("develop", "cartan_transport"),
    ("develop", "develop_map"),
    ("twistor", "nijenhuis"), ("twistor", "acs_field_matrix"),
    ("twistor", "expm_frechet"),
    ("reps", "j0_census"),
)

TRANSPORT = "develop.cartan_transport"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Installs the wrappers, aggregates spans, and restores the originals."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # seconds; the workload process leaves out pace readings
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        calls, self_s, active, stack = self.calls, self.self_s, self._active, self._stack
        clock = self.clock
        evaluate = name == "connection.evaluate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if evaluate:
                derivs = args[2] if len(args) > 2 else kwargs.get("derivs", 1)
                calls[f"connection.evaluate.d{derivs}"] += 1
                if active[TRANSPORT]:
                    calls["connection.evaluate.in_transport"] += 1
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1] += dt
        return wrapper

    @staticmethod
    def _modules():
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == "projgeo" or key.startswith("projgeo."))]

    def install(self) -> None:
        import projgeo.cli  # noqa: F401  (imports every layer)

        modules = self._modules()
        for module, attr in TARGETS:
            name = span_name(module, attr)
            owner = sys.modules[f"projgeo.{module}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._originals[name] = orig
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            self._originals[name] = orig
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def coverage_problems(self) -> list:
        """Bindings that still reach an unwrapped original after install."""
        problems = []
        modules = self._modules()
        for name, orig in self._originals.items():
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is orig:
                        problems.append(f"{mod.__name__}.{key} still calls {name} unwrapped")
                    elif isinstance(value, type) and value.__dict__.get(
                            name.rsplit(".", 1)[-1]) is orig:
                        problems.append(f"{mod.__name__}.{key} method {name} unwrapped")
        return problems
