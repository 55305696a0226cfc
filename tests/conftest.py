"""Shared helpers: fixture chart paths and random connection generators."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from projgeo.connection import ConnectionSpec
from projgeo.projective import OneFormField

CHARTS = Path(__file__).parent / "charts"
ROOT = Path(__file__).resolve().parent.parent


def chart_path(name):
    return CHARTS / name


def run_fresh_python(script, *args):
    """Run `script` in a new interpreter, where nothing this test process has
    imported (scipy among it) is loaded yet; return its last stdout line read
    as JSON. `args` become sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def poly_entry(rng, n, scale):
    u, v, w = rng.integers(1, n + 1, size=3)
    c = scale * rng.uniform(-1.0, 1.0, size=3)
    return f"{c[0]:.4f} + {c[1]:.4f}*x{u} + {c[2]:.4f}*x{v}*x{w}"


def random_torsionfree_spec(n, rng, scale=0.3, name="random-symmetric"):
    """Symmetric polynomial Christoffel data, entries of degree <= 2."""
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                text = poly_entry(rng, n, scale)
                entries[(k, i, j)] = text
                if i != j:
                    entries[(k, j, i)] = text
    return ConnectionSpec.from_christoffel(n, entries, name=name)


def random_spec_with_torsion(n, rng, scale=0.3, name="random-general"):
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                entries[(k, i, j)] = poly_entry(rng, n, scale)
    return ConnectionSpec.from_christoffel(n, entries, name=name)


def random_alpha(n, rng, scale=0.3):
    texts = []
    for _ in range(n):
        u = rng.integers(1, n + 1)
        c = scale * rng.uniform(-1.0, 1.0, size=2)
        texts.append(f"{c[0]:.4f} + {c[1]:.4f}*x{u}")
    return OneFormField.from_strings(texts)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
