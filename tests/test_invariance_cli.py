"""Projective invariance through the command line, as a metamorphic test.

A torsion-free polynomial chart and its change by a 1-form alpha,
Gamma^k_ij + alpha_i delta^k_j + alpha_j delta^k_i, are written as chart text
and run through the subcommands: the pair is projectively equivalent,
`analyze` reads the same verdict and Weyl norm on both, and on an even
dimension `twistor` reads the same verdicts and residuals. The changed chart
embeds each base entry and each alpha_i as a parenthesized group, so it also
runs the reader's shared groups end to end.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_entry
from projgeo.cli import main


def _christoffel(n, entries):
    return f"dim = {n}\n[christoffel]\n" + "".join(
        f"G {k + 1} {i + 1} {j + 1} = {text}\n" for (k, i, j), text in sorted(entries.items()))


def _charts(n, seed):
    """Text of a symmetric polynomial chart and of its projective change, and a point."""
    rng = np.random.default_rng(seed)
    base = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                base[(k, i, j)] = base[(k, j, i)] = poly_entry(rng, n, 0.3)
    alpha = [poly_entry(rng, n, 0.3) for _ in range(n)]
    changed = {(k, i, j): " + ".join([f"({base[(k, i, j)]})"]
                                     + [f"({alpha[i]})"] * (k == j) + [f"({alpha[j]})"] * (k == i))
               for k in range(n) for i in range(n) for j in range(n)}
    point = ",".join(f"{c:.3f}" for c in rng.uniform(-0.3, 0.3, n))
    return _christoffel(n, base), _christoffel(n, changed), point


def _report(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--json"])
    return code, json.loads(out.getvalue())


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1))
def test_a_projective_change_keeps_every_verdict(n, seed):
    base_text, changed_text, point = _charts(n, seed)
    with tempfile.TemporaryDirectory() as tmp:
        base, changed = Path(tmp, "base.chart"), Path(tmp, "changed.chart")
        base.write_text(base_text)
        changed.write_text(changed_text)
        code, same = _report("equivalent", str(base), str(changed))
        assert code == 0 and same["verdict"] == "projectively equivalent"
        (code_a, a), (code_b, b) = (_report("analyze", str(path), f"--point={point}")
                                    for path in (base, changed))
    assert code_a == code_b and a["verdict"] == b["verdict"]
    assert math.isclose(a["norms"]["weyl"], b["norms"]["weyl"], rel_tol=1e-9)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 4, 6]), st.integers(0, 2**32 - 1))
def test_a_projective_change_keeps_the_twistor_verdicts(n, seed):
    """J, and so its Nijenhuis residual, depends on the projective class only."""
    base_text, changed_text, _ = _charts(n, seed)
    with tempfile.TemporaryDirectory() as tmp:
        base, changed = Path(tmp, "base.chart"), Path(tmp, "changed.chart")
        base.write_text(base_text)
        changed.write_text(changed_text)
        (code_a, a), (code_b, b) = (_report("twistor", str(path)) for path in (base, changed))
    assert code_a == code_b and a["verdict"] == b["verdict"]
    assert len(a["reports"]) == len(b["reports"]) == 3
    for report_a, report_b in zip(a["reports"], b["reports"]):
        assert report_a["verdict"] == report_b["verdict"]
        x, y = report_a["residual"], report_b["residual"]
        assert max(x, y) <= 1e-14 or abs(x - y) <= 1e-12 * max(x, y)
