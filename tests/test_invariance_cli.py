"""Projective invariance through the command line, as a metamorphic test.

A torsion-free polynomial chart and its change by a 1-form alpha,
Gamma^k_ij + alpha_i delta^k_j + alpha_j delta^k_i, are written as chart text
and run through the subcommands: the pair is projectively equivalent,
`analyze` reads the same verdict and Weyl norm on both, and on an even
dimension `twistor` reads the same verdicts and residuals. On a projectively
flat chart, flat or round, `develop` reads the same verdict on both, and the
two developing maps differ by one projective map fixing the base's image. The
changed chart embeds each base entry and each alpha_i as a parenthesized
group, so it also runs the reader's shared groups end to end.
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


def _changed(n, base, alpha):
    """The entries of the projective change by alpha of the chart with entries base."""
    changed = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                parts = [f"({base[(k, i, j)]})"] if (k, i, j) in base else []
                parts += [f"({alpha[i]})"] * (k == j) + [f"({alpha[j]})"] * (k == i)
                if parts:
                    changed[(k, i, j)] = " + ".join(parts)
    return changed


def _charts(n, seed):
    """Text of a symmetric polynomial chart and of its projective change, and a point."""
    rng = np.random.default_rng(seed)
    base = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                base[(k, i, j)] = base[(k, j, i)] = poly_entry(rng, n, 0.3)
    alpha = [poly_entry(rng, n, 0.3) for _ in range(n)]
    point = ",".join(f"{c:.3f}" for c in rng.uniform(-0.3, 0.3, n))
    return _christoffel(n, base), _christoffel(n, _changed(n, base, alpha)), point


def _round_entries(n):
    """The Christoffel entries of the round metric 4 delta / (1 + |x|^2)^2, conformal
    to the flat one with phi = -ln(1 + |x|^2) + ln 2:
    Gamma^k_ij = -2 (delta^k_i x_j + delta^k_j x_i - delta_ij x_k) / (1 + |x|^2)."""
    ball = "(1 + " + " + ".join(f"x{i}^2" for i in range(1, n + 1)) + ")"
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = ([f"x{j + 1}"] * (k == i) + [f"x{i + 1}"] * (k == j)
                         + [f"-x{k + 1}"] * (i == j))
                if terms:
                    entries[(k, i, j)] = f"-2*({' + '.join(terms)}) / {ball}"
    return entries


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


def _fitted_gap(a, b):
    """Fit the vector a of M = [[1, a^T], [0, I]] so that each row of b is
    proportional to M times that row of a, by least squares over the rows,
    and return the largest gap between the normalized rows of b and of M a."""
    scale = np.einsum("ti,ti->t", b[:, 1:], a[:, 1:]) / np.einsum("ti,ti->t", a[:, 1:], a[:, 1:])
    vector, *_ = np.linalg.lstsq(a[:, 1:], b[:, 0] / scale - a[:, 0], rcond=None)
    m = np.eye(a.shape[1])
    m[0, 1:] = vector
    moved = a @ m.T
    return float(np.max(np.abs(b / np.linalg.norm(b, axis=1)[:, None]
                               - moved / np.linalg.norm(moved, axis=1)[:, None])))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["flat", "round"]), st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_a_projective_change_moves_the_developing_map_by_one_projective_map(family, n, seed):
    """A projectively flat chart, flat or the round metric's Christoffel
    entries, and its change by a polynomial alpha both develop; alpha is not
    zero at the base, so the images differ, but they are related by one
    M = [[1, a^T], [0, I]], fitted from n + 3 targets, within 1e-9."""
    rng = np.random.default_rng(seed)
    base = _round_entries(n) if family == "round" else {}
    alpha = [poly_entry(rng, n, 0.3) for _ in range(n)]
    start = "--base=" + ",".join(f"{c:.3f}" for c in rng.uniform(-0.2, 0.2, n))
    targets = "".join(",".join(f"{c:.3f}" for c in row) + "\n"
                      for row in rng.uniform(-0.3, 0.3, (n + 3, n)))
    with tempfile.TemporaryDirectory() as tmp:
        chart, changed, points = (Path(tmp, name) for name in ("a.chart", "b.chart", "t.txt"))
        chart.write_text(_christoffel(n, base))
        changed.write_text(_christoffel(n, _changed(n, base, alpha)))
        points.write_text(targets)
        (code_a, a), (code_b, b) = (_report("develop", str(path), start, "--targets", str(points))
                                    for path in (chart, changed))
    assert code_a == code_b == 0 and a["verdict"] == b["verdict"] == "developed"
    images_a, images_b = (np.array([image["homogeneous"] for image in report["images"]])
                          for report in (a, b))
    assert images_a.shape == images_b.shape == (n + 3, n + 1)
    assert _fitted_gap(images_a, images_b) <= 1e-9
