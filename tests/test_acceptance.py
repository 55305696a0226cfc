"""Release gate: one test per published guarantee of the toolkit.

Every test appends a PASS/FAIL line to RESULTS; the suite's terminal summary
prints the full list so a run can be audited at a glance. Tolerances here are
contractual, do not loosen them to make a failure go away.
"""

import numpy as np

from conftest import chart_path, chart_spec, poly_entry, random_alpha, random_torsionfree_spec
from projgeo.algebra import (AlgebraElement, bracket, cartan_curvature, cotton,
                             first_bianchi_residual, three_form_split,
                             torsion_split, wedge_id, wedge_id3, weyl)
from projgeo.connection import (curvature, load_chart, ricci, second_bianchi_residual,
                                torsion, trace2form)
from projgeo.develop import NotFlat, ProjectivePoint, collinearity_defect, \
    develop_map, flatness_defect, geodesic_trace, model_connection
from projgeo.projective import (projective_change, projectively_equivalent,
                                remove_torsion, same_twistor_structure,
                                sample_points)
from projgeo.reps import (curvature_component_weights, fundamental, j0_census,
                          torsion_component_weights, weyl_dim)
from projgeo.tensor import TensorValue, alt2, norm, sym2
from projgeo.twistor import coordinate_pairs, nijenhuis, sample_twistor_points

RESULTS = []


def _record(num, label, ok, detail):
    RESULTS.append(f"criterion {num:02d} {label}: "
                   f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_ricci_contraction_constants():
    tol = 1e-12
    worst = 0.0
    rng = np.random.default_rng(101)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            q = TensorValue(n, ("down", "down"), rng.standard_normal((n, n)))
            got = ricci(wedge_id(q)).data
            expect = -(n + 1) * alt2(q).data - (n - 1) * sym2(q).data
            worst = max(worst, float(np.max(np.abs(got - expect))))
    _record(1, "ricci trace of wedge", worst <= tol,
            f"100 samples, worst {worst:.3e}, tol {tol:g}")


def test_criterion_02_weyl_projective_invariance():
    tol = 1e-9
    worst = 0.0
    rng = np.random.default_rng(202)
    for n in (3, 4):
        for _ in range(10):
            spec = random_torsionfree_spec(n, rng)
            pts = sample_points(n, 10, seed=int(rng.integers(1 << 30)))
            alpha = random_alpha(n, rng)
            twin = projective_change(spec, alpha)
            for p in pts:
                w_a = weyl(curvature(spec.evaluate(p))).W
                w_b = weyl(curvature(twin.evaluate(p))).W
                worst = max(worst, float(np.max(np.abs(w_a.data - w_b.data))))
    _record(2, "weyl invariance", worst <= tol,
            f"20 connections x 10 points, worst {worst:.3e}, tol {tol:g}")


def test_criterion_03_planar_weyl_degeneracy():
    tol = 1e-12
    worst = 0.0
    rng = np.random.default_rng(303)
    for _ in range(50):
        spec = random_torsionfree_spec(2, rng)
        p = rng.uniform(-0.4, 0.4, size=2)
        worst = max(worst, norm(weyl(curvature(spec.evaluate(p))).W))
    _record(3, "n=2 weyl vanishes", worst <= tol,
            f"50 trials, worst {worst:.3e}, tol {tol:g}")


def test_criterion_04_round_model_is_flat():
    worst_w = worst_c = worst_blocks = worst_loops = 0.0
    for n in (2, 3, 4):
        spec = load_chart(chart_path(f"sphere{n}.chart"))
        pts = sample_points(n, 10, seed=40 + n, half_width=0.5)
        for p in pts:
            cv = spec.evaluate(p, derivs=2)
            if n >= 3:
                worst_w = max(worst_w, norm(weyl(curvature(cv)).W))
            else:
                worst_c = max(worst_c, norm(cotton(cv)))
            cc = cartan_curvature(cv)
            for block in (cc.topleft, cc.topright, cc.bottomleft, cc.bottomright):
                worst_blocks = max(worst_blocks, norm(block))
        worst_loops = max(worst_loops, flatness_defect(spec, np.zeros(n), seed=40 + n))
    ok = worst_w <= 1e-10 and worst_c <= 1e-10 and worst_blocks <= 1e-9 \
        and worst_loops <= 1e-7
    _record(4, "round model flat", ok,
            f"W {worst_w:.2e}<=1e-10, C {worst_c:.2e}<=1e-10, "
            f"blocks {worst_blocks:.2e}<=1e-9, loops {worst_loops:.2e}<=1e-7")


def test_criterion_05_developing_map():
    sph = load_chart(chart_path("sphere2.chart"))
    x0 = np.array([0.05, -0.1])
    trace = geodesic_trace(sph, x0, np.array([0.7, 0.4]), 0.55, 8)
    out = develop_map(sph, x0, list(trace), seed=5)
    collin = collinearity_defect([d.point for d in out])
    path_err = max(d.path_error for d in out)

    flat = model_connection(3)
    targets = sample_points(3, 5, seed=55)
    affine_err = 0.0
    for target, dev in zip(targets, develop_map(flat, np.zeros(3), targets)):
        expect = ProjectivePoint(np.concatenate([[1.0], target]))
        gap = np.max(np.abs(dev.point.homogeneous - expect.homogeneous))
        affine_err = max(affine_err, float(gap), dev.path_error)
    ok = collin <= 1e-6 and path_err <= 1e-7 and affine_err <= 1e-12
    _record(5, "developing map", ok,
            f"collinearity {collin:.2e}<=1e-6, two-path {path_err:.2e}<=1e-7, "
            f"affine {affine_err:.2e}<=1e-12")


def test_criterion_06_flatness_converse():
    spec = load_chart(chart_path("witness3.chart"))
    defect = flatness_defect(spec, np.zeros(3), seed=4)
    refused = False
    try:
        develop_map(spec, np.zeros(3), [np.array([0.1, 0.0, 0.0])], seed=4)
    except NotFlat:
        refused = True
    ok = defect >= 1e-3 and refused
    _record(6, "curved witness refused", ok,
            f"loop defect {defect:.3e}>=1e-3, develop refused: {refused}")


def test_criterion_07_twistor_integrability():
    pass_tol, fail_tol = 1e-5, 1e-2
    flat4 = model_connection(4)
    tps = sample_twistor_points(4, 5, np.random.default_rng(11))
    pairs = coordinate_pairs(12, 6, np.random.default_rng(12))
    worst_flat = max(nijenhuis(flat4, tp, pairs) for tp in tps)

    worst_plane = 0.0
    rng = np.random.default_rng(77)
    for _ in range(4):
        spec = random_torsionfree_spec(2, rng)
        for tp in sample_twistor_points(2, 5, rng):
            worst_plane = max(worst_plane,
                              nijenhuis(spec, tp, coordinate_pairs(4, 6, rng)))

    witness = load_chart(chart_path("witness4.chart"))
    least_witness = min(nijenhuis(witness, tp, pairs) for tp in tps)
    ok = worst_flat <= pass_tol and worst_plane <= pass_tol \
        and least_witness >= fail_tol
    _record(7, "twistor integrability", ok,
            f"flat n=4 {worst_flat:.2e}<=1e-5, random n=2 {worst_plane:.2e}<=1e-5, "
            f"witness n=4 {least_witness:.2e}>=1e-2")


def test_criterion_08_twistor_detects_equivalence():
    rng = np.random.default_rng(808)
    agree = total = 0
    mismatches = []
    for n in (2, 4):
        for k in range(25):
            base = random_torsionfree_spec(n, rng)
            if k % 2 == 0:
                other = projective_change(base, random_alpha(n, rng))
            else:
                other = random_torsionfree_spec(n, rng)
            seed = int(rng.integers(1 << 30))
            eq = projectively_equivalent(base, other,
                                         sample_points(n, 3, seed=seed))
            tw = same_twistor_structure(base, other, seed=seed)
            total += 1
            if eq.equivalent == tw.same:
                agree += 1
            else:
                mismatches.append((n, k, eq.residual, tw.residual))
    _record(8, "same-J iff equivalent", agree == total == 50,
            f"{agree}/{total} verdicts agree" +
            (f", first mismatch {mismatches[0]}" if mismatches else ""))


def test_criterion_09_torsion_removal():
    rng = np.random.default_rng(909)
    worst_torsion = worst_j = 0.0
    all_ok = True
    for case in range(20):
        n = (2, 3, 4)[case % 3]
        texts = {}
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    texts[(k, i, j)] = texts[(k, j, i)] = poly_entry(rng, n, 0.3)
        for i in range(n):
            trace = f"{rng.uniform(-0.5, 0.5):.4f}"
            for k in range(n):
                texts[(k, i, k)] = f"({texts[(k, i, k)]}) + {trace}"
        spec = chart_spec(n, texts)
        out = remove_torsion(spec)
        all_ok = all_ok and out.ok
        if not out.ok:
            continue
        for p in sample_points(n, 3, seed=case):
            worst_torsion = max(worst_torsion,
                                norm(torsion(out.spec.evaluate(p, derivs=0))))
        if n % 2 == 0:
            cmp = same_twistor_structure(spec, out.spec, seed=case)
            all_ok = all_ok and cmp.same
            worst_j = max(worst_j, cmp.residual)
    generic = remove_torsion(load_chart(chart_path("torsion3.chart")))
    generic_ok = (not generic.ok) and generic.t1_residual > 0.5
    ok = all_ok and worst_torsion <= 1e-10 and generic_ok
    _record(9, "torsion removal", ok,
            f"20 trace cases, residual torsion {worst_torsion:.2e}<=1e-10, "
            f"J drift {worst_j:.2e}, generic T1 {generic.t1_residual:.3g} FAILs")


def test_criterion_10_component_census():
    lists_ok = True
    for n in (4, 5, 6):
        t = [str(w) for w in torsion_component_weights(n)]
        expect_t = [str(fundamental(1, n) + fundamental(n - 2, n)),
                    str(fundamental(n - 1, n))]
        lists_ok = lists_ok and t == expect_t and len(t) == 2
        c = curvature_component_weights(n)
        lists_ok = lists_ok and len(c) == 5
        lists_ok = lists_ok and sum(weyl_dim(w, n) for w in c) \
            == n ** 3 * (n - 1) // 2
        lists_ok = lists_ok and sum(weyl_dim(w, n) for w in torsion_component_weights(n)) \
            == n * n * (n - 1) // 2

    speeds_ok = True
    for n in (4, 6):
        tc = j0_census("torsion", n)
        three = [str(c.highest) for c in tc if 3 in c.spectrum]
        speeds_ok = speeds_ok and three == [str(fundamental(1, n)
                                                + fundamental(n - 2, n))]
        cc = j0_census("curvature", n)
        weyl_label = str(fundamental(1, n) + fundamental(n - 2, n)
                         + fundamental(n - 1, n))
        bianchi = cc[-3:]
        four = [str(c.highest) for c in bianchi if 4 in c.spectrum]
        speeds_ok = speeds_ok and four == [weyl_label]
        if n == 4:
            # in four dimensions no other component reaches speed 4 at all
            speeds_ok = speeds_ok and all(
                4 not in c.spectrum for c in cc if str(c.highest) != weyl_label)
    ok = lists_ok and speeds_ok
    _record(10, "component census", ok,
            f"lists n=4,5,6 match, dim sums match, speed 3 on the mixed "
            f"torsion piece, speed 4 on the Weyl piece of the Bianchi branch")


def test_criterion_11_identity_suite():
    tol = 1e-10
    rng = np.random.default_rng(111)
    worst = {"bianchi1": 0.0, "bianchi2": 0.0, "trace2form": 0.0,
             "threeform": 0.0, "jacobi": 0.0}
    for n in (2, 3, 4):
        spec = random_torsionfree_spec(n, rng)
        cv = spec.evaluate(rng.uniform(-0.3, 0.3, size=n), derivs=2)
        r = curvature(cv)
        worst["bianchi1"] = max(worst["bianchi1"], norm(first_bianchi_residual(r)))
        worst["bianchi2"] = max(worst["bianchi2"], norm(second_bianchi_residual(cv)))
        gap = trace2form(r).data - 2.0 * alt2(ricci(r)).data
        worst["trace2form"] = max(worst["trace2form"], float(np.max(np.abs(gap))))
    for n in (3, 4, 5):
        w = rng.standard_normal((n, n, n))
        om = TensorValue(n, ("down",) * 3, w - w.transpose(1, 0, 2))
        plus, minus = three_form_split(om)
        tr = np.einsum("lmxyl->xym", wedge_id3(om).data)
        gap = tr + (n - 2) * plus.data + (n + 1) * minus.data
        worst["threeform"] = max(worst["threeform"], float(np.max(np.abs(gap))))
    for n in (2, 3, 5):
        a, b, c = (AlgebraElement(n, rng.standard_normal(n),
                                  rng.standard_normal((n, n)),
                                  rng.standard_normal(n)) for _ in range(3))
        total = [bracket(a, bracket(b, c)), bracket(b, bracket(c, a)),
                 bracket(c, bracket(a, b))]
        for part in ("vec", "endo", "form"):
            s = sum(getattr(e, part) for e in total)
            worst["jacobi"] = max(worst["jacobi"], float(np.max(np.abs(s))))
    bad = {k: v for k, v in worst.items() if v > tol}
    _record(11, "identity suite", not bad,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f", tol {tol:g}")
