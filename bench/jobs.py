"""Seeded job lists for the three workloads, and the checks behind error_rate.

Everything here is standard library only: the generator runs before the
workload process starts, and the checks run inside it after each job, outside
the timed region. A job is a JSON-ready dict:

    {"kind": slot label, "argv": CLI arguments, "expect": what its construction
     guarantees}

Input files are written into the work directory and named relative to it; the
workload process runs with that directory as its current directory.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("survey", "develop", "twistor")

# Highest percentile with about ten jobs beyond it at the job counts a 30 s
# run completes on a 2-vCPU host (110-185 survey, 19-27 develop, 55-70 twistor
# jobs). Fixed per workload so that runs compare; the report says how many
# jobs lie beyond it.
TAIL_PERCENTILE = {"survey": 90.0, "develop": 60.0, "twistor": 80.0}

# Timed jobs come from repeated passes over a fixed cycle of slots; the seed
# changes only the numbers inside each input. This many passes are written,
# about twice what a 30 s run completes; a run that gets further starts over
# and says so.
CYCLES = {"survey": 12, "develop": 8, "twistor": 20}

# twistor: the four reps census jobs run once per run, in the first pass, and
# make up this share of the stated mix.
REPS_SHARE = 0.05

# Contractual bounds from tests/test_acceptance.py.
W_FLAT = 1e-10          # W (and C for n = 2) on constant-curvature charts
LOOP_ACCEPT = 1e-7      # loop defect on accepted develop jobs
TWO_PATH = 1e-7         # two-path residual on accepted develop jobs
COLLINEAR = 1e-6        # collinearity of developed geodesic points
LOOP_REFUSE = 1e-3      # loop defect on refused charts
NIJ_PASS = 1e-5         # Nijenhuis residual, integrable
NIJ_FAIL = 1e-2         # Nijenhuis residual, obstructed


# ---------------------------------------------------------------- formulas

def _num(x: float) -> str:
    return f"{x:.6f}"


def _shift(i: int, c: float) -> str:
    """x_{i+1} - c, written without a doubled sign."""
    return f"(x{i + 1} - {_num(c)})" if c >= 0 else f"(x{i + 1} + {_num(-c)})"


def _poly(rng: random.Random, n: int, scale: float) -> str:
    """c0 + c1 x_u + c2 x_v x_w with coefficients uniform in [-scale, scale]."""
    u, v, w = (rng.randint(1, n) for _ in range(3))
    c = [rng.uniform(-scale, scale) for _ in range(3)]
    return f"{_num(c[0])} + {_num(c[1])}*x{u} + {_num(c[2])}*x{v}*x{w}"


def _random_symmetric(rng: random.Random, n: int, scale: float) -> dict:
    """Symmetric polynomial Christoffel symbols: no shared expressions."""
    gamma = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                gamma[(k, i, j)] = gamma[(k, j, i)] = _poly(rng, n, scale)
    return gamma


def _conformal(n: int, centre, radius: float, sign: int):
    """Constant curvature sign/R^2: g = 4 R^4 / (R^2 + sign |x - c|^2)^2 delta.

    Returns the shared metric entry and the closed-form Christoffel symbols of
    g = e^{2 phi} delta: Gamma^k_ij = d_i phi delta_kj + d_j phi delta_ki
    - d_k phi delta_ij, with d_i phi = -2 sign (x_i - c_i) / (R^2 + sign |x-c|^2).
    """
    op = "+" if sign > 0 else "-"
    dist = " + ".join(f"{_shift(i, centre[i])}^2" for i in range(n))
    den = f"({_num(radius * radius)} {op} ({dist}))"
    metric = f"{_num(4.0 * radius ** 4)} / {den}^2"
    coef = "-2" if sign > 0 else "2"
    dphi = [f"({coef}*{_shift(i, centre[i])} / {den})" for i in range(n)]
    gamma = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = []
                if k == j:
                    terms.append(dphi[i])
                if k == i:
                    terms.append(dphi[j])
                if i == j:
                    terms.append(f"-{dphi[k]}")
                if terms:
                    gamma[(k, i, j)] = " + ".join(terms)
    return metric, gamma


def _projective_change(n: int, gamma: dict, alpha: list) -> dict:
    """Gamma^k_ij + alpha_i delta^k_j + alpha_j delta^k_i, as text."""
    out = dict(gamma)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = ([f"({alpha[i]})"] if k == j else []) + \
                        ([f"({alpha[j]})"] if k == i else [])
                if terms:
                    if (k, i, j) in out:
                        terms.insert(0, f"({out[(k, i, j)]})")
                    out[(k, i, j)] = " + ".join(terms)
    return out


def _christoffel_file(n: int, gamma: dict, note: str) -> str:
    lines = [f"# {note}", f"dim = {n}", "", "[christoffel]"]
    lines += [f"G {k + 1} {i + 1} {j + 1} = {e}" for (k, i, j), e in sorted(gamma.items())]
    return "\n".join(lines) + "\n"


def _metric_file(n: int, entry: str, note: str) -> str:
    lines = [f"# {note}", f"dim = {n}", "", "[metric]"]
    lines += [f"g {i + 1} {i + 1} = {entry}" for i in range(n)]
    return "\n".join(lines) + "\n"


def _alpha_file(n: int, alpha: list) -> str:
    return f"dim = {n}\n" + "".join(f"a {i + 1} = {a}\n" for i, a in enumerate(alpha))


def _point(rng: random.Random, n: int, half: float) -> list:
    return [rng.uniform(-half, half) for _ in range(n)]


def _csv(p) -> str:
    return ",".join(_num(x) for x in p)


# ---------------------------------------------------------------- charts

class _Writer:
    """Writes numbered input files into the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def __call__(self, suffix: str, text: str) -> str:
        self.count += 1
        name = f"in{self.count:05d}.{suffix}"
        (self.workdir / name).write_text(text)
        return name


def _cc(rng: random.Random, n: int, radii: tuple) -> tuple:
    """Seeded constant-curvature data: round or hyperbolic, centre, radius."""
    sign = rng.choice((1, -1))
    centre = _point(rng, n, 0.2)
    radius = rng.uniform(*radii)
    metric, gamma = _conformal(n, centre, radius, sign)
    label = f"{'round' if sign > 0 else 'hyperbolic'} R={radius:.3f}"
    return metric, gamma, centre, label


def _warm_rng() -> random.Random:
    """The warm-up job is the same in every run: it is part of set-up time."""
    return random.Random("warm-up")


# ---------------------------------------------------------------- survey

SURVEY_DIMS = (2, 3, 4, 6)
SURVEY_FAMILIES = ("random", "metric", "changed")
# Sample counts per (family, command): a spread from the default 10 to a few
# hundred points, so batching shows at small and large P alike.
SURVEY_SAMPLES = {
    ("random", "invariance"): 10, ("random", "equivalent"): 40,
    ("metric", "invariance"): 160, ("metric", "equivalent"): 10,
    ("changed", "invariance"): 40, ("changed", "equivalent"): 160,
}


def _survey_slot(w: _Writer, rng: random.Random, n: int, family: str, command: str,
                 seed: int) -> dict:
    kind = f"{command}/{family}/n{n}"
    alpha = [_poly(rng, n, 0.3) for _ in range(n)]
    if family == "random":
        gamma = _random_symmetric(rng, n, 0.3)
        chart = w("chart", _christoffel_file(n, gamma, "random symmetric polynomial"))
        flat = False
    else:
        metric, gamma, _, label = _cc(rng, n, (2.0, 3.0))
        if family == "metric":
            chart = w("chart", _metric_file(n, metric, label))
        else:
            gamma = _projective_change(n, gamma, alpha)
            alpha = [_poly(rng, n, 0.3) for _ in range(n)]
            chart = w("chart", _christoffel_file(n, gamma, f"projective change of {label}"))
        flat = True
    if command == "analyze":
        point = _point(rng, n, 0.4)
        return {"kind": kind, "argv": ["analyze", chart, f"--point={_csv(point)}"],
                "expect": {"check": "analyze", "n": n, "flat": flat}}
    samples = ["--samples", str(SURVEY_SAMPLES[(family, command)]), "--seed", str(seed)]
    if command == "invariance":
        alpha_path = w("alpha", _alpha_file(n, alpha))
        return {"kind": kind, "argv": ["invariance", chart, "--alpha", alpha_path] + samples,
                "expect": {"check": "invariance"}}
    # equivalent: a projective change of the same chart is equivalent; for random
    # charts in n = 2 and 4 the partner is an unrelated random chart instead.
    if family == "random" and n in (2, 4):
        other = _random_symmetric(rng, n, 0.3)
        equivalent = False
    else:
        other = _projective_change(n, gamma, [_poly(rng, n, 0.3) for _ in range(n)])
        equivalent = True
    partner = w("chart", _christoffel_file(n, other, "equivalence partner"))
    return {"kind": kind, "argv": ["equivalent", chart, partner] + samples,
            "expect": {"check": "equivalent", "equivalent": equivalent}}


def _survey(w: _Writer, rng: random.Random) -> tuple[list, dict]:
    slots = [(n, family, command) for n in SURVEY_DIMS for family in SURVEY_FAMILIES
             for command in ("analyze", "invariance", "equivalent")]
    cycles = [[_survey_slot(w, rng, n, f, c, rng.randrange(1 << 20)) for n, f, c in slots]
              for _ in range(CYCLES["survey"])]
    warm = _survey_slot(w, _warm_rng(), 3, "random", "analyze", 0)
    return cycles, warm


# ---------------------------------------------------------------- develop

DEVELOP_DIMS = (2, 3, 4)


def _develop_slot(w: _Writer, rng: random.Random, n: int, family: str, seed: int,
                  alpha_scale: float = 0.1) -> dict:
    base = _point(rng, n, 0.1)
    direction = [rng.gauss(0.0, 1.0) for _ in range(n)]
    size = sum(d * d for d in direction) ** 0.5
    direction = [d / size for d in direction]
    if family == "metric":
        metric, _, through, label = _cc(rng, n, (4.5, 5.5))
        chart = w("chart", _metric_file(n, metric, label))
    elif family == "changed":
        through = _point(rng, n, 0.1)
        alpha = [_poly(rng, n, alpha_scale) for _ in range(n)]
        chart = w("chart", _christoffel_file(
            n, _projective_change(n, {}, alpha), "projective change of the flat chart"))
    else:
        through = _point(rng, n, 0.1)
        chart = w("chart", _christoffel_file(n, _random_symmetric(rng, n, 0.4),
                                             "curved random chart"))
    # Targets on a geodesic (a line through the centre of a constant-curvature
    # chart, any line for a projective change of the flat chart), so that their
    # images must be collinear.
    ts = sorted(rng.uniform(-0.3, 0.3) for _ in range(3))
    targets = [[c + t * d for c, d in zip(through, direction)] for t in ts]
    target_path = w("txt", "".join(_csv(t) + "\n" for t in targets))
    return {"kind": f"develop/{family}/n{n}",
            "argv": ["develop", chart, f"--base={_csv(base)}", "--targets", target_path,
                     "--seed", str(seed)],
            "expect": {"check": "develop", "flat": family != "random"}}


def _develop(w: _Writer, rng: random.Random) -> tuple[list, dict]:
    slots = [(n, family) for n in DEVELOP_DIMS for family in ("metric", "changed", "random")]
    cycles = [[_develop_slot(w, rng, n, f, rng.randrange(1 << 20)) for n, f in slots]
              for _ in range(CYCLES["develop"])]
    warm = _develop_slot(w, _warm_rng(), 2, "changed", 0, alpha_scale=0.02)
    return cycles, warm


# ---------------------------------------------------------------- twistor

TWISTOR_DIMS = (4, 6)
REPS_JOBS = (("torsion", 4), ("curvature", 4), ("torsion", 6), ("curvature", 6))


def _twistor_slot(w: _Writer, rng: random.Random, n: int, family: str, seed: int,
                  samples: int = 3) -> dict:
    if family == "metric":
        metric, _, _, label = _cc(rng, n, (2.0, 3.0))
        chart = w("chart", _metric_file(n, metric, label))
    elif family == "changed":
        alpha = [_poly(rng, n, 0.3) for _ in range(n)]
        chart = w("chart", _christoffel_file(
            n, _projective_change(n, {}, alpha), "projective change of the flat chart"))
    else:
        chart = w("chart", _christoffel_file(n, _random_symmetric(rng, n, 0.3),
                                             "curved random chart"))
    return {"kind": f"twistor/{family}/n{n}",
            "argv": ["twistor", chart, "--samples", str(samples), "--seed", str(seed)],
            "expect": {"check": "twistor", "n": n, "integrable": family != "random"}}


def _reps_job(space: str, n: int) -> dict:
    return {"kind": f"reps/{space}/n{n}",
            "argv": ["reps", "--dim", str(n), "--space", space],
            "expect": {"check": "reps", "space": space, "n": n}}


def _twistor(w: _Writer, rng: random.Random) -> tuple[list, dict]:
    slots = [(n, family) for n in TWISTOR_DIMS for family in ("metric", "changed", "random")]
    cycles = [[_twistor_slot(w, rng, n, f, rng.randrange(1 << 20)) for n, f in slots]
              for _ in range(CYCLES["twistor"])]
    # each (space, n) census once per run, interleaved in the first pass, so
    # that the traced run replays all four
    for idx, (space, n) in enumerate(REPS_JOBS):
        cycles[0].insert(2 * idx + 1, _reps_job(space, n))
    warm = _twistor_slot(w, _warm_rng(), 4, "changed", 0, samples=1)
    return cycles, warm


# ---------------------------------------------------------------- entry

def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of one run and return its job plan.

    The plan holds the warm-up job, the timed job list (cycle after cycle),
    the first cycle alone (the fixed list the traced run replays), and the
    stated mix: the weight of each slot kind.
    """
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(workdir)
    cycles, warm = {"survey": _survey, "develop": _develop, "twistor": _twistor}[workload](w, rng)
    kinds = sorted({job["kind"] for cycle in cycles for job in cycle})
    reps = [k for k in kinds if k.startswith("reps/")]
    rest = [k for k in kinds if not k.startswith("reps/")]
    share = 1.0 - REPS_SHARE if reps else 1.0
    mix = {k: share / len(rest) for k in rest}
    mix.update({k: REPS_SHARE / len(reps) for k in reps})
    return {"workload": workload, "seed": seed, "warmup": warm,
            "jobs": [job for cycle in cycles for job in cycle],
            "cycle": cycles[0], "mix": mix, "files": w.count}


# ---------------------------------------------------------------- checks

def check(job: dict, code: int, payload: dict | None) -> list:
    """Problems with one job's exit code and report; empty when it is correct."""
    exp = job["expect"]
    what = exp["check"]
    if payload is None:
        return [f"exit {code} and no report"]
    problems = []

    def need(ok: bool, text: str) -> None:
        if not ok:
            problems.append(text)

    if what == "analyze":
        norms = payload["norms"]
        need(code == 0, f"exit {code}")
        if exp["flat"]:
            expected = ("projectively flat at point (n=2 criterion: C=0)" if exp["n"] == 2
                        else "projectively flat at point (W=0)")
            need(norms["weyl"] is not None and norms["weyl"] <= W_FLAT,
                 f"W {norms['weyl']} > {W_FLAT}")
            if exp["n"] == 2:
                need(norms["cotton"] is not None and norms["cotton"] <= W_FLAT,
                     f"C {norms['cotton']} > {W_FLAT}")
        else:
            expected = ("not projectively flat (C != 0)" if exp["n"] == 2
                        else "not projectively flat (W != 0)")
        need(payload["verdict"] == expected, f"verdict {payload['verdict']!r}")
    elif what == "invariance":
        need(code == 0, f"exit {code}")
        need(payload["verdict"] == "invariant", f"verdict {payload['verdict']!r}")
    elif what == "equivalent":
        if exp["equivalent"]:
            need(code == 0, f"exit {code}")
            need(payload["verdict"] == "projectively equivalent",
                 f"verdict {payload['verdict']!r}")
        else:
            need(code == 1, f"exit {code}")
            need(payload["verdict"] == "not equivalent", f"verdict {payload['verdict']!r}")
    elif what == "develop":
        defect = payload["flatness_defect"]
        if exp["flat"]:
            need(code == 0, f"exit {code}")
            need(payload["verdict"] == "developed", f"verdict {payload['verdict']!r}")
            need(defect <= LOOP_ACCEPT, f"loop defect {defect} > {LOOP_ACCEPT}")
            collinear = payload.get("collinearity_defect", float("inf"))
            need(collinear <= COLLINEAR, f"collinearity {collinear} > {COLLINEAR}")
            worst = max((im["path_error"] for im in payload.get("images", [])),
                        default=float("inf"))
            need(worst <= TWO_PATH, f"two-path residual {worst} > {TWO_PATH}")
        else:
            need(code == 1, f"exit {code}")
            need(payload["verdict"] == "not flat: developing map refused",
                 f"verdict {payload['verdict']!r}")
            need(defect >= LOOP_REFUSE, f"loop defect {defect} < {LOOP_REFUSE}")
    elif what == "twistor":
        residuals = [r["residual"] for r in payload["reports"]]
        if exp["integrable"]:
            need(code == 0, f"exit {code}")
            need(payload["verdict"] == "no obstruction at samples",
                 f"verdict {payload['verdict']!r}")
            need(max(residuals) <= NIJ_PASS, f"residual {max(residuals)} > {NIJ_PASS}")
        else:
            need(code == 1, f"exit {code}")
            need(payload["verdict"] == "obstruction detected",
                 f"verdict {payload['verdict']!r}")
            need(min(residuals) >= NIJ_FAIL, f"residual {min(residuals)} < {NIJ_FAIL}")
    elif what == "reps":
        n, comps = exp["n"], payload["components"]
        need(code == 0, f"exit {code}")
        total = n * n * (n - 1) // 2 if exp["space"] == "torsion" else n ** 3 * (n - 1) // 2
        need(payload["dim_total"] == total, f"dim_total {payload['dim_total']} != {total}")
        need(len(comps) == (2 if exp["space"] == "torsion" else 5),
             f"{len(comps)} components")
        need(all(sum(c["spectrum"].values()) == c["dim"] for c in comps),
             "spectrum multiplicities do not add up to the component dimension")
        # speed 3 on exactly one torsion piece, speed 4 on exactly one piece
        # of the Bianchi branch (the last three curvature components)
        speed, pieces = (("3", comps) if exp["space"] == "torsion" else ("4", comps[-3:]))
        need(sum(speed in c["spectrum"] for c in pieces) == 1,
             f"speed {speed} not on exactly one component")
    else:
        problems.append(f"unknown check {what!r}")
    return problems
