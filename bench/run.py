"""projgeo benchmark: seeded CLI job mixes, closed loop, one client.

    python3 bench/run.py --workload survey|develop|twistor --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program measured is the projgeo under src/ next to
this directory. Inputs are generated from the seed into .bench_work/ and
removed afterwards. The workload process runs every job through
projgeo.cli.main(argv) with --json --out, one job after the other.

Times are CPU seconds of the single-threaded workload process, divided by
the pace of the core read throughout each job (pace.py): CPU seconds at a
fixed reference pace. Plain CPU and wall-clock figures are printed beside
them in the report lines.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first pass of
the job list untraced and traced, in separate processes, and prints the
per-layer metrics. Human-readable report lines come first; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 0 with a result, 1 when the workload process fails, 2 on usage
errors or when there is no projgeo to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402

SETUP_PROBES = 8          # extra fresh processes timed to set-up, besides the workload's own
PROCESS_TIMEOUT = 170.0   # no single workload process may outlive the run's limit
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------- processes

def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def _worker(workdir: Path, mode: str, **opts) -> tuple[tuple, dict | None]:
    """Start a workload process; return its set-up time and its result.

    The set-up time is (CPU s at the reference pace, CPU s, wall s).
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--plan", "plan.json", "--mode", mode]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=_child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process did not finish within {PROCESS_TIMEOUT} s")
    words = line.split()
    if not words or words[0] != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} process failed with exit code {proc.returncode}")
    cpu, speed = float(words[1]), float(words[2])
    setup = (cpu / speed, cpu, wall)
    result = opts.get("result")
    return setup, (json.loads((workdir / result).read_text()) if result else None)


# ---------------------------------------------------------------- statistics

def _quantile(samples: list, q: float, grid: int = 4096) -> float:
    """Harrell-Davis estimate of the q-quantile of (value, weight) samples.

    A Beta(q(n+1), (1-q)(n+1))-weighted average of all order statistics, with
    each sample spanning its share of the total weight. Job times cluster by
    kind, and this moves smoothly where one or two order statistics jump
    between clusters from run to run.
    """
    samples = sorted(samples)
    n = len(samples)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    logs = [(a - 1) * math.log((k + 0.5) / grid) + (b - 1) * math.log1p(-(k + 0.5) / grid)
            for k in range(grid)]
    peak = max(logs)
    cdf = [0.0]
    for v in logs:
        cdf.append(cdf[-1] + math.exp(v - peak))

    def at(p: float) -> float:
        x = min(p, 1.0) * grid
        k = min(int(x), grid - 1)
        return cdf[k] + (cdf[k + 1] - cdf[k]) * (x - k)

    total = sum(w for _, w in samples)
    est = cum = 0.0
    for value, weight in samples:
        lo = at(cum / total)
        cum += weight
        est += value * (at(cum / total) - lo)
    return est / cdf[-1]


def _at_mix(records: list, mix: dict) -> tuple[list, float]:
    """Latency samples weighted to the stated mix, and the mean job time at it.

    Each slot kind gets its stated share whatever number of its jobs the run
    completed, so a run that ends part-way through a pass reports the same mix.
    """
    by_kind: dict[str, list] = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec["seconds"])
    present = {k: w for k, w in mix.items() if k in by_kind}
    total = sum(present.values())
    samples = [(s, present[k] / total / len(v)) for k, v in by_kind.items()
               if k in present for s in v]
    mean = sum(present[k] / total * statistics.fmean(by_kind[k]) for k in present)
    return samples, mean


# ---------------------------------------------------------------- runs

def _end_to_end(workdir: Path, plan: dict, seconds: int) -> tuple[dict, list, dict]:
    # probes before and after the timed run, so a slow spell of the machine
    # at one end does not set the median
    setups = [_worker(workdir, "probe")[0] for _ in range(SETUP_PROBES // 2)]
    setup, result = _worker(workdir, "timed", seconds=seconds, result="timed.json")
    setups.append(setup)
    setups += [_worker(workdir, "probe")[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    records = result["records"]
    failed = sum(1 for r in records if r["problems"])
    samples, mean = _at_mix(records, plan["mix"])
    _, cpu_mean = _at_mix([dict(r, seconds=r["cpu_s"]) for r in records], plan["mix"])
    _, wall_mean = _at_mix([dict(r, seconds=r["wall_s"]) for r in records], plan["mix"])
    pct = jobs.TAIL_PERCENTILE[plan["workload"]]
    beyond = lambda v: sum(1 for r in records if r["seconds"] > v)  # noqa: E731
    tail = _quantile(samples, pct / 100.0)
    missing = sorted(set(plan["mix"]) - {r["kind"] for r in records})
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s", len(setups)),
        "jobs_per_s": (1.0 / mean, "1/s", len(records)),
        "job_p50_s": (_quantile(samples, 0.5), "s", len(records)),
        "job_tail_s": (tail, "s", len(records)),
        "error_rate": (failed / len(records), "ratio", len(records)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    notes = [f"job_tail_s is p{pct:g} with {beyond(tail)} of {len(records)} jobs beyond it",
             "times above are CPU seconds at the reference pace; "
             f"in plain CPU seconds setup_s {statistics.median(s[1] for s in setups):.6g}, "
             f"jobs_per_s {1.0 / cpu_mean:.6g}; in wall seconds "
             f"setup_s {statistics.median(s[2] for s in setups):.6g}, "
             f"jobs_per_s {1.0 / wall_mean:.6g}; median pace "
             f"{statistics.median(r['pace'] for r in records):.4g}; CPU time of threads "
             f"other than the jobs' own {result['other_threads_cpu_s']:.3g} s",
             f"kinds in the stated mix not reached: {missing or 'none'}"]
    if len(records) > len(plan["jobs"]):
        notes.append(f"the run went past the {len(plan['jobs'])} generated jobs and reused inputs")
    notes += [f"FAILED {r['kind']}: {'; '.join(map(str, r['problems']))}"
              for r in records if r["problems"]][:20]
    return metrics, records, {"notes": notes, "env": result["env"]}


def _layer_metrics(calls: dict, self_s: dict, cycle: list, overhead: float) -> dict:
    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    develop_jobs = sum(1 for j in cycle if j["argv"][0] == "develop")
    out = {}
    for name in ("cli.main", "expr.parse", "expr.eval_jet", "connection.load_chart",
                 "connection.curvature", "algebra.weyl", "develop.flatness_defect",
                 "develop.cartan_transport", "twistor.nijenhuis", "twistor.acs_field_matrix",
                 "twistor.expm_frechet", "reps.j0_census"):
        out[f"{name}.calls"] = (c(name), "count")
        out[f"{name}.self_s"] = (s(name), "s")
    for d in (0, 1, 2):
        out[f"connection.evaluate.d{d}.calls"] = (c(f"connection.evaluate.d{d}"), "count")
    for name in ("connection.evaluate", "algebra.curvature_report", "algebra.cotton",
                 "projective.load_alpha", "projective.projective_change",
                 "projective.check_weyl_invariance", "projective.projectively_equivalent",
                 "develop.develop_map"):
        out[f"{name}.self_s"] = (s(name), "s")
    evaluate = c("connection.evaluate")
    transports = c("develop.cartan_transport")
    out["expr.jets_per_evaluate"] = (c("expr.eval_jet") / evaluate if evaluate else 0.0,
                                     "ratio")
    out["develop.evals_per_transport"] = (
        c("connection.evaluate.in_transport") / transports if transports else 0.0, "ratio")
    out["develop.certificates_per_job"] = (
        c("develop.flatness_defect") / develop_jobs if develop_jobs else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def _coverage_facts(job: dict, rec: dict) -> list:
    """What the code fixes today, checked on one traced job."""
    calls = rec["calls"]
    problems = []
    if job["argv"][0] == "develop":
        want = 2 if rec["code"] == 0 else 1
        got = calls.get("develop.flatness_defect", 0)
        if got != want:
            problems.append(f"{got} flatness certificates, expected {want}")
    if job["argv"][0] == "twistor":
        n = job["expect"]["n"]
        acs = calls.get("twistor.acs_field_matrix", 0)
        frechet = calls.get("twistor.expm_frechet", 0)
        if acs == 0 or frechet != acs * (n * n // 2):
            problems.append(f"expm_frechet calls {frechet} != acs_field_matrix calls "
                            f"{acs} x fibre dimension {n * n // 2}")
    return problems


def _traced(workdir: Path, plan: dict, seconds: int) -> tuple[dict, list, dict]:
    cycle = plan["cycle"]
    start = perf_counter()
    records, problems, passes = [], [], []
    while not passes or perf_counter() - start < seconds:
        tag = len(passes)
        _, plain = _worker(workdir, "cycle", trace=0, outdir=f"plain{tag}",
                           result=f"plain{tag}.json")
        _, traced = _worker(workdir, "cycle", trace=1, outdir=f"traced{tag}",
                            result=f"traced{tag}.json")
        problems += traced["coverage_problems"]
        for idx, (job, a, b) in enumerate(zip(cycle, plain["records"], traced["records"])):
            out_a = (workdir / f"plain{tag}" / f"job{idx:04d}.json").read_bytes()
            out_b = (workdir / f"traced{tag}" / f"job{idx:04d}.json").read_bytes()
            b["problems"] += _coverage_facts(job, b)
            if out_a != out_b:
                b["problems"].append("traced report differs from the untraced one")
            records += [a, b]
        passes.append((plain, traced))
    calls = passes[0][1]["calls"]
    if any(t["calls"] != calls for _, t in passes):
        problems.append("call counts differ between traced passes")
    names = set().union(*(t["self_s"] for _, t in passes))
    self_s = {k: statistics.median(t["self_s"].get(k, 0.0) for _, t in passes) for k in names}
    overhead = statistics.median(t["seconds"] / p["seconds"] for p, t in passes)
    metrics = {k: (v, unit, len(passes))
               for k, (v, unit) in _layer_metrics(calls, self_s, cycle, overhead).items()}
    notes = [f"{len(passes)} untraced/traced pass pairs over a fixed list of {len(cycle)} jobs; "
             "counts are per pass, self times the median pass"]
    notes += [f"COVERAGE {p}" for p in problems]
    notes += [f"FAILED {r['kind']}: {'; '.join(map(str, r['problems']))}"
              for r in records if r["problems"]][:20]
    return metrics, records, {"notes": notes, "env": passes[0][0]["env"],
                              "coverage_ok": not problems}


# ---------------------------------------------------------------- main

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "projgeo" / "cli.py").is_file():
        print(f"error: no projgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = perf_counter()
        plan = jobs.build(args.workload, args.seed, workdir)
        gen_s = perf_counter() - t0
        (workdir / "plan.json").write_text(json.dumps(plan))
        run = _traced if args.trace else _end_to_end
        metrics, records, info = run(workdir, plan, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    failed = sum(1 for r in records if r["problems"])
    env = dict(info["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               commit=_commit(), src_digest=_source_digest(), seed=args.seed,
               workload=args.workload, seconds=args.seconds, trace=args.trace,
               input_files=plan["files"], input_generation_s=round(gen_s, 4))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"mix ({len(plan['mix'])} slot kinds): " + ", ".join(
        f"{k} {w:.3f}" for k, w in sorted(plan["mix"].items())))
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={count})")
    for note in info["notes"]:
        print(note)
    if args.trace:
        shown = metrics
    else:  # error_rate is 0 when correct; it travels as failed/attempted instead
        shown = {k: v for k, v in metrics.items() if k != "error_rate"}
    print(json.dumps({
        "correct": failed == 0 and info.get("coverage_ok", True),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
