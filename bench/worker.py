"""The workload process: imports projgeo, warms up, then runs jobs closed loop.

Started by run.py, never by hand. It runs in the work directory, prints
"ready" once the first timed job can start, and writes its records to the
result file. Modes:

    probe   warm up, report ready, exit (a set-up time sample)
    timed   run the timed job list in order until --seconds have passed
    cycle   run the first cycle once, keeping every report, optionally traced

Every job goes through projgeo.cli.main(argv) with --json --out, as a user
runs it. The checks in jobs.check run after each job, outside its timing.

A job's time is the CPU time of this thread over the job, less the time the
pacer's readings took, and its wall time is recorded beside it. The job runs
in one thread, with the BLAS and OpenMP pools pinned to one, so on an idle
machine the two agree; on a shared host the CPU time leaves out the time
other work held the core. A pace.Pacer reads the core's pace throughout, and
the "ready" line carries the set-up CPU time and the pace over it:
"ready <cpu s> <pace>". A job's "seconds" is its CPU time divided by the pace
over the job. Span times in the traced run leave out the readings.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time, thread_time  # noqa: E402


def _env() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _run(cli, pacer, job: dict, out: str):
    """One job: (exit code, (cpu s, wall s), report text or None, error text or None)."""
    argv = job["argv"] + ["--json", "--out", out]
    if os.path.exists(out):
        os.remove(out)
    spent, c0, t0 = pacer.spent, thread_time(), perf_counter()
    try:
        code, error = cli.main(argv), None
    except Exception:  # a raise is a failed job, not a failed benchmark
        code, error = -1, traceback.format_exc(limit=3)
    elapsed = (thread_time() - c0 - (pacer.spent - spent), perf_counter() - t0)
    text = None if error or not os.path.exists(out) else Path(out).read_text()
    return code, elapsed, text, error


def _record(jobs, job: dict, code: int, elapsed: tuple, text, error) -> dict:
    payload = json.loads(text) if text is not None else None
    problems = [error] if error else jobs.check(job, code, payload)
    return {"kind": job["kind"], "seconds": elapsed[0], "cpu_s": elapsed[0],
            "wall_s": elapsed[1], "code": code, "problems": problems}


def _pace(pacer, records: list, spans: list) -> None:
    """Scale each record's CPU time by the pace read over its job."""
    for rec, (first, end) in zip(records, spans):
        speed = pacer.pace(first, end)
        rec.update(pace=speed, seconds=rec["cpu_s"] / speed)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--mode", choices=("probe", "timed", "cycle"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--outdir")
    ap.add_argument("--result")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "bench"))
    import pace

    pacer = pace.Pacer()
    pacer.start()
    try:
        return _work(args, root, pacer)
    finally:
        pacer.stop()


def _work(args, root: Path, pacer) -> int:
    import jobs

    import projgeo.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"projgeo imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2

    plan = json.loads(Path(args.plan).read_text())
    code, _, text, error = _run(cli, pacer, plan["warmup"], "warmup.json")
    warm = _record(jobs, plan["warmup"], code, (0.0, 0.0), text, error)
    if warm["problems"]:
        print(f"warm-up job failed: {warm['problems']}", file=sys.stderr)
        return 1
    # set-up: interpreter start, imports and the warm-up job
    setup_cpu = thread_time() - pacer.spent
    print(f"ready {setup_cpu!r} {pacer.pace(0, len(pacer.readings))!r}", flush=True)
    if args.mode == "probe":
        return 0

    result = {"env": _env(), "records": []}
    if args.mode == "timed":
        job_list = plan["jobs"]
        spans = []
        start, process0, thread0 = perf_counter(), process_time(), thread_time()
        idx = 0
        while perf_counter() - start < args.seconds:
            job = job_list[idx % len(job_list)]
            idx += 1
            first = len(pacer.readings)
            code, elapsed, text, error = _run(cli, pacer, job, "out.json")
            spans.append((first, len(pacer.readings)))
            result["records"].append(_record(jobs, job, code, elapsed, text, error))
        pacer.stop()
        # CPU time of any thread but this one: it should stay near zero
        result["other_threads_cpu_s"] = (process_time() - process0) - (thread_time() - thread0)
        _pace(pacer, result["records"], spans)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from spans import Tracer

        tracer = Tracer(clock=lambda: perf_counter() - pacer.spent_wall)
        if args.trace:
            tracer.install()
            result["coverage_problems"] = tracer.coverage_problems()
        outdir = Path(args.outdir)
        outdir.mkdir()
        spans = []
        for idx, job in enumerate(plan["cycle"]):
            before = dict(tracer.calls)
            first = len(pacer.readings)
            code, elapsed, text, error = _run(cli, pacer, job,
                                              str(outdir / f"job{idx:04d}.json"))
            spans.append((first, len(pacer.readings)))
            rec = _record(jobs, job, code, elapsed, text, error)
            rec["calls"] = {k: v - before.get(k, 0) for k, v in tracer.calls.items()
                            if v != before.get(k, 0)}
            result["records"].append(rec)
        pacer.stop()
        tracer.uninstall()
        _pace(pacer, result["records"], spans)
        result.update(seconds=sum(r["seconds"] for r in result["records"]),
                      calls=dict(tracer.calls), self_s=dict(tracer.self_s))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
