"""Print one digest per benchmark job, so that two checkouts' reports compare by diff.

    python tests/replay_reports.py WORKLOAD SEED > digests.txt

Writes the inputs of bench/jobs.build for the workload (survey, develop or
twistor) and seed into a temporary directory, and runs the warm-up job and
then every timed job in order through projgeo.cli.main with --json --out, in
that directory, as the benchmark's worker does. Each job prints one line:
its index, its kind and the sha256 of its exit code, report bytes, stdout and
stderr (a job that raises hashes the exception's type and message in place of
an exit code). The same seed gives the same jobs in every checkout, so

    diff <(python A/tests/replay_reports.py develop 1) \\
         <(python B/tests/replay_reports.py develop 1)

is empty when A and B answer every job byte for byte alike. projgeo is imported
from this checkout's src; bench/ is only read, and no bytecode is written there.
Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in the worker: one thread, one summation order

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _digest(cli, argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    if os.path.exists("out.json"):
        os.remove("out.json")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = repr(cli.main(argv + ["--json", "--out", "out.json"]))
    except Exception as exc:  # a job that raises is reported, not fatal
        code = f"raised {type(exc).__name__}: {exc}"
    report = Path("out.json").read_bytes() if os.path.exists("out.json") else b""
    h = hashlib.sha256()
    for part in (code.encode(), report, out.getvalue().encode(), err.getvalue().encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("survey", "develop", "twistor"))
    ap.add_argument("seed", type=int)
    args = ap.parse_args()
    sys.dont_write_bytecode = True  # before importing from bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import jobs

    import projgeo.cli as cli

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        plan = jobs.build(args.workload, args.seed, Path(workdir))
        os.chdir(workdir)
        try:
            for idx, job in enumerate([plan["warmup"], *plan["jobs"]]):
                print(f"{idx:04d} {job['kind']} {_digest(cli, job['argv'])}", flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
