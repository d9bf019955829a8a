"""One fresh interpreter of a benchmark run.

Imports ``hybridopt`` from ``src/`` of the current directory, writes the
workload's inputs, runs one untimed warm-up job, then runs timed jobs until
its time budget is spent.  With tracing on, untraced and traced jobs
alternate, so the tracing overhead is measured in the same process.  Prints
one JSON line with every job's wall time, checks and trace snapshot.

    python3 perfbench/worker.py WORKLOAD SEED BUDGET_S TRACE SIZE WORKDIR
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path.cwd() / "src"


def import_package():
    sys.path.insert(0, str(SRC))
    import hybridopt
    from hybridopt import cli

    if Path(hybridopt.__file__).resolve().parent != (SRC / "hybridopt").resolve():
        raise ImportError(f"hybridopt was imported from {hybridopt.__file__}, not from {SRC}")
    return cli


def run_job(cli, job) -> tuple[float, list[str]]:
    """Wall time of one ``cli.main`` call and the problems its output shows."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except Exception as exc:  # a job that raises counts as failed, the run goes on
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    try:
        problems = job.check(code)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
    if code != 0 and err.getvalue():
        problems.append(err.getvalue().strip().splitlines()[-1])
    return wall, problems


def main(argv: list[str]) -> int:
    workload, seed, budget, trace, size, workdir = argv
    seed, budget, trace = int(seed), float(budget), trace == "1"
    cli = import_package()
    import numpy
    import scipy

    import tracing
    import workloads

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    job = workloads.WORKLOADS[workload](workdir, seed, size)
    warmup_s, warmup_problems = run_job(cli, job)
    jobs = [{"kind": "warmup", "wall_s": warmup_s, "problems": warmup_problems}]

    tracer = tracing.Tracer() if trace else None
    first_timed = time.monotonic()
    spent = 0.0
    last = warmup_s
    n = 0
    # stop when the next job would more likely end past the budget than
    # before it; at least one job runs, and an untraced/traced pair completes
    while n == 0 or (trace and n % 2) or spent + last / 2 < budget:
        traced = trace and n % 2 == 1
        snapshot = None
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, problems = run_job(cli, job)
            finally:
                tracer.uninstall()
            snapshot = tracer.snapshot(wall)
        else:
            wall, problems = run_job(cli, job)
        jobs.append({
            "kind": "traced" if traced else "timed",
            "wall_s": wall,
            "problems": problems,
            "trace": snapshot,
        })
        spent += wall
        last = wall
        n += 1

    print(json.dumps({
        "first_timed_monotonic": first_timed,
        "work_per_job": job.work,
        "work_unit": job.work_unit,
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_boundaries": tracer.missing if tracer else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
