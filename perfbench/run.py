"""hybridopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; ``hybridopt`` is imported from
``src/``.  The run starts ``SETUPS`` fresh interpreters one after another.
Each writes the workload's inputs, runs one untimed warm-up job and then
timed jobs (``hybridopt.cli.main`` called in-process, one closed-loop client,
``--workers 1``) for its share of ``--seconds``.  Every job's output is
checked.  With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer self times and
counts from jobs traced at the module boundaries, alternated with untraced
jobs so the tracing overhead is measured too.  ``--tiny`` runs the same code
and checks on small inputs, for the benchmark's own tests.

The first line is the environment block and the second a summary of the
jobs.  Workloads, metrics and their expected interactions are described in
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS = 3
RUN_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One process never uses more threads than the machine has cores.
for _name in THREAD_VARS:
    os.environ[_name] = "1"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(root: Path, versions: dict) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
    }


def run_worker(root, args, budget, workdir, deadline) -> dict:
    size = "tiny" if args.tiny else "full"
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
        repr(budget), str(args.trace), size, str(workdir),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker did not finish within the run's time limit: {err}") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_timed_monotonic"] - spawned
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workers, timed) -> dict:
    walls = [j["wall_s"] for j in timed]
    work = workers[0]["work_per_job"] * len(timed)
    return {
        "setup_s": metric(statistics.median(w["setup_s"] for w in workers), "s"),
        "job_s_p50": metric(statistics.median(walls), "s"),
        "work_per_s": metric(work / sum(walls), "1/s"),
        "peak_rss_mb": metric(statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }


def per_layer(timed, traced) -> tuple[dict, list[str]]:
    snaps = [j["trace"] for j in traced]
    out = {}
    for name in tracing.TIME_METRICS + ("trace.unattributed_s",):
        out[name] = metric(statistics.median(s[name] for s in snaps), "s")
    for name in tracing.COUNT_METRICS:
        unit = "bytes" if name.endswith("bytes") else "count"
        out[name] = metric(statistics.median_low(s[name] for s in snaps), unit)
    overhead = statistics.median(j["wall_s"] for j in traced) / statistics.median(
        j["wall_s"] for j in timed
    )
    out["trace.overhead"] = metric(overhead, "ratio")
    problems = [
        f"count {name} differs between traced jobs: {sorted({s[name] for s in snaps})}"
        for name in tracing.EXACT_COUNTS
        if len({s[name] for s in snaps}) != 1
    ]
    return out, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hybridopt" / "__init__.py").is_file():
        print(f"error: no hybridopt sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = HERE / ".work" / str(os.getpid())
    try:
        workers = [
            run_worker(root, args, args.seconds / SETUPS, base / str(k), deadline)
            for k in range(SETUPS)
        ]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    jobs = [j for w in workers for j in w["jobs"]]
    timed = [j for j in jobs if j["kind"] == "timed"]
    traced = [j for j in jobs if j["kind"] == "traced"]
    failed = [j for j in jobs if j["problems"]]
    for j in failed:
        print(f"failed {j['kind']} job: {'; '.join(j['problems'])}", file=sys.stderr)

    if args.trace:
        metrics, count_problems = per_layer(timed, traced)
    else:
        metrics, count_problems = end_to_end(workers, timed), []
    for problem in count_problems:
        print(f"error: {problem}", file=sys.stderr)

    print(json.dumps({"environment": environment(root, workers[0]["versions"])}, sort_keys=True))
    print(json.dumps({
        "workload": args.workload,
        "size": "tiny" if args.tiny else "full",
        "work_per_job": workers[0]["work_per_job"],
        "work_unit": workers[0]["work_unit"],
        "jobs_attempted": len(jobs),
        "jobs_failed": len(failed),
        "timed_jobs": len(timed),
        "timed_walls_s": [round(j["wall_s"], 4) for j in timed],
        "traced_jobs": len(traced),
        "missing_boundaries": workers[0]["missing_boundaries"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not count_problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
