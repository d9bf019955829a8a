"""The benchmark's solve_2d workload, run at its tiny size through the CLI.

perfbench/workloads.py checks every job's value grid against a recorded
reference; running that check here makes a solver change that would fail
the benchmark fail tier-1 instead.  perfbench/ is only imported, never
changed.
"""
import contextlib
import importlib.util
import io
from pathlib import Path

from hybridopt import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_tiny_solve_job_passes_the_benchmark_check(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    job = workloads.Solve2d(tmp_path, 42, "tiny")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(job.argv)
    assert job.check(code) == []
