"""The benchmark's four workloads, each run at its tiny size through the CLI.

perfbench/workloads.py names every job's command line and checks its output
(the estimate against a recorded reference mean, the CSV's rows, the value
grid against a recorded reference, the validate report passing).  Running
those checks here makes a change to the argv a job passes or to the output
it reads, which would fail the benchmark, fail tier-1 instead.
perfbench/ is only imported, never changed.
"""
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from hybridopt import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["mc_estimate", "path_export", "solve_2d", "validate_2d"])
def test_tiny_job_passes_the_benchmark_check(tmp_path, name):
    job = _workloads().WORKLOADS[name](tmp_path, 42, "tiny")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(job.argv)
    assert job.check(code) == []
