"""Tests of the benchmark itself, on the tiny input sizes.

    python3 -m pytest -q perfbench

Every workload runs through the same code and output checks as a full run;
the tests assert the result format, that every metric named in
``BENCHMARK.json`` is reported, that exact counts repeat, that the output
checks can fail, and that the benchmark refuses to run without sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "environment" in json.loads(lines[0])
    return json.loads(lines[-1])


@pytest.fixture()
def workdir():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        yield Path(tmp)


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS) <= layer_names
    assert {"trace.unattributed_s", "trace.overhead"} <= layer_names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_exact_counts_repeat(workload):
    first, second = (result_of(bench(workload, 1, seed=11))["metrics"] for _ in range(2))
    for name in tracing.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_tracer_restores_every_boundary():
    from hybridopt import cli, dynamics, expr

    before = (dynamics.transition_rows_batch, expr.evaluate, cli.solve, dynamics.HybridModel.drift_at)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert expr.evaluate is not before[1]
    finally:
        tracer.uninstall()
    after = (dynamics.transition_rows_batch, expr.evaluate, cli.solve, dynamics.HybridModel.drift_at)
    assert after == before


def run_tiny(job):
    from hybridopt import cli

    code = cli.main(job.argv)
    assert job.check(code) == []


def test_checks_catch_a_changed_path_file(workdir, capsys):
    job = workloads.PathExport(workdir, 3, "tiny")
    run_tiny(job)
    job.out.write_bytes(job.out.read_bytes().replace(b",1,", b",2,", 1))
    assert job.check(0) == ["the same seed gave a different CSV"]
    job.out.write_bytes(b"# config_hash=x\nheader\n")
    assert any("data rows" in p for p in job.check(0))


def test_checks_catch_a_changed_value_grid(workdir, capsys):
    job = workloads.Solve2d(workdir, 3, "tiny")
    run_tiny(job)
    doc = json.loads(job.out.read_text())
    doc["values"][1][4][0] += 1e-8
    job.out.write_text(json.dumps(doc))
    assert any("differs from the reference" in p for p in job.check(0))


def test_checks_catch_a_biased_estimate(workdir, capsys):
    job = workloads.McEstimate(workdir, 3, "tiny")
    run_tiny(job)
    doc = json.loads(job.out.read_text())
    doc["mean"] += 10 * doc["stderr"]
    job.out.write_text(json.dumps(doc))
    problems = job.check(0)
    assert any("combined standard errors" in p for p in problems)
    assert "the same seed gave a different mean" in problems


def test_checks_catch_a_failed_validation(workdir, capsys):
    job = workloads.Validate2d(workdir, 3, "tiny")
    run_tiny(job)
    doc = json.loads(job.out.read_text())
    doc["checks"][0]["pass"] = False
    job.out.write_text(json.dumps(doc))
    assert job.check(0) == [f"check {doc['checks'][0]['name']} failed"]
    assert job.check(3) == ["exit code 3"]


def test_bilinear_matches_the_node_values():
    axes = [np.linspace(-1, 1, 3), np.linspace(-1, 1, 5)]
    table = np.arange(15, dtype=float)
    assert workloads.bilinear(axes, table, [0.0, 0.5]) == 8.0
    assert workloads.bilinear(axes, table, [0.5, 0.25]) == pytest.approx(0.5 * 7.5 + 0.5 * 12.5)


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("solve_2d", 0, cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
