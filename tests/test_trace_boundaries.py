"""The benchmark tracer in perfbench/ patches named functions of the package.

A rename or deletion of one of them would make the traced benchmark silently
lose a layer; this test makes it fail tier-1 instead.  perfbench/tracing.py
is only imported, never changed.
"""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from hybridopt import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# rows of tracing.BOUNDARIES whose functions left the package earlier;
# switching.expm went when the scipy expm reference moved to oracle_verify,
# cost.batch_costs when the dpp check took the engine's costing mode (the
# one running-cost loop), and expr.evaluate when the model's smoke check
# began calling its compiled expressions
KNOWN_STALE = {
    "dynamics.step_transition_probs",
    "dpp_solver.step_transition_probs",
    "switching.expm",
    "cost.batch_costs",
    "expr.evaluate",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_finds_every_live_boundary():
    tracer = _tracer()
    tracer.install()
    try:
        # equal, so that an entry cannot outlive its function's absence
        assert set(tracer.missing) == KNOWN_STALE
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_traced_commands_count_clamps(command, demo_files, tmp_path):
    # the tracer reads clamp_count from every engine call's result; a result
    # without it would fail every traced job
    model = json.loads(demo_files[0].read_text())
    model["drift"] = [["1"], ["1"]]
    model["truncation"] = {"lower": [-0.01], "upper": [0.01]}
    demo_files[0].write_text(json.dumps(model))
    tracer = _tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--model", str(demo_files[0]), "--control", str(demo_files[1]),
                             "--out", str(tmp_path / "out"), "--paths", "8", "--dt", "0.25", "--workers", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["dynamics.clamp_events"] > 0


def test_traced_solve_writes_its_artifact(demo_files, tmp_path):
    # the tracer's byte counter encodes the text handed to atomic_write_text;
    # the artifact's pieces must not reach it, or every traced solve job fails
    tracer = _tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--model", str(demo_files[0]), "--out", str(tmp_path / "vg.json"),
                             "--grid-nt", "4", "--grid-nx", "5", "--quad-order", "3", "--workers", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["dpp_solver.stage_values_calls"] > 0
    assert tracer.times["config.write_s"] > 0
    assert json.loads((tmp_path / "vg.json").read_text())["grid"]["time_steps"] == 4
