"""The benchmark tracer in perfbench/ patches named functions of the package.

A rename or deletion of one of them would make the traced benchmark silently
lose a layer; this test makes it fail tier-1 instead.  perfbench/tracing.py
is only imported, never changed.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# rows of tracing.BOUNDARIES whose functions left the package earlier;
# switching.expm went when the scipy expm reference moved to oracle_verify
KNOWN_STALE = {"dynamics.step_transition_probs", "dpp_solver.step_transition_probs", "switching.expm"}


def test_tracer_finds_every_live_boundary():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(tracer.missing) <= KNOWN_STALE
    finally:
        tracer.uninstall()
