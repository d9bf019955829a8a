"""SHA-256 pins of ``validate --out`` bytes.

Each case runs ``hybridopt validate`` on a fixed model and sampler seed and
compares the SHA-256 of the report it writes.  The models cover the W1
paths ``validate`` reaches: the benchmark's ``validate_2d`` model (2-D action
box: the equal-pair and one-atom closed forms, and the basic-solution closed
form of multi-atom pairs) at two of its generator seeds, the bundled demo
model (1-D action set, sorted-CDF formula), and a model on a 3-D action box
whose multi-atom pairs take the basic-solution closed form.  The reports
were first pinned when those pairs took the transport LP, and hold for the
closed form; the digests changed once since, when the report's hash came to
cover the sample count and seed, with every other byte unchanged.  600
samples cross one chunk boundary.
perfbench/ is only imported, never changed.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path

import pytest

from hybridopt import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _digest(tmp_path, model, seed, samples=600):
    model_path, out = tmp_path / "model.json", tmp_path / "report.json"
    model_path.write_text(json.dumps(model))
    argv = ["validate", "--model", str(model_path), "--samples", str(samples),
            "--seed", str(seed), "--workers", "1", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def validate_2d_model(generator_seed: int) -> dict:
    """The model perfbench's ``validate_2d`` job writes for ``generator_seed``."""
    gen = random.Random(generator_seed)
    a = round(gen.uniform(0.5, 1.5), 6)
    b = round(gen.uniform(0.2, 0.6), 6)
    return _workloads().model_2d(2, a, b, [{"x": [0.0, 0.0], "i": 1}])


def three_d_action_model() -> dict:
    """1-D state, 2 regimes, actions in [0, 1]^3; every coefficient reads a
    different action coordinate, so W1 of two multi-atom measures is a
    transport problem in 3-D."""
    return {
        "state_dim": 1,
        "regime_count": 2,
        "horizon": 1.0,
        "action_set": {"lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]},
        "truncation": {"lower": [-1.0], "upper": [1.0]},
        "clamp": True,
        "drift": [["-x1 + 0.3*mu_m(1,0) - 0.2*mu_m(1,2)"], ["-0.5*x1 + 0.4*mu_m(1,1)"]],
        "diffusion": [[["0.3 + 0.1*mu_m(2,1)"]], [["0.2 + 0.1*mu_m(1,2)"]]],
        "rates": [[None, "0.1*(1 + x1*x1)*(1 + nu_m(1,1))"], ["0.2*(0.5 + 0.5*nu_m(1,2))", None]],
        "rate_bound": 0.5,
        "running_cost": "x1*x1 + i + 0.1*mu_m(1,0) + 0.1*nu_m(1,2)",
        "terminal_cost": "x1*x1",
        "constants": {"lipschitz_drift_diffusion": 5.0, "lipschitz_rates": 1.0, "growth": 5.0},
        "cost_lower_bounds": {"f": 0.0, "g": 0.0},
        "starts": [{"x": [0.0], "i": 1}],
    }


@pytest.mark.parametrize(
    ("generator_seed", "digest"),
    [
        (42, "8959ebf4924176974a30113cf08088064c252073f5e5cee649aed2933c02f800"),
        (77, "458fa74e95fbc25a33f2b414df4065f2bf107d63341016f1ceea392d298b568a"),
    ],
    ids=["42", "77"],
)
def test_validate_2d_report_pinned(tmp_path, generator_seed, digest):
    assert _digest(tmp_path, validate_2d_model(generator_seed), 3) == digest


def test_demo_report_pinned(tmp_path):
    assert _digest(tmp_path, cli.DEMO_MODEL, 5) == (
        "dcec5d46e350af357b0a542e08759c56e36e770ae4fdc220981039b5634bf9f3"
    )


def test_three_d_action_report_pinned(tmp_path):
    assert _digest(tmp_path, three_d_action_model(), 11) == (
        "1a77366f37065718d2b75a44dff193c0794e2a4a4b8d83396acc7f7a4c6b7353"
    )
