"""SHA-256 pins of the simulation engine's output bytes.

Each case runs one CLI command on a fixed model and seed and compares the
SHA-256 of the file it writes.  The estimate runs the benchmark's
``mc_estimate`` model on 4 096 + 16 paths, so it crosses a stream block; the
CSVs run a 3-regime and a 9-regime model whose rates read the state and nu,
and a 3-regime model with an absorbing regime at dt * M = 0.1, the cap, where
the step's transition rows are furthest from their first-order terms.  At 9
regimes the exit rates sum over more than 8 terms, where the order of the sum
is not the plain left-to-right one.  Three more estimates cover the costing
branches the benchmark model misses: a path-dependent control whose ``mean``
reads a window of the recorded states, the antithetic mirrored pass, and a
one-regime model, which draws no regimes.  perfbench/ is only imported, never
changed.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from hybridopt import cli, dynamics
from hybridopt import config as cfg

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _digest(tmp_path, command, model, control, *extra):
    out = tmp_path / "out"
    argv = [command, "--model", _write(tmp_path / "model.json", model),
            "--control", _write(tmp_path / "control.json", control),
            "--out", str(out), "--workers", "1", *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _dirac(point):
    return {"atoms": [[point]], "weights": [1.0]}


def switching_model(n: int, scale: float, rate_bound: float, absorbing=()) -> dict:
    """1-D model with n regimes: every rate q_ij reads x1 and nu, and its
    coefficient differs from pair to pair; drift and diffusion read i and mu.
    Every path starts in regime 1; about a third of the rows lie in other
    regimes.  The (1-based) regimes in ``absorbing`` have no exit rate."""
    rates = [
        [None if i == j else "0" if i + 1 in absorbing else
         f"{scale * (0.3 + 0.07 * ((3 * i + 5 * j) % 11))!r}*(1 + x1*x1)*(0.5 + 0.5*nu_m(1,0))"
         for j in range(n)]
        for i in range(n)
    ]
    return {
        "state_dim": 1,
        "regime_count": n,
        "horizon": 1.0,
        "action_set": {"lower": [0.0], "upper": [1.0]},
        "truncation": {"lower": [-1.5], "upper": [1.5]},
        "clamp": True,
        "drift": [[f"-x1 + {0.1 * (i + 1)!r}*mu_m(1,0) - 0.05*i"] for i in range(n)],
        "diffusion": [[[f"0.2 + {0.05 * (i + 1)!r}*mu_m(2,0)"]] for i in range(n)],
        "rates": rates,
        "rate_bound": rate_bound,
        "running_cost": "x1*x1 + i",
        "terminal_cost": "0",
        "constants": {"lipschitz_drift_diffusion": 5.0, "lipschitz_rates": 1.0, "growth": 5.0},
        "cost_lower_bounds": {"f": 0.0, "g": 0.0},
        "starts": [{"x": [0.25], "i": 1}],
    }


def switching_control(n: int) -> dict:
    return {
        "kind": "markov",
        "mu": {"candidates": [_dirac(0.0), _dirac(0.5), _dirac(1.0)], "index_expr": "min(max(x1 + 1, 0), 2)"},
        "nu": {"candidates": [_dirac(0.2), {"atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}],
               "per_regime": [r % 2 for r in range(n)]},
    }


def test_mc_estimate_json_pinned(tmp_path):
    wl = _workloads()
    digest = _digest(tmp_path, "estimate", wl.MC_MODEL, wl.MC_CONTROL,
                     "--paths", "4112", "--dt", "0.01", "--seed", "42")
    assert digest == (
        "1650cbc68a6c2093359867301babe73856499a99d496db9e3792f810882dd5e3"
    )


# the window of 10 steps is shorter than the 100-step horizon, so the mean
# runs over a moving slice of the recorded states
MEAN_CONTROL = {
    "kind": "path_dependent",
    "window": 10,
    "statistic": "mean",
    "coordinate": 0,
    "buckets": [-0.1, 0.1],
    "mu": {"candidates": [_dirac(0.0), _dirac(0.5), _dirac(1.0)], "map": [0, 1, 2]},
    "nu": {"candidates": [_dirac(0.2), _dirac(0.8)], "map": [1, 0, 1]},
}


def test_path_dependent_mean_estimate_json_pinned(tmp_path):
    wl = _workloads()
    digest = _digest(tmp_path, "estimate", wl.MC_MODEL, MEAN_CONTROL,
                     "--paths", "4112", "--dt", "0.01", "--seed", "43")
    assert digest == (
        "24b3e24f2f5f5d5533d6ee295965b569c4c8c1eb991ef6fcf4abee3ab925e602"
    )


def test_antithetic_estimate_json_pinned(tmp_path):
    # 4 104 mirrored pairs: both passes cross a stream block
    wl = _workloads()
    digest = _digest(tmp_path, "estimate", wl.MC_MODEL, wl.MC_CONTROL,
                     "--paths", "8208", "--dt", "0.01", "--seed", "44", "--antithetic")
    assert digest == (
        "78fe910c62c533e356e71460b28def866961585cf406345cf8a52cbfb4a4ecd5"
    )


def test_one_regime_estimate_json_pinned(tmp_path):
    digest = _digest(tmp_path, "estimate", switching_model(1, 1.0, 1.0), switching_control(1),
                     "--paths", "4112", "--dt", "0.01", "--seed", "45")
    assert digest == (
        "79870f49ec45c40cd46e8c5ede3d52c3644f2ede1cf147e5cf4b5032de5ad20e"
    )


def test_three_regime_csv_pinned(tmp_path):
    digest = _digest(tmp_path, "simulate", switching_model(3, 1.0, 7.0), switching_control(3),
                     "--paths", "96", "--dt", "0.01", "--seed", "41")
    assert digest == (
        "c88928b1d3f3cdcf49178714a485eba18beba103b0068728f22253bc13ecaa5d"
    )


def test_nine_regime_csv_pinned(tmp_path):
    digest = _digest(tmp_path, "simulate", switching_model(9, 0.25, 7.0), switching_control(9),
                     "--paths", "96", "--dt", "0.01", "--seed", "42")
    assert digest == (
        "f3e353fef61432a302a2d683685ba022d57832d74e4ebe994aaae137aa644fa3"
    )


def test_capped_step_with_an_absorbing_regime_csv_pinned(tmp_path):
    # dt * M = 0.01 * 10 = 0.1; regime 3 never leaves
    digest = _digest(tmp_path, "simulate", switching_model(3, 1.5, 10.0, absorbing=(3,)), switching_control(3),
                     "--paths", "96", "--dt", "0.01", "--seed", "43")
    assert digest == (
        "be492ea8ee7cde020832fc60a9d0ff70f8f570a737097bdf7d41a15067a7b5e3"
    )


def _rows_computed(monkeypatch, model, control, dt, seed, paths):
    """Path-steps whose full transition row the engine computes."""
    rows, counted = dynamics.transition_rows_batch, []

    def counting(rates, regimes, x, nu, dt):
        counted.append(len(regimes))
        return rows(rates, regimes, x, nu, dt)

    monkeypatch.setattr(dynamics, "transition_rows_batch", counting)
    model, _ = cfg.load_model(model)
    control, _ = cfg.load_control(control, model)
    list(dynamics.simulate_chunks(model, control, 0.0, model.default_start()[0], 1, model.horizon, dt, seed, paths))
    return sum(counted)


def test_mc_estimate_computes_few_rows(monkeypatch):
    # dt * M = 0.004: the first-order draw decides all but about 1.6e-5 of the draws
    wl = _workloads()
    assert _rows_computed(monkeypatch, wl.MC_MODEL, wl.MC_CONTROL, 0.01, 42, 4096) <= 0.001 * 4096 * 100


@pytest.mark.parametrize("n,scale,seed", [(3, 1.0, 41), (9, 0.25, 42)])
def test_switching_pins_reach_the_full_rows(monkeypatch, n, scale, seed):
    # dt * M = 0.07: the pins above cover both the decided and the straddling draws
    assert _rows_computed(monkeypatch, switching_model(n, scale, 7.0), switching_control(n), 0.01, seed, 96) > 0
