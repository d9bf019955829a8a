"""The batched ``validate_model`` against the per-sample loop it replaced.

``reference_validate`` is that loop, kept as the reference the way
``reference_csv`` keeps the per-row CSV writer: one sample at a time, one
coefficient call per regime and point, one W1 call per pair.  The batched
pass must report the same seven observed values, bit for bit.
"""
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from hybridopt import cli, rng, validate_model
from hybridopt.config import load_model
from hybridopt.control import MeasureBatch
from hybridopt.dynamics import VALIDATE_CHUNK, growth_ratio
from hybridopt.measure_space import random_measure, w1_distance
from tests.conftest import make_model


def reference_validate(model, sample_count, seed=0):
    """Worst observed values of the seven sampled checks, in report order."""
    gen = rng.stream(seed, 0, rng.ROLE_VALIDATE)
    d = model.state_dim
    lo, hi = model.truncation_lower, model.truncation_upper
    span = hi - lo
    scale = float(np.max(span))

    def draw_x():
        return lo + gen.random(d) * span

    worst_c1 = worst_growth = worst_c2 = worst_exit = 0.0
    worst_rate_min = f_min = g_min = np.inf
    off = ~np.eye(model.regime_count, dtype=bool)
    for trial in range(sample_count):
        variant = trial % 3
        x = draw_x()
        mu_a = random_measure(gen, model.action_set)
        if variant == 0:
            y = draw_x() if trial % 6 == 0 else model.clip_state(x + gen.standard_normal(d) * 1e-3 * scale)
            mu_b = mu_a
        elif variant == 1:
            y = x
            mu_b = random_measure(gen, model.action_set)
        else:
            y = draw_x()
            mu_b = random_measure(gen, model.action_set)
        w1 = w1_distance(mu_a, mu_b)
        dist2 = float(np.sum((x - y) ** 2)) + w1**2
        dist1 = float(np.linalg.norm(x - y)) + w1

        ba = MeasureBatch.constant(mu_a, 1)
        bb = MeasureBatch.constant(mu_b, 1)
        if dist2 > 1e-14:
            growth_points = []
            for regime in range(1, model.regime_count + 1):
                reg = np.array([regime])
                bx, by = model.drift_at(x[None, :], reg, ba)[0], model.drift_at(y[None, :], reg, bb)[0]
                sx, sy = model.diffusion_at(x[None, :], reg, ba)[0], model.diffusion_at(y[None, :], reg, bb)[0]
                num = float(np.sum((bx - by) ** 2) + np.sum((sx - sy) ** 2))
                worst_c1 = max(worst_c1, num / dist2)
                growth_points += [(x, bx, sx), (y, by, sy)]
            worst_growth = max(worst_growth, float(np.max(growth_ratio(*map(np.array, zip(*growth_points))))))

        qx = model.rates.off_diagonal(x, mu_a)
        qy = model.rates.off_diagonal(y, mu_b)
        worst_rate_min = min(worst_rate_min, float(np.min(qx[off])), float(np.min(qy[off])))
        worst_exit = max(worst_exit, float(np.max(qx.sum(axis=-1))), float(np.max(qy.sum(axis=-1))))
        if dist1 > 1e-14:
            worst_c2 = max(worst_c2, float(np.max(np.abs(qx - qy))) / dist1)

        t = gen.random() * model.horizon
        lam = np.array([int(gen.integers(1, model.regime_count + 1))])
        f_min = min(f_min, float(model.running_cost_at(t, x[None, :], lam, ba, bb)[0]))
        g_min = min(g_min, float(model.terminal_cost_at(x[None, :])[0]))
    return [worst_c1, worst_growth, worst_rate_min, worst_exit, worst_c2, f_min, g_min]


def _config(state_dim, action_dim, drift, diffusion, rates, running, terminal, rate_bound=2.0):
    return {
        "state_dim": state_dim,
        "regime_count": len(drift),
        "horizon": 1.0,
        "action_set": {"lower": [0.0] * action_dim, "upper": [1.0] * action_dim},
        "truncation": {"lower": [-1.5] * state_dim, "upper": [1.0] * state_dim},
        "drift": drift,
        "diffusion": diffusion,
        "rates": rates,
        "rate_bound": rate_bound,
        "running_cost": running,
        "terminal_cost": terminal,
        "constants": {"lipschitz_drift_diffusion": 5.0, "lipschitz_rates": 1.0, "growth": 5.0},
    }


# three regimes, a 2-D action set (transport LPs), exp / sqrt / min / max
THREE_REGIMES = _config(
    2, 2,
    drift=[
        ["-x1 + 0.3*exp(-x2*x2)*mu_m(1,0)", "-x2 + 0.2*sqrt(1 + x1*x1)*mu_m(1,1)"],
        ["min(x1, 0.5) - mu_m(2,1)", "0.5*max(x2, -0.5)"],
        ["exp(mu_m(1,0)) - 1 - 0.5*x1", "sqrt(mu_m(2,0) + 0.1) - x2"],
    ],
    diffusion=[
        [["0.2 + 0.1*exp(-x1*x1)", "0"], ["0.05*mu_m(1,1)", "0.3"]],
        [["max(0.1, 0.2*mu_m(1,0))", "0.01*x2"], ["0", "min(0.4, 0.2 + x1*x1)"]],
        [["sqrt(0.04 + 0.01*x2*x2)", "0"], ["0", "0.25"]],
    ],
    rates=[
        [None, "0.1*(1 + min(x1*x1, 1))*(0.5 + 0.5*nu_m(1,0))", "0.05*exp(-x2*x2)"],
        ["0.1*sqrt(1 + nu_m(2,1))", None, "0.1*max(x1, 0)"],
        ["0.05", "0.2*min(nu_m(1,1), 0.5)", None],
    ],
    running="x1*x1 + exp(-x2*x2) + i + mu_m(1,0) + min(nu_m(1,1), 0.5)",
    terminal="sqrt(1 + x1*x1 + x2*x2)",
)

# a 1-D action set: every multi-atom W1 takes the sorted-CDF formula
ONE_D_ACTIONS = _config(
    1, 1,
    drift=[["-x1 + mu_m(1,0)"], ["-0.5*x1 - mu_m(2,0)"]],
    diffusion=[[["0.3 + 0.2*mu_m(1,0)"]], [["0.5"]]],
    rates=[[None, "0.2*(1 + x1*x1)*nu_m(1,0)"], ["0.1 + 0.1*nu_m(2,0)", None]],
    running="x1*x1 + i + 0.1*mu_m(1,0)",
    terminal="x1*x1",
)

# state dimension three
THREE_D = _config(
    3, 2,
    drift=[
        ["-x1 + 0.2*mu_m(1,0)", "-x2 + 0.1*x3", "-0.5*x3 + 0.2*mu_m(1,1)"],
        ["-0.5*x1", "-x2 - 0.2*mu_m(1,1)", "0.1*x1 - x3"],
    ],
    diffusion=[
        [["0.3", "0", "0"], ["0", "0.2 + 0.1*mu_m(1,0)", "0"], ["0.05*x1", "0", "0.3"]],
        [["0.4", "0.1*mu_m(2,1)", "0"], ["0", "0.3", "0"], ["0", "0", "0.2"]],
    ],
    rates=[[None, "0.2*(1 + x3*x3)*nu_m(1,0)"], ["0.1*(1 + x1*x1)", None]],
    running="x1*x1 + x2*x2 + x3*x3 + i",
    terminal="x1*x1 + x3*x3",
)


@pytest.mark.parametrize(
    "payload, samples",
    [
        (THREE_REGIMES, 300),
        (THREE_REGIMES, VALIDATE_CHUNK + 1),
        (ONE_D_ACTIONS, 300),
        (THREE_D, 300),
    ],
    ids=["three_regimes", "chunk_plus_one", "one_d_actions", "three_d"],
)
def test_batched_pass_matches_the_per_sample_loop(payload, samples):
    model, _ = load_model(payload)
    report = validate_model(model, samples)
    observed = [c.observed for c in report.checks[:7]]
    assert observed == reference_validate(model, samples)


def test_rate_nonnegative_reads_off_diagonal_rates_only():
    # every rate is at least 0.1, so the smallest observed rate is too; the
    # zero diagonal of the rate matrix is not a rate
    payload = dict(ONE_D_ACTIONS, rates=[[None, "0.1 + 0.2*nu_m(1,0)"], ["0.1*(1 + x1*x1)", None]])
    model, _ = load_model(payload)
    check = {c.name: c for c in validate_model(model, 300).checks}["rate_nonnegative"]
    assert check.passed and check.observed >= 0.1
    assert check.observed == reference_validate(model, 300)[2]
    one_regime = make_model(regimes=1)
    assert {c.name: c for c in validate_model(one_regime, 100).checks}["rate_nonnegative"].observed == 0.0


def _run_validate(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["validate", *argv])
    return code, out.getvalue()


def test_seed_reaches_the_sampler(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(THREE_REGIMES))
    reports = [json.loads(_run_validate(["--model", str(path), "--samples", "200", "--seed", s])[1]) for s in "01"]
    observed = [[c["observed"] for c in r["checks"]] for r in reports]
    assert observed[0] != observed[1]
    # the hash names the model, not the sampling run
    assert reports[0]["config_hash"] == reports[1]["config_hash"]


def test_demo_report_bytes_pinned(tmp_path):
    # SHA-256 of the demo validate JSON as the per-sample loop wrote it
    model, control = tmp_path / "model.json", tmp_path / "control.json"
    cli.write_demo_config(model, control)
    for extra in ([], ["--seed", "0"]):
        out = tmp_path / "report.json"
        code, _ = _run_validate(["--model", str(model), "--out", str(out), *extra])
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "b2c4e4081ae359f0b4316f6a035763a486eed230fc62445b54dd2cc2f79168c4"


def test_undeclared_constant_is_reported():
    declared, _ = load_model(ONE_D_ACTIONS)
    omitted = json.loads(json.dumps(ONE_D_ACTIONS))
    del omitted["constants"]["growth"]
    undeclared, _ = load_model(omitted)
    explicit = json.loads(json.dumps(omitted))
    explicit["constants"]["growth"] = 1.0
    one, _ = load_model(explicit)
    assert undeclared.undeclared == ("growth",) and declared.undeclared == one.undeclared == ()

    by_name = {c.name: c for c in validate_model(undeclared, 200).checks}
    reference = {c.name: c for c in validate_model(one, 200).checks}
    growth = by_name["growth_bound"]
    assert growth.detail.endswith("; constants.growth undeclared, judged against the default 1.0")
    # judged exactly as a declared 1.0; every other detail is unchanged
    assert (growth.passed, growth.observed, growth.bound) == (
        reference["growth_bound"].passed, reference["growth_bound"].observed, 1.0
    )
    for name, check in reference.items():
        if name != "growth_bound":
            assert by_name[name].detail == check.detail
