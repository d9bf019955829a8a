import pytest

from hybridopt import ActionSet, ConstantControl, HybridModel, RateSpec, cli, dirac


@pytest.fixture
def demo_files(tmp_path):
    """The bundled demo model and its constant control, written as JSON."""
    model = tmp_path / "model.json"
    control = tmp_path / "control.json"
    cli.write_demo_config(model, control)
    return model, control


@pytest.fixture
def unit_interval():
    return ActionSet([0.0], [1.0])


@pytest.fixture
def unit_square():
    return ActionSet([0.0, 0.0], [1.0, 1.0])


def make_model(
    rate12="1",
    rate21="0",
    rate_bound=1.0,
    drift="0",
    diffusion="1",
    running="i",
    terminal="0",
    horizon=1.0,
    box=2.0,
    regimes=2,
    **kwargs,
):
    """One-dimensional test model; per-regime coefficients repeat the given
    expressions unless lists are passed."""
    u = ActionSet([0.0], [1.0])
    if regimes == 1:
        rates = RateSpec(1, [[None]], 0.0)
    else:
        rates = RateSpec(2, [[None, rate12], [rate21, None]], rate_bound)
    drifts = drift if isinstance(drift, list) else [[drift]] * regimes
    diffs = diffusion if isinstance(diffusion, list) else [[[diffusion]]] * regimes
    return HybridModel(
        state_dim=1,
        action_set=u,
        rates=rates,
        drift=drifts,
        diffusion=diffs,
        running_cost=running,
        terminal_cost=terminal,
        horizon=horizon,
        truncation_lower=[-box],
        truncation_upper=[box],
        **kwargs,
    )


def const_control(model, mu_point=0.5, nu_point=0.5):
    u = model.action_set
    return ConstantControl(dirac(u, [mu_point]), dirac(u, [nu_point]))


@pytest.fixture
def brownian_model():
    return make_model(regimes=1, drift="0", diffusion="1", running="0", terminal="0", box=8.0)


@pytest.fixture
def chain_model():
    return make_model(rate12="1", rate21="0", drift="0", diffusion="0", running="i", terminal="0")
