import tracemalloc

import numpy as np
import pytest

from hybridopt import (
    ActionSet,
    CandidateMap,
    ConstantControl,
    GridSpec,
    HybridModel,
    MarkovControl,
    MeasureBatch,
    NumericalError,
    PathDependentControl,
    RateSpec,
    TableControl,
    SimulationError,
    ValidationError,
    ValueGrid,
    dirac,
    monte_carlo_cost,
    rng,
    simulate_chunks,
)
from tests.conftest import const_control, make_model


def reference_costs(model, batch, dt):
    """The pathwise costs of a recorded batch of step dt, summed one step slab
    at a time: the left-point sum of f * dt from zero, then g(X_n)."""
    totals = np.zeros(batch.states.shape[0])
    mu_moments, nu_moments = {}, {}
    for k in range(batch.states.shape[1] - 1):
        mu_b = MeasureBatch(batch.mu_pool, batch.mu_idx[:, k], mu_moments)
        nu_b = MeasureBatch(batch.nu_pool, batch.nu_idx[:, k], nu_moments)
        totals += model.running_cost_at(float(batch.times[k]), batch.states[:, k, :], batch.regimes[:, k], mu_b, nu_b) * dt
    return totals + model.terminal_cost_at(batch.states[:, -1, :])


def single_cost(model, x0):
    """The cost of a batch of one path on the 0.25 grid over [0, 1]."""
    [batch] = simulate_chunks(model, const_control(model), 0.0, x0, 1, 1.0, 0.25, 0, 1)
    costs = reference_costs(model, batch, 0.25)
    assert costs.shape == (1,)
    return costs[0]


class TestPathwiseCost:
    def test_constant_running(self):
        model = make_model(regimes=1, drift="0", diffusion="0", running="1", terminal="0")
        assert single_cost(model, [0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_terminal_square(self):
        model = make_model(regimes=1, drift="0", diffusion="0", running="0", terminal="x1*x1")
        assert single_cost(model, [2.0]) == 4.0

    def test_left_point_quadrature_of_t(self):
        # frozen hand quadrature: 0.25 * (0 + 0.25 + 0.5 + 0.75) = 0.375
        model = make_model(regimes=1, drift="0", diffusion="0", running="t", terminal="0")
        assert single_cost(model, [0.0]) == pytest.approx(0.375, abs=1e-15)

    def test_batch_matches_single(self, chain_model):
        control = const_control(chain_model)
        [batch] = simulate_chunks(chain_model, control, 0.0, [0.0], 1, 1.0, 0.01, 3, 16)
        vec = reference_costs(chain_model, batch, 0.01)
        # running cost i, terminal 0: the left-point sum of the regime path
        closed = 0.01 * batch.regimes[:, :-1].sum(axis=1)
        np.testing.assert_allclose(vec, closed, rtol=0, atol=1e-12)
        # path j costs the same as the last path of the batch 0..j
        for j in (0, 7, 15):
            [prefix] = simulate_chunks(chain_model, control, 0.0, [0.0], 1, 1.0, 0.01, 3, j + 1)
            assert reference_costs(chain_model, prefix, 0.01)[j] == vec[j]


class TestMonteCarloCost:
    def test_deterministic_path_zero_stderr(self):
        model = make_model(regimes=1, drift="0", diffusion="0", running="0", terminal="x1")
        est = monte_carlo_cost(model, const_control(model), 0.0, [1.0], 1, 1.0, 0.1, 50, 0)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_brownian_terminal_square(self, brownian_model):
        model = make_model(regimes=1, drift="0", diffusion="1", running="0", terminal="x1*x1", box=8.0)
        est = monte_carlo_cost(model, const_control(model), 0.0, [0.0], 1, 1.0, 0.01, 10_000, 5)
        assert abs(est.mean - 1.0) <= 3 * est.stderr + 0.02

    def test_regime_occupation_integral(self, chain_model):
        # frozen: 1 + e^{-1} = 1.3678794411714423
        dt = 0.01
        est = monte_carlo_cost(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, dt, 10_000, 6)
        assert abs(est.mean - 1.3678794411714423) <= 3 * est.stderr + 2 * dt

    def test_constant_shift_moves_mean_exactly(self):
        base = make_model(regimes=1, drift="0", diffusion="1", running="x1*x1", terminal="0", box=8.0)
        shifted = make_model(
            regimes=1, drift="0", diffusion="1", running="x1*x1 + 3", terminal="0", box=8.0
        )
        a = monte_carlo_cost(base, const_control(base), 0.0, [0.0], 1, 1.0, 0.05, 200, 8)
        b = monte_carlo_cost(shifted, const_control(shifted), 0.0, [0.0], 1, 1.0, 0.05, 200, 8)
        assert b.mean - a.mean == pytest.approx(3.0, abs=1e-9)
        assert b.stderr == pytest.approx(a.stderr, abs=1e-12)

    def test_constant_equals_equivalent_markov(self, unit_interval, chain_model):
        d3, d7 = dirac(unit_interval, [0.3]), dirac(unit_interval, [0.7])
        constant = ConstantControl(d3, d7)
        markov = MarkovControl(
            CandidateMap([d3], per_regime=[0, 0]), CandidateMap([d7], per_regime=[0, 0])
        )
        a = monte_carlo_cost(chain_model, constant, 0.0, [0.0], 1, 1.0, 0.01, 300, 4)
        b = monte_carlo_cost(chain_model, markov, 0.0, [0.0], 1, 1.0, 0.01, 300, 4)
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_stderr_scaling(self, brownian_model):
        model = make_model(regimes=1, drift="0", diffusion="1", running="0", terminal="x1*x1", box=8.0)
        small = monte_carlo_cost(model, const_control(model), 0.0, [0.0], 1, 1.0, 0.02, 2000, 9)
        large = monte_carlo_cost(model, const_control(model), 0.0, [0.0], 1, 1.0, 0.02, 8000, 9)
        ratio = small.stderr / large.stderr
        assert abs(ratio - 2.0) <= 0.4  # within 20% of the 1/sqrt(n) prediction

    def test_workers_identical(self, chain_model):
        a = monte_carlo_cost(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 64, 2, workers=1)
        b = monte_carlo_cost(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 64, 2, workers=8)
        assert a.mean == b.mean and a.stderr == b.stderr

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_workers_identical_across_chunks(self, antithetic):
        # BLOCK_PATHS + 8 simulated paths (plain or mirrored pairs) are two
        # chunks, so the second worker gets one
        model = make_model(rate12="1", rate21="0.5", drift="-x1", diffusion="1", running="x1*x1 + i", box=8.0)
        n = 2 * (rng.BLOCK_PATHS + 8) if antithetic else rng.BLOCK_PATHS + 8
        a = monte_carlo_cost(model, const_control(model), 0.0, [0.0], 1, 0.25, 0.05, n, 2, 1, antithetic)
        b = monte_carlo_cost(model, const_control(model), 0.0, [0.0], 1, 0.25, 0.05, n, 2, 2, antithetic)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_memory_does_not_grow_with_paths(self, chain_model):
        # chunked estimation keeps one chunk's draws plus the cost vector
        def peak(paths):
            tracemalloc.start()
            try:
                monte_carlo_cost(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.1, paths, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * rng.BLOCK_PATHS) < 2 * peak(2 * rng.BLOCK_PATHS)

    def test_antithetic_passes_share_a_job(self, monkeypatch):
        # a chunk's plain and mirrored passes are one job, so one chunk
        # starts no process pool and two chunks are two jobs
        from hybridopt import dynamics

        fan_out, jobs = dynamics.fan_out, []

        def counting(job, args, workers):
            jobs.append(len(args))
            return fan_out(job, args, workers)

        monkeypatch.setattr(dynamics, "fan_out", counting)
        model = make_model(regimes=1, drift="0", diffusion="1", running="0", terminal="x1*x1", box=8.0)
        for n in (2 * rng.BLOCK_PATHS, 2 * (rng.BLOCK_PATHS + 8)):
            monte_carlo_cost(model, const_control(model), 0.0, [0.0], 1, 0.1, 0.05, n, 0, 2, True)
        assert jobs == [1, 2]

    def test_antithetic_option(self, brownian_model):
        model = make_model(regimes=1, drift="0", diffusion="1", running="0", terminal="x1*x1", box=8.0)
        est = monte_carlo_cost(
            model, const_control(model), 0.0, [0.0], 1, 1.0, 0.02, 2000, 12, antithetic=True
        )
        assert abs(est.mean - 1.0) <= 3 * est.stderr + 0.04
        with pytest.raises(ValidationError):
            monte_carlo_cost(
                model, const_control(model), 0.0, [0.0], 1, 1.0, 0.02, 7, 12, antithetic=True
            )

    def test_json_shape(self, chain_model):
        est = monte_carlo_cost(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 16, 3)
        doc = est.to_dict()
        assert set(doc) == {"mean", "stderr", "paths", "seed"}

    def test_path_count_minimum(self, chain_model):
        with pytest.raises(ValidationError):
            monte_carlo_cost(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 1, 0)


def regime_model(n: int, clamp: bool) -> HybridModel:
    """1-D model with n regimes whose rates read x and nu, and whose
    coefficients and running cost read t, i, mu and nu.  With ``clamp`` the
    box is narrow enough that paths hit it; without, wide enough that none
    leaves it."""
    u = ActionSet([0.0], [1.0])
    q = "0.3*(1 + x1*x1/4)*(0.5 + 0.5*nu_m(1,0))"
    rates = RateSpec(n, [[None if i == j else q for j in range(n)] for i in range(n)], 2.0 if n > 1 else 0.0)
    box = 0.5 if clamp else 3.0
    return HybridModel(
        state_dim=1, action_set=u, rates=rates,
        drift=[[f"-x1 + {0.2 * i!r}*mu_m(1,0)"] for i in range(n)],
        diffusion=[[["0.3 + 0.1*mu_m(2,0)"]]] * n,
        running_cost="x1*x1 + i + t*mu_m(1,0) + 0.5*nu_m(1,0)", terminal_cost="x1*x1",
        horizon=1.0, truncation_lower=[-box], truncation_upper=[box], clamp=clamp,
    )


def control_of(kind: str, n: int, box: float):
    u = ActionSet([0.0], [1.0])
    mus = [dirac(u, [0.0]), dirac(u, [0.5]), dirac(u, [1.0])]
    nus = [dirac(u, [0.2]), dirac(u, [0.8])]
    if kind == "constant":
        return ConstantControl(mus[1], nus[0])
    if kind == "markov":
        return MarkovControl(CandidateMap(mus, index_expr="min(max(2*x1 + 1, 0), 2)"),
                             CandidateMap(nus, per_regime=[r % 2 for r in range(n)]))
    if kind == "table":
        gen = np.random.default_rng(5)
        policy_mu = gen.integers(0, 3, size=(2, 5, n)).astype(np.intp)
        policy_nu = gen.integers(0, 2, size=(2, 5, n)).astype(np.intp)
        return TableControl(ValueGrid(GridSpec(2, [5]), [np.linspace(-box, box, 5)], [0.0, 0.5, 1.0],
                                      np.zeros((3, 5, n)), policy_mu, policy_nu, mus, nus))
    return PathDependentControl(3, "mean", 0, [-0.1, 0.1], mus, [0, 1, 2], nus, [1, 0, 1])


class TestStreamedCosts:
    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["constant", "markov", "table", "path_dependent"])
    def test_equal_to_costs_of_recorded_paths(self, kind, n, clamp):
        # BLOCK_PATHS + 8 paths are two chunks
        model = regime_model(n, clamp)
        control = control_of(kind, n, model.truncation_upper[0])
        sim = (model, control, 0.0, [0.1], 1, 1.0, 0.04, 11, rng.BLOCK_PATHS + 8)
        pairs = list(zip(simulate_chunks(*sim), simulate_chunks(*sim, costing=True), strict=True))
        assert len(pairs) == 2
        for recorded, costed in pairs:
            assert np.array_equal(costed.running + model.terminal_cost_at(recorded.states[:, -1, :]),
                                  reference_costs(model, recorded, 0.04))
            assert np.array_equal(costed.x, recorded.states[:, -1, :])
            assert np.array_equal(costed.regimes, recorded.regimes[:, -1])
            assert costed.clamp_count == recorded.clamp_count
        assert (sum(recorded.clamp_count for recorded, _ in pairs) > 0) == clamp
        if n > 1:
            assert any(np.any(recorded.regimes > 1) for recorded, _ in pairs)

    def test_chunk_memory_per_path_step(self):
        # the draws alone take 16 B a path-step at d = 1; a recorded path
        # (states, regimes and both pool indices) would take 32 B more
        model = regime_model(2, True)
        control = control_of("markov", 2, 0.5)

        def peak(steps):
            chunks = simulate_chunks(model, control, 0.0, [0.1], 1, 1.0, 1.0 / steps, 3, rng.BLOCK_PATHS, costing=True)
            tracemalloc.start()
            try:
                [_] = chunks
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(400) - peak(100)) / (rng.BLOCK_PATHS * 300) <= 20

    def test_running_cost_error_comes_at_its_own_step(self):
        # the running cost fails from t = 0.4 (step 4) on; the unclamped state
        # x = 2t leaves the box at step 5.  The error of the earlier step wins.
        model = make_model(regimes=1, drift="2", diffusion="0", running="sqrt(0.3 - t)", box=1.0, clamp=False)
        with pytest.raises(NumericalError, match="sqrt of a negative value"):
            monte_carlo_cost(model, const_control(model), 0.0, [0.0], 1, 1.0, 0.1, 4, 0)
        with pytest.raises(SimulationError, match="at step 5"):
            list(simulate_chunks(model, const_control(model), 0.0, [0.0], 1, 1.0, 0.1, 0, 4))
