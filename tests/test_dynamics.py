import math
from concurrent.futures import Future

import numpy as np
import pytest

from hybridopt import (
    CandidateMap,
    ConstantControl,
    MarkovControl,
    PathDependentControl,
    SimulationError,
    StepSizeError,
    ValidationError,
    dirac,
    gronwall_sup_moment_bound,
    rng,
    simulate_chunks,
    transition_matrix,
    validate_model,
)
from hybridopt import dynamics
from hybridopt.dynamics import growth_ratio
from tests.conftest import const_control, make_model


def one_step(model, x0, dt, point=0.5):
    """One Euler step of a batch of one path (seed 4) under Dirac controls."""
    control = ConstantControl(dirac(model.action_set, [point]), dirac(model.action_set, [point]))
    [batch] = simulate_chunks(model, control, 0.0, x0, 1, dt, dt, 4, 1)
    return batch


class TestBlockStreams:
    def test_rows_are_a_prefix_of_the_block(self):
        dt, steps = 0.04, 6
        whole = rng.stream(11, 2, rng.ROLE_BROWNIAN).standard_normal((9, steps, 2)) * np.sqrt(dt)
        uniforms = rng.stream(11, 2, rng.ROLE_SWITCH).random((9, steps))
        for rows in (9, 3, 1):
            assert np.array_equal(rng.brownian_increments(11, 2, rows, steps, 2, dt), whole[:rows])
            assert np.array_equal(rng.switch_uniforms(11, 2, rows, steps), uniforms[:rows])
            out = np.empty((rows, steps))
            assert rng.switch_uniforms(11, 2, rows, steps, out=out) is out
            assert np.array_equal(out, uniforms[:rows])

    def test_rows_stay_inside_the_block(self):
        with pytest.raises(ValueError):
            rng.switch_uniforms(1, 0, rng.BLOCK_PATHS + 1, 2)

    def test_blocks_and_roles_are_distinct_streams(self):
        draws = [rng.switch_uniforms(1, block, 2, 4) for block in (0, 1)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(rng.stream(1, 0, rng.ROLE_BROWNIAN).random(8), draws[0].ravel())


class TestEmStep:
    # one engine step is x0 + b dt + sigma dW with dW from the path's own stream
    def test_pure_noise(self):
        model = make_model(regimes=1, drift="0", diffusion="1", box=8.0)
        batch = one_step(model, [0.0], 0.1)
        dw = rng.brownian_increments(4, 0, 1, 1, 1, 0.1)[0, 0]
        assert batch.states[0, 1, 0] == 0.0 + 0.0 * 0.1 + 1.0 * dw[0]

    def test_mean_reversion(self):
        model = make_model(regimes=1, drift="-x1", diffusion="0", box=8.0)
        batch = one_step(model, [1.0], 0.1)
        dw = rng.brownian_increments(4, 0, 1, 1, 1, 0.1)[0, 0]
        assert batch.states[0, 1, 0] == 1.0 + (-1.0) * 0.1 + 0.0 * dw[0]
        assert batch.states[0, 1, 0] == pytest.approx(0.9, abs=1e-15)

    def test_drift_reads_control_moment(self):
        # action set is [0,5] so the atom 2 fits
        from hybridopt import ActionSet, HybridModel, RateSpec

        model = HybridModel(
            state_dim=1,
            action_set=ActionSet([0.0], [5.0]),
            rates=RateSpec(1, [[None]], 0.0),
            drift=[["mu_m(1,0)"]],
            diffusion=[[["0"]]],
            running_cost="0",
            terminal_cost="0",
            horizon=1.0,
            truncation_lower=[-8.0],
            truncation_upper=[8.0],
        )
        batch = one_step(model, [0.0], 0.1, point=2.0)
        assert batch.states[0, 1, 0] == pytest.approx(0.2, abs=1e-15)

    def test_clamping(self):
        # the drift pushes every path 2 units per step past the upper face
        model = make_model(regimes=1, drift="20", diffusion="0", box=1.0)
        control = const_control(model)
        [batch] = simulate_chunks(model, control, 0.0, [0.9], 1, 0.2, 0.1, 4, 3)
        assert np.all(batch.states[:, 1:, 0] == 1.0)
        assert batch.clamp_count == 3 * 2
        inside = make_model(regimes=1, drift="1", diffusion="0", box=1.0)
        [batch] = simulate_chunks(inside, control, 0.0, [0.0], 1, 0.2, 0.1, 4, 3)
        assert batch.clamp_count == 0


class TestSimulate:
    def test_frozen_path(self):
        model = make_model(regimes=1, drift="0", diffusion="0", box=2.0)
        [path] = simulate_chunks(model, const_control(model), 0.0, [0.7], 1, 1.0, 0.1, 5, 1)
        assert np.all(path.states == 0.7)
        assert np.all(path.regimes == 1)

    def test_brownian_law(self, brownian_model):
        chunks = simulate_chunks(
            brownian_model, const_control(brownian_model), 0.0, [0.0], 1, 1.0, 0.01, 42, 10_000
        )
        x_t = np.concatenate([batch.states[:, -1, 0] for batch in chunks])
        se = float(np.std(x_t, ddof=1)) / math.sqrt(len(x_t))
        assert abs(float(np.mean(x_t))) <= 3 * se
        assert abs(float(np.var(x_t, ddof=1)) - 1.0) <= 0.05

    def test_two_state_chain_law(self, chain_model):
        chunks = simulate_chunks(
            chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 7, 10_000
        )
        frac = float(np.mean(np.concatenate([batch.regimes[:, -1] for batch in chunks]) == 2))
        p = 1.0 - math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / 10_000)
        assert abs(frac - p) <= 3 * se

    def test_bit_reproducibility(self, chain_model):
        [a] = simulate_chunks(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 9, 1)
        [b] = simulate_chunks(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 9, 1)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.regimes, b.regimes)
        assert np.array_equal(a.mu_idx, b.mu_idx) and np.array_equal(a.nu_idx, b.nu_idx)
        assert a.mu_pool == b.mu_pool and a.nu_pool == b.nu_pool

    def test_increments_come_from_the_path_stream(self, brownian_model):
        # path p reads row p % BLOCK_PATHS of the stream of block p // BLOCK_PATHS
        c = const_control(brownian_model)
        chunks = simulate_chunks(brownian_model, c, 0.0, [0.0], 1, 0.5, 0.05, 3, rng.BLOCK_PATHS + 6)
        for block, batch in enumerate(chunks):
            assert batch.path_indices[5] == block * rng.BLOCK_PATHS + 5
            dw = rng.stream(3, block, rng.ROLE_BROWNIAN).standard_normal((6, 10, 1))[5] * np.sqrt(0.05)
            np.testing.assert_allclose(batch.states[5, 1:, 0], np.cumsum(dw[:, 0]), rtol=0, atol=1e-12)
        assert block == 1

    def test_batch_across_a_block_boundary(self):
        # b + 2 paths span two blocks; each chunk must equal the first rows
        # of the same chunk of a larger batch, whose second chunk holds the
        # second block's paths
        model = make_model(rate12="1", rate21="0.5", drift="0", diffusion="1", box=8.0)
        c = const_control(model)
        b = rng.BLOCK_PATHS
        small = list(simulate_chunks(model, c, 0.0, [0.0], 1, 0.25, 0.05, 3, b + 2))
        large = list(simulate_chunks(model, c, 0.0, [0.0], 1, 0.25, 0.05, 3, b + 8))
        assert [len(chunk.path_indices) for chunk in small] == [b, 2]
        for head, whole in zip(small, large, strict=True):
            for field in ("path_indices", "states", "regimes"):
                assert np.array_equal(getattr(head, field), getattr(whole, field)[: len(head.path_indices)])
        assert large[1].path_indices.tolist() == list(range(b, b + 8))
        # the four paths next to the block boundary are distinct
        assert len(np.unique(np.concatenate([small[0].states[-2:, -1, 0], small[1].states[:, -1, 0]]))) == 4

    def test_path_independent_of_batch(self, brownian_model):
        c = const_control(brownian_model)
        [small] = simulate_chunks(brownian_model, c, 0.0, [0.0], 1, 0.5, 0.05, 3, 4)
        [large] = simulate_chunks(brownian_model, c, 0.0, [0.0], 1, 0.5, 0.05, 3, 64)
        assert np.array_equal(small.states, large.states[:4])
        assert np.array_equal(small.regimes, large.regimes[:4])

    def test_workers_do_not_change_results(self, brownian_model):
        # two chunks on a two-step horizon, so the pool starts and stays cheap
        c = const_control(brownian_model)
        n = rng.BLOCK_PATHS + 64
        serial = list(simulate_chunks(brownian_model, c, 0.0, [0.0], 1, 0.1, 0.05, 3, n, workers=1))
        fanned = simulate_chunks(brownian_model, c, 0.0, [0.0], 1, 0.1, 0.05, 3, n, workers=8)
        assert len(serial) == 2
        for one, pooled in zip(serial, fanned, strict=True):
            assert np.array_equal(one.states, pooled.states)
            assert np.array_equal(one.regimes, pooled.regimes)

    def test_workers_split_on_blocks(self):
        # BLOCK_PATHS + 8 paths are two chunks, so two workers share them
        model = make_model(rate12="1", rate21="0.5", drift="-x1", diffusion="1", box=8.0)
        c = const_control(model)
        n = rng.BLOCK_PATHS + 8
        serial = list(simulate_chunks(model, c, 0.0, [0.0], 1, 0.25, 0.05, 3, n, workers=1))
        fanned = simulate_chunks(model, c, 0.0, [0.0], 1, 0.25, 0.05, 3, n, workers=2)
        assert len(serial) == 2
        for one, pooled in zip(serial, fanned, strict=True):
            for field in ("states", "regimes", "mu_idx", "nu_idx", "path_indices"):
                assert np.array_equal(getattr(one, field), getattr(pooled, field))
            assert one.clamp_count == pooled.clamp_count

    def test_non_integral_grid_rejected(self, brownian_model):
        with pytest.raises(ValidationError):
            simulate_chunks(brownian_model, const_control(brownian_model), 0.0, [0.0], 1, 1.0, 0.3, 0, 1)

    def test_blowup_without_clamping(self):
        model = make_model(regimes=1, drift="10*x1", diffusion="0", box=2.0, clamp=False)
        with pytest.raises(SimulationError):
            list(simulate_chunks(model, const_control(model), 0.0, [1.0], 1, 1.0, 0.1, 0, 1))

    def test_regime_marginals_match_chained_products(self, unit_interval):
        model = make_model(
            rate12="0.8", rate21="0.5", rate_bound=1.3, drift="0", diffusion="0", box=1.0
        )
        dt = 0.05
        nu = dirac(unit_interval, [0.5])
        chunks = simulate_chunks(model, const_control(model), 0.0, [0.0], 1, 1.0, dt, 13, 10_000)
        regimes = np.concatenate([batch.regimes for batch in chunks])
        p_step = np.vstack(
            [transition_matrix(model.rates, np.zeros(1), nu, dt)[i - 1] for i in (1, 2)]
        )
        marginal = np.array([1.0, 0.0])
        for k in range(1, 21):
            marginal = marginal @ p_step
            if k % 4 == 0:  # 5 checkpoints
                frac = np.array(
                    [float(np.mean(regimes[:, k] == 1)), float(np.mean(regimes[:, k] == 2))]
                )
                tv = 0.5 * float(np.sum(np.abs(frac - marginal)))
                se = math.sqrt(float(marginal[0] * marginal[1]) / 10_000)
                assert tv <= 3 * max(se, 1e-4)

    def test_step_constant_controls_agree_on_grid(self, unit_interval):
        # a constant control and control families returning the same values at
        # every step start produce bit-identical paths: values off the step
        # grid (a null set at the discrete level) cannot matter
        model = make_model(rate12="0.4*nu_m(1,0)", rate_bound=0.4, drift="0", diffusion="1", box=8.0)
        d3, d7 = dirac(unit_interval, [0.3]), dirac(unit_interval, [0.7])
        constant = ConstantControl(d3, d7)
        markov = MarkovControl(
            CandidateMap([d3], index_expr="0*t"), CandidateMap([d7], per_regime=[0, 0])
        )
        pathdep = PathDependentControl(
            window=3, statistic="max", coordinate=0, bucket_edges=[0.0],
            mu_candidates=[d3], mu_map=[0, 0], nu_candidates=[d7], nu_map=[0, 0],
        )
        [ref] = simulate_chunks(model, constant, 0.0, [0.0], 1, 1.0, 0.25, 21, 1)
        for other in (markov, pathdep):
            [path] = simulate_chunks(model, other, 0.0, [0.0], 1, 1.0, 0.25, 21, 1)
            assert np.array_equal(path.states, ref.states)
            assert np.array_equal(path.regimes, ref.regimes)

    def test_moment_bound_holds(self):
        model = make_model(regimes=1, drift="-x1", diffusion="1", box=8.0, growth_bound=1.0)
        [batch] = simulate_chunks(model, const_control(model), 0.0, [1.0], 1, 1.0, 0.01, 3, 4000)
        sup2 = np.max(np.abs(batch.states[:, :, 0]), axis=1) ** 2
        bound = gronwall_sup_moment_bound(1.0, [1.0], 1.0, 2, 1)
        assert float(np.mean(sup2)) <= 2.0 * bound


class TestValidateModel:
    def test_mean_reversion_passes(self):
        model = make_model(
            regimes=1, drift="-x1", diffusion="1", box=8.0, lipschitz_drift_diffusion=2.0
        )
        report = validate_model(model, 300)
        assert report.passed

    def test_quadratic_drift_fails_with_large_ratio(self):
        model = make_model(
            regimes=1, drift="x1*x1", diffusion="0", box=10.0, lipschitz_drift_diffusion=1.0
        )
        report = validate_model(model, 1000)
        assert not report.passed
        entry = {c.name: c for c in report.checks}["drift_diffusion_lipschitz"]
        # oracle: direct ratio scan |x^2 - y^2|^2 / |x - y|^2 = |x + y|^2 on a
        # dense grid of near pairs
        xs = np.linspace(-10, 10, 201)
        oracle = max((x + y) ** 2 for x in xs for y in (x - 0.05, x + 0.05) if -10 <= y <= 10)
        assert entry.observed > 300.0
        assert entry.observed <= oracle * 1.05

    def test_moment_rate_lipschitz_passes(self):
        model = make_model(
            rate12="nu_m(1,0)", rate_bound=1.0, drift="0", diffusion="0", lipschitz_rates=1.0
        )
        report = validate_model(model, 300)
        entry = {c.name: c for c in report.checks}["rate_lipschitz"]
        assert entry.passed

    def test_rate_bound_detection(self):
        ok = make_model(rate12="2", rate_bound=2.0, drift="0", diffusion="0")
        report = validate_model(ok, 200)
        assert {c.name: c for c in report.checks}["rate_bound"].passed
        # a declared bound below the true rate trips the construction smoke check
        from hybridopt import ActionSet, BoundViolationError, HybridModel, RateSpec

        with pytest.raises(BoundViolationError):
            HybridModel(
                state_dim=1,
                action_set=ActionSet([0.0], [1.0]),
                rates=RateSpec(2, [[None, "2"], ["0", None]], 1.0),
                drift=[["0"], ["0"]],
                diffusion=[[["0"]], [["0"]]],
                running_cost="0",
                terminal_cost="0",
                horizon=1.0,
                truncation_lower=[-1.0],
                truncation_upper=[1.0],
            )

    def test_sample_count_minimum(self, chain_model):
        with pytest.raises(ValidationError):
            validate_model(chain_model, 50)

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2), (3, 2)])
    def test_growth_ratio_matches_the_per_point_norms(self, d, m):
        gen = np.random.default_rng(5)
        x, b, sig = gen.standard_normal((500, d)), gen.standard_normal((500, d)), gen.standard_normal((500, d, m))
        per_point = [
            (np.linalg.norm(b[k]) + np.linalg.norm(sig[k])) / (1.0 + np.linalg.norm(x[k])) for k in range(500)
        ]
        # bit for bit: validate's growth_bound reports the largest of these
        assert growth_ratio(x, b, sig).tolist() == per_point

    def test_cost_floor_detection(self):
        model = make_model(
            regimes=1, drift="0", diffusion="0", running="x1", terminal="0", box=2.0,
            running_cost_floor=0.0,
        )
        report = validate_model(model, 300)
        entry = {c.name: c for c in report.checks}["running_cost_floor"]
        assert not entry.passed  # x1 goes negative on the box


class TestGridInvariants:
    def test_path_grid_tiles_horizon(self, brownian_model):
        [path] = simulate_chunks(brownian_model, const_control(brownian_model), 0.0, [0.0], 1, 1.0, 0.01, 2, 1)
        n_steps = path.states.shape[1] - 1
        assert n_steps == 100 and len(path.times) == 101
        assert np.max(np.abs(np.diff(path.times) - 0.01)) <= 1e-12
        assert abs(path.times[-1] - 1.0) <= 1e-12

    def test_single_switch_per_step(self, chain_model):
        [batch] = simulate_chunks(
            chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.01, 11, 500
        )
        jumps = np.abs(np.diff(batch.regimes, axis=1))
        assert jumps.max() <= 1


class TestTwoDimensionalSimulation:
    def test_isotropic_brownian_covariance(self):
        from hybridopt import ActionSet, HybridModel, RateSpec

        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=2,
            action_set=u,
            rates=RateSpec(1, [[None]], 0.0),
            drift=[["0", "0"]],
            diffusion=[[["1", "0"], ["0", "1"]]],
            running_cost="0",
            terminal_cost="0",
            horizon=1.0,
            truncation_lower=[-8.0, -8.0],
            truncation_upper=[8.0, 8.0],
        )
        control = ConstantControl(dirac(u, [0.5]), dirac(u, [0.5]))
        [batch] = simulate_chunks(model, control, 0.0, [0.0, 0.0], 1, 1.0, 0.02, 3, 4000)
        x_t = batch.states[:, -1, :]
        cov = np.cov(x_t.T)
        assert abs(cov[0, 0] - 1.0) <= 0.1
        assert abs(cov[1, 1] - 1.0) <= 0.1
        assert abs(cov[0, 1]) <= 0.1

    def test_cross_diffusion_mixes_coordinates(self):
        from hybridopt import ActionSet, HybridModel, RateSpec

        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=2,
            action_set=u,
            rates=RateSpec(1, [[None]], 0.0),
            drift=[["0", "0"]],
            diffusion=[[["1", "0"], ["1", "0"]]],  # both coordinates driven by W_1
            running_cost="0",
            terminal_cost="0",
            horizon=0.5,
            truncation_lower=[-8.0, -8.0],
            truncation_upper=[8.0, 8.0],
        )
        control = ConstantControl(dirac(u, [0.5]), dirac(u, [0.5]))
        [path] = simulate_chunks(model, control, 0.0, [0.0, 0.0], 1, 0.5, 0.05, 4, 1)
        assert np.array_equal(path.states[0, :, 0], path.states[0, :, 1])


class TestWorkerPickling:
    def test_markov_expression_control_across_processes(self, unit_interval):
        # expression ASTs, measures, and models must survive worker pickling
        model = make_model(
            rate12="0.2*nu_m(1,0)", rate_bound=0.2, drift="2*mu_m(1,0) - 1",
            diffusion="0.1", box=4.0, lipschitz_drift_diffusion=16.0, growth_bound=2.0,
        )
        from hybridopt import CandidateMap, MarkovControl, dirac

        d0, d1 = dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])
        control = MarkovControl(
            CandidateMap([d0, d1], index_expr="max(0, min(1, 0.5 - x1 + 0.5))"),
            CandidateMap([d0, d1], index_expr="i - 1"),
        )
        n = rng.BLOCK_PATHS + 48
        serial = list(simulate_chunks(model, control, 0.0, [0.5], 1, 0.1, 0.05, 17, n, workers=1))
        fanned = simulate_chunks(model, control, 0.0, [0.5], 1, 0.1, 0.05, 17, n, workers=6)
        assert len(serial) == 2
        for one, pooled in zip(serial, fanned, strict=True):
            assert np.array_equal(one.states, pooled.states)
            assert np.array_equal(one.mu_idx, pooled.mu_idx)

    def test_table_control_across_processes(self):
        from hybridopt import GridSpec, TableControl, dirac, solve

        model = make_model(
            rate12="0.2*nu_m(1,0)", rate_bound=0.2, drift="0", diffusion="0.3",
            running="x1*x1 + 0.5*i", terminal="abs(x1)", box=2.0,
        )
        u = model.action_set
        vg = solve(model, GridSpec(10, [11], 3), [dirac(u, [0.5])], [dirac(u, [0.0]), dirac(u, [1.0])])
        policy = TableControl(vg)
        n = rng.BLOCK_PATHS + 40
        serial = list(simulate_chunks(model, policy, 0.0, [0.0], 1, 0.2, 0.1, 23, n, workers=1))
        fanned = simulate_chunks(model, policy, 0.0, [0.0], 1, 0.2, 0.1, 23, n, workers=5)
        assert len(serial) == 2
        for one, pooled in zip(serial, fanned, strict=True):
            assert np.array_equal(one.states, pooled.states)
            assert np.array_equal(one.regimes, pooled.regimes)


class TestPartialHorizonAndOffGrid:
    def test_simulate_from_interior_start_time(self):
        model = make_model(regimes=1, drift="1", diffusion="0", box=8.0)
        [path] = simulate_chunks(model, const_control(model), 0.25, [0.0], 1, 0.75, 0.25, 2, 1)
        assert path.times.tolist() == [0.25, 0.5, 0.75]
        assert path.states[0, -1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_em_step_non_finite_detected(self):
        # b dt = exp(700) * 1e300 overflows on the first engine step
        model = make_model(regimes=1, drift="exp(x1)", diffusion="0", box=800.0, clamp=False)
        with pytest.raises(SimulationError):
            list(simulate_chunks(model, const_control(model), 0.0, [700.0], 1, 1e300, 1e300, 0, 1))


class TestStepSizeCap:
    def test_engine_rejects_dt_rate_above_cap(self, chain_model):
        # rate bound 1: dt = 0.1 sits at the cap, dt = 0.125 is above it
        list(simulate_chunks(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.1, 0, 1))
        with pytest.raises(StepSizeError):
            list(simulate_chunks(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.125, 0, 1))


class RecordingPool:
    """Stands in for the process pool: runs each job at submit and records
    what was submitted and how the pool was shut down."""

    submitted: list = []
    shutdowns: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def submit(self, job, arg):
        RecordingPool.submitted.append(arg)
        future = Future()
        future.set_result(job(arg))
        return future

    def shutdown(self, cancel_futures=False):
        RecordingPool.shutdowns.append(cancel_futures)


class TestFanOutWindow:
    @pytest.fixture(autouse=True)
    def pool(self, monkeypatch):
        RecordingPool.submitted, RecordingPool.shutdowns = [], []
        monkeypatch.setattr(dynamics, "ProcessPoolExecutor", RecordingPool)

    def test_workers_jobs_ahead_of_the_result_in_hand(self):
        taken = []
        for result in dynamics.fan_out(lambda a: 2 * a, list(range(10)), 3):
            # past the result in hand, 3 jobs are in flight while 3 remain
            ahead = len(RecordingPool.submitted) - len(taken) - 1
            assert ahead == min(3, 10 - len(taken) - 1)
            taken.append(result)
        assert taken == [2 * a for a in range(10)]
        assert RecordingPool.shutdowns == [True]

    def test_abandoned_run_cancels_the_rest(self):
        results = dynamics.fan_out(lambda a: a, list(range(10)), 2)
        assert next(results) == 0
        results.close()
        assert RecordingPool.submitted == [0, 1, 2]
        assert RecordingPool.shutdowns == [True]

    def test_one_worker_needs_no_pool(self):
        assert list(dynamics.fan_out(lambda a: -a, [1, 2, 3], 1)) == [-1, -2, -3]
        assert RecordingPool.submitted == [] and RecordingPool.shutdowns == []
