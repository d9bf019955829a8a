import math

import numpy as np
import pytest

from hybridopt import (
    ActionSet,
    CapacityError,
    ConstantControl,
    GridSpec,
    HybridModel,
    LatticeProblem,
    NumericalError,
    RateSpec,
    dirac,
    enumerate_value,
    gronwall_sup_moment_bound,
    mixture,
    solve,
)
from hybridopt.dpp_solver import SolverKernels
from hybridopt.oracle_verify import (
    _coupled_instance,
    _dpp_subchecks,
    _drift_steering_instance,
    _finish,
    _minimizing_sequence_subchecks,
    _moment_bound_subchecks,
    _regime_cost_instance,
)
from tests.conftest import const_control, make_model


# The battery folds each instance's subchecks with _finish; these do the same
# for one instance.
def fold_dpp(model, grid, mu_c, nu_c, intermediate_k, x0, i0, path_count, seed):
    subchecks = _dpp_subchecks(model, grid, mu_c, nu_c, intermediate_k, x0, i0, path_count, seed)
    return _finish("dpp", *subchecks)


def fold_minimizing_sequence(model, grid, mu_c, nu_c, controls, x0, i0, path_count, seed):
    subchecks = _minimizing_sequence_subchecks(model, grid, mu_c, nu_c, controls, x0, i0, path_count, seed)
    return _finish("minimizing_sequence", *subchecks)


def fold_moment_bound(model, control, p, path_count, seed, x0, i0, t_end, dt):
    subchecks = _moment_bound_subchecks(model, control, p, path_count, seed, x0, i0, t_end, dt)
    return _finish("moment_bound", *subchecks)


def tiny_instance(n_nodes=2, n_steps=2):
    """Small enough for full policy enumeration inside enumerate_value."""
    u = ActionSet([0.0], [1.0])
    model = HybridModel(
        state_dim=1,
        action_set=u,
        rates=RateSpec(1, [[None]], 0.0),
        drift=[["2*mu_m(1,0) - 1"]],
        diffusion=[[["0"]]],
        running_cost="0.1",
        terminal_cost="x1*x1",
        horizon=0.2 * n_steps,
        truncation_lower=[-1.0],
        truncation_upper=[1.0],
    )
    grid = GridSpec(n_steps, [n_nodes], 3)
    mu_c = [dirac(u, [0.0]), dirac(u, [1.0])]
    nu_c = [dirac(u, [0.5])]
    return model, grid, mu_c, nu_c


class TestLatticeProblem:
    def test_kernel_rows_are_stochastic(self):
        model, grid, mu_c, nu_c = _coupled_instance()
        problem = LatticeProblem(model, grid, mu_c, nu_c)
        for kernel in problem.kernels:
            assert np.all(kernel >= -1e-15)
            assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)

    def test_capacity_limits(self):
        model, grid, mu_c, nu_c = _coupled_instance()
        with pytest.raises(CapacityError):
            LatticeProblem(model, GridSpec(9, grid.space_nodes, 3), mu_c, nu_c)
        with pytest.raises(CapacityError):
            LatticeProblem(model, GridSpec(grid.time_steps, [63], 3), mu_c, nu_c)

    def test_single_pair_value_is_policy_cost(self):
        model, grid, mu_c, nu_c = tiny_instance()
        problem = LatticeProblem(model, grid, mu_c[:1], nu_c)
        table = enumerate_value(problem)
        # unique policy: drift -1 from each node, cost 0.1 per unit time + g
        vg = solve(model, grid, mu_c[:1], nu_c)
        assert np.max(np.abs(table - vg.values)) <= 1e-12

    def test_constant_terminal(self):
        model = make_model(
            rate12="0.2", rate_bound=0.2, drift="0", diffusion="0", running="0", terminal="2", box=1.0
        )
        u = model.action_set
        grid = GridSpec(3, [5], 3)
        problem = LatticeProblem(model, grid, [dirac(u, [0.5])], [dirac(u, [0.5])])
        table = enumerate_value(problem)
        assert np.max(np.abs(table - 2.0)) <= 1e-12


class TestEnumerateValue:
    def test_backward_equals_policy_enumeration(self):
        # 2 nodes x 1 regime x 2 steps x 2 pairs -> 16 policies, enumerated
        # inside enumerate_value; disagreement raises
        model, grid, mu_c, nu_c = tiny_instance()
        problem = LatticeProblem(model, grid, mu_c, nu_c)
        assert problem.policy_count() == 16
        table = enumerate_value(problem)
        assert table.shape == (3, 2, 1)

    def test_matches_solver_on_demo_instances(self):
        for builder in (_regime_cost_instance, _drift_steering_instance, _coupled_instance):
            model, grid, mu_c, nu_c = builder()
            vg = solve(model, grid, mu_c, nu_c)
            table = enumerate_value(LatticeProblem(model, grid, mu_c, nu_c))
            assert np.max(np.abs(table - vg.values)) <= 1e-9

    def test_regime_cost_value(self):
        model, grid, mu_c, nu_c = _regime_cost_instance()
        table = enumerate_value(LatticeProblem(model, grid, mu_c, nu_c))
        assert np.max(np.abs(table[0][:, 0] - 1.0)) <= 1e-9


class TestCheckDpp:
    def test_deterministic_instance_exact(self):
        # no diffusion, no switching, and a drift step that lands exactly on
        # grid nodes: both DPP sides coincide to 1e-9
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=1,
            action_set=u,
            rates=RateSpec(1, [[None]], 0.0),
            drift=[["2*mu_m(1,0) - 1"]],
            diffusion=[[["0"]]],
            running_cost="0.1*x1*x1",
            terminal_cost="x1*x1",
            horizon=1.0,
            truncation_lower=[-2.0],
            truncation_upper=[2.0],
        )
        grid = GridSpec(5, [21], 3)  # node spacing 0.2 == |drift| * dt
        mu_c = [dirac(u, [0.0]), dirac(u, [1.0])]
        nu_c = [dirac(u, [0.5])]
        rep = fold_dpp(model, grid, mu_c, nu_c, 2, [1.0], 1, path_count=200, seed=3)
        assert rep.passed
        assert abs(rep.details["value"] - rep.details["mc_restatement"]) <= 1e-9

    def test_regime_cost_midpoint(self):
        model, grid, mu_c, nu_c = _regime_cost_instance()
        rep = fold_dpp(model, grid, mu_c, nu_c, grid.time_steps // 2, [0.0], 1, path_count=500, seed=42)
        assert rep.passed
        assert rep.details["one_step_residual"] == 0.0

    def test_kernels_built_once(self, monkeypatch):
        # the solve and every residual window share one SolverKernels
        built = []
        init = SolverKernels.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(SolverKernels, "__init__", counting_init)
        model, grid, mu_c, nu_c = _coupled_instance()
        rep = fold_dpp(model, grid, mu_c, nu_c, 2, [0.0], 1, path_count=200, seed=42)
        assert rep.details["one_step_residual"] == 0.0
        assert len(built) == 1

    def test_multi_step_residual_is_gated(self, monkeypatch):
        from hybridopt import oracle_verify

        model, grid, mu_c, nu_c = _drift_steering_instance()
        rep = fold_dpp(model, grid, mu_c, nu_c, 2, [1.0], 1, path_count=200, seed=3)
        assert rep.passed
        assert rep.details["multi_step_residual"] > 0.0
        # below the observed residual (0.005) the multi-step gate trips
        monkeypatch.setattr(oracle_verify, "tol_disc", lambda model, vg: 1e-3)
        rep = fold_dpp(model, grid, mu_c, nu_c, 2, [1.0], 1, path_count=200, seed=3)
        assert not rep.passed
        assert "multi_step_within_tol" in rep.details["failed"]

    def test_random_small_instance_logged(self):
        model, grid, mu_c, nu_c = _coupled_instance()
        rep = fold_dpp(model, grid, mu_c, nu_c, 2, [0.0], 1, path_count=2000, seed=42)
        assert rep.passed
        assert "multi_step_residual" in rep.details
        assert rep.details["multi_step_residual"] >= 0.0

    # the details of the battery's dpp instances, bit for bit: the Monte Carlo
    # restatement is costed by the engine, and the held side of the residual
    # is one stage_values call per pair
    PINNED = {
        "regime_cost": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
                        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+1"),
        "drift_steering": ("0x1.3333333333333p-2", "0x1.1eb851eb851eep-2", "0x1.03160f7b10997p-60",
                           "0x0.0p+0", "0x1.47ae147ae147cp-8", "0x1.23d70a3d70a40p+1"),
        "coupled": ("0x1.e571b5257250bp-1", "0x1.e5b4292c55b37p-1", "0x1.2b84032ab44c1p-9",
                    "0x0.0p+0", "0x0.0p+0", "0x1.3333333333336p+1"),
    }

    @pytest.mark.parametrize("label", list(PINNED))
    def test_battery_instances_pinned(self, label):
        from hybridopt.oracle_verify import _LATTICE_INSTANCES

        model, grid, mu_c, nu_c = dict(_LATTICE_INSTANCES)[label]()
        x0, i0 = model.default_start()
        _, details = _dpp_subchecks(model, grid, mu_c, nu_c, grid.time_steps // 2, x0, i0, 4000, 606)
        keys = ("value", "mc_restatement", "stderr", "one_step_residual", "multi_step_residual", "tol_disc")
        assert tuple(float(details[k]).hex() for k in keys) == self.PINNED[label]


class TestMinimizingSequence:
    def test_mixture_interpolation_costs_decrease(self):
        model, grid, mu_c, nu_c = _regime_cost_instance()
        u = model.action_set
        d0, d1 = dirac(u, [0.0]), dirac(u, [1.0])
        mu_fixed = dirac(u, [0.5])
        weights = np.linspace(1.0, 0.1, 10)
        controls = [ConstantControl(mu_fixed, mixture([d0, d1], [1 - w, w])) for w in weights]
        rep = fold_minimizing_sequence(
            model, grid, mu_c, nu_c, controls, [0.0], 1, path_count=1000, seed=5
        )
        assert rep.passed
        costs = rep.details["costs"]
        # switch-rate interpolation: cost decreases monotonically in the weight
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))
        assert rep.details["policy_cost"] == pytest.approx(1.0, abs=1e-12)

    def test_singleton_sequence(self):
        model, grid, mu_c, nu_c = _regime_cost_instance()
        vg = solve(model, grid, mu_c, nu_c)
        from hybridopt import TableControl

        rep = fold_minimizing_sequence(
            model, grid, mu_c, nu_c, [TableControl(vg)], [0.0], 1, path_count=500, seed=6
        )
        assert rep.passed

    def test_random_constants_then_policy(self):
        model, grid, mu_c, nu_c = _regime_cost_instance()
        u = model.action_set
        gen = np.random.default_rng(0)
        # declared with the switch rate 0.4 * point falling, so costs fall too
        points = sorted(gen.random(10).tolist(), reverse=True)
        controls = [ConstantControl(dirac(u, [0.5]), dirac(u, [p])) for p in points]
        rep = fold_minimizing_sequence(
            model, grid, mu_c, nu_c, controls, [0.0], 1, path_count=1000, seed=7
        )
        assert rep.passed
        assert rep.details["policy_cost"] <= min(rep.details["costs"]) + 1e-9

    def test_sequence_in_rising_cost_order_fails(self):
        # the battery's w = 0.1 and w = 1.0 mixtures, cheapest first: the
        # second costs about 0.13 more, far beyond the 3 se allowance
        model, grid, mu_c, nu_c = _regime_cost_instance()
        u = model.action_set
        d0, d1 = dirac(u, [0.0]), dirac(u, [1.0])
        controls = [ConstantControl(dirac(u, [0.5]), mixture([d0, d1], [1 - w, w])) for w in (0.1, 1.0)]
        rep = fold_minimizing_sequence(
            model, grid, mu_c, nu_c, controls, [0.0], 1, path_count=2000, seed=707
        )
        assert rep.details["costs"][1] - rep.details["costs"][0] > 0.1
        assert rep.details["failed"] == ["costs_nonincreasing_in_declared_order"]
        assert fold_minimizing_sequence(
            model, grid, mu_c, nu_c, controls[::-1], [0.0], 1, path_count=2000, seed=707
        ).passed


class TestMomentBound:
    def test_frozen_state_trivial(self):
        model = make_model(
            regimes=1, drift="0", diffusion="0", running="0", terminal="0", box=2.0, growth_bound=1.0
        )
        rep = fold_moment_bound(model, const_control(model), 2, 200, 3, [1.0], 1, 1.0, 0.1)
        assert rep.passed
        assert rep.details["estimate"] == pytest.approx(1.0, abs=1e-12)

    def test_mean_reverting_unit_noise(self):
        model = make_model(regimes=1, drift="-x1", diffusion="1", box=8.0, growth_bound=1.0)
        rep = fold_moment_bound(model, const_control(model), 2, 4000, 4, [1.0], 1, 1.0, 0.01)
        assert rep.passed
        marginal_sup = max(
            math.exp(-2 * t) + (1 - math.exp(-2 * t)) / 2 for t in np.linspace(0, 1, 101)
        )
        assert rep.details["estimate"] >= marginal_sup - 3 * rep.details["stderr"]

    def test_growing_drift_small_horizon(self):
        model = make_model(
            regimes=1, drift="x1", diffusion="0.5", box=16.0, growth_bound=1.5,
            horizon=0.5, lipschitz_drift_diffusion=1.0,
        )
        rep = fold_moment_bound(model, const_control(model), 2, 1000, 5, [1.0], 1, 0.5, 0.01)
        assert rep.passed

    def test_p4_supported(self):
        model = make_model(regimes=1, drift="-x1", diffusion="1", box=8.0, growth_bound=1.0)
        rep = fold_moment_bound(model, const_control(model), 4, 1000, 6, [0.0], 1, 1.0, 0.02)
        assert rep.passed

    def test_bound_constants(self):
        b2 = gronwall_sup_moment_bound(1.0, [1.0], 1.0, 2, 1)
        b4 = gronwall_sup_moment_bound(1.0, [1.0], 1.0, 4, 1)
        assert b2 > 1.0 and np.isfinite(b2)
        assert b4 > b2
        with pytest.raises(Exception):
            gronwall_sup_moment_bound(1.0, [1.0], 1.0, 3, 1)


class TestGrowthViolationDetection:
    def test_understated_growth_bound_fails_the_check(self):
        # drift magnitude 3|x| against a declared growth constant of 1
        model = make_model(
            regimes=1, drift="-3*x1", diffusion="0.5", box=4.0,
            lipschitz_drift_diffusion=9.0, growth_bound=1.0, horizon=0.5,
        )
        rep = fold_moment_bound(model, const_control(model), 2, 300, 9, [1.0], 1, 0.5, 0.01)
        assert not rep.passed
        assert "declared_growth_holds" in rep.details.get("failed", [])


class TestContinuityGate:
    def test_upward_subcheck_can_fail(self, monkeypatch):
        from hybridopt import oracle_verify

        rep = oracle_verify.check_continuity()
        assert rep.passed
        assert "upward_within_tol" in [s["label"] for s in rep.details["subchecks"]]
        # refinement lowers V at the probe, so only a negative tolerance trips it
        monkeypatch.setattr(oracle_verify, "tol_disc", lambda model, vg: -1.0)
        rep = oracle_verify.check_continuity()
        assert not rep.passed
        assert rep.details["failed"] == ["upward_within_tol"]


class TestFinish:
    @pytest.mark.parametrize("observed", [math.nan, math.inf, -math.inf])
    def test_non_finite_observed_value_fails(self, observed):
        rep = _finish("x", [("a", observed, 0.0), ("b", 0.0, 1.0)])
        assert not rep.passed
        assert rep.details["failed"] == ["a"]
        assert rep.margin == -math.inf

    def test_finite_values_fold_as_before(self):
        rep = _finish("x", [("a", 0.5, 1.0), ("b", 0.0, 0.0)])
        assert rep.passed and rep.margin == 0.0 and rep.tolerance == 0.0
        rep = _finish("x", [("a", 1.5, 1.0)])
        assert not rep.passed and rep.margin == -0.5 and rep.details["failed"] == ["a"]


class TestSolverOracleRows:
    def test_scalar_spot_check_reads_the_batched_rows(self, monkeypatch):
        from hybridopt import oracle_verify, switching

        # a series cut after the linear term is off by about 5e-3 at the active rate
        monkeypatch.setattr(switching, "_poisson_degree", lambda lam: 1)
        rep = oracle_verify.check_solver_oracle()
        assert not rep.passed
        assert rep.details["failed"] == ["two_state_scalar_rate_active"]


class TestIntervalsCheck:
    """Each subcheck of ``intervals`` fails on a fault of its own."""

    @staticmethod
    def failed(monkeypatch, module, name, value):
        from hybridopt import oracle_verify

        assert oracle_verify.check_intervals().passed
        monkeypatch.setattr(module, name, value)
        rep = oracle_verify.check_intervals()
        assert not rep.passed
        return rep.details["failed"]

    def test_kernel_over_half_the_bound_goes_negative(self, monkeypatch):
        from hybridopt import oracle_verify, switching

        def halved(rates, x, nu):
            # I + Q / (M / 2): rows still sum to one, stay entries dip below zero
            p = switching.jump_kernel(rates, x, nu)
            return 2.0 * p - np.eye(rates.regime_count)

        failed = self.failed(monkeypatch, oracle_verify, "jump_kernel", halved)
        assert failed == ["kernel_nonnegative", "jump_law_within_3se"]

    def test_stay_entry_left_at_one_breaks_the_row_sums(self, monkeypatch):
        from hybridopt import oracle_verify, switching

        def stay_one(rates, x, nu):
            p = switching.jump_kernel(rates, x, nu)
            idx = np.arange(rates.regime_count)
            p[:, idx, idx] = 1.0
            return p

        failed = self.failed(monkeypatch, oracle_verify, "jump_kernel", stay_one)
        assert failed == ["kernel_rows_sum_to_one", "jump_law_within_3se"]

    def test_series_cut_to_two_terms_misses_expm(self, monkeypatch):
        from hybridopt import switching

        failed = self.failed(monkeypatch, switching, "_poisson_degree", lambda lam: 1)
        assert failed == ["rows_match_expm"]

    def test_biased_draws_break_the_jump_law(self, monkeypatch):
        from hybridopt import oracle_verify, switching

        def squared_draws(probs, u):
            return switching.pick_regime(probs, np.asarray(u) ** 2)

        failed = self.failed(monkeypatch, oracle_verify, "pick_regime", squared_draws)
        assert failed == ["jump_law_within_3se"]


class TestSwitchingLawLayout:
    def test_transposed_rows_fail_the_occupation_check(self, monkeypatch):
        from hybridopt import oracle_verify, switching

        rates = switching.RateSpec.path_last

        def transposed(self, x, nu):
            # q_ji where q_ij belongs: every regime draw, first-order or full row, reads it
            return rates(self, x, nu).transpose(1, 0, 2)

        monkeypatch.setattr(switching.RateSpec, "path_last", transposed)
        rep = oracle_verify.check_switching_law()
        assert not rep.passed
        assert rep.details["failed"] == ["occupation_at_T"]


class TestLawChecksPinned:
    # the details of the battery's simulated law checks, bit for bit: each
    # reads 10 000 paths, three chunks, so a chunk dropped or reordered on
    # the way out of the engine changes a pin
    PINNED = {
        "switching_law": {"fraction": "0x1.4219652bd3c36p-1"},
        "diffusion_law": {"mean": "0x1.b020f2c83054ep-6", "variance": "0x1.fb45220785833p-1",
                          "stderr_mean": "0x1.4629b41768d8ap-7"},
        "moment_bound": {"estimate": "0x1.f52a6fa8d2b24p+0", "stderr": "0x1.3e46eb76551d4p-7",
                         "bound": "0x1.40bc943438a34p+48"},
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_details_pinned(self, name):
        from hybridopt import oracle_verify

        check = {"switching_law": oracle_verify.check_switching_law, "diffusion_law": oracle_verify.check_diffusion_law,
                 "moment_bound": oracle_verify.check_moment_bound_battery}[name]
        details = check().details
        assert {k: float(details[k]).hex() for k in self.PINNED[name]} == self.PINNED[name]


class TestDeterminismWorkers:
    def test_workers_subcheck_sees_a_reordered_pool(self, monkeypatch):
        from hybridopt import dynamics, oracle_verify

        pooled = dynamics.fan_out

        def reversed_pool(job, args, workers):
            out = list(pooled(job, args, workers))
            return out[::-1] if int(workers) > 1 else out

        monkeypatch.setattr(dynamics, "fan_out", reversed_pool)
        rep = oracle_verify.check_determinism()
        assert not rep.passed
        assert rep.details["failed"] == ["simulate_workers_1_vs_8"]


class TestW1MetricCheck:
    def test_mis_indexed_tree_cells_fail_trees_vs_lp(self, monkeypatch):
        from hybridopt import measure_space, oracle_verify

        table = measure_space._tree_table

        def reversed_cells(m, n):
            # each flow lands on the cell (m-1-i, n-1-j): as feasible, wrongly costed
            return table(m, n)[:, ::-1]

        monkeypatch.setattr(measure_space, "_tree_table", reversed_cells)
        rep = oracle_verify.check_w1_metric()
        assert not rep.passed
        assert "trees_vs_lp" in rep.details["failed"]
