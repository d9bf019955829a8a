import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from hybridopt import (
    ActionSet,
    GridSpec,
    HybridModel,
    RateSpec,
    ValueGrid,
    dirac,
    dpp_residual,
    extract_policy,
    gauss_hermite,
    monte_carlo_cost,
    mixture,
    solve,
    tol_disc,
)
from hybridopt import config
from hybridopt.control import ConstantControl, MeasureBatch, candidate_set
from hybridopt.dpp_solver import SolverKernels, interpolation_matrix
from tests.conftest import make_model

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def regime_cost_setup():
    """Two regimes, frozen state, switch rate 0.4 * m1(nu); regime i costs i."""
    u = ActionSet([0.0], [1.0])
    model = HybridModel(
        state_dim=1,
        action_set=u,
        rates=RateSpec(2, [[None, "0.4*nu_m(1,0)"], ["0", None]], 0.4),
        drift=[["0"], ["0"]],
        diffusion=[[["0"]], [["0"]]],
        running_cost="i",
        terminal_cost="0",
        horizon=1.0,
        truncation_lower=[-1.0],
        truncation_upper=[1.0],
    )
    grid = GridSpec(time_steps=4, space_nodes=[9], quad_order=3)
    mu_c = [dirac(u, [0.5])]
    nu_c = [dirac(u, [0.0]), dirac(u, [1.0])]
    return model, grid, mu_c, nu_c


def two_state_policy_enumeration_oracle(dt, n_steps, rate_scale=0.4):
    """Independent oracle for the regime-cost instance: enumerate all Markov
    assignments of nu in {delta_0, delta_1} per (step, regime) and chain the
    scalar-exponential two-state transition matrices.  Uses math.exp only --
    no shared code with the solver kernels."""
    choices = (0.0, 1.0)  # m1(nu) per candidate

    def step_matrix(m1):
        q = rate_scale * m1
        stay = math.exp(-q * dt)
        return np.array([[stay, 1.0 - stay], [0.0, 1.0]])

    best = np.full(2, np.inf)
    for assignment in itertools.product(range(2), repeat=n_steps * 2):
        pick = np.asarray(assignment).reshape(n_steps, 2)
        for start in (0, 1):
            dist = np.zeros(2)
            dist[start] = 1.0
            total = 0.0
            for k in range(n_steps):
                total += float(dist @ np.array([1.0, 2.0])) * dt
                # regime-dependent choice: split the distribution by regime
                moved = np.zeros(2)
                for regime in (0, 1):
                    moved += dist[regime] * step_matrix(choices[pick[k, regime]])[regime]
                dist = moved
            best[start] = min(best[start], total)
    return best  # optimal cost from regime 1 and regime 2


class TestSolveBasics:
    def test_constant_terminal_propagates(self):
        model = make_model(
            rate12="0.2", rate_bound=0.2, drift="0", diffusion="1", running="0", terminal="3", box=2.0
        )
        u = model.action_set
        vg = solve(model, GridSpec(5, [11], 3), [dirac(u, [0.5])], [dirac(u, [0.5])])
        assert np.max(np.abs(vg.values - 3.0)) <= 1e-12

    def test_frozen_state_keeps_terminal_shape(self):
        model = make_model(regimes=1, drift="0", diffusion="0", running="0", terminal="x1", box=2.0)
        u = model.action_set
        vg = solve(model, GridSpec(4, [9], 3), [dirac(u, [0.5])], [dirac(u, [0.5])])
        nodes = vg.nodes[:, 0]
        for k in range(5):
            assert np.array_equal(vg.values[k][:, 0], nodes)

    def test_terminal_condition_exact(self):
        model = make_model(regimes=1, drift="0", diffusion="1", running="1", terminal="x1*x1", box=2.0)
        u = model.action_set
        vg = solve(model, GridSpec(4, [9], 3), [dirac(u, [0.5])], [dirac(u, [0.5])])
        nodes = vg.nodes[:, 0]
        assert np.max(np.abs(vg.values[-1][:, 0] - nodes**2)) == 0.0

    def test_lower_bound_invariant(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        # f >= 1, g >= 0: V[k] >= 1 * (T - t_k)
        for k in range(grid.time_steps + 1):
            remaining = model.horizon - float(vg.times[k])
            assert np.min(vg.values[k]) >= remaining - 1e-12


class TestRegimeCostInstance:
    def test_value_matches_independent_oracle(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        oracle = two_state_policy_enumeration_oracle(vg.dt, grid.time_steps)
        assert np.max(np.abs(vg.values[0][:, 0] - oracle[0])) <= 1e-9
        assert np.max(np.abs(vg.values[0][:, 1] - oracle[1])) <= 1e-9
        assert oracle[0] == pytest.approx(1.0, abs=1e-12)

    def test_policy_suppresses_switching(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        # regime 1 picks the zero-mean candidate everywhere
        assert np.all(vg.policy_nu[:, :, 0] == 0)

    def test_tie_break_lowest_index(self):
        model = make_model(
            rate12="0.2", rate_bound=0.2, drift="0", diffusion="0", running="0", terminal="1", box=1.0
        )
        u = model.action_set
        vg = solve(
            model, GridSpec(3, [5], 3),
            [dirac(u, [0.0]), dirac(u, [1.0])],
            [dirac(u, [0.0]), dirac(u, [1.0])],
        )
        assert np.all(vg.policy_mu == 0)
        assert np.all(vg.policy_nu == 0)


class TestKernels:
    def test_regime_rows_match_per_node_expm(self):
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=2,
            action_set=u,
            rates=RateSpec(
                3,
                [
                    [None, "0.3*(1 + x1*x2)", "0.1*nu_m(1,0)"],
                    ["0.2*x1*x1", None, "0.3*abs(x2)"],
                    ["0.4*nu_m(1,0)", "0.1*(1 - x2)", None],
                ],
                1.0,
            ),
            drift=[["0", "0"]] * 3,
            diffusion=[[["0.1", "0"], ["0", "0.1"]]] * 3,
            running_cost="0",
            terminal_cost="0",
            horizon=0.5,
            truncation_lower=[-1.0, -1.0],
            truncation_upper=[1.0, 1.0],
        )
        nu_c = [dirac(u, [0.0]), dirac(u, [0.7])]
        # dt = 0.1 puts dt * M on the cap
        kern = SolverKernels(model, GridSpec(5, [7, 5], 3), [dirac(u, [0.5])], nu_c)
        assert kern.dt * model.rates.rate_bound == pytest.approx(0.1)
        for i in (1, 2, 3):
            for ni, nu in enumerate(nu_c):
                exact = np.array(
                    [expm(model.rates.generator(x, nu) * kern.dt)[i - 1] for x in kern.nodes]
                )
                assert np.max(np.abs(kern.regime_rows[i - 1][ni] - exact)) <= 1e-12


    @pytest.mark.parametrize("running", ["t*x1*x1 + i", "x1*x1 + i*nu_m(1,0) + mu_m(1,0)"])
    def test_stage_values_match_per_pair_reference(self, running):
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=1,
            action_set=u,
            rates=RateSpec(
                3,
                [[None, "0.3*(1 + x1)", "0.2*nu_m(1,0)"], ["0.2*x1*x1", None, "0.3"], ["0.4*nu_m(1,0)", "0.1", None]],
                1.0,
            ),
            drift=[["mu_m(1,0) - x1"], ["-x1"], ["0.5 - mu_m(1,0)"]],
            diffusion=[[["0.2"]], [["0.1 + 0.3*mu_m(1,0)"]], [["0.4"]]],
            running_cost=running,
            terminal_cost="0",
            horizon=0.4,
            truncation_lower=[-1.0],
            truncation_upper=[1.0],
        )
        mu_c = [dirac(u, [0.0]), dirac(u, [0.6]), mixture([dirac(u, [0.0]), dirac(u, [1.0])], [0.3, 0.7])]
        nu_c = [dirac(u, [0.0]), dirac(u, [1.0])]
        kern = SolverKernels(model, GridSpec(4, [9], 3), mu_c, nu_c)
        # the time-free stage cost is computed once; one that reads t is not cached
        assert (kern.cached_costs is None) == running.startswith("t*")
        n = kern.n_nodes
        rng = np.random.default_rng(5)
        shared = rng.normal(size=(n, 3))
        held = rng.normal(size=(len(kern.pairs), n, 3))

        def reference(k, i, mi, ni, w):
            run = model.running_cost_at(
                float(kern.times[k]), kern.nodes, np.full(n, i),
                MeasureBatch.constant(mu_c[mi], n), MeasureBatch.constant(nu_c[ni], n),
            )
            move = kern.move[i - 1][mi * n:(mi + 1) * n]
            return run * kern.dt + np.einsum("nj,nj->n", kern.regime_rows[i - 1][ni], move @ w)

        for k in range(4):
            for i in (1, 2, 3):
                batched = kern.stage_values(k, i, shared)
                per_pair = kern.stage_values(k, i, held)
                for p, (mi, ni) in enumerate(kern.pairs):
                    assert np.array_equal(batched[p], reference(k, i, mi, ni, shared))
                    assert np.array_equal(per_pair[p], reference(k, i, mi, ni, held[p]))


def solve_2d_model():
    """The benchmark's solve_2d model, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return config.load_model(workloads.solve_model(42))[0]


def three_d_model():
    """Two regimes in 3-D with state-dependent, off-diagonal diffusion."""
    u = ActionSet([0.0], [1.0])
    return HybridModel(
        state_dim=3,
        action_set=u,
        rates=RateSpec(2, [[None, "0.2*(1 + x1*x1)*(0.5 + 0.5*nu_m(1,0))"], ["0.1*(1 + x3*x3)", None]], 0.4),
        drift=[["-x1 + 0.3*mu_m(1,0)", "-x2", "-0.5*x3 + 0.2*mu_m(1,0)"], ["-x1", "0.2 - x2", "-0.5*x3"]],
        diffusion=[
            [["0.3 + 0.2*mu_m(1,0)", "0", "0"], ["0.1*x1", "0.3", "0"], ["0", "0", "0.3 + 0.1*x2*x2"]],
            [["0.4", "0", "0"], ["0", "0.3", "0.05"], ["0", "0", "0.3"]],
        ],
        running_cost="x1*x1 + x2*x2 + x3*x3 + i",
        terminal_cost="x1*x1 + x2*x2 + x3*x3",
        horizon=1.0,
        truncation_lower=[-1.0] * 3,
        truncation_upper=[1.0] * 3,
    )


def three_d_mu(u):
    return [dirac(u, [0.0]), dirac(u, [1.0]), mixture([dirac(u, [0.0]), dirac(u, [1.0])], [0.5, 0.5])]


def reference_move(kern):
    """The movement operators built the earlier way: all n_nodes * q^d moved
    points in one interpolation matrix, folded into one row per node by the
    Kronecker product of the identity with the quadrature weights."""
    model = kern.model
    gh_pts, gh_wts = gauss_hermite(kern.grid.quad_order, model.state_dim)
    fold = sparse.kron(sparse.eye(kern.n_nodes, format="csr"), sparse.csr_matrix(gh_wts[None, :]))
    move, clamps = [], 0
    for i in range(1, model.regime_count + 1):
        regs = np.full(kern.n_nodes, i)
        blocks = []
        for mu in kern.mu_candidates:
            mb = MeasureBatch.constant(mu, kern.n_nodes)
            drifted = kern.nodes + model.drift_at(kern.nodes, regs, mb) * kern.dt
            sig = model.diffusion_at(kern.nodes, regs, mb)
            moved = drifted[:, None, :] + np.einsum("nrc,qc->nqr", sig, gh_pts) * np.sqrt(kern.dt)
            mat, clamped = interpolation_matrix(kern.axes, moved.reshape(-1, model.state_dim))
            clamps += clamped
            blocks.append((fold @ mat).tocsr())
        move.append(sparse.vstack(blocks, format="csr"))
    return move, clamps


class TestMovementOperator:
    @pytest.mark.parametrize("case", ["solve_2d", "3d_state_sigma"])
    def test_quadrature_sum_equals_the_kronecker_fold(self, case):
        if case == "solve_2d":
            model, grid = solve_2d_model(), GridSpec(20, [41, 41], 5)
            mu_c = nu_c = candidate_set(model.action_set, 3, 1)
        else:
            model, grid = three_d_model(), GridSpec(4, [7, 6, 5], 3)
            mu_c, nu_c = three_d_mu(model.action_set), [dirac(model.action_set, [0.5])]
        kern = SolverKernels(model, grid, mu_c, nu_c)
        ref, ref_clamps = reference_move(kern)
        assert kern.clamp_count == ref_clamps > 0
        for new, old in zip(kern.move, ref):
            old.eliminate_zeros()
            old.sort_indices()
            assert new.has_canonical_format
            assert np.array_equal(new.indptr, old.indptr)
            assert np.array_equal(new.indices, old.indices)
            assert np.array_equal(new.data, old.data)

    def test_build_peak_is_a_small_multiple_of_the_operators(self):
        # the Kronecker fold peaked at about 18x the operators here
        model = three_d_model()
        u = model.action_set
        tracemalloc.start()
        try:
            kern = SolverKernels(model, GridSpec(4, [9, 9, 9], 5), three_d_mu(u), [dirac(u, [0.5])])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in kern.move)

    def test_value_reads_equal_per_regime_interpolation(self):
        model = make_model(rate12="0.3*x1*x1", rate21="0.2", drift="-x1", diffusion="0.5",
                           running="x1*x1 + i", terminal="abs(x1)", box=1.5)
        u = model.action_set
        vg = solve(model, GridSpec(10, [13], 3), [dirac(u, [0.5])], [dirac(u, [0.0]), dirac(u, [1.0])])
        pts = np.linspace(-2.5, 2.5, 41)[:, None]  # reaches outside the box on both sides
        regimes = np.tile([1, 2], 21)[:41]
        for t in (0.0, 0.4, 1.0):
            k = vg.time_index(t)
            per_regime = [interpolation_matrix(vg.axes, pts)[0] @ vg.values[k][:, j] for j in range(2)]
            expected = np.where(regimes == 1, per_regime[0], per_regime[1])
            assert np.array_equal(vg.values_at(t, pts, regimes), expected)
            assert np.array_equal(vg.value_at(t, pts, 2), per_regime[1])
            assert [vg.value_at(t, p, r) for p, r in zip(pts, regimes)] == expected.tolist()


class TestCandidateMonotonicity:
    def test_enlarging_never_increases(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        small = solve(model, grid, mu_c, [nu_c[1]])  # only the rate-active candidate
        large = solve(model, grid, mu_c, nu_c)
        assert np.all(large.values <= small.values + 1e-12)

        u = model.action_set
        mid = mixture(nu_c, [0.5, 0.5])
        larger = solve(model, grid, mu_c, nu_c + [mid])
        assert np.all(larger.values <= large.values + 1e-12)


class TestResidual:
    def test_one_step_residual_is_zero(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        for k in range(grid.time_steps):
            assert dpp_residual(vg, model, k, k + 1) == 0.0

    def test_two_step_decoupled(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        assert dpp_residual(vg, model, 0, 2) <= 1e-9

    def test_general_coupled_is_first_order(self):
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=1,
            action_set=u,
            rates=RateSpec(2, [[None, "0.2*nu_m(1,0)"], ["0.1", None]], 0.2),
            drift=[["2*mu_m(1,0) - 1"], ["0"]],
            diffusion=[[["0.3"]], [["0.3"]]],
            running_cost="x1*x1 + 0.5*i",
            terminal_cost="abs(x1)",
            horizon=1.0,
            truncation_lower=[-2.0],
            truncation_upper=[2.0],
        )
        grid = GridSpec(5, [17], 3)
        mu_c = [dirac(u, [0.0]), dirac(u, [1.0])]
        nu_c = [dirac(u, [0.0]), dirac(u, [1.0])]
        vg = solve(model, grid, mu_c, nu_c)
        residual = dpp_residual(vg, model, 0, grid.time_steps)
        # window-constant controls differ from per-step ones at O(dt)
        assert 0.0 <= residual <= 10 * vg.dt

    def test_prebuilt_kernels_give_the_same_residual(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        kern = SolverKernels(model, grid, mu_c, nu_c)
        vg = solve(model, grid, mu_c, nu_c, kern)
        assert np.array_equal(vg.values, solve(model, grid, mu_c, nu_c).values)
        for window in ((0, 2), (1, 4)):
            assert dpp_residual(vg, model, *window, kern) == dpp_residual(vg, model, *window)

    def test_bad_window(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        from hybridopt import ValidationError

        with pytest.raises(ValidationError):
            dpp_residual(vg, model, 3, 3)


class TestExtractPolicy:
    def test_pointwise_minimization_oracle(self):
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=1,
            action_set=u,
            rates=RateSpec(2, [[None, "0.05"], ["0.05", None]], 0.1),
            drift=[["0"], ["0"]],
            diffusion=[[["0"]], [["0"]]],
            running_cost="(mu_m(1,0) - (0.25 + 0.5*(i - 1)))^2",
            terminal_cost="0",
            horizon=1.0,
            truncation_lower=[-1.0],
            truncation_upper=[1.0],
        )
        grid = GridSpec(4, [5], 3)
        mu_c = [dirac(u, [v]) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
        nu_c = [dirac(u, [0.5])]
        vg = solve(model, grid, mu_c, nu_c)
        targets = {1: 0.25, 2: 0.75}
        for regime, target in targets.items():
            oracle_idx = int(np.argmin([(m.moment(1, 0) - target) ** 2 for m in mu_c]))
            assert np.all(vg.policy_mu[:, :, regime - 1] == oracle_idx)

    def test_table_control_round_trip(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        policy = extract_policy(vg)
        mi, ni = policy.indices(0.0, np.array([[0.0]]), np.array([1]))
        assert (int(mi[0]), int(ni[0])) == (
            int(vg.policy_mu[0, 4, 0]),
            int(vg.policy_nu[0, 4, 0]),
        )

    def test_consistency_with_simulation(self):
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=1,
            action_set=u,
            rates=RateSpec(2, [[None, "0.2*nu_m(1,0)"], ["0.1", None]], 0.2),
            drift=[["0"], ["0"]],
            diffusion=[[["0.4"]], [["0.2"]]],
            running_cost="0.5*x1*x1 + 0.5*i",
            terminal_cost="x1*x1",
            horizon=1.0,
            truncation_lower=[-2.0],
            truncation_upper=[2.0],
        )
        grid = GridSpec(10, [21], 5)
        mu_c = [dirac(u, [0.5])]
        nu_c = [dirac(u, [0.0]), dirac(u, [1.0])]
        vg = solve(model, grid, mu_c, nu_c)
        policy = extract_policy(vg)
        tol = tol_disc(model, vg)
        v0 = vg.value_at(0.0, [0.0], 1)
        est = monte_carlo_cost(model, policy, 0.0, [0.0], 1, 1.0, vg.dt, 4000, 19)
        assert v0 - 3 * est.stderr - tol <= est.mean <= v0 + 3 * est.stderr + tol

        # value dominance: representable controls cannot beat the grid optimum
        for nu in (nu_c[0], nu_c[1], mixture(nu_c, [0.5, 0.5])):
            other = ConstantControl(mu_c[0], nu)
            cost = monte_carlo_cost(model, other, 0.0, [0.0], 1, 1.0, vg.dt, 2000, 23)
            assert cost.mean >= v0 - 3 * cost.stderr - tol


class TestQuadratureAndSerialization:
    def test_gauss_hermite_moments(self):
        pts, wts = gauss_hermite(5, 1)
        assert wts.sum() == pytest.approx(1.0, abs=1e-15)
        assert float(wts @ pts[:, 0]) == pytest.approx(0.0, abs=1e-12)
        assert float(wts @ pts[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)
        assert float(wts @ pts[:, 0] ** 4) == pytest.approx(3.0, abs=1e-12)

    def test_gauss_hermite_2d(self):
        pts, wts = gauss_hermite(4, 2)
        assert pts.shape == (16, 2)
        cov = np.einsum("q,qi,qj->ij", wts, pts, pts)
        assert np.allclose(cov, np.eye(2), atol=1e-12)

    def test_value_grid_round_trip(self):
        model, grid, mu_c, nu_c = regime_cost_setup()
        vg = solve(model, grid, mu_c, nu_c)
        doc = vg.to_dict()
        again = ValueGrid.from_dict(doc, model.action_set)
        assert np.array_equal(again.values, vg.values)
        assert np.array_equal(again.policy_nu, vg.policy_nu)
        assert again.mu_candidates == vg.mu_candidates

    def test_value_at_interpolates(self):
        model = make_model(regimes=1, drift="0", diffusion="0", running="0", terminal="x1", box=2.0)
        u = model.action_set
        vg = solve(model, GridSpec(4, [9], 3), [dirac(u, [0.5])], [dirac(u, [0.5])])
        assert vg.value_at(0.0, [0.3], 1) == pytest.approx(0.3, abs=1e-12)
        assert vg.value_at(0.0, [5.0], 1) == pytest.approx(2.0, abs=1e-12)  # clamped


class TestTwoDimensional:
    def test_plane_terminal_reproduced_exactly(self):
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=2,
            action_set=u,
            rates=RateSpec(1, [[None]], 0.0),
            drift=[["0", "0"]],
            diffusion=[[["0", "0"], ["0", "0"]]],
            running_cost="0",
            terminal_cost="x1 + 2*x2",
            horizon=0.5,
            truncation_lower=[-1.0, -1.0],
            truncation_upper=[1.0, 1.0],
        )
        vg = solve(model, GridSpec(4, [5, 7], 3), [dirac(u, [0.5])], [dirac(u, [0.5])])
        nodes = vg.nodes
        expected = nodes[:, 0] + 2 * nodes[:, 1]
        for k in range(5):
            assert np.max(np.abs(vg.values[k][:, 0] - expected)) <= 1e-12
        # bilinear interpolation reproduces planes exactly
        assert vg.value_at(0.0, [0.3, -0.45], 1) == pytest.approx(0.3 - 0.9, abs=1e-12)

    def test_isotropic_diffusion_quadratic_value(self):
        u = ActionSet([0.0], [1.0])
        model = HybridModel(
            state_dim=2,
            action_set=u,
            rates=RateSpec(1, [[None]], 0.0),
            drift=[["0", "0"]],
            diffusion=[[["0.3", "0"], ["0", "0.3"]]],
            running_cost="0",
            terminal_cost="x1*x1 + x2*x2",
            horizon=0.5,
            truncation_lower=[-1.0, -1.0],
            truncation_upper=[1.0, 1.0],
        )
        vg = solve(model, GridSpec(5, [17, 17], 5), [dirac(u, [0.5])], [dirac(u, [0.5])])
        # E|x + sigma W_T|^2 = |x|^2 + sigma^2 d T, up to interpolation bias
        exact = 0.0 + 0.3**2 * 2 * 0.5
        assert vg.value_at(0.0, [0.0, 0.0], 1) == pytest.approx(exact, abs=0.05)
