import tracemalloc

import numpy as np
import pytest

from hybridopt import (
    CandidateMap,
    ConstantControl,
    MarkovControl,
    ValidationError,
    batch_costs,
    dirac,
    monte_carlo_cost,
    rng,
    simulate_paths,
)
from tests.conftest import const_control, make_model


def single_cost(model, x0):
    """batch_costs of a batch of one path on the 0.25 grid over [0, 1]."""
    batch = simulate_paths(model, const_control(model), 0.0, x0, 1, 1.0, 0.25, 0, 1)
    costs = batch_costs(model, batch)
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
        batch = simulate_paths(chain_model, control, 0.0, [0.0], 1, 1.0, 0.01, 3, 16)
        vec = batch_costs(chain_model, batch)
        # running cost i, terminal 0: the left-point sum of the regime path
        closed = 0.01 * batch.regimes[:, :-1].sum(axis=1)
        np.testing.assert_allclose(vec, closed, rtol=0, atol=1e-12)
        # path j costs the same as the last path of the batch 0..j
        for j in (0, 7, 15):
            prefix = simulate_paths(chain_model, control, 0.0, [0.0], 1, 1.0, 0.01, 3, j + 1)
            assert batch_costs(chain_model, prefix)[j] == vec[j]


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
        # chunked estimation keeps one chunk's states plus the cost vector
        def peak(paths):
            tracemalloc.start()
            try:
                monte_carlo_cost(chain_model, const_control(chain_model), 0.0, [0.0], 1, 1.0, 0.1, paths, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * rng.BLOCK_PATHS) < 2 * peak(2 * rng.BLOCK_PATHS)

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
