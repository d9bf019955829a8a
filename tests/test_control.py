import json
import math

import numpy as np
import pytest

from hybridopt import (
    ActionSet,
    CandidateMap,
    CapacityError,
    ConstantControl,
    MarkovControl,
    PathDependentControl,
    ValidationError,
    candidate_set,
    dirac,
    mixture,
    simulate_chunks,
    w1_distance,
)
from tests.conftest import const_control, make_model


def short_history(model, control, t_end=1.0, dt=0.25):
    [path] = simulate_chunks(model, control, 0.0, [0.0], 1, t_end, dt, 1, 1)
    return path


def measures_at(control, batch, k, states=None):
    """The (mu, nu) pair the control picks for path 0 at step k from its
    recorded history; where the engine stored indices, they must agree."""
    states = batch.states if states is None else states
    mi, ni = control.indices(float(batch.times[k]), states[:1, k], batch.regimes[:1, k], states[:1, : k + 1])
    if k < batch.mu_idx.shape[1] and states is batch.states:
        assert (int(mi[0]), int(ni[0])) == (batch.mu_idx[0, k], batch.nu_idx[0, k])
    return control.mu_pool[int(mi[0])], control.nu_pool[int(ni[0])]


class TestEvaluate:
    def test_constant_ignores_history(self, unit_interval):
        model = make_model(rate12="0.4", rate_bound=0.4, drift="0", diffusion="0")
        control = const_control(model, 0.3, 0.7)
        path = short_history(model, control)
        for k in (0, 2, 4):  # t = 0, 0.5, 1
            mu, nu = measures_at(control, path, k)
            assert mu == dirac(unit_interval, [0.3])
            assert nu == dirac(unit_interval, [0.7])

    def test_markov_reads_current_regime(self, unit_interval):
        model = make_model(rate12="4", rate_bound=4.0, drift="0", diffusion="0", horizon=2.0)
        d0, d1 = dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])
        control = MarkovControl(
            CandidateMap([d0, d1], index_expr="i - 1"),
            CandidateMap([d0], per_regime=[0, 0]),
        )
        [path] = simulate_chunks(model, control, 0.0, [0.0], 1, 2.0, 0.025, 3, 1)
        assert path.regimes[0, -1] == 2  # rate 4 over two units of time: switched almost surely
        mu, _ = measures_at(control, path, len(path.times) - 1)
        assert mu == d1

    def test_markov_invariant_to_earlier_history(self, unit_interval):
        model = make_model(regimes=1, drift="0", diffusion="1", box=8.0)
        d0, d1 = dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])
        control = MarkovControl(
            CandidateMap([d0, d1], index_expr="min(1, max(0, x1))"),
            CandidateMap([d0], per_regime=[0]),
        )
        path = short_history(model, control, dt=0.25)
        k = 3  # t = 0.75
        mu_ref, _ = measures_at(control, path, k)
        mutated = path.states.copy()
        mutated[:, 0] += 5.0  # only history strictly before t changes
        mu_mut, _ = measures_at(control, path, k, mutated)
        assert mu_mut == mu_ref

    def test_path_dependent_window_statistic(self, unit_interval):
        model = make_model(regimes=1, drift="1", diffusion="0", box=8.0)
        d0, d1 = dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])
        control = PathDependentControl(
            window=2,
            statistic="max",
            coordinate=0,
            bucket_edges=[0.5],
            mu_candidates=[d0, d1],
            mu_map=[0, 1],
            nu_candidates=[d0],
            nu_map=[0, 0],
        )
        [path] = simulate_chunks(model, control, 0.0, [0.0], 1, 1.0, 0.25, 2, 1)
        # running max crosses 0.5 at t = 0.75 (x = 0.75)
        assert measures_at(control, path, 1)[0] == d0
        assert measures_at(control, path, 3)[0] == d1


class TestTableLookup:
    def test_nearest_node_and_slice(self, unit_interval):
        from hybridopt import GridSpec, TableControl, ValueGrid

        d0, d1 = dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])
        policy_mu = np.zeros((2, 3, 1), dtype=np.intp)
        policy_mu[0, 2, 0] = 1  # slice 0, node x=1.0 picks candidate 1
        policy_mu[1, 0, 0] = 1  # slice 1, node x=-1.0 picks candidate 1
        policy_nu = np.zeros((2, 3, 1), dtype=np.intp)
        vg = ValueGrid(
            GridSpec(2, [3]), [[-1.0, 0.0, 1.0]], [0.0, 0.5, 1.0], np.zeros((3, 3, 1)),
            policy_mu, policy_nu, [d0, d1], [d0, d1],
        )
        control = TableControl(vg)
        mi, ni = control.indices(0.0, np.array([[0.9]]), np.array([1]), np.array([[[0.9]]]))
        assert (int(mi[0]), int(ni[0])) == (1, 0)
        mi, _ = control.indices(0.0, np.array([[0.4]]), np.array([1]), np.array([[[0.4]]]))
        assert int(mi[0]) == 0  # nearest node is x = 0
        mi, _ = control.indices(0.6, np.array([[0.9]]), np.array([1]), np.array([[[0.9]]]))
        assert int(mi[0]) == 0  # slice 1
        mi, _ = control.indices(1.0, np.array([[-0.9]]), np.array([1]), np.array([[[-0.9]]]))
        assert int(mi[0]) == 1  # t = T has no policy slice of its own: the last one is read

    def test_simulate_csv_same_across_workers(self, tmp_path):
        from hybridopt import cli

        model, control = tmp_path / "model.json", tmp_path / "control.json"
        cli.write_demo_config(model, control)
        grid = tmp_path / "vg.json"
        assert cli.main(["solve", "--model", str(model), "--grid-nt", "4", "--grid-nx", "5", "--out", str(grid)]) == 0
        control.write_text(json.dumps({"kind": "table", "artifact": str(grid)}))
        outs = []
        for workers in (1, 2):
            outs.append(tmp_path / f"paths_w{workers}.csv")
            argv = ["simulate", "--model", str(model), "--control", str(control), "--paths", "5000",
                    "--dt", "0.25", "--seed", "3", "--workers", str(workers), "--out", str(outs[-1])]
            assert cli.main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestCandidateSet:
    def test_two_atoms_one_level(self, unit_interval):
        fam = candidate_set(unit_interval, 2, 1)
        assert sorted(m.atoms[0, 0] for m in fam) == [0.0, 1.0]
        assert all(m.size == 1 for m in fam)

    def test_two_atoms_two_levels(self, unit_interval):
        fam = candidate_set(unit_interval, 2, 2)
        keys = sorted(tuple(zip(m.atoms[:, 0].tolist(), m.weights.tolist())) for m in fam)
        assert keys == [
            ((0.0, 0.5), (1.0, 0.5)),
            ((0.0, 1.0),),
            ((1.0, 1.0),),
        ]

    def test_three_atoms_diracs(self, unit_interval):
        fam = candidate_set(unit_interval, 3, 1)
        assert sorted(m.atoms[0, 0] for m in fam) == [0.0, 0.5, 1.0]

    def test_size_formula_and_dirac_count(self, unit_interval):
        for a, levels in ((2, 3), (3, 2), (4, 2)):
            fam = candidate_set(unit_interval, a, levels)
            assert len(fam) == math.comb(levels + a - 1, a - 1)
            diracs = [m for m in fam if m.size == 1]
            assert len(diracs) == a

    def test_capacity_error(self, unit_square):
        with pytest.raises(CapacityError):
            candidate_set(unit_square, 10, 10)

    def test_single_atom_is_midpoint(self, unit_interval):
        fam = candidate_set(unit_interval, 1, 1)
        assert len(fam) == 1
        assert fam[0].atoms[0, 0] == 0.5

    def test_net_property(self, unit_interval):
        # random measures supported on the atom grid sit within K / levels of
        # the family
        gen = np.random.default_rng(4)
        for levels in (1, 2, 4):
            fam = candidate_set(unit_interval, 3, levels)
            atoms = np.array([[0.0], [0.5], [1.0]])
            for _ in range(20):
                raw = gen.random(3) + 1e-6
                from hybridopt import DiscreteMeasure

                target = DiscreteMeasure(unit_interval, atoms, raw / raw.sum())
                nearest = min(w1_distance([target] * len(fam), fam))
                assert nearest <= unit_interval.diameter / levels + 1e-12

    def test_pairwise_within_diameter(self, unit_square):
        fam = candidate_set(unit_square, 2, 2)
        pairs = [(a, b) for a in fam for b in fam]
        assert np.all(w1_distance(*zip(*pairs)) <= unit_square.diameter + 1e-9)
