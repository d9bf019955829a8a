import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridopt import (
    ActionSet,
    CapacityError,
    DiscreteMeasure,
    DomainError,
    ValidationError,
    dirac,
    euclidean,
    mixture,
    moment,
    w1_distance,
    w1_sorted_cdf,
    w1_transport_lp,
)


def transport_vertex_oracle(mu, nu):
    """Independent dense LP oracle: enumerate the basic feasible solutions of
    the transportation polytope (supports of size m + n - 1), solve each
    linear system, and keep the cheapest feasible one.  Exhaustive over all
    vertices, so it is the exact optimum for small supports."""
    m, n = mu.size, nu.size
    cost = np.sqrt(np.sum((mu.atoms[:, None, :] - nu.atoms[None, :, :]) ** 2, axis=-1))
    cells = list(itertools.product(range(m), range(n)))
    rhs = np.concatenate([mu.weights, nu.weights[:-1]])  # last column constraint is redundant
    best = np.inf
    for subset in itertools.combinations(cells, m + n - 1):
        a = np.zeros((m + n - 1, m + n - 1))
        for col, (i, j) in enumerate(subset):
            a[i, col] = 1.0
            if j < n - 1:
                a[m + j, col] = 1.0
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(x >= -1e-9):
            best = min(best, float(sum(v * cost[i, j] for v, (i, j) in zip(x, subset))))
    return best


def random_measure(gen, action_set, max_atoms=6):
    m = int(gen.integers(1, max_atoms + 1))
    atoms = action_set.lower + gen.random((m, action_set.dim)) * (action_set.upper - action_set.lower)
    raw = gen.random(m) + 1e-3
    return DiscreteMeasure(action_set, atoms, raw / raw.sum())


class TestActionSet:
    def test_diameter(self, unit_square):
        assert unit_square.diameter == pytest.approx(math.sqrt(2.0))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            ActionSet([0.0], [0.0])
        with pytest.raises(ValidationError):
            ActionSet([1.0], [0.0])


class TestDirac:
    def test_on_interval(self, unit_interval):
        d = dirac(unit_interval, [0.5])
        assert d.atoms.tolist() == [[0.5]]
        assert d.weights.tolist() == [1.0]

    def test_outside_box(self, unit_interval):
        with pytest.raises(DomainError):
            dirac(unit_interval, [2.0])

    def test_on_square(self):
        u = ActionSet([-1.0, -1.0], [1.0, 1.0])
        d = dirac(u, [0.0, 0.0])
        assert d.atoms.tolist() == [[0.0, 0.0]]
        assert d.weights.tolist() == [1.0]


class TestMixture:
    def test_two_diracs(self, unit_interval):
        d0, d1 = dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])
        m = mixture([d0, d1], [0.5, 0.5])
        assert m.atoms[:, 0].tolist() == [0.0, 1.0]
        assert m.weights.tolist() == [0.5, 0.5]

    def test_identity(self, unit_interval):
        d0 = dirac(unit_interval, [0.0])
        assert mixture([d0], [1.0]) == d0

    def test_merges_duplicates(self, unit_interval):
        d0, d1 = dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])
        half = mixture([d0, d1], [0.5, 0.5])
        m = mixture([half, d1], [0.5, 0.5])
        assert m.atoms[:, 0].tolist() == [0.0, 1.0]
        assert m.weights.tolist() == [0.25, 0.75]

    def test_bad_coefficients(self, unit_interval):
        d0 = dirac(unit_interval, [0.0])
        with pytest.raises(ValidationError):
            mixture([d0, d0], [0.5, 0.6])


class TestMoment:
    def test_dirac(self):
        u = ActionSet([0.0], [5.0])
        assert moment(dirac(u, [2.0]), 1, 0) == 2.0

    def test_mixture_first_and_second(self, unit_interval):
        m = mixture([dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])], [0.5, 0.5])
        assert moment(m, 1, 0) == 0.5
        assert moment(m, 2, 0) == 0.5

    def test_bad_coordinate(self, unit_interval):
        with pytest.raises(ValidationError):
            moment(dirac(unit_interval, [0.5]), 1, 3)


class TestW1:
    def test_dirac_pair(self):
        u = ActionSet([0.0], [5.0])
        assert w1_distance(dirac(u, [1.0]), dirac(u, [4.0])) == 3.0

    def test_identity_zero(self, unit_square):
        gen = np.random.default_rng(3)
        m = random_measure(gen, unit_square)
        assert w1_distance(m, m) == 0.0

    def test_half_mass_move(self, unit_interval):
        m = mixture([dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])], [0.5, 0.5])
        assert w1_distance(m, dirac(unit_interval, [0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_action_sets(self, unit_interval, unit_square):
        gen = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            w1_distance(random_measure(gen, unit_interval), random_measure(gen, unit_square))

    def test_support_cap(self, unit_interval):
        atoms = np.linspace(0, 1, 3000).reshape(-1, 1)
        big = DiscreteMeasure(unit_interval, atoms, np.full(3000, 1 / 3000))
        atoms2 = np.linspace(0, 1, 2000).reshape(-1, 1)
        big2 = DiscreteMeasure(unit_interval, atoms2, np.full(2000, 1 / 2000))
        with pytest.raises(CapacityError):
            w1_distance(big, big2)

    def test_lp_matches_vertex_oracle_on_shrunk_supports(self, unit_square):
        # random 10-atom measures, shrunk to their first 3 atoms (weights
        # renormalized): the exhaustive vertex check is then affordable
        gen = np.random.default_rng(42)
        for _ in range(8):
            big_a = random_measure(gen, unit_square, max_atoms=10)
            big_b = random_measure(gen, unit_square, max_atoms=10)
            a = DiscreteMeasure(
                unit_square, big_a.atoms[:3], big_a.weights[:3] / big_a.weights[:3].sum()
            )
            b = DiscreteMeasure(
                unit_square, big_b.atoms[:3], big_b.weights[:3] / big_b.weights[:3].sum()
            )
            assert w1_distance(a, b) == pytest.approx(transport_vertex_oracle(a, b), abs=1e-9)

    def test_cdf_matches_lp_in_1d(self, unit_interval):
        gen = np.random.default_rng(7)
        for _ in range(25):
            a = random_measure(gen, unit_interval)
            b = random_measure(gen, unit_interval)
            assert w1_sorted_cdf(a, b) == pytest.approx(w1_transport_lp(a, b), abs=1e-9)

    def test_translation_invariance_1d(self):
        gen = np.random.default_rng(11)
        u = ActionSet([0.0], [1.0])
        shifted = ActionSet([2.5], [3.5])
        for _ in range(10):
            a = random_measure(gen, u)
            b = random_measure(gen, u)
            a2 = DiscreteMeasure(shifted, a.atoms + 2.5, a.weights)
            b2 = DiscreteMeasure(shifted, b.atoms + 2.5, b.weights)
            assert w1_distance(a, b) == pytest.approx(w1_distance(a2, b2), abs=1e-12)


class TestBatchedW1:
    def test_batch_matches_vertex_oracle_and_is_symmetric(self, unit_square):
        # 3-atom pairs (LP blocks), each also reversed and repeated, plus a
        # Dirac pair and an equal pair, all in one call
        gen = np.random.default_rng(11)
        pairs = []
        for _ in range(6):
            a, b = (
                DiscreteMeasure(unit_square, gen.random((3, 2)), w / w.sum())
                for w in (gen.random(3) + 1e-3, gen.random(3) + 1e-3)
            )
            pairs += [(a, b), (b, a), (a, b)]
        point = dirac(unit_square, [0.2, 0.9])
        pairs += [(point, pairs[0][0]), (pairs[0][1], pairs[0][1])]
        values = w1_distance([p for p, _ in pairs], [q for _, q in pairs])
        assert isinstance(values, np.ndarray) and values.shape == (len(pairs),)
        for (a, b), v in zip(pairs, values):
            assert v == pytest.approx(transport_vertex_oracle(a, b), abs=1e-9)
        for k in range(0, 18, 3):
            assert values[k] == values[k + 1] == values[k + 2]
        assert values[-1] == 0.0
        # a single pair is a batch of one and returns a float
        single = w1_transport_lp(*pairs[0])
        assert isinstance(single, float)
        assert single == pytest.approx(values[0], abs=1e-12)

    def test_lp_batch_of_one_dimensional_pairs_matches_cdf(self, unit_interval):
        gen = np.random.default_rng(8)
        a = [random_measure(gen, unit_interval) for _ in range(20)]
        b = [random_measure(gen, unit_interval) for _ in range(20)]
        lp = w1_transport_lp(a, b)
        assert np.allclose(lp, [w1_sorted_cdf(p, q) for p, q in zip(a, b)], rtol=0.0, atol=1e-9)
        assert w1_transport_lp([], []).shape == (0,)

    def test_sequences_checked_per_pair(self, unit_interval, unit_square):
        gen = np.random.default_rng(2)
        a, b = random_measure(gen, unit_square), random_measure(gen, unit_square)
        with pytest.raises(ValidationError):
            w1_distance([a, b], [b])
        with pytest.raises(ValidationError):
            w1_distance([a, b], [b, random_measure(gen, unit_interval)])
        big = DiscreteMeasure(unit_interval, np.linspace(0, 1, 4096).reshape(-1, 1), np.full(4096, 1 / 4096))
        with pytest.raises(CapacityError):
            w1_transport_lp([dirac(unit_interval, [0.5]), big], [dirac(unit_interval, [0.1]), big])


class TestMetricAxioms:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2]))
    def test_axioms(self, seed, dim):
        action_set = ActionSet([0.0] * dim, [1.0] * dim)
        gen = np.random.default_rng(seed)
        a, b, c = (random_measure(gen, action_set, max_atoms=4) for _ in range(3))
        dab, dba = w1_distance(a, b), w1_distance(b, a)
        assert dab == dba  # exact symmetry by canonical argument ordering
        assert dab >= 0.0
        assert w1_distance(a, a) == 0.0
        assert w1_distance(a, c) <= dab + w1_distance(b, c) + 1e-9
        assert dab <= action_set.diameter + 1e-9

    def test_zero_iff_equal_after_merge(self, unit_interval):
        a = DiscreteMeasure(unit_interval, [[0.25], [0.25], [0.75]], [0.25, 0.25, 0.5])
        b = DiscreteMeasure(unit_interval, [[0.75], [0.25]], [0.5, 0.5])
        assert a == b
        assert w1_distance(a, b) == 0.0
        c = DiscreteMeasure(unit_interval, [[0.75], [0.25]], [0.51, 0.49])
        assert w1_distance(a, c) > 0.0


class TestCanonicalization:
    def test_merge_at_resolution(self, unit_interval):
        a = DiscreteMeasure(unit_interval, [[0.5], [0.5 + 1e-14]], [0.5, 0.5])
        assert a.size == 1
        assert a.atoms[0, 0] == 0.5

    def test_weights_must_sum_to_one(self, unit_interval):
        with pytest.raises(ValidationError):
            DiscreteMeasure(unit_interval, [[0.5]], [0.9])

    def test_negative_weight_rejected(self, unit_interval):
        with pytest.raises(ValidationError):
            DiscreteMeasure(unit_interval, [[0.2], [0.8]], [1.2, -0.2])

    def test_json_round_trip(self, unit_square):
        gen = np.random.default_rng(5)
        m = random_measure(gen, unit_square)
        again = DiscreteMeasure.from_dict(unit_square, m.to_dict())
        assert again == m

    def test_euclidean_helper_matches_formula(self):
        v = np.array([0.3, 0.4])
        assert euclidean(v) == math.sqrt(float(np.sum(v * v)))
