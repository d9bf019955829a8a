"""The batched measure paths against the per-measure forms they replaced.

``reference_measure`` is the per-measure canonicalization that
``DiscreteMeasure.__init__`` ran before construction was batched: checks in
order, then a dict merge of the rounded atoms and a sort of the keys.  The
batched canonicalizer must give the same atoms and weights, bit for bit, and
reject each malformed input with the same exception type and message.  The
moment table and the W1 closed forms are checked bit for bit against the
scalar sums the same way.
"""
import numpy as np
import pytest

from hybridopt import ActionSet, DiscreteMeasure, DomainError, ValidationError, w1_distance
from hybridopt.control import MeasureBatch
from hybridopt.measure_space import MERGE_DECIMALS, WEIGHT_TOL, draw_measure, euclidean, random_measures, segment_sums


def reference_measure(action_set, atoms, weights):
    """(atoms, weights) of one measure, canonicalized one atom at a time."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim == 0:
        atoms = atoms.reshape(1, 1)
    elif atoms.ndim == 1:
        atoms = atoms.reshape(-1, 1) if action_set.dim == 1 else atoms.reshape(1, -1)
    if atoms.ndim != 2 or atoms.shape[1] != action_set.dim:
        raise ValidationError(f"atoms must be points of dimension {action_set.dim}, got shape {atoms.shape}")
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if weights.shape != (atoms.shape[0],):
        raise ValidationError("weights must match the number of atoms")
    if atoms.shape[0] == 0:
        raise ValidationError("a measure needs at least one atom")
    if not np.all(np.isfinite(atoms)):
        raise ValidationError("atoms must be finite")
    if np.any(weights < 0):
        raise ValidationError("weights must be nonnegative")
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
    if not action_set.contains(atoms):
        raise DomainError("atom outside the action set box")
    merged = {}
    for row, key, w in zip(atoms, np.round(atoms, MERGE_DECIMALS), weights):
        if tuple(key) in merged:
            merged[tuple(key)][1] += w
        else:
            merged[tuple(key)] = [row, w]
    kept = [(a, w) for _, (a, w) in sorted(merged.items(), key=lambda kv: kv[0]) if w > 0.0]
    if not kept:
        raise ValidationError("all atoms carry zero weight")
    return np.array([a for a, _ in kept], dtype=float), np.array([w for _, w in kept], dtype=float)


def same_bits(measure, reference):
    atoms, weights = reference
    return measure.atoms.tobytes() == atoms.tobytes() and measure.weights.tobytes() == weights.tobytes()


UNIT = ActionSet([0.0], [1.0])
SQUARE = ActionSet([0.0, 0.0], [1.0, 1.0])

# (action set, atoms, weights) of well-formed inputs
CASES = [
    (UNIT, [[0.5], [0.5 + 1e-14], [0.2]], [0.25, 0.25, 0.5]),          # coincide at 1e-12
    (UNIT, [[0.3], [0.3 + 4e-13], [0.3 - 4e-13]], [0.1, 0.2, 0.7]),   # three merged, input-order sum
    (UNIT, [[0.9], [0.1], [0.5], [0.7]], [0.1, 0.2, 0.3, 0.4]),         # unsorted support
    (UNIT, [[0.9], [0.1], [0.4]], [0.0, 1.0, 0.0]),                     # zero weights dropped
    (UNIT, [[0.4], [0.4]], [0.0, 1.0]),                                 # zero weight merged into a kept atom
    (UNIT, [0.6, 0.2], [0.5, 0.5]),                                     # 1-D convenience: a vector of atoms
    (UNIT, 0.25, 1.0),                                                  # 1-D convenience: a scalar
    (UNIT, [[0.0]], [1.0]),                                             # single atom on the boundary
    (SQUARE, [0.3, 0.7], [1.0]),                                        # single point given as a vector
    (SQUARE, [[0.5, 0.2], [0.5, 0.1], [0.2, 0.9], [0.5 + 1e-14, 0.2]], [0.1, 0.2, 0.3, 0.4]),
    (SQUARE, [[1.0, 0.0], [0.0, 1.0]], [0.5 - 1e-13, 0.5 + 1e-13]),
    (SQUARE, [[-0.0, 0.5], [0.0, 0.5]], [0.5, 0.5]),                    # -0.0 and 0.0 coincide
]


class TestBatchedCanonicalizer:
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_single_measure_matches_reference(self, case):
        action_set, atoms, weights = CASES[case]
        assert same_bits(DiscreteMeasure(action_set, atoms, weights), reference_measure(action_set, atoms, weights))

    def test_batch_matches_reference(self):
        for action_set in (UNIT, SQUARE):
            cases = [c for c in CASES if c[0] is action_set]
            batch = DiscreteMeasure.batch(action_set, [c[1] for c in cases], [c[2] for c in cases])
            assert len(batch) == len(cases)
            for m, (_, atoms, weights) in zip(batch, cases):
                assert m.action_set is action_set
                assert same_bits(m, reference_measure(action_set, atoms, weights))

    def test_random_batches_match_reference(self):
        gen = np.random.default_rng(11)
        for action_set in (UNIT, SQUARE, ActionSet([0.0] * 3, [1.0] * 3)):
            atoms, weights = [], []
            for _ in range(300):
                m = int(gen.integers(1, 12))
                # snap to a coarse grid so that many atoms coincide
                pts = np.round(gen.random((m, action_set.dim)) * 4) / 4
                raw = gen.random(m) * (gen.random(m) < 0.8)
                raw[0] += 1e-3
                atoms.append(pts)
                weights.append(raw / raw.sum())
            for m, a, w in zip(DiscreteMeasure.batch(action_set, atoms, weights), atoms, weights):
                assert same_bits(m, reference_measure(action_set, a, w))

    def test_init_equals_batch_of_one(self):
        for action_set, atoms, weights in CASES:
            (one,) = DiscreteMeasure.batch(action_set, [atoms], [weights])
            m = DiscreteMeasure(action_set, atoms, weights)
            assert m == one and same_bits(m, (one.atoms, one.weights))

    def test_results_are_read_only(self):
        m = DiscreteMeasure(UNIT, [[0.2], [0.8]], [0.5, 0.5])
        with pytest.raises(ValueError):
            m.weights[0] = 1.0
        with pytest.raises(ValueError):
            m.atoms[0, 0] = 1.0

    def test_empty_batch(self):
        assert DiscreteMeasure.batch(UNIT, [], []) == []


# (action set, atoms, weights) each rejected by one check of the canonicalizer
MALFORMED = [
    (SQUARE, [[0.1, 0.2, 0.3]], [1.0]),                # wrong dimension
    (SQUARE, 0.5, [1.0]),                              # a scalar on a 2-D box
    (UNIT, [[0.1], [0.2]], [1.0]),                     # weights do not match the atoms
    (UNIT, np.zeros((0, 1)), []),                      # no atom
    (UNIT, [[np.nan], [0.2]], [0.5, 0.5]),             # not finite
    (UNIT, [[0.2], [0.8]], [1.2, -0.2]),               # negative weight
    (UNIT, [[0.5]], [0.9]),                            # sum off by 0.1
    (UNIT, [[0.1], [0.2], [0.3]], [0.1, 0.2, 0.3]),    # message shows np.sum's total, 0.6
    (UNIT, [[0.5], [0.6]], [0.5, 0.5 + 3e-12]),        # sum off just past the tolerance
    (UNIT, [[0.5], [1.5]], [0.5, 0.5]),                # outside the box
    (UNIT, [[0.5]], [np.nan]),                         # a NaN weight passes the sum, then is dropped
]


def reference_error(action_set, atoms, weights):
    with pytest.raises((ValidationError, DomainError)) as info:
        reference_measure(action_set, atoms, weights)
    return type(info.value), str(info.value)


class TestRejections:
    @pytest.mark.parametrize("case", range(len(MALFORMED)))
    def test_single_input(self, case):
        action_set, atoms, weights = MALFORMED[case]
        kind, message = reference_error(action_set, atoms, weights)
        with pytest.raises(kind) as info:
            DiscreteMeasure(action_set, atoms, weights)
        assert type(info.value) is kind and str(info.value) == message

    @pytest.mark.parametrize("case", range(len(MALFORMED)))
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_malformed_input_in_a_batch(self, case, position):
        action_set, atoms, weights = MALFORMED[case]
        kind, message = reference_error(action_set, atoms, weights)
        gen = np.random.default_rng(position)
        good = random_measures(action_set, [draw_measure(gen, action_set) for _ in range(4)])
        atoms_seq = [m.atoms for m in good]
        weights_seq = [m.weights for m in good]
        atoms_seq.insert(position, atoms)
        weights_seq.insert(position, weights)
        with pytest.raises(kind) as info:
            DiscreteMeasure.batch(action_set, atoms_seq, weights_seq)
        assert type(info.value) is kind and str(info.value) == message


def reduceat_table(pool, exponent, coordinate):
    """The moment table by np.add.reduceat, which adds left to right."""
    sizes = np.array([m.size for m in pool])
    terms = np.concatenate([m.weights * m.atoms[:, coordinate] ** exponent for m in pool])
    return np.add.reduceat(terms, np.cumsum(sizes) - sizes)


def padded_table(pool, exponent, coordinate):
    """The moment table as row sums of a zero-padded (pool, max atoms) array."""
    width = max(m.size for m in pool)
    terms = np.zeros((len(pool), width))
    for row, m in enumerate(pool):
        terms[row, : m.size] = m.weights * m.atoms[:, coordinate] ** exponent
    return terms.sum(axis=1)


def pool_of(gen, action_set, sizes):
    out = []
    for m in sizes:
        raw = gen.random(m) + 1e-3
        atoms = action_set.lower + gen.random((m, action_set.dim)) * (action_set.upper - action_set.lower)
        out.append(DiscreteMeasure(action_set, atoms, raw / raw.sum()))
    return out


class TestMomentTable:
    @pytest.mark.parametrize("exponent", [0, 1, 2, 3])
    @pytest.mark.parametrize("coordinate", [0, 1])
    def test_bit_identical_to_scalar_moments(self, exponent, coordinate):
        gen = np.random.default_rng(3 + exponent)
        box = ActionSet([-1.0, 0.0], [2.0, 3.0])
        pool = pool_of(gen, box, gen.integers(1, 7, 400))
        table = MeasureBatch(pool, np.arange(len(pool))).moment(exponent, coordinate)
        scalar = np.array([m.moment(exponent, coordinate) for m in pool])
        assert table.tobytes() == scalar.tobytes()

    def test_pool_tells_the_reduceat_form_apart(self):
        gen = np.random.default_rng(8)
        pool = pool_of(gen, ActionSet([0.0], [1.0]), [3] * 200)
        scalar = np.array([m.moment(1, 0) for m in pool])
        assert reduceat_table(pool, 1, 0).tobytes() != scalar.tobytes()
        assert MeasureBatch(pool, np.arange(200)).moment(1, 0).tobytes() == scalar.tobytes()

    def test_wide_pool_tells_the_padded_form_apart(self):
        # zero padding past 8 terms changes np.sum's pairwise grouping
        gen = np.random.default_rng(9)
        pool = pool_of(gen, ActionSet([0.0], [1.0]), [4, 12] * 100)
        scalar = np.array([m.moment(1, 0) for m in pool])
        assert padded_table(pool, 1, 0).tobytes() != scalar.tobytes()
        assert MeasureBatch(pool, np.arange(200)).moment(1, 0).tobytes() == scalar.tobytes()

    def test_segment_sums_match_np_sum(self):
        gen = np.random.default_rng(10)
        sizes = gen.integers(1, 40, 300)
        values = gen.random(int(sizes.sum())) * 10.0 ** gen.integers(-8, 8, int(sizes.sum()))
        starts = np.cumsum(sizes) - sizes
        expected = np.array([np.sum(values[s : s + n]) for s, n in zip(starts, sizes)])
        assert segment_sums(values, sizes).tobytes() == expected.tobytes()

    def test_gathers_are_cached_and_read_only(self):
        gen = np.random.default_rng(12)
        pool = pool_of(gen, UNIT, [1, 2, 3])
        batch = MeasureBatch(pool, [2, 0, 0, 1])
        first = batch.moment(1, 0)
        assert batch.moment(1, 0) is first
        with pytest.raises(ValueError):
            first[0] = 0.0
        part = batch.take([1, 3])
        assert part.moment(1, 0).tobytes() == first[[1, 3]].tobytes()
        assert part._moments is batch._moments

    def test_argument_checks(self):
        batch = MeasureBatch.constant(DiscreteMeasure(UNIT, [0.5], [1.0]), 3)
        with pytest.raises(ValidationError, match="nonnegative integer"):
            batch.moment(-1, 0)
        with pytest.raises(ValidationError, match="out of range"):
            batch.moment(1, 1)


def reference_closed_form(mu, nu):
    """W1 of an equal pair or a pair with a one-atom side, one pair at a time:
    the order of ``_ordered`` (by canonical key), then np.sum over the spread."""
    a, b = (nu, mu) if nu.canonical_key() < mu.canonical_key() else (mu, nu)
    if a.canonical_key() == b.canonical_key():
        return 0.0
    point, spread = (a, b) if a.size == 1 else (b, a)
    return float(np.sum(spread.weights * euclidean(spread.atoms - point.atoms[0])))


class TestBatchedClosedForms:
    @pytest.mark.parametrize("action_set", [UNIT, SQUARE])
    def test_bit_identical_to_per_pair_forms(self, action_set):
        gen = np.random.default_rng(13)
        pool = pool_of(gen, action_set, gen.integers(1, 11, 300))
        # single atoms whose weights differ from 1 in the last bits, so the
        # order of two single atoms decides which weight multiplies
        pool += [
            DiscreteMeasure(action_set, gen.random((1, action_set.dim)), [w])
            for w in gen.choice([1.0 - 4e-16, 1.0, 1.0 - 1.1e-16 * 3], 100)
        ]
        mu, nu = [], []
        for _ in range(600):
            i, j = gen.integers(0, len(pool), 2)
            if pool[i].size != 1 and pool[j].size != 1:
                j = int(gen.integers(300, len(pool)))
            mu.append(pool[i])
            nu.append(pool[i] if gen.random() < 0.1 else pool[j])
        expected = np.array([reference_closed_form(a, b) for a, b in zip(mu, nu)])
        assert w1_distance(mu, nu).tobytes() == expected.tobytes()
        assert w1_distance(nu, mu).tobytes() == expected.tobytes()

    def test_equal_copies_are_zero(self):
        a = DiscreteMeasure(SQUARE, [[0.1, 0.2], [0.3, 0.4]], [0.25, 0.75])
        b = DiscreteMeasure(SQUARE, [[0.3, 0.4], [0.1, 0.2]], [0.75, 0.25])
        assert np.array_equal(w1_distance([a, a], [b, a]), [0.0, 0.0])

    def test_mixed_dimensions_in_one_call(self):
        # one call takes one dimension; each dimension's batch equals its pairs one at a time
        gen = np.random.default_rng(14)
        pairs = [tuple(random_measures(s, [draw_measure(gen, s) for _ in range(2)])) for s in (UNIT, SQUARE, UNIT, SQUARE)]
        with pytest.raises(ValidationError, match=r"one action-set dimension, got \[1, 2\]"):
            w1_distance([p for p, _ in pairs], [q for _, q in pairs])
        for same in (pairs[0::2], pairs[1::2]):
            batch = w1_distance([p for p, _ in same], [q for _, q in same])
            assert batch.tolist() == [w1_distance([p], [q])[0] for p, q in same]
