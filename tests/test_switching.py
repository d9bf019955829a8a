import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridopt import (
    ActionSet,
    BoundViolationError,
    MeasureBatch,
    ModelError,
    RateSpec,
    StepSizeError,
    ValidationError,
    dirac,
    mixture,
    transition_matrix,
    w1_distance,
)
from hybridopt.dpp_solver import GridSpec, SolverKernels
from hybridopt.dynamics import simulate_chunks
from hybridopt.switching import (
    _RATE_TOL,
    DT_RATE_CAP,
    _poisson_degree,
    interval_draw,
    jump_kernel,
    pick_regime,
    transition_rows_batch,
)
from tests.conftest import const_control, make_model

X0 = np.zeros(1)


def reference_rows(rates, regimes, x, dt):
    """The (n, N, N) form of the uniformized rows: the kernel from
    ``off_diagonal`` and its (n, N, N) exit-rate sum, one einsum over the
    regimes per term, then the stay entry as the complement."""
    big_lam = rates.rate_bound + _RATE_TOL
    lam = dt * big_lam
    q = rates.off_diagonal(x, None)
    diag = np.arange(q.shape[1])
    p = q / big_lam
    p[:, diag, diag] = 1.0 - q.sum(axis=-1) / big_lam
    a = p * lam
    rows, stay = np.arange(a.shape[0]), np.asarray(regimes) - 1
    term = np.zeros(a.shape[:2])
    term[rows, stay] = math.exp(-lam)
    acc = term.copy()
    for k in range(1, _poisson_degree(lam) + 1):
        term = np.einsum("nj,njk->nk", term, a) / k
        acc += term
    acc[rows, stay] = 0.0
    # the same order over j as the path-last sum: regime by regime, in index order
    acc[rows, stay] = 1.0 - acc.T.copy().sum(axis=0)
    return acc


def random_rows_case(n, rows, dt_m, seed):
    """Asymmetric rates q_ij = x_{iN+j+1} with exit rates up to M = 2 (reached by
    the first row), at dt = dt_m / M; returns the rates, regimes, states and dt."""
    gen = np.random.default_rng(seed)
    off = gen.random((rows, n, n)) * (gen.random((rows, n, n)) < 0.8)
    off[:, np.arange(n), np.arange(n)] = 0.0
    off *= 2.0 * gen.random((rows, 1, 1)) / np.maximum(off.sum(axis=-1).max(axis=-1), 1e-300)[:, None, None]
    off[0] *= 2.0 / max(float(off[0].sum(axis=-1).max()), 1e-300)
    exprs = [[None if i == j else f"x{i * n + j + 1}" for j in range(n)] for i in range(n)]
    return RateSpec(n, exprs, 2.0), gen.integers(1, n + 1, rows), off.reshape(rows, n * n), dt_m / 2.0


@pytest.fixture
def nu(unit_interval):
    return dirac(unit_interval, [0.5])


@pytest.fixture
def three_regime():
    # row 1: q12 = 1.0, q13 = 0.5; row 2: q21 = 2; row 3 empty
    return RateSpec(3, [[None, "1.0", "0.5"], ["2", None, "0"], ["0", "0", None]], 3.5)


def kernel_at(rates, nu, x=X0):
    return jump_kernel(rates, x, nu)[0]


class TestJumpKernel:
    """The paper's intervals Gamma_ij(x, nu) of length q_ij, scaled by the
    uniformization rate Lambda = M + _RATE_TOL, are the jump kernel's
    off-diagonal entries; the rest of each row is the stay mass."""

    LAM = 3.5 + _RATE_TOL

    def test_row_one_stacking(self, three_regime, nu):
        row = kernel_at(three_regime, nu)[0]
        assert np.array_equal(row, [1 - 1.5 / self.LAM, 1 / self.LAM, 0.5 / self.LAM])

    def test_second_row_continues_the_stack(self, three_regime, nu):
        row = kernel_at(three_regime, nu)[1]
        assert np.array_equal(row, [2 / self.LAM, 1 - 2 / self.LAM, 0.0])

    def test_zero_rate_gives_empty_interval(self, three_regime, nu):
        p = kernel_at(three_regime, nu)
        assert p[1, 2] == 0.0
        assert np.array_equal(p[2], [0.0, 0.0, 1.0])

    def test_lengths_sum_exactly_to_exit_rates(self, unit_interval):
        gen = np.random.default_rng(1)
        for _ in range(50):
            n = int(gen.integers(2, 5))
            exprs = [
                [None if i == j else repr(float(gen.random()) / (n - 1)) for j in range(n)]
                for i in range(n)
            ]
            rates = RateSpec(n, exprs, 1.0)
            nu_m = dirac(unit_interval, [float(gen.random())])
            x = gen.standard_normal(1)
            p = kernel_at(rates, nu_m, x)
            q = rates.off_diagonal(x[None], nu_m)[0]
            lam = 1.0 + _RATE_TOL
            off = ~np.eye(n, dtype=bool)
            assert np.array_equal(p[off], q[off] / lam)
            assert np.array_equal(np.diag(p), 1.0 - q.sum(axis=-1) / lam)
            assert float(p.min()) >= 0.0
            assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-15

    def test_exit_rate_at_the_bound_keeps_the_stay_entry_nonnegative(self, nu):
        # an exit rate above M but inside the rate tolerance is accepted
        rates = RateSpec(2, [[None, "1.0000000000005"], ["0", None]], 1.0)
        p = kernel_at(rates, nu)
        assert p[0, 0] >= 0.0
        assert 1.0 - rates.off_diagonal(X0[None], nu)[0, 0, 1] / rates.rate_bound < 0.0

    def test_batch_of_states(self, unit_interval):
        rates = RateSpec(2, [[None, "0.5*x1*x1"], ["0.25", None]], 1.0)
        xs = np.array([[0.0], [1.0], [-1.0]])
        p = jump_kernel(rates, xs, dirac(unit_interval, [0.5]))
        assert p.shape == (3, 2, 2)
        lam = 1.0 + _RATE_TOL
        assert np.array_equal(p[:, 0, 1], [0.0, 0.5 / lam, 0.5 / lam])
        assert np.array_equal(p[:, 1, 0], np.full(3, 0.25 / lam))

    def test_negative_rate_rejected(self, unit_interval, nu):
        rates = RateSpec(2, [[None, "nu_m(1,0) - 1"], ["0", None]], 1.0)
        with pytest.raises(ModelError):
            jump_kernel(rates, X0, dirac(unit_interval, [0.0]))

    def test_bound_violation(self, nu):
        rates = RateSpec(2, [[None, "3"], ["0", None]], 1.0)
        with pytest.raises(BoundViolationError):
            jump_kernel(rates, X0, nu)


class TestPickRegimeDraws:
    """A uniform draw picks the next regime through ``pick_regime`` over a
    kernel row: the stay mass comes first in index order for regime 1."""

    LAM = 3.5 + _RATE_TOL

    def test_inside_row_one(self, three_regime, nu):
        row = kernel_at(three_regime, nu)[0]
        stay = 1 - 1.5 / self.LAM
        assert pick_regime(row, stay + 0.5 / self.LAM) == 2
        assert pick_regime(row, stay + 1.2 / self.LAM) == 3

    def test_beyond_all_intervals(self, three_regime, nu):
        row = kernel_at(three_regime, nu)[0]
        assert pick_regime(row, 0.5) == 1
        assert pick_regime(row, 0.0) == 1

    def test_other_rows_do_not_trigger(self, three_regime, nu):
        # regime 3 has no outgoing interval, so no draw leaves it
        row = kernel_at(three_regime, nu)[2]
        draws = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert pick_regime(row, draws).tolist() == [3, 3, 3]
        # regime 2 leaves only for regime 1, from the bottom of its row
        assert pick_regime(kernel_at(three_regime, nu)[1], 0.1) == 1

    @staticmethod
    def cumsum_pick(probs, u):
        """The draw as ``np.cumsum`` and one comparison over the whole row."""
        cdf = np.cumsum(probs, axis=-1)
        idx = np.sum(np.asarray(u)[..., None] >= cdf, axis=-1)
        return np.minimum(idx, probs.shape[-1] - 1) + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_ties_match_the_cumsum_form(self, n):
        gen = np.random.default_rng(n)
        rows = gen.random((200, n))
        rows /= rows.sum(axis=1, keepdims=True)
        # 1/2, 1/4, ..., twice 2^-(N-1), less one ulp of 1: the CDF ends at nextafter(1, 0)
        short = np.append(0.5 ** np.arange(1, n), 0.5 ** (n - 1)) - np.eye(n)[-1] * 2.0**-53
        rows = np.vstack([rows, np.tile(short, (8, 1))])
        cdf = np.cumsum(rows, axis=1)
        assert np.all(cdf[-8:, -1] == np.nextafter(1.0, 0.0))
        on_entry = cdf[np.arange(len(rows)), gen.integers(0, n, len(rows))]
        for u in (
            on_entry,
            np.nextafter(on_entry, 0.0),
            np.nextafter(on_entry, 2.0),
            np.zeros(len(rows)),
            np.full(len(rows), np.nextafter(1.0, 0.0)),
        ):
            want = self.cumsum_pick(rows, u)
            # C order, and the column-major view that transition_rows_batch returns
            for probs in (rows, np.asfortranarray(rows)):
                got = pick_regime(probs, u)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        for row, c in zip(rows[[0, 1, 2, -1]], cdf[[0, 1, 2, -1]]):
            draws = np.concatenate([c, np.nextafter(c, 0.0), np.nextafter(c, 2.0), [0.0, np.nextafter(1.0, 0.0)]])
            assert np.array_equal(pick_regime(row, draws), self.cumsum_pick(row, draws))
            for u in draws:
                assert pick_regime(row, u) == self.cumsum_pick(row, u)

    def test_uniform_draw_law(self, three_regime, nu):
        row = kernel_at(three_regime, nu)[0]
        gen = np.random.default_rng(9)
        draws = gen.random(100_000)
        hits = pick_regime(row, draws)
        for target, length in ((2, 1.0), (3, 0.5)):
            p = length / self.LAM
            se = math.sqrt(p * (1 - p) / len(draws))
            assert abs(float(np.mean(hits == target)) - p) <= 3 * se


class TestTransitionMatrixRows:
    """One-step rows of ``transition_matrix``, the scipy ``expm`` reference."""

    def test_two_state_exact_exponential(self, unit_interval, nu):
        rates = RateSpec(2, [[None, "1"], ["0", None]], 1.0)
        probs = transition_matrix(rates, X0, nu, 0.01)[0]
        # frozen 0.009950166250831893 = 1 - e^{-0.01}, cross-checked against
        # the truncated series dt - dt^2/2 + dt^3/6 - dt^4/24
        assert probs[1] == pytest.approx(0.009950166250831893, abs=1e-15)
        series = 0.01 - 0.01**2 / 2 + 0.01**3 / 6 - 0.01**4 / 24
        assert probs[1] == pytest.approx(series, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_absorbing_when_no_rates(self, unit_interval, nu):
        rates = RateSpec(2, [[None, "0"], ["0", None]], 1.0)
        probs = transition_matrix(rates, X0, nu, 0.01)[0]
        assert probs[0] == 1.0

    def test_first_order_rate_recovery(self, unit_interval, nu):
        rates = RateSpec(2, [[None, "2"], ["0", None]], 2.0)
        for dt in (0.05, 0.01, 0.002):
            probs = transition_matrix(rates, X0, nu, dt)[0]
            assert abs(probs[1] / dt - 2.0) <= 2 * dt * rates.rate_bound

    def test_step_size_error(self, nu):
        rates = RateSpec(2, [[None, "2"], ["0", None]], 2.0)
        with pytest.raises(StepSizeError):
            transition_matrix(rates, X0, nu, 0.2)[0]

    def test_rows_are_stochastic(self, unit_interval):
        gen = np.random.default_rng(12)
        rates = RateSpec(3, [[None, "0.4", "0.1"], ["0.2", None, "0.3"], ["0", "0.5", None]], 1.0)
        for _ in range(20):
            nu_m = dirac(unit_interval, [float(gen.random())])
            p = transition_matrix(rates, gen.standard_normal(1), nu_m, 0.05)
            assert np.all(p >= 0)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_monotone_in_dt_two_state(self, nu):
        rates = RateSpec(2, [[None, "1"], ["0.5", None]], 1.0)
        last = 0.0
        for dt in (0.01, 0.02, 0.05, 0.1):
            p12 = transition_matrix(rates, X0, nu, dt)[0][1]
            assert p12 > last
            last = p12

    # dt = 0.1 puts dt * M on the cap, where the uniformized series is longest
    @pytest.mark.parametrize("dt", [0.05, 0.1])
    def test_batch_rows_match_expm(self, unit_interval, dt):
        gen = np.random.default_rng(23)
        rates = RateSpec(
            3,
            [
                [None, "0.2*(1 + x1*x1)", "0.1*nu_m(1,0)"],
                ["0.3", None, "0.05*abs(x1)"],
                ["0.1*nu_m(2,0)", "0.2", None],
            ],
            1.0,
        )
        pool = (dirac(unit_interval, [0.2]), dirac(unit_interval, [0.9]))
        xs = np.clip(gen.standard_normal((40, 1)) * 0.5, -1, 1)
        regimes = gen.integers(1, 4, size=40)
        idx = gen.integers(0, 2, size=40)
        batch_rows = transition_rows_batch(rates, regimes, xs, MeasureBatch(pool, idx), dt)
        for row in range(40):
            exact = transition_matrix(rates, xs[row], pool[idx[row]], dt)[regimes[row] - 1]
            assert np.max(np.abs(batch_rows[row] - exact)) <= 1e-12


class TestPathLastRows:
    # 1100 rows cross the 512-row block at N = 16; dt * M sits on the cap
    @pytest.mark.parametrize("rows", [1, 7, 1100, 4096])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_bit_identical_to_the_regime_last_form(self, n, rows):
        rates, regimes, x, dt = random_rows_case(n, rows, DT_RATE_CAP, seed=n * 10_000 + rows)
        got = transition_rows_batch(rates, regimes, x, None, dt)
        assert np.array_equal(got, reference_rows(rates, regimes, x, dt))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 16),
        rows=st.integers(1, 1200),
        dt_m=st.floats(1e-6, DT_RATE_CAP),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_property(self, n, rows, dt_m, seed):
        rates, regimes, x, dt = random_rows_case(n, rows, dt_m, seed)
        got = transition_rows_batch(rates, regimes, x, None, dt)
        assert np.array_equal(got, reference_rows(rates, regimes, x, dt))

    @pytest.mark.parametrize("dt_m", [DT_RATE_CAP, 0.02, 0.004])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_matches_expm_without_a_clip(self, n, dt_m):
        rates, regimes, x, dt = random_rows_case(n, 60, dt_m, seed=n)
        got = transition_rows_batch(rates, regimes, x, None, dt)
        exact = np.stack([transition_matrix(rates, x[r], None, dt)[regimes[r] - 1] for r in range(60)])
        assert np.max(np.abs(got - exact)) <= 1e-15
        assert got.min() >= 0.0

    @pytest.mark.parametrize("dt_m", [DT_RATE_CAP, 0.02, 0.004])
    def test_absorbing_rows_stay_absorbing(self, dt_m):
        # regime 2 of 3 has no exit rate; regimes 1 and 3 leave at the bound
        rates = RateSpec(3, [[None, "1", "1"], ["0", None, "0"], ["1.5", "0.5", None]], 2.0)
        rows = transition_rows_batch(rates, np.array([2, 1, 2]), np.zeros((3, 1)), None, dt_m / 2.0)
        for row in rows[[0, 2]]:
            assert row.tolist() == [0.0, 1.0, 0.0]
            assert pick_regime(row, np.nextafter(1.0, 0.0)) == 2
        assert rows[1, 1] > 0.0 and rows[1, 0] < 1.0

    @pytest.mark.parametrize("lam,degree", [(0.004, 6), (0.02, 7), (DT_RATE_CAP, 10)])
    def test_degree_follows_lambda(self, lam, degree):
        assert _poisson_degree(lam) == degree
        # the call's own lambda carries the rate tolerance
        assert _poisson_degree(lam * (1.0 + _RATE_TOL)) == degree

    def test_no_clip(self):
        assert "clip" not in inspect.getsource(transition_rows_batch)


def absorbing_case(n, rows, dt_m, seed):
    """``random_rows_case`` with regime 2 absorbing (no exit rate), and every
    regime, the absorbing one included, among the rows' regimes."""
    rates, regimes, x, dt = random_rows_case(n, rows, dt_m, seed)
    x[:, n : 2 * n] = 0.0
    regimes[:n] = np.arange(1, n + 1)
    return rates, regimes, x, dt


def drawn(rates, regimes, x, dt, u):
    """``interval_draw``, its straddlers resolved by their full rows."""
    regimes_next, straddlers = interval_draw(rates, regimes, x, None, dt, u)
    rows = transition_rows_batch(rates, regimes[straddlers], x[straddlers], None, dt)
    regimes_next[straddlers] = pick_regime(rows, u[straddlers])
    return regimes_next


def edge_uniforms(rows):
    """Per row: its CDF values and their float neighbours, 0.0 and
    nextafter(1, 0), kept in [0, 1), as (draws, rows)."""
    cdf = np.cumsum(rows, axis=1)
    top = np.nextafter(1.0, 0.0)
    u = np.hstack([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), np.zeros((len(rows), 1)), np.full((len(rows), 1), top)])
    return np.minimum(u, top).T


class TestIntervalDraw:
    """The first-order draw with its straddlers resolved picks what
    ``pick_regime`` picks on the full rows, for every uniform."""

    @pytest.mark.parametrize("dt_m", [0.004, 0.02, DT_RATE_CAP])
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_equals_the_full_row_draw(self, n, dt_m):
        rates, regimes, x, dt = absorbing_case(n, 300, dt_m, seed=n)
        rows = transition_rows_batch(rates, regimes, x, None, dt)
        gen = np.random.default_rng(n)
        for u in [*edge_uniforms(rows), *gen.random((20, len(rows)))]:
            assert np.array_equal(drawn(rates, regimes, x, dt, u), pick_regime(rows, u))

    @pytest.mark.parametrize("dt_m", [0.004, DT_RATE_CAP])
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_fails_with_the_band_forced_to_zero(self, n, dt_m, monkeypatch):
        from hybridopt import switching

        monkeypatch.setattr(switching, "_draw_band", lambda lam: 0.0)
        rates, regimes, x, dt = absorbing_case(n, 300, dt_m, seed=n)
        rows = transition_rows_batch(rates, regimes, x, None, dt)
        assert any(not np.array_equal(drawn(rates, regimes, x, dt, u), pick_regime(rows, u)) for u in edge_uniforms(rows))

    @pytest.mark.parametrize("shrink", [0.0, 1e-9])
    def test_the_band_is_tight(self, shrink, monkeypatch, nu):
        # regime 1 leaves at the bound for absorbing regime 2: P = [[0, 1], [0, 1]],
        # so all of tau lands on the one off-diagonal entry and c_0 = b_0 - tau
        from hybridopt import switching

        band = switching._draw_band
        monkeypatch.setattr(switching, "_draw_band", lambda lam: band(lam) - shrink)
        rates = RateSpec(2, [[None, "1"], ["0", None]], 1.0)
        regimes, x, dt = np.ones(1, dtype=int), np.zeros((1, 1)), DT_RATE_CAP
        rows = transition_rows_batch(rates, regimes, x, nu, dt)
        agree = [np.array_equal(drawn(rates, regimes, x, dt, u), pick_regime(rows, u)) for u in edge_uniforms(rows)]
        assert all(agree) == (shrink == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_absorbing_regime_stays(self, n):
        rates, regimes, x, dt = absorbing_case(n, 300, DT_RATE_CAP, seed=n)
        regimes[:] = 2
        u = np.linspace(0.0, np.nextafter(1.0, 0.0), 300)
        regimes_next, straddlers = interval_draw(rates, regimes, x, None, dt, u)
        # the absorbing row's boundaries sit at 0 and 1: u = 0.0 is in a band
        assert straddlers[0] == 0 and len(straddlers) < 10
        assert np.all(np.delete(regimes_next, straddlers) == 2)
        assert drawn(rates, regimes, x, dt, u).tolist() == [2] * 300

    @pytest.mark.parametrize("dt_m", [0.004, DT_RATE_CAP])
    def test_straddlers_are_rare(self, dt_m):
        # about 2 tau per CDF boundary; tau = dt_m^2 / 2 to first order
        rates, regimes, x, dt = random_rows_case(3, 20_000, dt_m, seed=5)
        u = np.random.default_rng(5).random(20_000)
        _, straddlers = interval_draw(rates, regimes, x, None, dt, u)
        assert len(straddlers) <= 20_000 * 4 * dt_m**2 + 5

    @pytest.mark.parametrize("n", [2, 3, 9, 16])
    def test_subset_rows_match_the_full_call(self, n):
        # the engine computes only the straddlers' rows; each row is computed per path
        rates, regimes, x, dt = absorbing_case(n, 1100, DT_RATE_CAP, seed=n)
        full = transition_rows_batch(rates, regimes, x, None, dt)
        gen = np.random.default_rng(n)
        for subset in ([0], [1099], [3, 4], np.flatnonzero(gen.random(1100) < 0.05), gen.permutation(1100)[:700]):
            assert np.array_equal(transition_rows_batch(rates, regimes[subset], x[subset], None, dt), full[subset])

    def test_rates_are_checked_as_the_kernel_checks_them(self, nu):
        u = np.array([0.5])
        with pytest.raises(ModelError):
            interval_draw(RateSpec(2, [[None, "-1"], ["0", None]], 1.0), np.array([1]), X0[None], nu, 0.01, u)
        with pytest.raises(BoundViolationError):
            interval_draw(RateSpec(2, [[None, "3"], ["0", None]], 1.0), np.array([2]), X0[None], nu, 0.01, u)
        with pytest.raises(StepSizeError):
            interval_draw(RateSpec(2, [[None, "1"], ["0", None]], 1.0), np.array([1]), X0[None], nu, 0.2, u)


class TestNanRateRejected:
    """A rate that evaluates to NaN fails every check written as ``q < 0`` or
    ``exit > M``; it must raise, not yield NaN rows that pick regime 1."""

    @pytest.fixture
    def model(self):
        # inf/inf = NaN at x1 = 2, where exp(400 * x1) overflows
        return make_model(rate12="0.4*exp(400*x1)/(1 + exp(400*x1))", rate21="0.1", diffusion="0")

    def test_generator(self, model):
        with pytest.raises(ModelError, match="NaN"):
            model.rates.generator(np.array([[2.0]]), dirac(model.action_set, [0.5]))

    def test_jump_kernel(self, model):
        with pytest.raises(ModelError, match="NaN"):
            jump_kernel(model.rates, np.array([2.0]), dirac(model.action_set, [0.5]))

    def test_interval_draw(self, model):
        with pytest.raises(ModelError, match="NaN"):
            interval_draw(model.rates, np.array([1]), np.array([[2.0]]), dirac(model.action_set, [0.5]), 0.01, np.array([0.5]))

    def test_simulate_chunks(self, model):
        with pytest.raises(ModelError, match="NaN"):
            list(simulate_chunks(model, const_control(model), 0.0, [2.0], 1, 1.0, 0.01, 0, 4))

    def test_solver_kernels(self, model):
        nu_m = dirac(model.action_set, [0.5])
        with pytest.raises(ModelError, match="NaN"):
            SolverKernels(model, GridSpec(10, 5), [nu_m], [nu_m])


class TestSampleSwitch:
    # the regime draw is pick_regime over the step's transition row
    def test_stay_mass_returns_same_regime(self, nu):
        rates = RateSpec(2, [[None, "1"], ["0", None]], 1.0)
        probs = transition_matrix(rates, X0, nu, 0.01)[0]
        # stay probability ~ 0.99; a draw inside it stays
        assert pick_regime(probs, 0.5) == 1
        assert pick_regime(probs, 0.9999) == 2

    def test_bound_violation_propagates(self, nu):
        rates = RateSpec(2, [[None, "50"], ["0", None]], 50.0)
        with pytest.raises(StepSizeError):
            transition_matrix(rates, X0, nu, 0.01)[0]
        with pytest.raises(StepSizeError):
            transition_rows_batch(rates, np.array([1]), X0[None, :], MeasureBatch.constant(nu, 1), 0.01)

    def test_empirical_switch_fraction(self, nu):
        rates = RateSpec(2, [[None, "1"], ["0", None]], 1.0)
        probs = transition_matrix(rates, X0, nu, 0.01)[0]
        gen = np.random.default_rng(31)
        draws = gen.random(100_000)
        picked = pick_regime(probs, draws)
        p = 1.0 - math.exp(-0.01)
        se = math.sqrt(p * (1 - p) / len(draws))
        assert abs(float(np.mean(picked == 2)) - p) <= 3 * se


class TestRateSpecValidation:
    def test_regime_count_range(self):
        with pytest.raises(ValidationError):
            RateSpec(0, [], 1.0)
        with pytest.raises(ValidationError):
            RateSpec(17, [[None] * 17] * 17, 1.0)

    def test_single_regime_degenerates(self, nu):
        rates = RateSpec(1, [[None]], 0.0)
        assert transition_matrix(rates, X0, nu, 0.01)[0].tolist() == [1.0]
        batch = transition_rows_batch(rates, np.array([1, 1]), np.zeros((2, 1)), MeasureBatch.constant(nu, 2), 0.01)
        assert batch.tolist() == [[1.0], [1.0]]

    def test_disallowed_variables(self):
        with pytest.raises(ValidationError, match="x and nu only"):
            RateSpec(2, [[None, "t"], ["0", None]], 1.0)
        with pytest.raises(ValidationError, match="x and nu only"):
            RateSpec(2, [[None, "mu_m(1,0)"], ["0", None]], 1.0)

    def test_lipschitz_sampling(self, unit_interval):
        # q12 = m1(nu): |q(x, mu) - q(y, nu)| <= W1(mu, nu) <= 1 * (|x-y| + W1)
        rates = RateSpec(2, [[None, "nu_m(1,0)"], ["0", None]], 1.0)
        gen = np.random.default_rng(17)
        declared_c2 = 1.0
        for _ in range(200):
            a = dirac(unit_interval, [float(gen.random())])
            b = mixture(
                [dirac(unit_interval, [float(gen.random())]), dirac(unit_interval, [float(gen.random())])],
                [0.5, 0.5],
            )
            x, y = gen.standard_normal(1), gen.standard_normal(1)
            gap = abs(
                rates.off_diagonal(x[None], a)[0, 0, 1] - rates.off_diagonal(y[None], b)[0, 0, 1]
            )
            assert gap <= declared_c2 * (abs(float(x[0] - y[0])) + w1_distance([a], [b])[0]) + 1e-12
