"""Hybrid model definition and Euler-Maruyama simulation with switching.

The model bundles the per-regime drift/diffusion expressions, the rate
spec, the running and terminal costs, the action set, a truncation box for
the continuous state, and the declared constants the validation report
checks the coefficients against: a joint squared-Lipschitz constant for
drift and diffusion (in state and in W1 of the control measure), a plain
Lipschitz constant for the rates, the uniform exit-rate bound, a linear
growth bound, and lower bounds for the costs.

Simulation interleaves an explicit Euler step of

    X' = X + b(X, i, mu) dt + sigma(X, i, mu) dW

with the frozen-generator regime draw of the switching module.  Brownian
increments are drawn before the switch sample within a step; the switch
uses the step-start (x, nu).  All randomness comes from counter-based
streams keyed by (seed, block, role): path p reads row p % BLOCK_PATHS of
block p // BLOCK_PATHS (see ``rng``), so a path's trajectory is independent
of batch composition and worker scheduling.  Batches are simulated in chunks
that stay inside one block (``path_chunks``), fanned out over one process
pool per call (``fan_out``) and reassembled bit-identically.

``simulate_paths`` is the only simulation entry point; a single path is a
batch of one.  A ``PathBatch`` keeps states, regimes and per-step control
pool indices, not the Brownian increments.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import expr as ex
from . import rng
from .control import FeedbackControl, MeasureBatch
from .errors import NumericalError, SimulationError, ValidationError
from .measure_space import ActionSet, DiscreteMeasure, random_measure, w1_distance
from .switching import RateSpec, check_step, pick_regime, transition_rows_batch

_GRID_ABS_TOL = 1e-12


def _parse_field(raw, what):
    if isinstance(raw, str):
        try:
            return ex.parse(raw)
        except Exception as err:
            raise ValidationError(f"{what}: {err}") from err
    return raw


def _check_vars(node, allowed, what):
    bad = {v for v in ex.variables(node) if v not in allowed and not v.startswith("x")}
    if bad:
        raise ValidationError(f"{what} may depend on {sorted(allowed) + ['x*']} only, found {sorted(bad)}")


class HybridModel:
    """Coefficient bundle for one controlled regime-switching diffusion."""

    __slots__ = (
        "state_dim",
        "regime_count",
        "action_set",
        "rates",
        "drift",
        "diffusion",
        "running_cost",
        "terminal_cost",
        "horizon",
        "truncation_lower",
        "truncation_upper",
        "clamp",
        "lipschitz_drift_diffusion",
        "lipschitz_rates",
        "growth_bound",
        "running_cost_floor",
        "terminal_cost_floor",
        "starts",
        "undeclared",
    )

    def __init__(
        self,
        state_dim: int,
        action_set: ActionSet,
        rates: RateSpec,
        drift,
        diffusion,
        running_cost,
        terminal_cost,
        horizon: float,
        truncation_lower,
        truncation_upper,
        clamp: bool = True,
        lipschitz_drift_diffusion: float = 1.0,
        lipschitz_rates: float = 1.0,
        growth_bound: float = 1.0,
        running_cost_floor: float = 0.0,
        terminal_cost_floor: float = 0.0,
        starts=(),
        undeclared=(),
    ):
        d = int(state_dim)
        if d < 1:
            raise ValidationError("state_dim must be >= 1")
        n = rates.regime_count
        self.state_dim = d
        self.regime_count = n
        self.action_set = action_set
        self.rates = rates

        drift = tuple(tuple(_parse_field(e, f"drift[{i}][{c}]") for c, e in enumerate(row)) for i, row in enumerate(drift))
        if len(drift) != n or any(len(row) != d for row in drift):
            raise ValidationError(f"drift must be {n} regimes x {d} coordinates")
        diffusion = tuple(
            tuple(tuple(_parse_field(e, f"diffusion[{i}][{r}][{c}]") for c, e in enumerate(row)) for r, row in enumerate(mat))
            for i, mat in enumerate(diffusion)
        )
        if len(diffusion) != n or any(len(mat) != d or any(len(row) != d for row in mat) for mat in diffusion):
            raise ValidationError(f"diffusion must be {n} regimes x {d}x{d} matrices")
        for row in drift:
            for e in row:
                _check_vars(e, {"i", "mu"}, "drift")
        for mat in diffusion:
            for row in mat:
                for e in row:
                    _check_vars(e, {"i", "mu"}, "diffusion")
        self.drift = drift
        self.diffusion = diffusion

        self.running_cost = _parse_field(running_cost, "running_cost")
        _check_vars(self.running_cost, {"t", "i", "mu", "nu"}, "running_cost")
        self.terminal_cost = _parse_field(terminal_cost, "terminal_cost")
        _check_vars(self.terminal_cost, set(), "terminal_cost")

        if horizon <= 0:
            raise ValidationError("horizon must be positive")
        self.horizon = float(horizon)

        lo = np.atleast_1d(np.asarray(truncation_lower, dtype=float))
        hi = np.atleast_1d(np.asarray(truncation_upper, dtype=float))
        if lo.shape != (d,) or hi.shape != (d,) or not np.all(lo < hi):
            raise ValidationError("truncation box must be a nonempty box of the state dimension")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.truncation_lower = lo
        self.truncation_upper = hi
        self.clamp = bool(clamp)

        for name, value in (
            ("lipschitz_drift_diffusion", lipschitz_drift_diffusion),
            ("lipschitz_rates", lipschitz_rates),
            ("growth_bound", growth_bound),
        ):
            if value <= 0:
                raise ValidationError(f"{name} must be positive")
        self.lipschitz_drift_diffusion = float(lipschitz_drift_diffusion)
        self.lipschitz_rates = float(lipschitz_rates)
        self.growth_bound = float(growth_bound)
        self.running_cost_floor = float(running_cost_floor)
        self.terminal_cost_floor = float(terminal_cost_floor)

        cleaned = []
        for x0, i0 in starts:
            x0 = tuple(float(v) for v in np.atleast_1d(x0))
            if len(x0) != d:
                raise ValidationError("start state has the wrong dimension")
            i0 = int(i0)
            if not 1 <= i0 <= n:
                raise ValidationError(f"start regime {i0} out of range 1..{n}")
            cleaned.append((x0, i0))
        self.starts = tuple(cleaned)
        # config names of the constants left at their default
        self.undeclared = tuple(undeclared)

        self._smoke_check()

    def _smoke_check(self):
        # every expression must evaluate to something finite at a reference point
        mid = (self.truncation_lower + self.truncation_upper) / 2.0
        probe = DiscreteMeasure(
            self.action_set,
            np.vstack([self.action_set.lower, self.action_set.upper]),
            [0.5, 0.5],
        )
        env = {"t": 0.0, "x": mid, "i": 1.0, "mu": probe, "nu": probe}
        for i in range(self.regime_count):
            env["i"] = float(i + 1)
            for e in self.drift[i]:
                _finite_or_raise(ex.evaluate(e, env), "drift")
            for row in self.diffusion[i]:
                for e in row:
                    _finite_or_raise(ex.evaluate(e, env), "diffusion")
        _finite_or_raise(ex.evaluate(self.running_cost, env), "running_cost")
        _finite_or_raise(ex.evaluate(self.terminal_cost, env), "terminal_cost")
        self.rates.generator(mid, probe)

    def default_start(self) -> tuple[np.ndarray, int]:
        if self.starts:
            x0, i0 = self.starts[0]
            return np.asarray(x0, dtype=float), i0
        return (self.truncation_lower + self.truncation_upper) / 2.0, 1

    def clip_state(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.truncation_lower, self.truncation_upper)

    def drift_at(self, x: np.ndarray, regimes: np.ndarray, mu: MeasureBatch) -> np.ndarray:
        """b(x, i, mu) for a path batch; rows are selected per regime."""
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        for regime in range(1, self.regime_count + 1):
            mask = np.asarray(regimes) == regime
            if not np.any(mask):
                continue
            env = {"x": x[mask], "i": float(regime), "mu": mu.take(mask)}
            cnt = int(np.count_nonzero(mask))
            for c, e in enumerate(self.drift[regime - 1]):
                out[mask, c] = ex.eval_vector(e, env, cnt)
        return out

    def diffusion_at(self, x: np.ndarray, regimes: np.ndarray, mu: MeasureBatch) -> np.ndarray:
        """sigma(x, i, mu) for a path batch, shape (n, d, d)."""
        x = np.atleast_2d(x)
        n, d = x.shape
        out = np.zeros((n, d, d))
        for regime in range(1, self.regime_count + 1):
            mask = np.asarray(regimes) == regime
            if not np.any(mask):
                continue
            env = {"x": x[mask], "i": float(regime), "mu": mu.take(mask)}
            cnt = int(np.count_nonzero(mask))
            for r in range(d):
                for c in range(d):
                    out[mask, r, c] = ex.eval_vector(self.diffusion[regime - 1][r][c], env, cnt)
        return out

    def running_cost_at(self, t, x, regimes, mu: MeasureBatch, nu: MeasureBatch) -> np.ndarray:
        x = np.atleast_2d(x)
        env = {"t": t, "x": x, "i": np.asarray(regimes, dtype=float), "mu": mu, "nu": nu}
        return ex.eval_vector(self.running_cost, env, x.shape[0])

    def terminal_cost_at(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        return ex.eval_vector(self.terminal_cost, {"x": x}, x.shape[0])


def _finite_or_raise(value, what):
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"{what} evaluated to a non-finite value at the reference point")


class PathBatch:
    """Vectorized bundle of paths sharing the control's candidate pools."""

    __slots__ = (
        "dt",
        "times",
        "states",
        "regimes",
        "mu_pool",
        "nu_pool",
        "mu_idx",
        "nu_idx",
        "path_indices",
        "clamp_count",
    )

    def __init__(self, dt, times, states, regimes, mu_pool, nu_pool, mu_idx, nu_idx, path_indices, clamp_count):
        self.dt = dt
        self.times = times
        self.states = states
        self.regimes = regimes
        self.mu_pool = mu_pool
        self.nu_pool = nu_pool
        self.mu_idx = mu_idx
        self.nu_idx = nu_idx
        self.path_indices = path_indices
        self.clamp_count = clamp_count

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @staticmethod
    def concatenate(blocks: list["PathBatch"]) -> "PathBatch":
        head = blocks[0]
        if len(blocks) == 1:
            return head
        return PathBatch(
            head.dt,
            head.times,
            np.concatenate([b.states for b in blocks]),
            np.concatenate([b.regimes for b in blocks]),
            head.mu_pool,
            head.nu_pool,
            np.concatenate([b.mu_idx for b in blocks]),
            np.concatenate([b.nu_idx for b in blocks]),
            np.concatenate([b.path_indices for b in blocks]),
            sum(b.clamp_count for b in blocks),
        )


def _grid_steps(s: float, t_end: float, dt: float) -> int:
    if dt <= 0 or t_end <= s:
        raise ValidationError("need dt > 0 and t_end > s")
    n = int(round((t_end - s) / dt))
    if n < 1 or abs(n * dt - (t_end - s)) > _GRID_ABS_TOL * max(1.0, abs(t_end)):
        raise ValidationError(f"(t_end - s) = {t_end - s!r} is not an integral number of dt = {dt!r} steps")
    return n


def _simulate_block(
    model: HybridModel,
    control: FeedbackControl,
    s: float,
    x0,
    i0: int,
    t_end: float,
    dt: float,
    seed: int,
    first_path: int,
    n_paths: int,
    flip_brownian: bool = False,
) -> PathBatch:
    """Paths first_path..first_path+n_paths-1, all inside one stream block
    (one chunk of ``path_chunks``)."""
    n_steps = _grid_steps(s, t_end, dt)
    check_step(model.rates, dt)
    d = model.state_dim
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ValidationError(f"x0 must have dimension {d}")
    if not 1 <= int(i0) <= model.regime_count:
        raise ValidationError(f"start regime {i0} out of range")
    times = s + dt * np.arange(n_steps + 1)

    states = np.empty((n_paths, n_steps + 1, d))
    regimes = np.empty((n_paths, n_steps + 1), dtype=np.int64)
    start = x0.copy()
    if model.clamp:
        start = model.clip_state(start)
    states[:, 0, :] = start
    regimes[:, 0] = int(i0)
    mu_idx = np.empty((n_paths, n_steps), dtype=np.intp)
    nu_idx = np.empty((n_paths, n_steps), dtype=np.intp)

    # the draws are allocated after the outputs: they are freed when the block
    # returns, and freeing the newest allocations leaves no hole in the heap
    brownian = np.empty((n_paths, n_steps, d))
    uniforms = np.empty((n_paths, n_steps))
    block, row = divmod(first_path, rng.BLOCK_PATHS)
    rows = range(row, row + n_paths)
    rng.brownian_increments(seed, block, rows, n_steps, d, dt, out=brownian)
    if model.regime_count > 1:
        rng.switch_uniforms(seed, block, rows, n_steps, out=uniforms)
    if flip_brownian:
        np.negative(brownian, out=brownian)

    mu_pool, nu_pool = control.mu_pool, control.nu_pool
    mu_moments: dict = {}
    nu_moments: dict = {}
    clamp_count = 0

    for k in range(n_steps):
        t_k = float(times[k])
        x_k = states[:, k, :]
        lam_k = regimes[:, k]
        mi, ni = control.indices(t_k, x_k, lam_k, states[:, : k + 1, :], regimes[:, : k + 1])
        mu_idx[:, k] = mi
        nu_idx[:, k] = ni
        mu_b = MeasureBatch(mu_pool, mi, mu_moments)
        nu_b = MeasureBatch(nu_pool, ni, nu_moments)

        b = model.drift_at(x_k, lam_k, mu_b)
        sig = model.diffusion_at(x_k, lam_k, mu_b)
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = x_k + b * dt + np.einsum("nrc,nc->nr", sig, brownian[:, k, :])
        if not np.all(np.isfinite(x_next)):
            raise SimulationError(f"non-finite state at step {k}")
        if model.clamp:
            clipped = model.clip_state(x_next)
            clamp_count += int(np.count_nonzero(np.any(clipped != x_next, axis=1)))
            x_next = clipped
        elif np.any(x_next < model.truncation_lower) or np.any(x_next > model.truncation_upper):
            raise SimulationError(f"state escaped the truncation box at step {k} (clamping disabled)")
        states[:, k + 1, :] = x_next

        if model.regime_count == 1:
            regimes[:, k + 1] = 1
            continue
        rows = transition_rows_batch(model.rates, lam_k, x_k, nu_b, dt)
        regimes[:, k + 1] = pick_regime(rows, uniforms[:, k])

    paths = np.arange(first_path, first_path + n_paths)
    return PathBatch(dt, times, states, regimes, mu_pool, nu_pool, mu_idx, nu_idx, paths, clamp_count)


def _block_args(args):
    return _simulate_block(*args)


def path_chunks(first: int, count: int):
    """(first path, path count) of each run of the paths first..first+count-1
    that stays inside one stream block: the unit of work of the fan-out."""
    stop = first + count
    while first < stop:
        end = min(stop, (first // rng.BLOCK_PATHS + 1) * rng.BLOCK_PATHS)
        yield first, end - first
        first = end


def fan_out(job, args: list, workers: int):
    """``job(a)`` for each ``a`` of ``args``, in order.  With ``workers > 1`` and
    more than one job, one process pool serves them all; otherwise they run
    here one at a time, each result made before the next job starts."""
    if int(workers) <= 1 or len(args) < 2:
        return map(job, args)
    with ProcessPoolExecutor(max_workers=min(int(workers), len(args))) as pool:
        return list(pool.map(job, args))


def simulate_paths(
    model: HybridModel,
    control: FeedbackControl,
    s: float,
    x0,
    i0: int,
    t_end: float,
    dt: float,
    seed: int,
    path_count: int,
    workers: int = 1,
    flip_brownian: bool = False,
    first_path_index: int = 0,
) -> PathBatch:
    """Simulate a batch, optionally fanned out over worker processes.

    Paths are simulated in chunks that stay inside one stream block; the
    block-keyed streams make the assembled result independent of the worker
    count and of ``first_path_index``.
    """
    if path_count < 1:
        raise ValidationError("path_count must be >= 1")
    args = [
        (model, control, s, x0, i0, t_end, dt, seed, first, count, flip_brownian)
        for first, count in path_chunks(first_path_index, path_count)
    ]
    return PathBatch.concatenate(list(fan_out(_block_args, args, workers)))


class HypothesisCheck:
    """One entry of a model validation report."""

    __slots__ = ("name", "passed", "observed", "bound", "detail")

    def __init__(self, name, passed, observed, bound, detail=""):
        self.name = name
        self.passed = bool(passed)
        self.observed = float(observed)
        self.bound = float(bound)
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "observed": self.observed,
            "bound": self.bound,
            "detail": self.detail,
        }


class ModelValidationReport:
    __slots__ = ("checks", "sample_count")

    def __init__(self, checks, sample_count):
        self.checks = list(checks)
        self.sample_count = sample_count

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "sample_count": self.sample_count,
            "checks": [c.to_dict() for c in self.checks],
        }


#: Samples ``validate_model`` evaluates together: bounds memory, not the report.
VALIDATE_CHUNK = 512


def _row_norms(a) -> np.ndarray:
    """Norm of each row of ``a`` by one dot product, the sum np.linalg.norm takes."""
    return np.sqrt(np.matmul(a.reshape(len(a), 1, -1), a.reshape(len(a), -1, 1))[:, 0, 0])


def growth_ratio(x, b, sig) -> np.ndarray:
    """(|b| + |sigma|_F) / (1 + |x|) per row of evaluated coefficients: x and b of
    shape (n, d), sig of shape (n, d, m)."""
    return (_row_norms(b) + _row_norms(sig)) / (1.0 + _row_norms(x))


def _validation_samples(model: HybridModel, gen, first: int, stop: int):
    """Sample pairs first..stop-1 as columns (x, y, mu_a, mu_b, t, lam).  Each
    sample draws x, mu_a, then y or mu_b by variant, then t and lam."""
    d, lo = model.state_dim, model.truncation_lower
    span = model.truncation_upper - lo
    scale = float(np.max(span))
    rows = []
    for trial in range(first, stop):
        # alternate state-only, measure-only, and joint perturbations so the
        # empirical sup is not diluted by the other term in the denominator;
        # state-only pairs alternate far and near ones to probe local slopes
        variant = trial % 3
        x = lo + gen.random(d) * span
        mu_a = mu_b = random_measure(gen, model.action_set)
        if variant == 0:
            y = lo + gen.random(d) * span if trial % 6 == 0 else model.clip_state(x + gen.standard_normal(d) * 1e-3 * scale)
        else:
            y = x if variant == 1 else lo + gen.random(d) * span
            mu_b = random_measure(gen, model.action_set)
        rows.append((x, y, mu_a, mu_b, gen.random() * model.horizon, int(gen.integers(1, model.regime_count + 1))))
    x, y, mu_a, mu_b, t, lam = zip(*rows)
    return np.array(x), np.array(y), mu_a, mu_b, np.array(t), np.array(lam)


def _fold(op, current: float, values, mask=slice(None)) -> float:
    """Running np.fmax/np.fmin over the masked ``values``: NaNs are skipped."""
    return float(op.reduce(np.asarray(values)[..., mask].ravel(), initial=current))


def validate_model(model: HybridModel, sample_count: int = 1000, seed: int = 0) -> ModelValidationReport:
    """Empirical check of the declared coefficient hypotheses.

    Draws sample pairs in the truncation box x measure family (independent
    pairs plus small-perturbation pairs, so local slopes are probed too) and
    reports the worst observed ratio against each declared constant:
    the joint drift/diffusion squared-Lipschitz bound, the linear growth
    bound, rate nonnegativity, the exit-rate bound, the rate Lipschitz
    bound, and the cost floors.  Samples come one by one from the ``seed``
    stream and are evaluated ``VALIDATE_CHUNK`` at a time: coefficients once
    per regime, rates and costs once, and one W1 call per chunk.
    """
    if sample_count < 100:
        raise ValidationError("sample_count must be >= 100")
    gen = rng.stream(seed, 0, rng.ROLE_VALIDATE)
    worst_c1 = worst_growth = worst_c2 = worst_exit = 0.0
    f_min = g_min = np.inf
    # a one-regime model has no off-diagonal rate; it reports 0.0
    off = ~np.eye(model.regime_count, dtype=bool)
    worst_rate_min = np.inf if model.regime_count > 1 else 0.0

    for first in range(0, sample_count, VALIDATE_CHUNK):
        x, y, mu_a, mu_b, t, lam = _validation_samples(model, gen, first, min(first + VALIDATE_CHUNK, sample_count))
        n = len(x)
        ba, bb = MeasureBatch(mu_a, np.arange(n)), MeasureBatch(mu_b, np.arange(n))
        w1 = w1_distance(mu_a, mu_b)
        dist2 = np.sum((x - y) ** 2, axis=1) + w1**2
        dist1 = _row_norms(x - y) + w1
        ratios, growth = [], []
        for regime in range(1, model.regime_count + 1):
            reg = np.full(n, regime)
            bx, by = model.drift_at(x, reg, ba), model.drift_at(y, reg, bb)
            sx, sy = model.diffusion_at(x, reg, ba), model.diffusion_at(y, reg, bb)
            num = np.sum((bx - by) ** 2, axis=1) + np.sum(((sx - sy) ** 2).reshape(n, -1), axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios.append(num / dist2)
            growth += [growth_ratio(x, bx, sx), growth_ratio(y, by, sy)]
        worst_c1 = _fold(np.fmax, worst_c1, ratios, dist2 > 1e-14)
        worst_growth = _fold(np.fmax, worst_growth, np.max(growth, axis=0), dist2 > 1e-14)

        qx, qy = model.rates.off_diagonal(x, ba), model.rates.off_diagonal(y, bb)
        worst_rate_min = _fold(np.fmin, worst_rate_min, [qx[:, off], qy[:, off]])
        worst_exit = _fold(np.fmax, worst_exit, [np.max(qx.sum(axis=-1), axis=1), np.max(qy.sum(axis=-1), axis=1)])
        with np.errstate(divide="ignore", invalid="ignore"):
            worst_c2 = _fold(np.fmax, worst_c2, np.max(np.abs(qx - qy), axis=(1, 2)) / dist1, dist1 > 1e-14)
        f_min = _fold(np.fmin, f_min, model.running_cost_at(t, x, lam, ba, bb))
        g_min = _fold(np.fmin, g_min, model.terminal_cost_at(x))

    def detail(text, constant):
        if constant in model.undeclared:
            return f"{text}; constants.{constant} undeclared, judged against the default 1.0"
        return text

    checks = [
        HypothesisCheck(
            "drift_diffusion_lipschitz",
            worst_c1 <= model.lipschitz_drift_diffusion + 1e-9,
            worst_c1,
            model.lipschitz_drift_diffusion,
            detail("max (|db|^2 + |dsigma|^2) / (|dx|^2 + W1^2) over sampled pairs", "lipschitz_drift_diffusion"),
        ),
        HypothesisCheck(
            "growth_bound",
            worst_growth <= model.growth_bound + 1e-9,
            worst_growth,
            model.growth_bound,
            detail("max (|b| + |sigma|_F) / (1 + |x|) over sampled points", "growth"),
        ),
        HypothesisCheck(
            "rate_nonnegative",
            worst_rate_min >= -1e-12,
            worst_rate_min,
            0.0,
            "min off-diagonal rate over samples",
        ),
        HypothesisCheck(
            "rate_bound",
            worst_exit <= model.rates.rate_bound + 1e-9,
            worst_exit,
            model.rates.rate_bound,
            "max exit rate over samples",
        ),
        HypothesisCheck(
            "rate_lipschitz",
            worst_c2 <= model.lipschitz_rates + 1e-9,
            worst_c2,
            model.lipschitz_rates,
            detail("max |dq| / (|dx| + W1) over sampled pairs", "lipschitz_rates"),
        ),
        HypothesisCheck(
            "running_cost_floor",
            f_min >= model.running_cost_floor - 1e-12,
            f_min,
            model.running_cost_floor,
            "min running cost over samples",
        ),
        HypothesisCheck(
            "terminal_cost_floor",
            g_min >= model.terminal_cost_floor - 1e-12,
            g_min,
            model.terminal_cost_floor,
            "min terminal cost over samples",
        ),
        HypothesisCheck(
            "action_set_compact",
            np.isfinite(model.action_set.diameter) and model.action_set.diameter > 0,
            model.action_set.diameter,
            np.inf,
            "action set box diameter",
        ),
    ]
    return ModelValidationReport(checks, sample_count)
