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
of batch composition and worker scheduling.

``simulate_chunks`` is the one way into the engine.  It splits a batch into
chunks, each one stream block or the first paths of the last one
(``chunk_args``), fans them out over one process pool per call (``fan_out``)
and yields them in path order, so a caller that consumes each chunk holds
one at a time; ``_simulate_block`` is the work on one chunk.  A
``PathBatch`` keeps states, regimes and per-step control pool indices, not
the Brownian draws; a single path is a batch of one.  In its costing mode
the same step loop sums each path's running cost as it goes, keeps only the
states a history-reading control needs, and yields the sums with each path's
end state and regime: ``cost`` adds the terminal cost there, and the ``dpp``
check the value grid's next slice.  An antithetic run follows each chunk
with its Brownian-mirrored twin, made in the same job.
"""
from __future__ import annotations

from collections import deque, namedtuple
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import expr as ex
from . import rng
from .control import FeedbackControl, MeasureBatch
from .errors import CapacityError, NumericalError, SimulationError, ValidationError
from .measure_space import ActionSet, DiscreteMeasure, draw_measure, random_measures, w1_distance
from .switching import RateSpec, check_step, interval_draw, pick_regime, transition_rows_batch

_GRID_ABS_TOL = 1e-12


def _compiled(raw, allowed, what) -> ex.Compiled:
    """``raw`` (text or an AST) parsed, checked to read only x and ``allowed``, and compiled."""
    if isinstance(raw, str):
        try:
            raw = ex.parse(raw)
        except Exception as err:
            raise ValidationError(f"{what}: {err}") from err
    bad = {v for v in ex.variables(raw) if v not in allowed and not v.startswith("x")}
    if bad:
        raise ValidationError(f"{what} may depend on {sorted(allowed) + ['x*']} only, found {sorted(bad)}")
    return ex.Compiled(raw)


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

        self.drift = tuple(
            tuple(_compiled(e, {"i", "mu"}, f"drift[{i}][{c}]") for c, e in enumerate(row)) for i, row in enumerate(drift)
        )
        if len(self.drift) != n or any(len(row) != d for row in self.drift):
            raise ValidationError(f"drift must be {n} regimes x {d} coordinates")
        self.diffusion = tuple(
            tuple(tuple(_compiled(e, {"i", "mu"}, f"diffusion[{i}][{r}][{c}]") for c, e in enumerate(row)) for r, row in enumerate(mat))
            for i, mat in enumerate(diffusion)
        )
        if len(self.diffusion) != n or any(len(mat) != d or any(len(row) != d for row in mat) for mat in self.diffusion):
            raise ValidationError(f"diffusion must be {n} regimes x {d}x{d} matrices")
        self.running_cost = _compiled(running_cost, {"t", "i", "mu", "nu"}, "running_cost")
        self.terminal_cost = _compiled(terminal_cost, set(), "terminal_cost")

        if not (np.isfinite(horizon) and horizon > 0):
            raise ValidationError(f"horizon must be positive and finite, got {horizon!r}")
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
            for what, table in (("drift", self.drift[i]), ("diffusion", self.diffusion[i])):
                for e in np.ravel(table):
                    _finite_or_raise(e(env), what)
        _finite_or_raise(self.running_cost(env), "running_cost")
        _finite_or_raise(self.terminal_cost(env), "terminal_cost")
        self.rates.generator(mid[None], probe)

    def default_start(self) -> tuple[np.ndarray, int]:
        if self.starts:
            x0, i0 = self.starts[0]
            return np.asarray(x0, dtype=float), i0
        return (self.truncation_lower + self.truncation_upper) / 2.0, 1

    def clip_state(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.truncation_lower, self.truncation_upper)

    def partition(self, x: np.ndarray, regimes: np.ndarray, mu: MeasureBatch) -> list:
        """(regime, rows, env) per regime present in a path batch: ``rows`` are its
        paths (``slice(None)`` for all, with no copy), ``env`` their x and mu.
        ``drift_at`` and ``diffusion_at`` can share one partition."""
        x = np.atleast_2d(x)
        regimes = np.asarray(regimes)
        parts = []
        for regime in range(1, self.regime_count + 1):
            rows = np.flatnonzero(regimes == regime)
            if len(rows) == len(x):
                parts.append((regime, slice(None), {"x": x, "i": float(regime), "mu": mu}))
            elif len(rows):
                parts.append((regime, rows, {"x": x[rows], "i": float(regime), "mu": mu.take(rows)}))
        return parts

    def drift_at(self, x: np.ndarray, regimes: np.ndarray, mu: MeasureBatch, parts=None) -> np.ndarray:
        """b(x, i, mu) for a path batch, shape (n, d), per regime of ``parts``
        (by default ``partition(x, regimes, mu)``)."""
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        for regime, rows, env in parts or self.partition(x, regimes, mu):
            for c, e in enumerate(self.drift[regime - 1]):
                out[rows, c] = e(env)
        return out

    def diffusion_at(self, x: np.ndarray, regimes: np.ndarray, mu: MeasureBatch, parts=None) -> np.ndarray:
        """sigma(x, i, mu) for a path batch, shape (n, d, d), likewise."""
        x = np.atleast_2d(x)
        out = np.zeros((len(x), self.state_dim, self.state_dim))
        for regime, rows, env in parts or self.partition(x, regimes, mu):
            for r, row in enumerate(self.diffusion[regime - 1]):
                for c, e in enumerate(row):
                    out[rows, r, c] = e(env)
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

    def __init__(self, times, states, regimes, mu_pool, nu_pool, mu_idx, nu_idx, path_indices, clamp_count):
        self.times = times
        self.states = states
        self.regimes = regimes
        self.mu_pool = mu_pool
        self.nu_pool = nu_pool
        self.mu_idx = mu_idx
        self.nu_idx = nu_idx
        self.path_indices = path_indices
        self.clamp_count = clamp_count


# a chunk costed by ``_simulate_block``: each path's running-cost sum, the
# clamp count, and each path's end state (n, d) and regime (n,)
CostedChunk = namedtuple("CostedChunk", "running clamp_count x regimes")


def grid_steps(s: float, t_end: float, dt: float) -> int:
    if not np.all(np.isfinite([s, t_end, dt])):
        raise ValidationError(f"times must be finite, got s = {s!r}, t_end = {t_end!r}, dt = {dt!r}")
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
    block: int,
    n_paths: int,
    flip_brownian: bool = False,
    costing: bool = False,
):
    """The first n_paths paths of stream block ``block`` (one chunk of
    ``chunk_args``) as a ``PathBatch``; ``flip_brownian`` mirrors their
    increments.  Regimes come from ``interval_draw``, and only its straddlers
    (1.6e-5 of the draws at dt * M = 0.004, N = 2) get full rows, computed per
    path: the same bits.  With ``costing`` no path is recorded: each step adds
    f * dt at its own measure batches to a running sum, left-point order from
    zero, and the ``CostedChunk`` holds those sums with the end state and
    regime; state and regimes are carried as contiguous arrays, states kept
    only for a control that ``reads_history``."""
    n_steps = grid_steps(s, t_end, dt)
    check_step(model.rates, dt)
    d = model.state_dim
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ValidationError(f"x0 must have dimension {d}")
    if not 1 <= int(i0) <= model.regime_count:
        raise ValidationError(f"start regime {i0} out of range")
    times = s + dt * np.arange(n_steps + 1)

    history = not costing or control.reads_history
    states = np.empty((n_paths, n_steps + 1, d)) if history else None
    regimes = None if costing else np.empty((n_paths, n_steps + 1), dtype=np.int64)
    start = x0.copy()
    if model.clamp:
        start = model.clip_state(start)
    if history:
        states[:, 0, :] = start
    if costing:
        x_k, lam_k, totals = np.repeat(start[None], n_paths, axis=0), np.full(n_paths, int(i0)), np.zeros(n_paths)
    else:
        regimes[:, 0] = int(i0)
        mu_idx = np.empty((n_paths, n_steps), dtype=np.intp)
        nu_idx = np.empty((n_paths, n_steps), dtype=np.intp)

    # the draws are allocated after the outputs: they are freed when the block
    # returns, and freeing the newest allocations leaves no hole in the heap
    brownian = np.empty((n_paths, n_steps, d))
    uniforms = np.empty((n_paths, n_steps))
    rng.brownian_increments(seed, block, n_paths, n_steps, d, dt, out=brownian)
    if model.regime_count > 1:
        rng.switch_uniforms(seed, block, n_paths, n_steps, out=uniforms)
    if flip_brownian:
        np.negative(brownian, out=brownian)

    mu_pool, nu_pool = control.mu_pool, control.nu_pool
    mu_moments: dict = {}
    nu_moments: dict = {}
    clamp_count = 0

    for k in range(n_steps):
        t_k = float(times[k])
        if not costing:
            x_k, lam_k = states[:, k, :], regimes[:, k]
        mi, ni = control.indices(t_k, x_k, lam_k, states[:, : k + 1, :] if history else None)
        mu_b = MeasureBatch(mu_pool, mi, mu_moments)
        nu_b = MeasureBatch(nu_pool, ni, nu_moments)
        if costing:
            totals += model.running_cost_at(t_k, x_k, lam_k, mu_b, nu_b) * dt
        else:
            mu_idx[:, k], nu_idx[:, k] = mi, ni

        parts = model.partition(x_k, lam_k, mu_b)
        b = model.drift_at(x_k, lam_k, mu_b, parts)
        sig = model.diffusion_at(x_k, lam_k, mu_b, parts)
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
        if history:
            states[:, k + 1, :] = x_next

        lam_next = lam_k
        if model.regime_count > 1:
            lam_next, straddle = interval_draw(model.rates, lam_k, x_k, nu_b, dt, uniforms[:, k])
            if len(straddle):
                rows = transition_rows_batch(model.rates, lam_k[straddle], x_k[straddle], nu_b.take(straddle), dt)
                lam_next[straddle] = pick_regime(rows, uniforms[straddle, k])
        if costing:
            x_k, lam_k = x_next, lam_next
        else:
            regimes[:, k + 1] = lam_next

    if costing:
        return CostedChunk(totals, clamp_count, x_k, lam_k)
    paths = np.arange(n_paths) + block * rng.BLOCK_PATHS
    return PathBatch(times, states, regimes, mu_pool, nu_pool, mu_idx, nu_idx, paths, clamp_count)


#: Cap on a chunk's memory at a recorded chunk's 16 d + 32 bytes per path-step
#: (draws, states, regimes, pool indices): 4 096 paths x 10 922 steps at d = 1.
CHUNK_BYTES = 2**31


def chunk_args(model, control, s, x0, i0, t_end, dt, seed, path_count) -> list[tuple]:
    """The ``_simulate_block`` arguments of each chunk of path_count paths, in
    order: a stream block, or the first paths of the last one."""
    if path_count < 1:
        raise ValidationError("path_count must be >= 1")
    paths, steps = min(path_count, rng.BLOCK_PATHS), grid_steps(s, t_end, dt)
    if paths * steps * (16 * model.state_dim + 32) > CHUNK_BYTES:
        raise CapacityError(f"a chunk of {paths} paths x {steps} steps would hold over {CHUNK_BYTES} bytes; use a larger dt")
    return [(model, control, s, x0, i0, t_end, dt, seed, block, min(path_count - first, rng.BLOCK_PATHS))
            for block, first in enumerate(range(0, path_count, rng.BLOCK_PATHS))]


def _chunk_passes(job) -> list:
    """One chunk's pass, or its plain and Brownian-mirrored passes: one job."""
    sim, costing, antithetic = job
    # looked up on the module, where the benchmark tracer wraps the engine
    return [_simulate_block(*sim, flip_brownian=flip, costing=costing) for flip in ((False, True) if antithetic else (False,))]


def _each_pass(results):
    """Each job's passes in order, popped so that none is held here while the next job runs."""
    for passes in results:
        while passes:
            yield passes.pop(0)


def fan_out(job, args: list, workers: int):
    """``job(a)`` for each ``a`` of ``args``, yielded in order.  With ``workers > 1``
    and more than one job, one process pool serves them all: while the caller
    holds a result, the next ``workers`` jobs are in flight, so every worker
    stays busy and at most ``workers + 1`` results are held at once.  Otherwise
    the jobs run here one at a time, each when the caller asks for it.
    Closing the generator early cancels the jobs not yet started."""
    workers = min(int(workers), len(args))
    if workers <= 1:
        yield from map(job, args)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        window = deque()
        for a in args:
            window.append(pool.submit(job, a))
            if len(window) > workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def simulate_chunks(
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
    costing: bool = False,
    antithetic: bool = False,
):
    """The simulation engine: an iterator over the chunks of path_count paths,
    in path order, each made as ``fan_out`` makes it.  A chunk is a
    ``PathBatch``, or with ``costing`` a ``CostedChunk``; with ``antithetic``
    each chunk is followed by its Brownian-mirrored twin, made in the same job.
    The block-keyed streams make every chunk independent of the worker count,
    and each path independent of the path count.  The chunks are checked
    against ``CHUNK_BYTES`` before this returns."""
    jobs = [(sim, costing, antithetic) for sim in chunk_args(model, control, s, x0, i0, t_end, dt, seed, path_count)]
    return _each_pass(fan_out(_chunk_passes, jobs, workers))


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
    """Sample pairs first..stop-1 as (x, y, pool, ia, ib, t, lam): sample k
    pairs the measures pool[ia[k]] and pool[ib[k]].  Each sample draws x, mu_a,
    then y or mu_b by variant, then t and lam; the pool is built in one batch."""
    d, lo = model.state_dim, model.truncation_lower
    span = model.truncation_upper - lo
    scale = float(np.max(span))
    rows, draws = [], []
    for trial in range(first, stop):
        # alternate state-only, measure-only, and joint perturbations so the
        # empirical sup is not diluted by the other term in the denominator;
        # state-only pairs alternate far and near ones to probe local slopes
        variant = trial % 3
        x = lo + gen.random(d) * span
        draws.append(draw_measure(gen, model.action_set))
        a = len(draws) - 1
        if variant == 0:
            y = lo + gen.random(d) * span if trial % 6 == 0 else model.clip_state(x + gen.standard_normal(d) * 1e-3 * scale)
        else:
            y = x if variant == 1 else lo + gen.random(d) * span
            draws.append(draw_measure(gen, model.action_set))
        rows.append((x, y, a, len(draws) - 1, gen.random() * model.horizon, int(gen.integers(1, model.regime_count + 1))))
    x, y, ia, ib, t, lam = zip(*rows)
    pool = random_measures(model.action_set, draws)
    return np.array(x), np.array(y), pool, np.array(ia), np.array(ib), np.array(t), np.array(lam)


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
    stream and are evaluated ``VALIDATE_CHUNK`` at a time: the chunk's
    measures built and checked as one batch (a single measure is a batch of
    one), coefficients once per regime, rates and costs once, and one W1 call
    per chunk.
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
        x, y, pool, ia, ib, t, lam = _validation_samples(model, gen, first, min(first + VALIDATE_CHUNK, sample_count))
        n, moments = len(x), {}
        ba, bb = MeasureBatch(pool, ia, moments), MeasureBatch(pool, ib, moments)
        w1 = w1_distance([pool[k] for k in ia], [pool[k] for k in ib])
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

    def check(name, observed, bound, upper, text, constant=None):
        passed = observed <= bound + 1e-9 if upper else observed >= bound - 1e-12
        if constant in model.undeclared:
            text = f"{text}; constants.{constant} undeclared, judged against the default 1.0"
        return HypothesisCheck(name, passed, observed, bound, text)

    diameter = model.action_set.diameter
    checks = [
        check("drift_diffusion_lipschitz", worst_c1, model.lipschitz_drift_diffusion, True,
              "max (|db|^2 + |dsigma|^2) / (|dx|^2 + W1^2) over sampled pairs", "lipschitz_drift_diffusion"),
        check("growth_bound", worst_growth, model.growth_bound, True,
              "max (|b| + |sigma|_F) / (1 + |x|) over sampled points", "growth"),
        check("rate_nonnegative", worst_rate_min, 0.0, False, "min off-diagonal rate over samples"),
        check("rate_bound", worst_exit, model.rates.rate_bound, True, "max exit rate over samples"),
        check("rate_lipschitz", worst_c2, model.lipschitz_rates, True,
              "max |dq| / (|dx| + W1) over sampled pairs", "lipschitz_rates"),
        check("running_cost_floor", f_min, model.running_cost_floor, False, "min running cost over samples"),
        check("terminal_cost_floor", g_min, model.terminal_cost_floor, False, "min terminal cost over samples"),
        HypothesisCheck("action_set_compact", np.isfinite(diameter) and diameter > 0, diameter, np.inf, "action set box diameter"),
    ]
    return ModelValidationReport(checks, sample_count)
