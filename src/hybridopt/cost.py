"""Batched pathwise and Monte Carlo evaluation of the expected finite-horizon cost.

``batch_costs`` gives every path of a batch its left-point quadrature of the
running cost plus the terminal cost,

    sum_k f(t_k, X_k, Lam_k, mu_k, nu_k) * dt + g(X_n),

evaluated at step-start values so the integrand is adapted, matching the
Euler scheme's filtration.  The Monte Carlo estimator simulates and costs one
stream block of paths at a time (``dynamics.path_chunks``), keeps only the
(paths,) cost vector, and averages it; the paths read block-keyed counter
streams, so with a fixed seed the estimate is deterministic and independent
of the worker count.
"""
from __future__ import annotations

import numpy as np

from . import dynamics
from .control import FeedbackControl, MeasureBatch
from .dynamics import HybridModel, PathBatch, fan_out, path_chunks
from .errors import NumericalError, ValidationError


class CostEstimate:
    """Mean/stderr summary of a Monte Carlo cost run."""

    __slots__ = ("mean", "stderr", "path_count", "seed")

    def __init__(self, mean: float, stderr: float, path_count: int, seed: int):
        if not (np.isfinite(mean) and np.isfinite(stderr) and stderr >= 0):
            raise NumericalError("cost estimate must be finite with nonnegative stderr")
        self.mean = float(mean)
        self.stderr = float(stderr)
        self.path_count = int(path_count)
        self.seed = int(seed)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "paths": self.path_count, "seed": self.seed}

    def __repr__(self):
        return f"CostEstimate(mean={self.mean:.6g}, stderr={self.stderr:.3g}, paths={self.path_count})"


def batch_costs(model: HybridModel, batch: PathBatch, include_terminal: bool = True) -> np.ndarray:
    """Pathwise costs for a whole batch, one step-slab evaluation at a time.

    With ``include_terminal=False`` only the running-cost quadrature is
    returned (used when chaining a partial horizon into a value-grid read).
    """
    n_paths = batch.n_paths
    n_steps = batch.states.shape[1] - 1
    totals = np.zeros(n_paths)
    mu_moments: dict = {}
    nu_moments: dict = {}
    for k in range(n_steps):
        mu_b = MeasureBatch(batch.mu_pool, batch.mu_idx[:, k], mu_moments)
        nu_b = MeasureBatch(batch.nu_pool, batch.nu_idx[:, k], nu_moments)
        totals += model.running_cost_at(
            float(batch.times[k]), batch.states[:, k, :], batch.regimes[:, k], mu_b, nu_b
        ) * batch.dt
    if include_terminal:
        totals += model.terminal_cost_at(batch.states[:, -1, :])
    if not np.all(np.isfinite(totals)):
        raise NumericalError("a pathwise cost is not finite")
    return totals


def _chunk_costs(args) -> np.ndarray:
    """Pathwise costs of one chunk; an antithetic chunk averages a plain and a
    Brownian-mirrored pass over the same paths.  Each pass's ``PathBatch`` is
    dropped once it is costed."""
    *sim, antithetic = args
    model = sim[0]
    # looked up on the module, where the benchmark tracer wraps the engine
    costs = batch_costs(model, dynamics._simulate_block(*sim))
    if antithetic:
        costs = 0.5 * (costs + batch_costs(model, dynamics._simulate_block(*sim, flip_brownian=True)))
    return costs


def monte_carlo_cost(
    model: HybridModel,
    control: FeedbackControl,
    s: float,
    x0,
    i0: int,
    t_end: float,
    dt: float,
    path_count: int,
    seed: int,
    workers: int = 1,
    antithetic: bool = False,
) -> CostEstimate:
    """Monte Carlo estimate of the expected cost under one control.

    With ``antithetic=True`` (off by default) each even path is paired with a
    Brownian-mirrored partner sharing its stream, and the stderr is computed
    over the pair averages; the baseline estimator stays plain and unbiased.
    Paths are simulated and costed one chunk at a time, so memory holds one
    chunk's states plus the cost vector.
    """
    if path_count < 2:
        raise ValidationError("path_count must be >= 2")
    if antithetic and path_count % 2:
        raise ValidationError("antithetic estimation needs an even path_count")
    n = path_count // 2 if antithetic else path_count
    args = [
        (model, control, s, x0, i0, t_end, dt, seed, first, count, antithetic)
        for first, count in path_chunks(0, n)
    ]
    samples = np.concatenate(list(fan_out(_chunk_costs, args, workers)))
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return CostEstimate(mean, stderr, path_count, seed)
