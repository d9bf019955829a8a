"""Monte Carlo evaluation of the expected finite-horizon cost.

A path's cost is the left-point quadrature of the running cost plus the
terminal cost,

    sum_k f(t_k, X_k, Lam_k, mu_k, nu_k) * dt + g(X_n),

evaluated at step-start values so the integrand is adapted, matching the
Euler scheme's filtration.  The engine adds up the running sum while it
steps one chunk of paths at a time (``dynamics.simulate_chunks`` in its
costing mode) and records no path (only the states a history-reading
control needs); the estimator adds g at each path's end state and averages
the (paths,) cost vector.  The paths read block-keyed counter streams, so
with a fixed seed the estimate is deterministic and independent of the
worker count.
"""
from __future__ import annotations

import numpy as np

from .control import FeedbackControl
from .dynamics import HybridModel, simulate_chunks
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
    Paths are costed one chunk at a time, so memory holds one chunk's draws
    (and states, for a control that reads history) plus the cost vector.
    """
    if path_count < 2:
        raise ValidationError("path_count must be >= 2")
    if antithetic and path_count % 2:
        raise ValidationError("antithetic estimation needs an even path_count")
    n = path_count // 2 if antithetic else path_count
    costs = []
    for chunk in simulate_chunks(model, control, s, x0, i0, t_end, dt, seed, n, workers, costing=True, antithetic=antithetic):
        pathwise = chunk.running + model.terminal_cost_at(chunk.x)
        if not np.all(np.isfinite(pathwise)):
            raise NumericalError("a pathwise cost is not finite")
        costs.append(pathwise)
    # an antithetic run yields each chunk's plain pass, then its mirrored one
    samples = 0.5 * (np.concatenate(costs[::2]) + np.concatenate(costs[1::2])) if antithetic else np.concatenate(costs)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return CostEstimate(mean, stderr, path_count, seed)
