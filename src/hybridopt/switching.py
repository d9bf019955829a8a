"""State- and control-dependent regime switching.

A RateSpec holds the off-diagonal transition-rate expressions q_ij(x, nu)
(nu enters through its moments) together with the declared uniform bound M
on the exit rates q_i = sum_{j != i} q_ij.  The diagonal is always derived,
so the rate matrix is conservative by construction.

The per-(x, nu) rates are laid out as a stack of consecutive, left-closed,
right-open intervals inside [0, N(N-1)M], one interval of length q_ij per
ordered pair (row by row, columns ascending, empty when the rate vanishes).
A uniform draw on that range triggers the jump whose interval it hits;
``jump_displacement`` returns the signed regime change l - i, or 0.

Per-step transitions over dt freeze the generator at the step-start (x, nu)
and use its matrix exponential, which matches the infinitesimal law
q_ij * dt + o(dt) to first order without the negativity artifacts of naive
Bernoulli thinning.  ``check_step`` enforces dt * M <= 0.1 so the o(dt)
terms stay controlled and multi-jump probability per step is second order.

The solver and the simulator take their rows from ``transition_rows_batch``,
a truncated Taylor series evaluated for a whole batch of (regime, x, nu) at
once; its degree follows from the enforced bound ||Q dt|| <= 2 * dt * M <= 0.2.
``pick_regime`` turns rows and uniform draws into the next regimes.
``transition_matrix`` and ``step_transition_probs`` use scipy's ``expm`` at
one point and serve as the reference for the batch rows.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from . import expr as ex
from .errors import (
    BoundViolationError,
    DomainError,
    ModelError,
    StepSizeError,
    ValidationError,
)

#: Enforced ceiling on dt * M for the frozen-generator step.
DT_RATE_CAP = 0.1
_RATE_TOL = 1e-12


def _taylor_degree(norm_bound: float, tol: float) -> int:
    """Smallest K with norm_bound**(K+1) / (K+1)! <= tol."""
    k, remainder = 0, norm_bound
    while remainder > tol:
        k += 1
        remainder *= norm_bound / (k + 1)
    return k


# ||Q dt||_inf <= 2 * dt * M: the diagonal and the off-diagonal part of a row
# each carry the exit rate.  With the cap 0.1 this gives K = 12.
_TAYLOR_DEGREE = _taylor_degree(2 * DT_RATE_CAP, 1e-18)
# Coefficients per row block of ``transition_rows_batch``: 2**17 doubles, 1 MiB.
_ROW_BLOCK = 2**17

_ALLOWED_RATE_VARS = {"nu"}  # plus x coordinates, checked by prefix


class RateSpec:
    """Off-diagonal rate expressions q_ij(x, nu) with a declared exit-rate bound M.

    regime_count N may be 1 (no switching; the layout degenerates to the
    empty stack with cap 0) up to 16.  Expressions may reference the state
    coordinates x1..xd and moments of nu only.
    """

    __slots__ = ("regime_count", "rate_bound", "exprs")

    def __init__(self, regime_count: int, rate_exprs, rate_bound: float):
        n = int(regime_count)
        if not 1 <= n <= 16:
            raise ValidationError("regime_count must be between 1 and 16")
        bound = float(rate_bound)
        if n >= 2 and bound <= 0:
            raise ValidationError("rate_bound must be positive when there are 2+ regimes")
        if bound < 0:
            raise ValidationError("rate_bound must be nonnegative")
        table: list[tuple] = []
        for i in range(n):
            row = []
            for j in range(n):
                e = None
                if i != j:
                    raw = rate_exprs[i][j]
                    if raw is None:
                        e = ex.Num(0.0)
                    elif isinstance(raw, str):
                        e = ex.parse(raw)
                    else:
                        e = raw
                    for name in ex.variables(e):
                        if not name.startswith("x") and name not in _ALLOWED_RATE_VARS:
                            raise ValidationError(
                                f"rate q_{i + 1}{j + 1} may depend on x and nu only, found {name!r}"
                            )
                row.append(e)
            table.append(tuple(row))
        self.regime_count = n
        self.rate_bound = bound
        self.exprs = tuple(table)

    def off_diagonal(self, x, nu) -> np.ndarray:
        """Evaluate q_ij at one (x, nu); returns (N, N) with a zero diagonal.

        ``x`` may also be a batch (n, d) and ``nu`` a batched moment provider,
        in which case the result is (n, N, N).
        """
        n = self.regime_count
        x = np.asarray(x, dtype=float)
        batch = x.ndim == 2
        env = {"x": x, "nu": nu}
        shape = (x.shape[0], n, n) if batch else (n, n)
        q = np.zeros(shape)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                val = ex.evaluate(self.exprs[i][j], env)
                q[..., i, j] = val
        return q

    def generator(self, x, nu) -> np.ndarray:
        """Conservative generator Q(x, nu): off-diagonal rates, diagonal -q_i.
        Negative or NaN rates and exit rates above the declared bound are rejected."""
        q = self.off_diagonal(x, nu)
        idx = np.arange(self.regime_count)
        q[..., idx, idx] = -_exit_rates(q, self.rate_bound)
        return q


def _exit_rates(q: np.ndarray, bound: float) -> np.ndarray:
    """Row sums of the off-diagonal rates q; rejects rates not >= 0 (negative or NaN) and sums above bound."""
    if not np.all(q >= 0):
        raise ModelError(f"negative or NaN transition rate encountered (min {float(np.min(q))!r})")
    exit_rates = q.sum(axis=-1)
    if np.any(exit_rates > bound + _RATE_TOL):
        raise BoundViolationError(f"exit rate {float(np.max(exit_rates))!r} exceeds declared bound {bound}")
    return exit_rates


class IntervalLayout:
    """The interval stack for one evaluated rate matrix.

    ``lengths[i, j]`` is exactly the evaluated q_ij; starts/ends come from a
    single running sum, so consecutive intervals share their boundary floats
    and the row-i lengths sum to the row exit rate without rounding slack.
    """

    __slots__ = ("regime_count", "lengths", "starts", "ends", "total_mass", "cap")

    def __init__(self, regime_count: int, lengths: np.ndarray, rate_bound: float):
        n = regime_count
        order = [(i, j) for i in range(n) for j in range(n) if j != i]
        flat = np.array([lengths[i, j] for i, j in order], dtype=float)
        bounds = np.concatenate([[0.0], np.cumsum(flat)])
        starts = np.zeros((n, n))
        ends = np.zeros((n, n))
        for m, (i, j) in enumerate(order):
            starts[i, j] = bounds[m]
            ends[i, j] = bounds[m + 1]
        for arr in (lengths, starts, ends):
            arr.setflags(write=False)
        self.regime_count = n
        self.lengths = lengths
        self.starts = starts
        self.ends = ends
        self.total_mass = float(bounds[-1])
        self.cap = n * (n - 1) * rate_bound

    def interval(self, i: int, j: int):
        """Half-open interval [left, right) for the ordered pair, or None if empty."""
        a, b = self.starts[i - 1, j - 1], self.ends[i - 1, j - 1]
        if i == j or not b > a:
            return None
        return (float(a), float(b))


def build_intervals(rates: RateSpec, x, nu) -> IntervalLayout:
    """Evaluate the rates at one (x, nu) and stack their intervals row by row."""
    q = rates.off_diagonal(x, nu)
    if q.ndim != 2:
        raise ValidationError("build_intervals takes a single state, not a batch")
    _exit_rates(q, rates.rate_bound)
    return IntervalLayout(rates.regime_count, q, rates.rate_bound)


def jump_displacement(layout: IntervalLayout, i: int, z: float) -> int:
    """Signed regime change triggered by z: (l - i) if z lies in the row-i
    interval of pair (i, l), else 0."""
    n = layout.regime_count
    if not 1 <= i <= n:
        raise ValidationError(f"regime {i} out of range 1..{n}")
    if not 0.0 <= z <= layout.cap:
        raise DomainError(f"draw {z!r} outside [0, {layout.cap}]")
    row = i - 1
    for j in range(n):
        if j == row:
            continue
        if layout.starts[row, j] <= z < layout.ends[row, j]:
            return (j + 1) - i
    return 0


def check_step(rates: RateSpec, dt: float) -> None:
    """Reject dt <= 0 and dt * M above ``DT_RATE_CAP``; the simulator, the
    solver kernels and every transition-row call go through this check."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if dt * rates.rate_bound > DT_RATE_CAP + _RATE_TOL:
        raise StepSizeError(
            f"dt * M = {dt * rates.rate_bound!r} exceeds the cap {DT_RATE_CAP}; shrink dt"
        )


def transition_matrix(rates: RateSpec, x, nu, dt: float) -> np.ndarray:
    """Exact expm(Q(x, nu) * dt) for one (x, nu)."""
    check_step(rates, dt)
    q = rates.generator(x, nu)
    if q.ndim != 2:
        raise ValidationError("transition_matrix takes a single state, not a batch")
    p = expm(q * dt)
    return np.clip(p, 0.0, None)


def step_transition_probs(rates: RateSpec, i: int, x, nu, dt: float) -> np.ndarray:
    """Row i of the exact frozen-generator exponential over one step."""
    n = rates.regime_count
    if not 1 <= i <= n:
        raise ValidationError(f"regime {i} out of range 1..{n}")
    return transition_matrix(rates, x, nu, dt)[i - 1]


def transition_rows_batch(rates: RateSpec, regimes: np.ndarray, x: np.ndarray, nu, dt: float) -> np.ndarray:
    """Row ``regimes[n]`` of exp(Q(x[n], nu[n]) dt) for every n in the batch.

    The exponential is a Taylor series of degree K, the smallest with
    (2 * DT_RATE_CAP)**(K+1) / (K+1)! <= 1e-18 (K = 12).  ``check_step``
    enforces dt * M <= DT_RATE_CAP, so ||Q dt||_inf <= 0.2 and the truncation
    error is far below double precision (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33(2), 2011).  Agreement with ``step_transition_probs`` is tested
    at 1e-12, also at dt * M = DT_RATE_CAP.

    The recurrence runs path-last: a block of rows holds Q dt as (N, N, rows)
    and the terms as (N, rows), so each step's einsum loops over contiguous
    rows, not over the N regimes.  A block holds at most ``_ROW_BLOCK``
    coefficients (1 MiB) to stay in cache at large N; a 4096-row batch is one
    block for N <= 5.  Every entry sums over j in the order of the (n, N, N)
    form ``einsum("nj,njk->nk")``, so the rows are bit-identical to it.
    """
    check_step(rates, dt)
    q = rates.generator(np.atleast_2d(x), nu)
    n_paths, n = q.shape[0], rates.regime_count
    out = np.zeros((n_paths, n))
    out[np.arange(n_paths), np.asarray(regimes, dtype=int) - 1] = 1.0
    block = max(1, _ROW_BLOCK // n**2)
    for s in range(0, n_paths, block):
        a = (q[s : s + block] * dt).transpose(1, 2, 0).copy()
        term = out[s : s + block].T.copy()
        acc = term.copy()
        for k in range(1, _TAYLOR_DEGREE + 1):
            term = np.einsum("jn,jkn->kn", term, a)
            term /= k
            acc += term
        out[s : s + block] = acc.T
    return np.clip(out, 0.0, None, out=out)


def pick_regime(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw over regimes in index order, one draw per row."""
    cdf = np.cumsum(probs, axis=-1)
    idx = np.sum(np.asarray(u)[..., None] >= cdf, axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1) + 1
