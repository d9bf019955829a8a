"""State- and control-dependent regime switching.

A RateSpec holds the off-diagonal transition-rate expressions q_ij(x, nu)
(nu enters through its moments) together with the declared uniform bound M
on the exit rates q_i = sum_{j != i} q_ij.  The diagonal is always derived,
so the rate matrix is conservative by construction.

The regime process is driven by a Poisson random measure of intensity
Lambda = M (plus a rounding allowance): at each of its points, a regime i
jumps to j != i when the point's mark falls in an interval of length q_ij,
and stays otherwise.  ``jump_kernel`` is that mark law as a stochastic
matrix, P = I + Q(x, nu) / Lambda: q_ij / Lambda off the diagonal and
1 - q_i / Lambda for staying, every entry nonnegative by construction.

Per-step transitions over dt freeze the generator at the step-start (x, nu)
and use its matrix exponential, which matches the infinitesimal law
q_ij * dt + o(dt) to first order without the negativity artifacts of naive
Bernoulli thinning.  ``check_step`` enforces dt * M <= 0.1 so the o(dt)
terms stay controlled and multi-jump probability per step is second order.

The solver and the simulator take their rows from ``transition_rows_batch``,
which evaluates exp(Q dt) = e^{-lambda} exp(lambda P), lambda = dt * Lambda,
as a Poisson-weighted sum of kernel powers for a whole batch of
(regime, x, nu) at once (uniformization; Jensen, Skand. Aktuarietidskr. 36,
1953).  ``pick_regime`` turns rows and uniform draws into the next regimes.
``transition_matrix`` and ``step_transition_probs`` use scipy's ``expm`` at
one point and serve as the reference for the batch rows.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from . import expr as ex
from .errors import (
    BoundViolationError,
    ModelError,
    StepSizeError,
    ValidationError,
)

#: Enforced ceiling on dt * M for the frozen-generator step.
DT_RATE_CAP = 0.1
_RATE_TOL = 1e-12


def _poisson_degree(lam: float) -> int:
    """Smallest K with lam**(K+1) / (K+1)! <= 1e-18, the Poisson tail bound
    of a uniformized series cut after the term of degree K."""
    k, remainder = 0, lam
    while remainder > 1e-18:
        k += 1
        remainder *= lam / (k + 1)
    return k


# Coefficients per row block of ``transition_rows_batch``: 2**17 doubles, 1 MiB.
_ROW_BLOCK = 2**17

_ALLOWED_RATE_VARS = {"nu"}  # plus x coordinates, checked by prefix


class RateSpec:
    """Off-diagonal rate expressions q_ij(x, nu) with a declared exit-rate bound M.

    regime_count N may be 1 (no switching) up to 16.  Expressions may
    reference the state coordinates x1..xd and moments of nu only.
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


def jump_kernel(rates: RateSpec, x, nu) -> np.ndarray:
    """The uniformized jump kernel P = I + Q(x, nu) / Lambda as (n, N, N), with
    Lambda = M + ``_RATE_TOL`` so that every exit rate the generator accepts
    leaves a stay entry 1 - q_i / Lambda >= 0.  ``x`` is one state (d,) or a
    batch (n, d); ``nu`` a measure or a batched moment provider."""
    q = rates.off_diagonal(np.atleast_2d(x), nu)
    big_lam = rates.rate_bound + _RATE_TOL
    stay = 1.0 - _exit_rates(q, rates.rate_bound) / big_lam
    q /= big_lam
    idx = np.arange(rates.regime_count)
    q[:, idx, idx] = stay
    return q


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

    Uniformization: with P = ``jump_kernel`` and lambda = dt * Lambda, the row
    is e^{-lambda} sum_k lambda^k / k! e_i P^k, a sum of nonnegative terms, so
    no entry can come out negative.  The series stops at the smallest degree K
    whose Poisson tail lambda^(K+1) / (K+1)! is at most 1e-18 at this call's
    lambda (K = 6, 7 and 10 at dt * M = 0.004, 0.02 and the cap 0.1).  The
    stay entry is then set to 1 minus the row's other entries, so each row
    sums to 1 and an absorbing regime (q_i = 0) keeps the row e_i exactly.
    Agreement with ``transition_matrix`` is tested at 1e-15.

    The recurrence runs path-last: a block of rows holds lambda P as
    (N, N, rows) and the terms as (N, rows), so each step's einsum loops over
    contiguous rows, not over the N regimes.  A block holds at most
    ``_ROW_BLOCK`` coefficients (1 MiB) to stay in cache at large N; a
    4096-row batch is one block for N <= 5.  Every entry sums over j in the
    order of the (n, N, N) form ``einsum("nj,njk->nk")``, so the rows are
    bit-identical to it.
    """
    check_step(rates, dt)
    p = jump_kernel(rates, x, nu)
    lam = dt * (rates.rate_bound + _RATE_TOL)
    degree = _poisson_degree(lam)
    n_paths, n = p.shape[0], rates.regime_count
    # (N, n) mask of each row's own regime
    own = np.asarray(regimes, dtype=int) - 1 == np.arange(n)[:, None]
    out = np.empty((n_paths, n))
    block = max(1, _ROW_BLOCK // n**2)
    for s in range(0, n_paths, block):
        a = (p[s : s + block] * lam).transpose(1, 2, 0).copy()
        stay = own[:, s : s + block]
        term = np.where(stay, math.exp(-lam), 0.0)
        acc = term.copy()
        for k in range(1, degree + 1):
            term = np.einsum("jn,jkn->kn", term, a)
            term /= k
            acc += term
        acc = np.where(stay, 0.0, acc)
        out[s : s + block] = np.where(stay, 1.0 - acc.sum(axis=0), acc).T
    return out


def pick_regime(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw over regimes in index order, one draw per row."""
    cdf = np.cumsum(probs, axis=-1)
    idx = np.sum(np.asarray(u)[..., None] >= cdf, axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1) + 1
