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
1953).  ``pick_regime`` turns rows and uniform draws into the next regimes;
``interval_draw`` decides most draws from the rows' first-order terms alone.

Batches are path-last: rates, kernel and rows are held as (N, N, n) and
(N, n), so each numpy call runs over a contiguous path vector, and handed
out as (n, N, N) and (n, N) views.  Exit rates are summed over the path
vectors in numpy's order for one row of N terms (not left to right at
N >= 8), so they match the (n, N, N) ``sum(axis=-1)`` bit for bit.
Nothing here needs scipy: the ``expm`` reference the rows are checked
against lives with the verification battery (``oracle_verify``).
"""
from __future__ import annotations

import itertools
import math

import numpy as np

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
                    e = ex.Compiled(e)
                row.append(e)
            table.append(tuple(row))
        self.regime_count = n
        self.rate_bound = bound
        self.exprs = tuple(table)

    def path_last(self, x, nu) -> np.ndarray:
        """q_ij at a batch of states x (n, d) and a batched moment provider nu
        (or one measure for all) as (N, N, n), with a zero diagonal."""
        n = self.regime_count
        x = np.asarray(x, dtype=float)
        env = {"x": x, "nu": nu}
        q = np.zeros((n, n, x.shape[0]))
        for i, j in itertools.permutations(range(n), 2):
            q[i, j] = self.exprs[i][j](env)
        return q

    def off_diagonal(self, x, nu) -> np.ndarray:
        """``path_last`` copied to a C-ordered (n, N, N) array, whose row sums run in numpy's order."""
        return np.ascontiguousarray(self.path_last(x, nu).transpose(2, 0, 1))

    def generator(self, x, nu) -> np.ndarray:
        """Conservative generator Q(x, nu) as an (n, N, N) view: off-diagonal
        rates, diagonal -q_i.  Negative or NaN rates and exit rates above the
        declared bound are rejected."""
        q = self.path_last(x, nu)
        idx = np.arange(self.regime_count)
        q[idx, idx] = -_exit_rates(q, self.rate_bound)
        return q.transpose(2, 0, 1)


def _exit_rates(q: np.ndarray, bound: float) -> np.ndarray:
    """Exit rates sum_j q_ij of a path-last (N, N, n) table as (N, n); rejects
    rates not >= 0 (negative or NaN) and sums above bound.  The terms are added
    in the order of numpy's pairwise sum over a contiguous row of N: left to
    right for N < 8, else eight running sums over j mod 8 combined as a tree,
    then the last N mod 8 terms."""
    if not np.all(q >= 0):
        raise ModelError(f"negative or NaN transition rate encountered (min {float(np.min(q))!r})")
    n = q.shape[1]
    if n < 8:
        exit_rates, tail = q[:, 0].copy(), 1
    else:
        r, tail = q[:, :8].copy(), n - n % 8
        for j in range(8, tail, 8):
            r += q[:, j : j + 8]
        exit_rates = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    for j in range(tail, n):
        exit_rates += q[:, j]
    if np.any(exit_rates > bound + _RATE_TOL):
        raise BoundViolationError(f"exit rate {float(np.max(exit_rates))!r} exceeds declared bound {bound}")
    return exit_rates


def jump_kernel(rates: RateSpec, x, nu) -> np.ndarray:
    """The uniformized jump kernel P = I + Q(x, nu) / Lambda, with Lambda = M +
    ``_RATE_TOL`` so that every exit rate the generator accepts leaves a stay
    entry 1 - q_i / Lambda >= 0.  ``x`` is one state (d,) or a batch (n, d);
    ``nu`` a measure or a batched moment provider.  Built path-last, (N, N, n),
    with exit rates in the (n, N, N) ``sum(axis=-1)`` order also at N >= 8;
    returned as its (n, N, N) view, whose ``.transpose(1, 2, 0)`` is that array."""
    q = rates.path_last(np.atleast_2d(x), nu)
    big_lam = rates.rate_bound + _RATE_TOL
    stay = 1.0 - _exit_rates(q, rates.rate_bound) / big_lam
    q /= big_lam
    idx = np.arange(rates.regime_count)
    q[idx, idx] = stay
    return q.transpose(2, 0, 1)


def check_step(rates: RateSpec, dt: float) -> None:
    """Reject dt <= 0 and dt * M above ``DT_RATE_CAP``; the simulator, the
    solver kernels and every transition-row call go through this check."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if dt * rates.rate_bound > DT_RATE_CAP + _RATE_TOL:
        raise StepSizeError(
            f"dt * M = {dt * rates.rate_bound!r} exceeds the cap {DT_RATE_CAP}; shrink dt"
        )


def transition_rows_batch(rates: RateSpec, regimes: np.ndarray, x: np.ndarray, nu, dt: float) -> np.ndarray:
    """Row ``regimes[n]`` of exp(Q(x[n], nu[n]) dt) for every n in the batch.

    Uniformization: with P = ``jump_kernel`` and lambda = dt * Lambda, the row
    is e^{-lambda} sum_k lambda^k / k! e_i P^k, a sum of nonnegative terms, so
    no entry can come out negative.  The series stops at the smallest degree K
    whose Poisson tail lambda^(K+1) / (K+1)! is at most 1e-18 at this call's
    lambda (K = 6, 7 and 10 at dt * M = 0.004, 0.02 and the cap 0.1).  The
    stay entry is then set to 1 minus the row's other entries, so each row
    sums to 1 and an absorbing regime (q_i = 0) keeps the row e_i exactly.
    Agreement with scipy's ``expm`` (``oracle_verify.transition_matrix``) is
    tested at 1e-15.

    The recurrence runs path-last on ``jump_kernel``'s (N, N, n) array: a
    block of rows holds lambda P as (N, N, rows) and the terms as (N, rows), so
    each einsum loops over contiguous rows, not over the N regimes.  A block
    holds at most ``_ROW_BLOCK`` coefficients (1 MiB) to stay in cache at large
    N; a 4096-row batch is one block for N <= 5.  Each entry sums over j in the
    order of the (n, N, N) form ``einsum("nj,njk->nk")``, and the kernel's exit
    rates in the order of its ``sum(axis=-1)`` also at N >= 8, so the rows are
    bit-identical to that form.  They are returned as the (n, N) view of an
    (N, n) array, whose columns ``pick_regime`` reads contiguously.
    """
    check_step(rates, dt)
    p = jump_kernel(rates, x, nu).transpose(1, 2, 0)
    lam = dt * (rates.rate_bound + _RATE_TOL)
    degree = _poisson_degree(lam)
    n, n_paths = p.shape[0], p.shape[2]
    # (N, n) mask of each row's own regime
    own = np.asarray(regimes, dtype=int) - 1 == np.arange(n)[:, None]
    out = np.empty((n, n_paths))
    block = max(1, _ROW_BLOCK // n**2)
    for s in range(0, n_paths, block):
        a = p[..., s : s + block] * lam
        stay = own[:, s : s + block]
        term = np.where(stay, math.exp(-lam), 0.0)
        acc = term.copy()
        for k in range(1, degree + 1):
            term = np.einsum("jn,jkn->kn", term, a)
            term /= k
            acc += term
        acc = np.where(stay, 0.0, acc)
        out[:, s : s + block] = np.where(stay, 1.0 - acc.sum(axis=0), acc)
    return out.T


def _draw_band(lam: float) -> float:
    """tau = 1 - e^{-lam}(1 + lam), the Poisson mass of the degree >= 2 terms, plus 1e-12 for rounding."""
    return 1.0 - math.exp(-lam) * (1.0 + lam) + 1e-12


def interval_draw(rates: RateSpec, regimes: np.ndarray, x: np.ndarray, nu, dt: float, u):
    """``pick_regime(transition_rows_batch(...), u)`` from the rows' degree-1 terms
    a_j = e^{-lam} dt q_ij (j != i), the Gamma_ij scaled, as (next regimes, the
    straddlers, whose entries only full rows decide).  The other terms add at most
    tau (``_draw_band``) to a row in all, so CDF boundary c_m lies within tau of
    b_m = A_m + [m >= i - 1](1 - S), A and S the prefix sums and sum of a.  Rates
    are read and checked as ``jump_kernel`` does."""
    check_step(rates, dt)
    q = rates.path_last(x, nu)
    _exit_rates(q, rates.rate_bound)
    lam = dt * (rates.rate_bound + _RATE_TOL)
    n, own = rates.regime_count, np.asarray(regimes) - 1
    cdf = q[0]
    for i in range(1, n):
        cdf = np.where(own == i, q[i], cdf)
    cdf = cdf * (math.exp(-lam) * dt)
    for j in range(1, n):
        cdf[j] += cdf[j - 1]
    b = cdf[:-1] + (np.arange(n - 1)[:, None] >= own) * (1.0 - cdf[-1])
    straddlers = np.flatnonzero(np.any(np.abs(u - b) <= _draw_band(lam), axis=0))
    return np.count_nonzero(u > b, axis=0) + 1, straddlers


def pick_regime(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw over regimes in index order, one draw per row of probs
    (..., N).  The CDF is accumulated one column at a time, in ``cumsum``'s
    order, so the draws are those of the ``cumsum`` form."""
    n, u = probs.shape[-1], np.asarray(u)
    cdf = probs[..., 0].copy()
    idx = (u >= cdf).astype(np.intp)
    for j in range(1, n):
        cdf += probs[..., j]
        idx += u >= cdf
    return np.minimum(idx, n - 1) + 1
