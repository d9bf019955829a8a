"""Backward-induction value solver on a space-time-regime lattice.

The value function is computed by the one-step recursion

    V[k](x, i) = min over candidate pairs (mu, nu) of
        f(t_k, x, i, mu, nu) dt
        + sum_j p_ij(x, nu, dt) * E_W[ V[k+1](x + b(x,i,mu) dt + sigma(x,i,mu) sqrt(dt) W, j) ]

with V at the final slice equal to the terminal cost.  The expectation over
the Brownian increment uses tensorized Gauss-Hermite quadrature (weights
normalized to unit sum), the regime factor reuses the batched
frozen-generator transition rows of the switching module, and next-slice values
are read off by multilinear interpolation with edge clamping, which keeps
every one-step operator a convex combination and hence preserves lower
bounds of V.  Ties in the minimization break to the lowest candidate-pair
index, so solved grids are bit-reproducible.

The search runs over step-constant Markov policies; that family is exactly
optimal for the discretized problem, while richer path-dependent controls
can only be compared against it through the Monte Carlo side (see the
verification module).

Within a time slice all node minimizations are independent (they are plain
vectorized array ops here); slices are strictly sequential.  A solved grid
is immutable.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

from . import expr as ex
from .control import MeasureBatch, TableControl
from .dynamics import HybridModel
from .errors import ValidationError
from .measure_space import DiscreteMeasure
from .switching import check_step, transition_rows_batch

SCHEMA_VERSION = 1


class GridSpec:
    """Space-time lattice parameters: n_t time steps over the model horizon,
    per-dimension node counts over the truncation box, and the Gauss-Hermite
    order per Brownian dimension."""

    __slots__ = ("time_steps", "space_nodes", "quad_order")

    def __init__(self, time_steps: int, space_nodes, quad_order: int = 5):
        if int(time_steps) < 1:
            raise ValidationError("time_steps must be >= 1")
        nodes = tuple(int(v) for v in np.atleast_1d(space_nodes))
        if any(v < 2 for v in nodes):
            raise ValidationError("need at least 2 space nodes per dimension")
        if int(quad_order) < 1:
            raise ValidationError("quad_order must be >= 1")
        self.time_steps = int(time_steps)
        self.space_nodes = nodes
        self.quad_order = int(quad_order)

    def to_dict(self) -> dict:
        return {
            "time_steps": self.time_steps,
            "space_nodes": list(self.space_nodes),
            "quad_order": self.quad_order,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GridSpec":
        return cls(payload["time_steps"], payload["space_nodes"], payload.get("quad_order", 5))


def gauss_hermite(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[phi(W)], W ~ N(0, I_dim), as a tensor grid.

    Built from the physicists' Hermite rule via the change of variables
    w = sqrt(2) z; weights are normalized to sum exactly to one so constant
    functions integrate exactly.
    """
    z, w = np.polynomial.hermite.hermgauss(order)
    pts_1d = np.sqrt(2.0) * z
    wts_1d = w / np.sum(w)
    grids = list(itertools.product(*([range(order)] * dim)))
    pts = np.array([[pts_1d[g[d]] for d in range(dim)] for g in grids])
    wts = np.array([np.prod([wts_1d[g[d]] for d in range(dim)]) for g in grids])
    wts = wts / np.sum(wts)
    return pts, wts


def space_axes(model: HybridModel, grid: GridSpec) -> list[np.ndarray]:
    if len(grid.space_nodes) != model.state_dim:
        raise ValidationError("space_nodes must have one entry per state dimension")
    return [
        np.linspace(lo, hi, n)
        for lo, hi, n in zip(model.truncation_lower, model.truncation_upper, grid.space_nodes)
    ]


def nodes_mesh(axes: list[np.ndarray]) -> np.ndarray:
    """All lattice points as an (n_nodes, d) array in row-major axis order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def interpolation_matrix(axes: list[np.ndarray], points: np.ndarray) -> tuple[sparse.csr_matrix, int]:
    """Multilinear interpolation weights with edge clamping.

    Returns a (m, n_nodes) sparse matrix whose rows are convex weights, plus
    the count of query points that had to be clamped into the box.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    lows = np.array([a[0] for a in axes])
    highs = np.array([a[-1] for a in axes])
    clamped = int(np.count_nonzero(np.any((pts < lows) | (pts > highs), axis=1)))
    pts = np.clip(pts, lows, highs)

    idx_lo = []
    frac = []
    for dd, axis in enumerate(axes):
        pos = np.searchsorted(axis, pts[:, dd], side="right") - 1
        pos = np.clip(pos, 0, len(axis) - 2)
        width = axis[pos + 1] - axis[pos]
        f = (pts[:, dd] - axis[pos]) / width
        idx_lo.append(pos)
        frac.append(np.clip(f, 0.0, 1.0))

    shape = tuple(len(a) for a in axes)
    corners = list(itertools.product((0, 1), repeat=d))
    cols = np.empty((m, len(corners)), dtype=np.intp)
    vals = np.empty((m, len(corners)))
    for c, corner in enumerate(corners):
        w = np.ones(m)
        multi = []
        for dd, hi_bit in enumerate(corner):
            w = w * (frac[dd] if hi_bit else 1.0 - frac[dd])
            multi.append(idx_lo[dd] + hi_bit)
        cols[:, c] = np.ravel_multi_index(tuple(multi), shape)
        vals[:, c] = w
    # corners in lexicographic order have increasing row-major indices, so
    # every row of 2**d entries is already sorted and free of duplicates
    indptr = np.arange(0, cols.size + 1, len(corners))
    mat = sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(m, int(np.prod(shape))))
    return mat, clamped


class SolverKernels:
    """Precomputed per-regime one-step operators for one grid.

    ``move[i-1]`` is one CSR matrix of shape (n_mu * n_nodes, n_nodes): rows
    ``mi * n_nodes`` to ``(mi + 1) * n_nodes`` are the state-transport kernel
    for drift/diffusion under mu candidate mi: the Gauss-Hermite sum
    sum_q w_q * I(x + b dt + sigma sqrt(dt) W_q) of the interpolation
    matrices of the moved points, added in quadrature-index order, so rows
    are convex and sorted; ``clamp_count`` counts the clamped moved points.
    ``regime_rows[i-1][ni]`` is the (n_nodes, N) matrix of one-step
    transition rows out of regime i under the nu candidate, built for all
    nodes by one ``switching.transition_rows_batch`` call.  Rates and
    coefficients are time-independent, so one set of kernels serves every
    slice, and so do the stage costs unless f reads t.  The solver, the
    residual check and the verification oracles share this object.
    """

    def __init__(self, model: HybridModel, grid: GridSpec, mu_candidates, nu_candidates):
        if not mu_candidates or not nu_candidates:
            raise ValidationError("candidate sets must be nonempty")
        for m in list(mu_candidates) + list(nu_candidates):
            if m.action_set != model.action_set:
                raise ValidationError("candidates must live on the model's action set")
        dt = model.horizon / grid.time_steps
        check_step(model.rates, dt)
        self.model = model
        self.grid = grid
        self.mu_candidates = tuple(mu_candidates)
        self.nu_candidates = tuple(nu_candidates)
        self.dt = dt
        self.times = dt * np.arange(grid.time_steps + 1)
        self.axes = space_axes(model, grid)
        self.nodes = nodes_mesh(self.axes)
        self.n_nodes = self.nodes.shape[0]
        self.clamp_count = 0
        # candidate pairs, mu-major: pair p is (pair_mu[p], pair_nu[p]) = pairs[p]
        self.pair_mu, self.pair_nu = (
            g.ravel() for g in np.indices((len(self.mu_candidates), len(self.nu_candidates)))
        )
        self.pairs = list(zip(self.pair_mu.tolist(), self.pair_nu.tolist()))

        gh_pts, gh_wts = gauss_hermite(grid.quad_order, model.state_dim)
        sqrt_dt = np.sqrt(dt)

        n = model.regime_count
        self.move: list[sparse.csr_matrix] = []
        for i in range(1, n + 1):
            blocks = []
            regs = np.full(self.n_nodes, i)
            for mu in self.mu_candidates:
                mb = MeasureBatch.constant(mu, self.n_nodes)
                b = model.drift_at(self.nodes, regs, mb)
                sig = model.diffusion_at(self.nodes, regs, mb)
                drifted = self.nodes + b * dt
                # moved points for every (node, quadrature) pair
                moved = drifted[:, None, :] + np.einsum("nrc,qc->nqr", sig, gh_pts) * sqrt_dt
                acc = sparse.csr_matrix((self.n_nodes, self.n_nodes))
                for q, w in enumerate(gh_wts):
                    mat, clamped = interpolation_matrix(self.axes, moved[:, q])
                    self.clamp_count += clamped
                    acc = acc + w * mat
                blocks.append(acc)
            self.move.append(sparse.vstack(blocks, format="csr"))

        self.regime_rows: list[np.ndarray] = [
            np.stack([
                transition_rows_batch(
                    model.rates,
                    np.full(self.n_nodes, i),
                    self.nodes,
                    MeasureBatch.constant(nu, self.n_nodes),
                    dt,
                )
                for nu in self.nu_candidates
            ])
            for i in range(1, n + 1)
        ]
        # f dt per regime and pair, when it is the same on every slice
        self.cached_costs = (
            None if "t" in ex.variables(model.running_cost)
            else [self.stage_costs(0.0, i) for i in range(1, n + 1)]
        )

    def stage_costs(self, t: float, i: int) -> np.ndarray:
        """f(t, node, i, mu, nu) dt for every candidate pair, (n_pairs, n_nodes)."""
        mus = [MeasureBatch.constant(m, self.n_nodes) for m in self.mu_candidates]
        nus = [MeasureBatch.constant(m, self.n_nodes) for m in self.nu_candidates]
        regs = np.full(self.n_nodes, i)
        return np.stack([
            self.model.running_cost_at(t, self.nodes, regs, mus[mi], nus[ni]) for mi, ni in self.pairs
        ]) * self.dt

    def stage_values(self, k: int, i: int, v_next: np.ndarray) -> np.ndarray:
        """One-step operator at slice k, regime i, for every candidate pair.

        ``v_next`` is the (n_nodes, N) next-slice table shared by all pairs,
        or an (n_pairs, n_nodes, N) stack with one table per pair.  Returns
        the (n_pairs, n_nodes) stage values: one sparse product per call, and
        per element the same operations as a per-pair evaluation, so the
        solver, the residual check and per-pair references agree bit for bit.
        """
        n, n_mu = self.n_nodes, len(self.mu_candidates)
        if v_next.ndim == 2:
            ev = (self.move[i - 1] @ v_next).reshape(n_mu, n, -1)[self.pair_mu]
        else:
            n_pairs = v_next.shape[0]
            cols = v_next.transpose(1, 0, 2).reshape(n, -1)
            ev = (self.move[i - 1] @ cols).reshape(n_mu, n, n_pairs, -1)
            ev = ev[self.pair_mu, :, np.arange(n_pairs)]
        cont = np.einsum("pnj,pnj->pn", self.regime_rows[i - 1][self.pair_nu], ev)
        if self.cached_costs is not None:
            return self.cached_costs[i - 1] + cont
        return self.stage_costs(float(self.times[k]), i) + cont


class ValueGrid:
    """Solved value table V[k][node][regime] with the stored argmin policy."""

    __slots__ = (
        "grid",
        "axes",
        "times",
        "values",
        "policy_mu",
        "policy_nu",
        "mu_candidates",
        "nu_candidates",
        "clamp_count",
    )

    def __init__(self, grid, axes, times, values, policy_mu, policy_nu, mu_candidates, nu_candidates, clamp_count=0):
        self.grid = grid
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.times = np.asarray(times, dtype=float)
        self.values = values
        self.policy_mu = policy_mu
        self.policy_nu = policy_nu
        self.mu_candidates = tuple(mu_candidates)
        self.nu_candidates = tuple(nu_candidates)
        self.clamp_count = int(clamp_count)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def nodes(self) -> np.ndarray:
        return nodes_mesh(self.axes)

    def time_index(self, t: float) -> int:
        return int(np.clip(round((t - self.times[0]) / self.dt), 0, len(self.times) - 1))

    def value_at(self, t: float, x, regime: int) -> float:
        """V at grid time nearest t, multilinear in x, exact in the regime."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = self.values_at(t, pts, np.full(pts.shape[0], regime))
        return float(out[0]) if pts.shape[0] == 1 else out

    def values_at(self, t: float, x: np.ndarray, regimes: np.ndarray) -> np.ndarray:
        """V at grid time nearest t for each point and its regime: one
        clamped interpolation matrix applied to the slice's (n_nodes, N) table."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        mat, _ = interpolation_matrix(self.axes, pts)
        per_regime = mat @ self.values[self.time_index(t)]
        return per_regime[np.arange(pts.shape[0]), np.asarray(regimes, dtype=int) - 1]

    def to_dict(self) -> dict:
        """The artifact payload; arrays stay NumPy arrays for ``config.artifact_json``."""
        return {
            "schema_version": SCHEMA_VERSION,
            "grid": self.grid.to_dict(),
            "axes": list(self.axes),
            "times": self.times,
            "index_order": "values[k][node][regime], nodes row-major over the axes",
            "values": self.values,
            "policy_mu": self.policy_mu,
            "policy_nu": self.policy_nu,
            "mu_candidates": [m.to_dict() for m in self.mu_candidates],
            "nu_candidates": [m.to_dict() for m in self.nu_candidates],
            "clamp_count": self.clamp_count,
        }

    @classmethod
    def from_dict(cls, payload: dict, action_set) -> "ValueGrid":
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValidationError(f"unsupported value-grid schema {payload.get('schema_version')!r}")
        return cls(
            GridSpec.from_dict(payload["grid"]),
            [np.asarray(a, dtype=float) for a in payload["axes"]],
            payload["times"],
            np.asarray(payload["values"], dtype=float),
            np.asarray(payload["policy_mu"], dtype=np.intp),
            np.asarray(payload["policy_nu"], dtype=np.intp),
            [DiscreteMeasure.from_dict(action_set, m) for m in payload["mu_candidates"]],
            [DiscreteMeasure.from_dict(action_set, m) for m in payload["nu_candidates"]],
            payload.get("clamp_count", 0),
        )


def solve(model: HybridModel, grid: GridSpec, mu_candidates, nu_candidates, kernels=None) -> ValueGrid:
    """Backward induction over the lattice; returns values and argmin policy.

    ``kernels`` is a prebuilt ``SolverKernels`` of the same model, grid and
    candidates, to share with ``dpp_residual``; it is built when omitted.
    """
    kern = kernels or SolverKernels(model, grid, mu_candidates, nu_candidates)
    n_t = grid.time_steps
    n_reg = model.regime_count

    values = np.empty((n_t + 1, kern.n_nodes, n_reg))
    terminal = model.terminal_cost_at(kern.nodes)
    for j in range(n_reg):
        values[n_t][:, j] = terminal
    policy_mu = np.zeros((n_t, kern.n_nodes, n_reg), dtype=np.intp)
    policy_nu = np.zeros((n_t, kern.n_nodes, n_reg), dtype=np.intp)

    for k in range(n_t - 1, -1, -1):
        for i in range(1, n_reg + 1):
            stacked = kern.stage_values(k, i, values[k + 1])
            best = np.argmin(stacked, axis=0)  # first occurrence = lowest pair index
            values[k][:, i - 1] = stacked[best, np.arange(kern.n_nodes)]
            policy_mu[k][:, i - 1] = kern.pair_mu[best]
            policy_nu[k][:, i - 1] = kern.pair_nu[best]

    return ValueGrid(
        grid,
        kern.axes,
        kern.times,
        values,
        policy_mu,
        policy_nu,
        kern.mu_candidates,
        kern.nu_candidates,
        kern.clamp_count,
    )


def dpp_residual(value_grid: ValueGrid, model: HybridModel, k_from: int, k_to: int, kernels=None) -> float:
    """Gap between the stored-policy chaining of the one-step operator over
    [k_from, k_to] and a re-minimization over window-constant candidate
    controls.

    For k_to == k_from + 1 the two sides coincide with the recursion itself
    and the residual is exactly zero; over longer windows the window-constant
    class is coarser than per-step policies and the gap is O(dt) in general.
    ``kernels`` is the grid's prebuilt ``SolverKernels``, built when omitted.
    """
    n_t = value_grid.grid.time_steps
    if not 0 <= k_from < k_to <= n_t:
        raise ValidationError("need 0 <= k_from < k_to <= time steps")
    kern = kernels or SolverKernels(model, value_grid.grid, value_grid.mu_candidates, value_grid.nu_candidates)
    n_reg = model.regime_count
    n_nu = len(kern.nu_candidates)
    nodes = np.arange(kern.n_nodes)

    # side A chains the one-step operator with the stored per-step minimizers;
    # side B holds each candidate pair fixed on the whole window, one table per pair
    chained = value_grid.values[k_to].copy()
    held = np.repeat(chained[None], len(kern.pair_mu), axis=0)
    for k in range(k_to - 1, k_from - 1, -1):
        nxt, held_nxt = np.empty_like(chained), np.empty_like(held)
        for i in range(1, n_reg + 1):
            # pair (mi, ni) sits at mi * n_nu + ni
            stored = value_grid.policy_mu[k][:, i - 1] * n_nu + value_grid.policy_nu[k][:, i - 1]
            nxt[:, i - 1] = kern.stage_values(k, i, chained)[stored, nodes]
            held_nxt[:, :, i - 1] = kern.stage_values(k, i, held)
        chained, held = nxt, held_nxt

    return float(np.max(np.abs(chained - np.min(held, axis=0))))


def extract_policy(value_grid: ValueGrid) -> TableControl:
    """Greedy table policy: (time slice, nearest node, regime) -> argmin pair."""
    return TableControl(
        origin=float(value_grid.times[0]),
        dt=value_grid.dt,
        axes=value_grid.axes,
        policy_mu=value_grid.policy_mu,
        policy_nu=value_grid.policy_nu,
        mu_candidates=value_grid.mu_candidates,
        nu_candidates=value_grid.nu_candidates,
    )
