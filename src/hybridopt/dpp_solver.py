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
bounds of V.  Quadrature and interpolation fold into one sparse movement
operator per regime and mu candidate.  Ties in the minimization break to
the lowest candidate-pair index, so solved grids are bit-reproducible.

The search runs over step-constant Markov policies; that family is exactly
optimal for the discretized problem, while richer path-dependent controls
can only be compared against it through the Monte Carlo side (see the
verification module).  The argmin policy stays in the ``ValueGrid``;
``control.TableControl(value_grid)`` replays it as a feedback control.

Within a time slice all node minimizations are independent (they are plain
vectorized array ops here); slices are strictly sequential.  A solved grid
is immutable.

scipy is imported only by ``_csr``, the one place a CSR matrix is built.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import expr as ex
from .control import MeasureBatch
from .dynamics import HybridModel
from .errors import CapacityError, NumericalError, ValidationError
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


# (node, quadrature point, corner) triples per block of the interpolation
# build; a block's dense windows also hold at most 4x as many slots
_BLOCK = 2**16


def _interpolation_rows(axes: list[np.ndarray], points: np.ndarray, weights: np.ndarray):
    """Rows sum_q weights[q] * I(points[q]) of clamped multilinear interpolation.

    ``points`` is (Q, m, d): Q query points for each of m rows.  Each entry
    is 0.0 + weights[0] * v_0 + weights[1] * v_1 + ... in quadrature order,
    the sum that ``acc = acc + w * I_q`` over q builds, and zero sums are
    dropped.  Rows are built in blocks of at most ``_BLOCK`` (row, q,
    corner) triples, each summed by one ``np.bincount`` over a dense window
    per row.  Returns per-block ``(entries per row, sorted column indices,
    values)`` and the count of query points clamped into the box.
    """
    n_q, m, d = points.shape
    rows = max(1, _BLOCK // (n_q << d))
    blocks = []
    clamped = 0
    for s in range(0, m, rows):
        clamped += _rows_block(axes, points[:, s : s + rows], weights, blocks)
    return blocks, clamped


def _rows_block(axes, pts, weights, out) -> int:
    """Append one block of ``_interpolation_rows`` to ``out``; returns its
    clamped count."""
    n_q, m, d = pts.shape
    # lowest cell index and the corner weights, (Q, corner, row) with corners
    # lexicographic; each weight multiplies its factors in dimension order
    lo = np.empty((d, n_q, m), dtype=np.intp)
    vals = np.ones((n_q, 1, m))
    outside = np.zeros((n_q, m), dtype=bool)
    for dd, axis in enumerate(axes):
        x = pts[..., dd]
        outside |= (x < axis[0]) | (x > axis[-1])
        x = np.clip(x, axis[0], axis[-1])
        pos = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2)
        f = np.clip((x - axis[pos]) / (axis[pos + 1] - axis[pos]), 0.0, 1.0)
        lo[dd] = pos
        vals = (vals[:, :, None] * np.stack((1.0 - f, f), axis=1)[:, None]).reshape(n_q, -1, m)
    vals *= weights[:, None, None]
    _window_sums([len(a) for a in axes], lo, vals, out)
    return int(np.count_nonzero(outside))


def _window_sums(shape, lo, vals, out) -> None:
    """Sum a block's weighted corners over a dense window per row and append
    its nonzero entries to ``out``.  A block whose windows would exceed 4
    ``_BLOCK`` slots is split, so one wide row cannot blow it up."""
    d, n_q, m = lo.shape
    # each row's window spans its cells in every dimension, from its lowest one
    first = lo.min(axis=1)
    span = (lo.max(axis=1) - first).max(axis=1) + 2
    size = int(np.prod(span))
    if m > 1 and m * size > 4 * _BLOCK:
        step = max(1, 4 * _BLOCK // size)
        for s in range(0, m, step):
            _window_sums(shape, lo[:, :, s : s + step], vals[:, :, s : s + step], out)
        return
    span = tuple(span.tolist())
    slot = np.arange(m) * size + np.ravel_multi_index(tuple(lo - first[:, None, :]), span)
    corners = np.ravel_multi_index(np.indices((2,) * d).reshape(d, -1), span)
    # q-major input: every slot sums its contributions in quadrature order
    sums = np.bincount((slot[:, None, :] + corners[:, None]).ravel(), vals.ravel(), minlength=m * size)

    # window slots in row-major order are grid columns in increasing order
    hit = np.flatnonzero(sums != 0)
    row, local = np.divmod(hit, size)
    # CSR's own index type whenever the grid allows it, so no copy converts it
    index_type = np.int32 if np.prod(shape) < 2**31 else np.intp
    offsets = np.ravel_multi_index(np.indices(span).reshape(d, -1), shape).astype(index_type)
    cols = np.ravel_multi_index(tuple(first), shape).astype(index_type)[row] + offsets[local]
    out.append((np.bincount(row, minlength=m), cols, sums[hit]))


def _csr(blocks, n_cols: int) -> sparse.csr_matrix:
    """One CSR matrix from ``_interpolation_rows`` blocks, rows in order."""
    from scipy import sparse

    if not blocks:
        return sparse.csr_matrix((0, n_cols))
    counts, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_matrix((vals, cols, indptr), shape=(counts.size, n_cols))


def interpolation_matrix(axes: list[np.ndarray], points: np.ndarray) -> tuple[sparse.csr_matrix, int]:
    """Multilinear interpolation weights with edge clamping.

    Returns a (m, n_nodes) sparse matrix whose rows are convex weights, with
    zero weights dropped, plus the count of query points that had to be
    clamped into the box.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    blocks, clamped = _interpolation_rows(axes, pts[None], np.ones(1))
    return _csr(blocks, int(np.prod([len(a) for a in axes]))), clamped


#: Cap on ``move_entry_bound``.  A 21^3, q = 5 solve peaks at about 16 bytes
#: of RSS per stored entry, so a build at the cap stays near 1.6 GB.
MOVE_ENTRY_BUDGET = 100_000_000


def move_entry_bound(model: HybridModel, grid: GridSpec, n_mu: int) -> int:
    """Most entries the movement operators can store: each of their
    N * n_mu * n_nodes rows holds at most q^d * 2^d corners, and no more
    than n_nodes columns."""
    n_nodes, d = math.prod(grid.space_nodes), len(grid.space_nodes)
    return model.regime_count * n_mu * n_nodes * min(grid.quad_order**d * 2**d, n_nodes)


class SolverKernels:
    """Precomputed per-regime one-step operators for one grid.

    ``move[i-1][mi]`` is the (n_nodes, n_nodes) CSR state-transport kernel of
    regime i under mu candidate mi: the Gauss-Hermite sum
    sum_q w_q * I(x + b dt + sigma sqrt(dt) W_q) of the interpolation rows
    of the moved points.  ``_interpolation_rows`` builds it in blocks of
    nodes, one ``np.bincount`` per block adding each entry's terms in
    quadrature-index order, as adding the matrices I_q one by one would, so
    rows are convex and sorted.  Beyond the finished operators the build
    holds one candidate's moved points and blocks, and one block in the
    making: at most ``_BLOCK`` (node, q, corner) triples and 4 ``_BLOCK``
    window slots.  ``clamp_count`` counts the clamped moved
    points; a drift or diffusion that is not finite at a node raises
    ``NumericalError``, and a grid whose ``move_entry_bound`` is above
    ``MOVE_ENTRY_BUDGET`` raises ``CapacityError`` before the build.
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
        bound = move_entry_bound(model, grid, len(mu_candidates))
        if bound > MOVE_ENTRY_BUDGET:
            raise CapacityError(f"the movement operators may hold {bound} entries, over the budget of {MOVE_ENTRY_BUDGET}")
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

        n = model.regime_count
        self.move: list[list[sparse.csr_matrix]] = [[] for _ in range(n)]
        for i in range(1, n + 1):
            for mu in self.mu_candidates:
                blocks, clamped = _interpolation_rows(self.axes, self._moved_points(i, mu, gh_pts), gh_wts)
                self.move[i - 1].append(_csr(blocks, self.n_nodes))
                self.clamp_count += clamped
                del blocks  # before the next candidate's points are moved

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
            None if "t" in ex.variables(model.running_cost.node)
            else [self.stage_costs(0.0, i) for i in range(1, n + 1)]
        )

    def _moved_points(self, i: int, mu, gh_pts: np.ndarray) -> np.ndarray:
        """x + b dt + sigma sqrt(dt) W_q for every quadrature point q and
        node x, as (Q, n_nodes, d); sigma W_q sums over c in index order."""
        regs = np.full(self.n_nodes, i)
        mb = MeasureBatch.constant(mu, self.n_nodes)
        b = self.model.drift_at(self.nodes, regs, mb)
        sig = self.model.diffusion_at(self.nodes, regs, mb)
        for name, coef in (("drift", b), ("diffusion", sig)):
            bad = ~np.isfinite(coef.reshape(self.n_nodes, -1)).all(axis=1)
            if bad.any():
                node = self.nodes[np.argmax(bad)].tolist()
                raise NumericalError(f"{name} of regime {i} is not finite at node {node}")
        moved = sig[None, :, :, 0] * gh_pts[:, None, None, 0]
        for c in range(1, gh_pts.shape[1]):
            moved += sig[None, :, :, c] * gh_pts[:, None, None, c]
        moved *= np.sqrt(self.dt)
        moved += self.nodes + b * self.dt
        return moved

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

        ``v_next`` is the (n_nodes, N) next-slice table shared by all pairs.
        Returns the (n_pairs, n_nodes) stage values: one sparse product per
        mu, and per element the same operations as a per-pair evaluation, so
        the solver, the residual check and per-pair references agree bit for
        bit.
        """
        ev = np.stack([m @ v_next for m in self.move[i - 1]])[self.pair_mu]
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
        # candidate indices: an entry that is not an integer (1.7, true) is rejected, not truncated
        policies = [np.asarray(payload[name], dtype=object) for name in ("policy_mu", "policy_nu")]
        if not all(type(v) is int for policy in policies for v in policy.flat):
            raise ValidationError("a value-grid policy holds an entry that is not an integer")
        vg = cls(
            GridSpec.from_dict(payload["grid"]),
            [np.asarray(a, dtype=float) for a in payload["axes"]],
            payload["times"],
            np.asarray(payload["values"], dtype=float),
            *(policy.astype(np.intp) for policy in policies),
            DiscreteMeasure.from_dicts(action_set, payload["mu_candidates"]),
            DiscreteMeasure.from_dicts(action_set, payload["nu_candidates"]),
            payload.get("clamp_count", 0),
        )
        n_t, nodes = vg.grid.time_steps, vg.grid.space_nodes
        cells = (math.prod(nodes),) + vg.values.shape[-1:]  # (nodes, regimes)
        want = [(n,) for n in nodes] + [(n_t + 1,), (n_t + 1, *cells), (n_t, *cells), (n_t, *cells)]
        got = [a.shape for a in vg.axes] + [vg.times.shape, vg.values.shape, vg.policy_mu.shape, vg.policy_nu.shape]
        if got != want:
            raise ValidationError("value-grid arrays do not have the shapes its grid spec implies")
        for name, pool in (("policy_mu", vg.mu_candidates), ("policy_nu", vg.nu_candidates)):
            policy = getattr(vg, name)
            if policy.size and not 0 <= policy.min() <= policy.max() < len(pool):
                raise ValidationError(f"{name} holds an index outside its {len(pool)} candidates")
        return vg


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
    # side B holds each candidate pair fixed on the whole window, one table per
    # pair: pair p's next table is row p of the operator on its own table
    chained = value_grid.values[k_to].copy()
    held = np.repeat(chained[None], len(kern.pair_mu), axis=0)
    for k in range(k_to - 1, k_from - 1, -1):
        nxt, held_nxt = np.empty_like(chained), np.empty_like(held)
        for i in range(1, n_reg + 1):
            # pair (mi, ni) sits at mi * n_nu + ni
            stored = value_grid.policy_mu[k][:, i - 1] * n_nu + value_grid.policy_nu[k][:, i - 1]
            nxt[:, i - 1] = kern.stage_values(k, i, chained)[stored, nodes]
            held_nxt[:, :, i - 1] = [kern.stage_values(k, i, table)[p] for p, table in enumerate(held)]
        chained, held = nxt, held_nxt

    return float(np.max(np.abs(chained - np.min(held, axis=0))))

