"""Feedback control representations.

A feedback control maps (t, observed path history) to a pair of discrete
measures (mu, nu) on the action set: mu drives the diffusion coefficients,
nu drives the transition rates.  Controls are piecewise constant on the
step grid and evaluated only at step starts, which is the measurable class
a discrete-time artifact can faithfully represent (values off the grid are
irrelevant: they differ from the grid extension only on a null set).

Four families are provided:

* constant        -- fixed (mu, nu), history ignored;
* markov          -- candidate lists indexed by an expression of (t, x, i)
                     or by a per-regime table;
* table           -- a solved value grid's stored argmin policy, looked up
                     at (time slice, nearest space node, regime);
* path_dependent  -- a finite-window statistic of the observed state path,
                     bucketed into candidate indices.

Every control exposes its candidate pools (``mu_pool`` / ``nu_pool``) and an
index map; the simulator stores per-step pool indices, which keeps batched
paths cheap and makes policy provenance explicit in exported paths.

Controls are immutable, evaluation is pure, and all index maps are
elementwise over paths, so evaluation commutes with any partition of a
path batch across workers.
"""
from __future__ import annotations

import math
import itertools

import numpy as np

from . import expr as ex
from .errors import CapacityError, UsageError, ValidationError
from .measure_space import ActionSet, DiscreteMeasure


class MeasureBatch:
    """Per-path measures drawn from a shared pool, with cached moments."""

    __slots__ = ("pool", "index", "_moments")

    def __init__(self, pool, index, _moments=None):
        self.pool = tuple(pool)
        self.index = np.asarray(index, dtype=np.intp)
        self._moments = {} if _moments is None else _moments

    @classmethod
    def constant(cls, measure: DiscreteMeasure, count: int) -> "MeasureBatch":
        return cls((measure,), np.zeros(count, dtype=np.intp))

    def moment(self, exponent: int, coordinate: int) -> np.ndarray:
        key = (exponent, coordinate)
        table = self._moments.get(key)
        if table is None:
            table = np.array([m.moment(exponent, coordinate) for m in self.pool])
            self._moments[key] = table
        return table[self.index]

    def take(self, selector) -> "MeasureBatch":
        return MeasureBatch(self.pool, self.index[selector], self._moments)


def _as_pool(measures) -> tuple[DiscreteMeasure, ...]:
    pool = tuple(measures)
    if not pool:
        raise ValidationError("candidate pool must be nonempty")
    base = pool[0].action_set
    for m in pool[1:]:
        if m.action_set != base:
            raise ValidationError("all candidates must share the action set")
    return pool


class CandidateMap:
    """Candidate list plus either an index expression of (t, x, i) or a
    per-regime index table."""

    __slots__ = ("candidates", "index_expr", "per_regime")

    def __init__(self, candidates, index_expr=None, per_regime=None):
        self.candidates = _as_pool(candidates)
        if (index_expr is None) == (per_regime is None):
            raise ValidationError("provide exactly one of index_expr / per_regime")
        if index_expr is not None and isinstance(index_expr, str):
            index_expr = ex.parse(index_expr)
        if index_expr is not None:
            bad = ex.variables(index_expr) - {"t", "i"} - {
                v for v in ex.variables(index_expr) if v.startswith("x")
            }
            if bad:
                raise ValidationError(f"index expression may depend on t, x, i only: {sorted(bad)}")
        self.index_expr = index_expr
        if per_regime is not None:
            per_regime = tuple(int(v) for v in per_regime)
            for v in per_regime:
                if not 0 <= v < len(self.candidates):
                    raise ValidationError(f"per-regime index {v} out of candidate range")
        self.per_regime = per_regime

    def indices(self, t: float, x: np.ndarray, regimes: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        if self.per_regime is not None:
            table = np.asarray(self.per_regime, dtype=np.intp)
            if np.any(np.asarray(regimes) - 1 >= len(table)):
                raise ValidationError("per-regime table smaller than the regime count")
            return table[np.asarray(regimes, dtype=int) - 1]
        raw = ex.eval_vector(
            self.index_expr, {"t": t, "x": x, "i": np.asarray(regimes, dtype=float)}, n
        )
        idx = np.floor(raw + 0.5).astype(np.intp)
        if np.any(idx < 0) or np.any(idx >= len(self.candidates)):
            raise ValidationError(
                f"index expression produced values outside 0..{len(self.candidates) - 1}"
            )
        return idx


class FeedbackControl:
    """Base class; subclasses implement the pool index maps."""

    @property
    def mu_pool(self) -> tuple[DiscreteMeasure, ...]:
        raise NotImplementedError

    @property
    def nu_pool(self) -> tuple[DiscreteMeasure, ...]:
        raise NotImplementedError

    def indices(self, t, x, regimes, hist_x=None, hist_regimes=None):
        """(mu indices, nu indices) for a batch of paths at step start t."""
        raise NotImplementedError


class ConstantControl(FeedbackControl):
    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self._mu = mu
        self._nu = nu

    @property
    def mu_pool(self):
        return (self._mu,)

    @property
    def nu_pool(self):
        return (self._nu,)

    def indices(self, t, x, regimes, hist_x=None, hist_regimes=None):
        zeros = np.zeros(x.shape[0], dtype=np.intp)
        return zeros, zeros


class MarkovControl(FeedbackControl):
    """Reads only (t, X_t, Lambda_t); invariant to the earlier history."""

    def __init__(self, mu_map: CandidateMap, nu_map: CandidateMap):
        self._mu_map = mu_map
        self._nu_map = nu_map

    @property
    def mu_pool(self):
        return self._mu_map.candidates

    @property
    def nu_pool(self):
        return self._nu_map.candidates

    def indices(self, t, x, regimes, hist_x=None, hist_regimes=None):
        return self._mu_map.indices(t, x, regimes), self._nu_map.indices(t, x, regimes)


class TableControl(FeedbackControl):
    """Argmin policy of a solved value grid, looked up at the enclosing cell."""

    def __init__(self, origin, dt, axes, policy_mu, policy_nu, mu_candidates, nu_candidates):
        self.origin = float(origin)
        self.dt = float(dt)
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.policy_mu = np.asarray(policy_mu, dtype=np.intp)
        self.policy_nu = np.asarray(policy_nu, dtype=np.intp)
        self._mu_candidates = _as_pool(mu_candidates)
        self._nu_candidates = _as_pool(nu_candidates)
        self.n_slices = self.policy_mu.shape[0]

    @property
    def mu_pool(self):
        return self._mu_candidates

    @property
    def nu_pool(self):
        return self._nu_candidates

    def _nearest_nodes(self, x: np.ndarray) -> np.ndarray:
        flat = []
        for d, axis in enumerate(self.axes):
            pos = np.searchsorted(axis, x[:, d])
            lo = np.clip(pos - 1, 0, len(axis) - 1)
            hi = np.clip(pos, 0, len(axis) - 1)
            pick = np.where(np.abs(axis[hi] - x[:, d]) < np.abs(x[:, d] - axis[lo]), hi, lo)
            flat.append(pick)
        return np.ravel_multi_index(tuple(flat), tuple(len(a) for a in self.axes))

    def indices(self, t, x, regimes, hist_x=None, hist_regimes=None):
        k = int(np.clip(round((t - self.origin) / self.dt), 0, self.n_slices - 1))
        nodes = self._nearest_nodes(np.asarray(x, dtype=float))
        ridx = np.asarray(regimes, dtype=int) - 1
        return self.policy_mu[k, nodes, ridx], self.policy_nu[k, nodes, ridx]


_STATS = {
    "max": lambda w: np.max(w, axis=1),
    "min": lambda w: np.min(w, axis=1),
    "mean": lambda w: np.mean(w, axis=1),
}


class PathDependentControl(FeedbackControl):
    """Finite-window statistic of one state coordinate, bucketed to candidates.

    The statistic runs over the last ``window`` recorded states including the
    current one; bucket edges are strictly increasing and map to candidate
    indices via searchsorted, so len(index map) == len(edges) + 1.
    """

    def __init__(self, window, statistic, coordinate, bucket_edges, mu_candidates, mu_map, nu_candidates, nu_map):
        if int(window) < 1:
            raise ValidationError("window must be at least 1 step")
        if statistic not in _STATS:
            raise ValidationError(f"statistic must be one of {sorted(_STATS)}")
        edges = np.asarray(bucket_edges, dtype=float)
        if edges.ndim != 1 or np.any(np.diff(edges) <= 0):
            raise ValidationError("bucket edges must be strictly increasing")
        self.window = int(window)
        self.statistic = statistic
        self.coordinate = int(coordinate)
        self.edges = edges
        self._mu_candidates = _as_pool(mu_candidates)
        self._nu_candidates = _as_pool(nu_candidates)
        self.mu_map = self._check_map(mu_map, len(self._mu_candidates))
        self.nu_map = self._check_map(nu_map, len(self._nu_candidates))

    def _check_map(self, index_map, n_candidates):
        arr = np.asarray(index_map, dtype=np.intp)
        if arr.shape != (len(self.edges) + 1,):
            raise ValidationError("bucket index map must have len(edges) + 1 entries")
        if np.any(arr < 0) or np.any(arr >= n_candidates):
            raise ValidationError("bucket index map entry out of candidate range")
        return arr

    @property
    def mu_pool(self):
        return self._mu_candidates

    @property
    def nu_pool(self):
        return self._nu_candidates

    def indices(self, t, x, regimes, hist_x=None, hist_regimes=None):
        if hist_x is None:
            raise UsageError("path-dependent controls need the history")
        lo = max(0, hist_x.shape[1] - self.window)
        stat = _STATS[self.statistic](hist_x[:, lo:, self.coordinate])
        bucket = np.searchsorted(self.edges, stat, side="right")
        return self.mu_map[bucket], self.nu_map[bucket]


#: Cap on the atoms and on the measures of a ``candidate_set`` family.
CANDIDATE_CAP = 10_000


def candidate_set(action_set: ActionSet, atom_grid_per_dim: int, weight_resolution: int) -> list[DiscreteMeasure]:
    """Finite family approximating the measures on U: all weight vectors with
    entries in {0, 1/L, ..., 1} over a regular a^k atom grid.

    The pre-dedup count is C(L + a^k - 1, a^k - 1); the family always contains
    the a^k Diracs.  A single atom per dimension sits at the box midpoint.
    """
    a = int(atom_grid_per_dim)
    levels = int(weight_resolution)
    if a < 1 or levels < 1:
        raise ValidationError("atom grid and weight resolution must be >= 1")
    k = action_set.dim
    n_atoms = a**k
    n_measures = math.comb(levels + n_atoms - 1, n_atoms - 1)
    if n_atoms > CANDIDATE_CAP or n_measures > CANDIDATE_CAP:
        raise CapacityError(
            f"candidate family would contain {max(n_atoms, n_measures)} entries, cap is {CANDIDATE_CAP}"
        )
    if a == 1:
        per_dim = [np.array([(lo + hi) / 2.0]) for lo, hi in zip(action_set.lower, action_set.upper)]
    else:
        per_dim = [np.linspace(lo, hi, a) for lo, hi in zip(action_set.lower, action_set.upper)]
    atoms = np.array(list(itertools.product(*per_dim)))

    out: list[DiscreteMeasure] = []
    seen: set[bytes] = set()
    for dividers in itertools.combinations(range(levels + n_atoms - 1), n_atoms - 1):
        counts = np.diff(np.concatenate([[-1], dividers, [levels + n_atoms - 1]])) - 1
        weights = counts / levels
        keep = weights > 0
        measure = DiscreteMeasure(action_set, atoms[keep], weights[keep])
        key = measure.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(measure)
    return out
