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
* table           -- the argmin policy of the solved ``ValueGrid`` it holds,
                     looked up at (time slice, nearest space node, regime);
* path_dependent  -- a finite-window statistic of the observed state path,
                     bucketed into candidate indices.

Every control is two candidate pools (``mu_pool`` / ``nu_pool``) plus an
index map ``indices(t, x, regimes, hist_x)``; no control reads the regime
history.  The simulator stores per-step pool indices, which keeps batched
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
from .errors import CapacityError, ValidationError
from .measure_space import ActionSet, DiscreteMeasure, check_moment, segment_sums


class MeasureBatch:
    """Per-path measures drawn from a shared pool, with cached moments: the
    pool's tables (shared by ``take``) and their per-path gathers."""

    __slots__ = ("pool", "index", "_moments", "_gathered")

    def __init__(self, pool, index, _moments=None):
        self.pool = tuple(pool)
        self.index = np.asarray(index, dtype=np.intp)
        self._moments = {} if _moments is None else _moments
        self._gathered = {}

    @classmethod
    def constant(cls, measure: DiscreteMeasure, count: int) -> "MeasureBatch":
        return cls((measure,), np.zeros(count, dtype=np.intp))

    def moment(self, exponent: int, coordinate: int) -> np.ndarray:
        """Per-path moments, read-only.  The pool's table is filled at once: each
        measure's terms w_j * atom_j[coordinate] ** exponent summed as
        ``DiscreteMeasure.moment`` sums them, bit for bit."""
        key = (exponent, coordinate)
        values = self._gathered.get(key)
        if values is None:
            table = self._moments.get(key)
            if table is None:
                check_moment(self.pool[0].action_set.dim, exponent, coordinate)
                atoms = np.concatenate([m.atoms[:, coordinate] for m in self.pool])
                weights = np.concatenate([m.weights for m in self.pool])
                table = segment_sums(weights * atoms ** int(exponent), np.array([m.size for m in self.pool]))
                self._moments[key] = table
            values = self._gathered[key] = table[self.index]
            values.setflags(write=False)
        return values

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
            index_expr = ex.Compiled(index_expr)
        self.index_expr = index_expr
        if per_regime is not None:
            per_regime = np.array([int(v) for v in per_regime], dtype=np.intp)
            for v in per_regime:
                if not 0 <= v < len(self.candidates):
                    raise ValidationError(f"per-regime index {v} out of candidate range")
        self.per_regime = per_regime

    def indices(self, t: float, x: np.ndarray, regimes: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        if self.per_regime is not None:
            return self.per_regime[np.asarray(regimes, dtype=int) - 1]
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
    """A mu pool, a nu pool and an index map; subclasses implement the map."""

    reads_history = False  #: True for a map that reads ``hist_x``; the estimator passes the others None

    def __init__(self, mu_pool, nu_pool):
        self.mu_pool = _as_pool(mu_pool)
        self.nu_pool = _as_pool(nu_pool)

    def indices(self, t, x, regimes, hist_x):
        """(mu indices, nu indices) for a batch of paths at step start t."""
        raise NotImplementedError


class ConstantControl(FeedbackControl):
    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        super().__init__((mu,), (nu,))

    def indices(self, t, x, regimes, hist_x):
        zeros = np.zeros(x.shape[0], dtype=np.intp)
        return zeros, zeros


class MarkovControl(FeedbackControl):
    """Reads only (t, X_t, Lambda_t); invariant to the earlier history."""

    def __init__(self, mu_map: CandidateMap, nu_map: CandidateMap):
        super().__init__(mu_map.candidates, nu_map.candidates)
        self.mu_map = mu_map
        self.nu_map = nu_map

    def indices(self, t, x, regimes, hist_x):
        return self.mu_map.indices(t, x, regimes), self.nu_map.indices(t, x, regimes)


class TableControl(FeedbackControl):
    """Argmin policy of a solved value grid, read at the time slice holding
    t (the last policy slice from then on) and the nearest space node."""

    def __init__(self, value_grid):
        super().__init__(value_grid.mu_candidates, value_grid.nu_candidates)
        self.value_grid = value_grid

    def _nearest_nodes(self, x: np.ndarray) -> np.ndarray:
        axes = self.value_grid.axes
        flat = []
        for d, axis in enumerate(axes):
            pos = np.searchsorted(axis, x[:, d])
            lo = np.clip(pos - 1, 0, len(axis) - 1)
            hi = np.clip(pos, 0, len(axis) - 1)
            pick = np.where(np.abs(axis[hi] - x[:, d]) < np.abs(x[:, d] - axis[lo]), hi, lo)
            flat.append(pick)
        return np.ravel_multi_index(tuple(flat), tuple(len(a) for a in axes))

    def indices(self, t, x, regimes, hist_x):
        vg = self.value_grid
        k = min(vg.time_index(t), len(vg.policy_mu) - 1)
        nodes = self._nearest_nodes(np.asarray(x, dtype=float))
        ridx = np.asarray(regimes, dtype=int) - 1
        return vg.policy_mu[k, nodes, ridx], vg.policy_nu[k, nodes, ridx]


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

    reads_history = True

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
        super().__init__(mu_candidates, nu_candidates)
        self.mu_map = self._check_map(mu_map, len(self.mu_pool))
        self.nu_map = self._check_map(nu_map, len(self.nu_pool))

    def _check_map(self, index_map, n_candidates):
        arr = np.asarray(index_map, dtype=np.intp)
        if arr.shape != (len(self.edges) + 1,):
            raise ValidationError("bucket index map must have len(edges) + 1 entries")
        if np.any(arr < 0) or np.any(arr >= n_candidates):
            raise ValidationError("bucket index map entry out of candidate range")
        return arr

    def indices(self, t, x, regimes, hist_x):
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

    weights = [
        (np.diff(np.concatenate([[-1], dividers, [levels + n_atoms - 1]])) - 1) / levels
        for dividers in itertools.combinations(range(levels + n_atoms - 1), n_atoms - 1)
    ]
    out: list[DiscreteMeasure] = []
    seen: set[bytes] = set()
    for measure in DiscreteMeasure.batch(action_set, [atoms[w > 0] for w in weights], [w[w > 0] for w in weights]):
        key = measure.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(measure)
    return out
