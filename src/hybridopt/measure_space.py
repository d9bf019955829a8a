"""Finitely supported probability measures on a compact box, with exact W1.

The action space is an axis-aligned box U in R^k.  Measures are stored as
atoms + weights in a canonical form (coinciding atoms merged, support sorted),
which makes equality, deduplication, and the exact symmetry of the metric
cheap to guarantee.

Distances are exact optimal transport values: for k = 1 the sorted-CDF
formula, for k > 1 the transport linear program solved with HiGHS, all
pairs of one call in one block-diagonal program.  No
entropic regularization is used anywhere, so the metric axioms hold to
solver precision and are asserted as such in the test suite.

All types are immutable after construction and every operation is a pure
function; values can be shared freely across worker processes.

scipy is imported only by ``w1_transport_lp``, so 1-D measures never load it.
"""
from __future__ import annotations

import numpy as np

from .errors import CapacityError, DomainError, NumericalError, ValidationError

#: Decimal resolution used to merge coinciding atoms.
MERGE_DECIMALS = 12
#: Tolerance for "weights sum to one".
WEIGHT_TOL = 1e-12
#: Cap on combined support size for the exact transport solve.
W1_SUPPORT_CAP = 4096


class ActionSet:
    """Axis-aligned compact box U = prod_i [lower_i, upper_i] with lower < upper."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(upper, dtype=float)).copy()
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValidationError("action set bounds must be vectors of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValidationError("action set bounds must be finite")
        if not np.all(lower < upper):
            raise ValidationError("action set box must have nonempty interior (lower < upper)")
        lower.setflags(write=False)
        upper.setflags(write=False)
        self.lower = lower
        self.upper = upper

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def diameter(self) -> float:
        """Euclidean diameter of the box; also bounds W1 between any two measures on it."""
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, points) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(np.all(pts >= self.lower) and np.all(pts <= self.upper))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionSet):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)

    def __hash__(self):
        return hash((self.lower.tobytes(), self.upper.tobytes()))

    def __repr__(self):
        return f"ActionSet(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


class DiscreteMeasure:
    """Probability measure with finite support inside an ActionSet box.

    Construction canonicalizes: atoms coinciding at 1e-12 resolution are
    merged by summing weights (the stored atom is the first occurrence),
    zero-weight atoms are dropped, and the support is sorted by its snapped
    coordinates.  Weights must be nonnegative and sum to 1 within 1e-12.
    """

    __slots__ = ("action_set", "atoms", "weights")

    def __init__(self, action_set: ActionSet, atoms, weights):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 0:
            atoms = atoms.reshape(1, 1)
        elif atoms.ndim == 1:
            # one column per coordinate for k == 1 convenience, else a single point
            atoms = atoms.reshape(-1, 1) if action_set.dim == 1 else atoms.reshape(1, -1)
        if atoms.ndim != 2 or atoms.shape[1] != action_set.dim:
            raise ValidationError(
                f"atoms must be points of dimension {action_set.dim}, got shape {atoms.shape}"
            )
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if weights.shape != (atoms.shape[0],):
            raise ValidationError("weights must match the number of atoms")
        if atoms.shape[0] == 0:
            raise ValidationError("a measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("atoms must be finite")
        if np.any(weights < 0):
            raise ValidationError("weights must be nonnegative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
        if not action_set.contains(atoms):
            raise DomainError("atom outside the action set box")

        merged: dict[tuple, list] = {}
        keys = np.round(atoms, MERGE_DECIMALS)
        for row, key, w in zip(atoms, keys, weights):
            k = tuple(key)
            if k in merged:
                merged[k][1] += w
            else:
                merged[k] = [row, w]
        items = sorted(merged.items(), key=lambda kv: kv[0])
        kept = [(a, w) for _, (a, w) in items if w > 0.0]
        if not kept:
            raise ValidationError("all atoms carry zero weight")
        out_atoms = np.array([a for a, _ in kept], dtype=float)
        out_weights = np.array([w for _, w in kept], dtype=float)
        out_atoms.setflags(write=False)
        out_weights.setflags(write=False)
        self.action_set = action_set
        self.atoms = out_atoms
        self.weights = out_weights

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    def moment(self, exponent: int, coordinate: int = 0) -> float:
        """Raw moment of one coordinate: sum_j w_j * atom_j[coordinate] ** exponent."""
        if exponent < 0 or int(exponent) != exponent:
            raise ValidationError("moment exponent must be a nonnegative integer")
        if not 0 <= coordinate < self.action_set.dim:
            raise ValidationError(f"coordinate {coordinate} out of range for dimension {self.action_set.dim}")
        return float(np.sum(self.weights * self.atoms[:, coordinate] ** int(exponent)))

    def canonical_key(self) -> bytes:
        return self.atoms.tobytes() + self.weights.tobytes()

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, action_set: ActionSet, payload: dict) -> "DiscreteMeasure":
        if not isinstance(payload, dict) or "atoms" not in payload or "weights" not in payload:
            raise ValidationError('measure JSON must be {"atoms": [...], "weights": [...]}')
        return cls(action_set, payload["atoms"], payload["weights"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            self.action_set == other.action_set
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        pairs = ", ".join(
            f"{w:.4g}@{a.tolist() if a.size > 1 else a[0]:}" for a, w in zip(self.atoms, self.weights)
        )
        return f"DiscreteMeasure({pairs})"


def dirac(action_set: ActionSet, point) -> DiscreteMeasure:
    """Unit mass at a single point of U."""
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    if pt.shape != (action_set.dim,):
        raise ValidationError(f"point must have dimension {action_set.dim}")
    if not action_set.contains(pt):
        raise DomainError(f"point {pt.tolist()} outside the action set box")
    return DiscreteMeasure(action_set, pt.reshape(1, -1), [1.0])


def mixture(measures, coefficients) -> DiscreteMeasure:
    """Convex combination of measures on a common action set; atoms merged."""
    measures = list(measures)
    if not measures:
        raise ValidationError("mixture needs at least one measure")
    coeffs = np.atleast_1d(np.asarray(coefficients, dtype=float))
    if coeffs.shape != (len(measures),):
        raise ValidationError("one coefficient per measure required")
    if np.any(coeffs < 0):
        raise ValidationError("mixture coefficients must be nonnegative")
    if abs(float(np.sum(coeffs)) - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"mixture coefficients must sum to 1 within {WEIGHT_TOL}")
    base = measures[0].action_set
    for m in measures[1:]:
        if m.action_set != base:
            raise ValidationError("all measures in a mixture must share the action set")
    atoms = np.concatenate([m.atoms for m in measures], axis=0)
    weights = np.concatenate([c * m.weights for c, m in zip(coeffs, measures)])
    return DiscreteMeasure(base, atoms, weights)


def random_measure(gen: np.random.Generator, action_set: ActionSet, max_atoms: int = 3) -> DiscreteMeasure:
    """Uniform atoms in the box with random positive weights: one draw for the
    atom count in 1..max_atoms, then the atoms, then the weights."""
    m = int(gen.integers(1, max_atoms + 1))
    span = action_set.upper - action_set.lower
    atoms = action_set.lower + gen.random((m, action_set.dim)) * span
    raw = gen.random(m) + 1e-3
    return DiscreteMeasure(action_set, atoms, raw / raw.sum())


def euclidean(diff: np.ndarray) -> np.ndarray:
    """Plain sqrt-of-sum-of-squares along the last axis; the one Euclidean
    formula used everywhere so Dirac distances are bit-reproducible."""
    diff = np.asarray(diff, dtype=float)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _ordered(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The pair, checked, in a deterministic argument order: both call orders
    run the identical computation, making the metric exactly symmetric."""
    if mu.action_set != nu.action_set:
        raise ValidationError("W1 requires measures on the same action set")
    if mu.size + nu.size > W1_SUPPORT_CAP:
        raise CapacityError(f"combined support {mu.size + nu.size} exceeds the cap of {W1_SUPPORT_CAP}")
    if nu.canonical_key() < mu.canonical_key():
        return nu, mu
    return mu, nu


def w1_sorted_cdf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W1 on the line: integral of |F_mu - F_nu| over the merged support grid."""
    if mu.action_set.dim != 1:
        raise ValidationError("the sorted-CDF formula applies to 1-D action sets only")
    mu, nu = _ordered(mu, nu)
    grid = np.sort(np.concatenate([mu.atoms[:, 0], nu.atoms[:, 0]]))
    fmu = np.cumsum(mu.weights)[
        np.clip(np.searchsorted(mu.atoms[:, 0], grid, side="right") - 1, 0, mu.size - 1)
    ]
    fmu = np.where(np.searchsorted(mu.atoms[:, 0], grid, side="right") == 0, 0.0, fmu)
    fnu = np.cumsum(nu.weights)[
        np.clip(np.searchsorted(nu.atoms[:, 0], grid, side="right") - 1, 0, nu.size - 1)
    ]
    fnu = np.where(np.searchsorted(nu.atoms[:, 0], grid, side="right") == 0, 0.0, fnu)
    return float(np.sum(np.abs(fmu - fnu)[:-1] * np.diff(grid)))


def _pairs(mu, nu):
    """Two measures, or two equal-length sequences of them, as a list of pairs
    plus whether a single pair was given."""
    if isinstance(mu, DiscreteMeasure):
        return [(mu, nu)], True
    if len(mu) != len(nu):
        raise ValidationError("W1 of two sequences needs them of equal length")
    return list(zip(mu, nu)), False


def w1_transport_lp(mu, nu):
    """Exact W1 via the transport linear program over all couplings (HiGHS).

    Takes two measures (returns a float) or two equal-length sequences
    (returns an ndarray).  All pairs of one call are one block-diagonal LP:
    the objective is separable, so each block's optimum is that pair's own,
    and its value is c_b . x_b clamped at 0.  Pairs with the same ordered
    canonical keys share one block, so w1(a, b) == w1(b, a) exactly."""
    from scipy import sparse
    from scipy.optimize import linprog

    pairs, single = _pairs(mu, nu)
    blocks: dict = {}
    block_of = []
    for p in pairs:
        a, b = _ordered(*p)
        block_of.append(blocks.setdefault((a.canonical_key(), b.canonical_key()), (len(blocks), a, b))[0])
    if not blocks:
        return np.zeros(0)
    cost, rows, rhs, starts, n_rows = [], [], [], [0], 0
    for _, a, b in blocks.values():
        # variable (i, j) moves mass from atom i of a to atom j of b: it enters
        # the balance row of a's atom i and the one of b's atom j
        i, j = np.divmod(np.arange(a.size * b.size), b.size)
        cost.append(euclidean(a.atoms[i] - b.atoms[j]))
        rows.append(np.stack([i, a.size + j]) + n_rows)
        rhs += [a.weights, b.weights]
        n_rows += a.size + b.size
        starts.append(starts[-1] + i.size)
    rows, cost = np.concatenate(rows, axis=1), np.concatenate(cost)
    a_eq = sparse.csr_matrix((np.ones(rows.size), (rows.ravel(), np.tile(np.arange(cost.size), 2))))
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate(rhs), bounds=(0, None), method="highs")
    if not res.success:
        raise NumericalError(f"transport LP failed: {res.message}")
    values = np.maximum(np.add.reduceat(cost * res.x, starts[:-1]), 0.0)[block_of]
    return float(values[0]) if single else values


def w1_distance(mu, nu):
    """Exact 1-Wasserstein distance between two discrete measures on the same
    box (a float), or between the pairs of two equal-length sequences (an
    ndarray).  Equal pairs and pairs with a one-atom side have closed forms,
    1-D pairs the sorted-CDF formula; the rest share one transport LP."""
    pairs, single = _pairs(mu, nu)
    out, lp = np.zeros(len(pairs)), []
    for k, p in enumerate(pairs):
        a, b = _ordered(*p)
        if a.canonical_key() == b.canonical_key():
            continue
        if a.size == 1 or b.size == 1:
            # one-sided transport has the closed form sum_j w_j |x_j - y|
            point, spread = (a, b) if a.size == 1 else (b, a)
            out[k] = np.sum(spread.weights * euclidean(spread.atoms - point.atoms[0]))
        elif a.action_set.dim == 1:
            out[k] = w1_sorted_cdf(a, b)
        else:
            lp.append(k)
    if lp:
        out[lp] = w1_transport_lp([pairs[k][0] for k in lp], [pairs[k][1] for k in lp])
    return float(out[0]) if single else out
