"""Finitely supported probability measures on a compact box, with exact W1.

The action space is an axis-aligned box U in R^k.  Measures are stored as
atoms + weights in a canonical form (coinciding atoms merged, support sorted),
which makes equality, deduplication, and the exact symmetry of the metric
cheap to guarantee.  Measures are canonicalized as a batch, one pass of
checks and one sort over all their atoms (``DiscreteMeasure.batch``); a
single measure is a batch of one.

Distances are exact optimal transport values: for k = 1 the sorted-CDF
formula, for k > 1 the cheapest basic solution of the transport problem if
it has at most ``W1_TREE_CAP``, else its linear program solved with HiGHS,
all pairs of one call in one block-diagonal program.  No entropic
regularization is used, so the metric axioms hold to solver precision.

All types are immutable after construction and every operation is a pure
function; values can be shared freely across worker processes.

scipy is imported only by ``w1_transport_lp``; 1-D and small pairs never load it.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import CapacityError, DomainError, NumericalError, ValidationError

#: Decimal resolution used to merge coinciding atoms.
MERGE_DECIMALS = 12
#: Tolerance for "weights sum to one".
WEIGHT_TOL = 1e-12
#: Cap on combined support size for the exact transport solve.
W1_SUPPORT_CAP = 4096
#: Cap on the basic solutions m^(n-1) n^(m-1) of an m x n pair for the closed-form W1 (3 x 3).
W1_TREE_CAP = 81


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


def check_moment(dim: int, exponent, coordinate) -> None:
    if exponent < 0 or int(exponent) != exponent:
        raise ValidationError("moment exponent must be a nonnegative integer")
    if not 0 <= coordinate < dim:
        raise ValidationError(f"coordinate {coordinate} out of range for dimension {dim}")


def segment_sums(values, sizes) -> np.ndarray:
    """np.sum of each consecutive run of ``values`` (run lengths ``sizes``, each
    >= 1), bit for bit: the runs of one length are summed as the rows of one
    array, which adds in np.sum's order.  Zero padding to a common width keeps
    that order only up to 8 terms, and np.add.reduceat adds left to right."""
    starts = np.cumsum(sizes) - sizes
    out = np.empty(len(sizes))
    for size in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == size)
        out[rows] = values[starts[rows, None] + np.arange(size)].sum(axis=1)
    return out


def _canonical(action_set: ActionSet, atoms_seq, weights_seq):
    """Checked canonical (atoms, weights) of many measures at once.

    Shapes are checked per input, then every value check runs once over the
    concatenated arrays and the first failing input raises its own error.  A
    stable lexsort by (input, rounded key) lines up coinciding atoms in input
    order: the first one is kept, the weights are summed in input order
    (``np.add.at``), and zero weights are dropped."""
    k, atoms_list, weights_list = action_set.dim, [], []
    for atoms, weights in zip(atoms_seq, weights_seq):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim < 2:
            # one column per coordinate for k == 1 convenience, else a single point
            atoms = atoms.reshape(-1, 1) if k == 1 or atoms.ndim == 0 else atoms.reshape(1, -1)
        if atoms.ndim != 2 or atoms.shape[1] != k:
            raise ValidationError(f"atoms must be points of dimension {k}, got shape {atoms.shape}")
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if weights.shape != (atoms.shape[0],):
            raise ValidationError("weights must match the number of atoms")
        if atoms.shape[0] == 0:
            raise ValidationError("a measure needs at least one atom")
        atoms_list.append(atoms)
        weights_list.append(weights)
    if not atoms_list:
        return []
    sizes = np.array([len(w) for w in weights_list])
    atoms, weights = np.concatenate(atoms_list), np.concatenate(weights_list)
    owner, starts = np.repeat(np.arange(len(sizes)), sizes), np.cumsum(sizes) - sizes
    keys = np.round(atoms, MERGE_DECIMALS)
    order = np.lexsort((*keys.T[::-1], owner))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (owner[order[1:]] != owner[order[:-1]]) | np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    merged = weights[order[first]]
    np.add.at(merged, np.cumsum(first)[~first] - 1, weights[order[~first]])
    keep = merged > 0.0
    kept_owner = owner[order[first]][keep]
    total = segment_sums(weights, sizes)
    inside = np.all((atoms >= action_set.lower) & (atoms <= action_set.upper), axis=1)
    failed = np.stack([
        np.logical_or.reduceat(~np.all(np.isfinite(atoms), axis=1), starts),
        np.logical_or.reduceat(weights < 0, starts),
        np.abs(total - 1.0) > WEIGHT_TOL,
        np.logical_or.reduceat(~inside, starts),
        np.bincount(kept_owner, minlength=len(sizes)) == 0,
    ])
    if failed.any():
        b = int(np.argmax(failed.any(axis=0)))
        raise [
            ValidationError("atoms must be finite"),
            ValidationError("weights must be nonnegative"),
            ValidationError(f"weights must sum to 1 within {WEIGHT_TOL}, got {float(total[b])!r}"),
            DomainError("atom outside the action set box"),
            ValidationError("all atoms carry zero weight"),
        ][int(np.argmax(failed[:, b]))]
    out_atoms, out_weights = atoms[order[first][keep]], merged[keep]
    out_atoms.setflags(write=False)
    out_weights.setflags(write=False)
    ends = np.cumsum(np.bincount(kept_owner, minlength=len(sizes))).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    return [(out_atoms[s:e], out_weights[s:e]) for s, e in bounds]


class DiscreteMeasure:
    """Probability measure with finite support inside an ActionSet box.

    Construction canonicalizes: atoms coinciding at 1e-12 resolution are
    merged by summing weights (the stored atom is the first occurrence),
    zero-weight atoms are dropped, and the support is sorted by its snapped
    coordinates.  Weights must be nonnegative and sum to 1 within 1e-12.
    ``batch`` builds many measures in one call, exactly as one at a time.
    """

    __slots__ = ("action_set", "atoms", "weights")

    def __init__(self, action_set: ActionSet, atoms, weights):
        ((self.atoms, self.weights),) = _canonical(action_set, [atoms], [weights])
        self.action_set = action_set

    @classmethod
    def batch(cls, action_set: ActionSet, atoms_seq, weights_seq) -> list["DiscreteMeasure"]:
        """One measure per (atoms, weights) input, canonicalized together."""
        out = []
        for atoms, weights in _canonical(action_set, atoms_seq, weights_seq):
            m = cls.__new__(cls)
            m.action_set, m.atoms, m.weights = action_set, atoms, weights
            out.append(m)
        return out

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    def moment(self, exponent: int, coordinate: int = 0) -> float:
        """Raw moment of one coordinate: sum_j w_j * atom_j[coordinate] ** exponent."""
        check_moment(self.action_set.dim, exponent, coordinate)
        return float(np.sum(self.weights * self.atoms[:, coordinate] ** int(exponent)))

    def canonical_key(self) -> bytes:
        return self.atoms.tobytes() + self.weights.tobytes()

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dicts(cls, action_set: ActionSet, payloads) -> list["DiscreteMeasure"]:
        """One measure per {"atoms": [...], "weights": [...]} payload, built as one ``batch``."""
        payloads = list(payloads)
        if not all(isinstance(p, dict) and "atoms" in p and "weights" in p for p in payloads):
            raise ValidationError('measure JSON must be {"atoms": [...], "weights": [...]}')
        return cls.batch(action_set, [p["atoms"] for p in payloads], [p["weights"] for p in payloads])

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


def draw_measure(gen: np.random.Generator, action_set: ActionSet, max_atoms: int = 3):
    """The draws of one measure of ``random_measures``: the atom count m in
    1..max_atoms, then m uniform points of the unit cube, then m uniforms for
    the weights."""
    m = int(gen.integers(1, max_atoms + 1))
    return gen.random((m, action_set.dim)), gen.random(m)


def random_measures(action_set: ActionSet, draws) -> list[DiscreteMeasure]:
    """Measures from ``draw_measure`` draws, built in one batch: the points
    scaled into the box, the weights proportional to the uniforms + 1e-3."""
    sizes = np.array([len(raw) for _, raw in draws])
    cube, raw = (np.concatenate(part) for part in zip(*draws))
    atoms = action_set.lower + cube * (action_set.upper - action_set.lower)
    raw = raw + 1e-3
    weights = raw / np.repeat(segment_sums(raw, sizes), sizes)
    ends = np.cumsum(sizes).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    return DiscreteMeasure.batch(action_set, [atoms[s:e] for s, e in bounds], [weights[s:e] for s, e in bounds])


def euclidean(diff: np.ndarray) -> np.ndarray:
    """Plain sqrt-of-sum-of-squares along the last axis; the one Euclidean
    formula used everywhere so Dirac distances are bit-reproducible."""
    diff = np.asarray(diff, dtype=float)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _checked(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.action_set is not nu.action_set and mu.action_set != nu.action_set:
        raise ValidationError("W1 requires measures on the same action set")
    if mu.size + nu.size > W1_SUPPORT_CAP:
        raise CapacityError(f"combined support {mu.size + nu.size} exceeds the cap of {W1_SUPPORT_CAP}")


def _ordered(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The pair, checked, in a deterministic argument order: both call orders
    run the identical computation, making the metric exactly symmetric."""
    _checked(mu, nu)
    if nu.canonical_key() < mu.canonical_key():
        return nu, mu
    return mu, nu


def w1_sorted_cdf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W1 on the line: integral of |F_mu - F_nu| over the merged support grid."""
    if mu.action_set.dim != 1:
        raise ValidationError("the sorted-CDF formula applies to 1-D action sets only")
    mu, nu = _ordered(mu, nu)
    grid = np.sort(np.concatenate([mu.atoms[:, 0], nu.atoms[:, 0]]))
    # each CDF on the grid: 0 left of the first atom, then the running sums
    fmu, fnu = (np.append(0.0, np.cumsum(m.weights))[np.searchsorted(m.atoms[:, 0], grid, side="right")] for m in (mu, nu))
    return float(np.sum(np.abs(fmu - fnu)[:-1] * np.diff(grid)))


def _pairs(mu, nu) -> list:
    """The pairs of two equal-length sequences of measures."""
    if len(mu) != len(nu):
        raise ValidationError("W1 of two sequences needs them of equal length")
    return list(zip(mu, nu))


def w1_transport_lp(mu, nu):
    """Exact W1 via the transport linear program over all couplings (HiGHS).

    Takes two equal-length sequences of measures and returns the W1 of each
    pair as an ndarray.  All pairs of one call are one block-diagonal LP:
    the objective is separable, so each block's optimum is that pair's own,
    and its value is c_b . x_b clamped at 0.  Pairs with the same ordered
    canonical keys share one block, so w1(a, b) == w1(b, a) exactly."""
    from scipy import sparse
    from scipy.optimize import linprog

    pairs = _pairs(mu, nu)
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
    return np.maximum(np.add.reduceat(cost * res.x, starts[:-1]), 0.0)[block_of]


def within_tree_cap(m: int, n: int) -> bool:
    """Whether an m x n pair takes the closed-form W1 (Python ints: the count cannot overflow)."""
    return 1 < min(m, n) and m ** (n - 1) * n ** (m - 1) <= W1_TREE_CAP


@functools.cache
def _tree_table(m: int, n: int) -> np.ndarray:
    """(trees, m*n, m+n): per spanning tree of K_{m,n}, each cell's flow in its
    basic solution as +-1 coefficients of the weights (a, b).  Leaves are
    eliminated towards the last column, each passing its supply on."""
    table, root = [], m + n - 1
    for tree in itertools.combinations(range(m * n), m + n - 1):
        edges = {e: (e // n, m + e % n) for e in tree}  # nodes: rows, then columns
        supply, flows = np.diag(np.repeat([1.0, -1.0], [m, n])), np.zeros((m * n, m + n))
        # edges holding a cycle are left with no leaf but the root
        while leaves := [v for v in range(root) if sum(v in uv for uv in edges.values()) == 1]:
            leaf, e = leaves[0], next(e for e, uv in edges.items() if leaves[0] in uv)
            i, j = edges.pop(e)
            flows[e] = supply[leaf] if leaf == i else -supply[leaf]
            supply[i + j - leaf] += supply[leaf]
        if not edges:
            table.append(flows)
    table = np.array(table)
    table.setflags(write=False)
    return table


def _w1_trees(ordered, m: int, n: int) -> np.ndarray:
    """Exact W1 of ordered m x n pairs, the cheapest feasible basic solution clamped at 0;
    products summed over a trailing axis give a pair the same bits alone or in any batch."""
    table, (i, j) = _tree_table(m, n), np.divmod(np.arange(m * n), n)
    cost = euclidean(np.array([a.atoms[i] - b.atoms[j] for a, b in ordered]))
    flows = np.sum(table * np.array([np.concatenate([a.weights, b.weights]) for a, b in ordered])[:, None, None], axis=-1)
    feasible = np.all(flows >= -(m + n) * WEIGHT_TOL, axis=-1)
    if not feasible.any(axis=1).all():
        raise NumericalError(f"no feasible basic solution of a {m} x {n} transport problem")
    return np.maximum(np.where(feasible, np.sum(flows * cost[:, None], axis=-1), np.inf).min(axis=1), 0.0)


def _stacked(measures):
    """Sizes, first rows, and the rows (atom, weight) of many measures stacked."""
    sizes = np.array([m.size for m in measures])
    rows = np.column_stack([np.concatenate([m.atoms for m in measures]), np.concatenate([m.weights for m in measures])])
    return sizes, np.cumsum(sizes) - sizes, rows


def w1_distance(mu, nu):
    """Exact 1-Wasserstein distance of each pair of two equal-length sequences
    of discrete measures, all of one dimension, as an ndarray.  Equal pairs
    and pairs with a one-atom side are found, and their closed forms
    computed, over all pairs at once; 1-D pairs take the sorted-CDF formula,
    pairs within ``W1_TREE_CAP`` their basic solutions, the rest one LP."""
    pairs = _pairs(mu, nu)
    for p in pairs:
        _checked(*p)
    out = np.zeros(len(pairs))
    dims = {p[0].action_set.dim for p in pairs}
    if len(dims) > 1:
        raise ValidationError(f"W1 of one call needs one action-set dimension, got {sorted(dims)}")
    if not pairs:
        return out
    (sa, fa, ra), (sb, fb, rb) = _stacked([p[0] for p in pairs]), _stacked([p[1] for p in pairs])
    # equal canonical keys: equal sizes and the same bits in every row
    equal = sa == sb
    if equal.any():
        differ = np.any(ra[np.repeat(equal, sa)].view(np.int64) != rb[np.repeat(equal, sb)].view(np.int64), axis=1)
        equal[equal] = ~np.logical_or.reduceat(differ, np.cumsum(sa[equal]) - sa[equal])
    one = ~equal & ((sa == 1) | (sb == 1))
    # the spread side; of two single atoms the one with the larger canonical
    # key, as ``_ordered`` would put it second
    spread_b = sa == 1
    both = np.flatnonzero(one & (sa == 1) & (sb == 1))
    ka, kb = ra[fa[both]].view(np.uint8), rb[fb[both]].view(np.uint8)
    first = np.argmax(ka != kb, axis=1)
    spread_b[both] = ka[np.arange(len(both)), first] < kb[np.arange(len(both)), first]
    for sel, (ss, rs), (fp, rp) in (
        (one & spread_b, (sb, rb), (fa, ra)),
        (one & ~spread_b, (sa, ra), (fb, rb)),
    ):
        # one-sided transport has the closed form sum_j w_j |x_j - y|
        spread = rs[np.repeat(sel, ss)]
        point = np.repeat(rp[fp[sel], :-1], ss[sel], axis=0)
        out[sel] = segment_sums(spread[:, -1] * euclidean(spread[:, :-1] - point), ss[sel])
    rest = np.flatnonzero(~equal & ~one)
    if dims == {1}:
        for k in rest:
            out[k] = w1_sorted_cdf(*pairs[k])
    elif len(rest):
        ordered = [_ordered(*pairs[k]) for k in rest]
        shapes = [(a.size, b.size) if within_tree_cap(a.size, b.size) else None for a, b in ordered]
        for shape in dict.fromkeys(shapes):
            sel = np.flatnonzero([s == shape for s in shapes])
            for part in np.split(sel, range(256, len(sel), 256)) if shape else [sel]:  # <= 9 MB of products
                group = [ordered[s] for s in part]
                out[rest[part]] = _w1_trees(group, *shape) if shape else w1_transport_lp(*zip(*group))
    return out
