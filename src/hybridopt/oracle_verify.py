"""Independent oracles and the verification battery.

Two kinds of cross-checks live here.  The lattice oracle fully discretizes a
tiny instance (one space dimension, at most 31 nodes, 3 regimes, 5 steps and
4 candidate pairs) into explicit per-step transition kernels and computes the
value table by per-cell exhaustive backward minimization.  An instance of at
most ``_ENUMERATION_LIMIT`` Markov policies is also solved by brute-force
policy enumeration, whose agreement with the backward pass is the
finite-problem dynamic programming identity itself; the battery's instances
hold 2^72 to 2^210 policies, so ``verify`` never enumerates.  The kernels are
deliberately built from the solver's own kernel objects so the
solver-vs-oracle comparison isolates wiring; the math is covered separately
by checking the batched two-state transition rows the solver and simulator
use against the scalar exponential formula.

The remaining checks tie the solver to the simulator: the dynamic
programming residual and its Monte Carlo counterpart, minimizing-sequence
behaviour of declared control families, and the pathwise moment bound
implied by the declared linear-growth constant (Doob/BDG plus Gronwall).

``run_battery`` executes the bundled demo suite; every check returns a
machine-readable report {name, pass, margin, tolerance} and owns its random
streams, so checks are independent and can run in any order.  It times
each check once into the report's ``elapsed``, which ``verify`` prints and
``to_dict`` leaves out, so ``verify --out`` repeats byte for byte.

scipy's ``expm`` is imported only by ``transition_matrix``, the rows' reference.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np

from . import config as cfg
from . import expr as ex
from . import rng
from .control import ConstantControl, MeasureBatch, TableControl
from .cost import monte_carlo_cost
from .dpp_solver import GridSpec, SolverKernels, ValueGrid, dpp_residual, solve
from .dynamics import HybridModel, growth_ratio, simulate_chunks
from .errors import CapacityError, NumericalError, ValidationError
from .measure_space import (
    ActionSet,
    dirac,
    draw_measure,
    euclidean,
    mixture,
    random_measures,
    w1_distance,
    w1_sorted_cdf,
    w1_transport_lp,
    within_tree_cap,
)
from .switching import (
    DT_RATE_CAP,
    RateSpec,
    check_step,
    jump_kernel,
    pick_regime,
    transition_rows_batch,
)

_ENUMERATION_LIMIT = 10**5


class CheckReport:
    """Outcome of one verification check.

    ``margin`` is the binding slack: min over sub-checks of
    tolerance - observed deviation (nonnegative iff the check passed).
    ``elapsed`` is the check's wall time in seconds, set by ``run_battery``;
    ``to_dict`` leaves it out, so a report's dict repeats byte for byte.
    """

    __slots__ = ("name", "passed", "margin", "tolerance", "details", "elapsed")

    def __init__(self, name, passed, margin, tolerance, details=None):
        self.name = name
        self.passed = bool(passed)
        self.margin = float(margin)
        self.tolerance = float(tolerance)
        self.details = details or {}
        self.elapsed = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "details": self.details,
        }


def _finish(name, triples, details=None) -> CheckReport:
    """Fold (label, observed, tolerance) sub-checks into one report.  A
    non-finite observed value fails its subcheck with slack -inf.  The
    report's ``elapsed`` stays 0.0 until ``run_battery`` times the check."""
    details = {} if details is None else details
    margin = math.inf
    binding_tol = 0.0
    passed = True
    for label, observed, tol in triples:
        slack = tol - observed if math.isfinite(observed) else -math.inf
        if slack < margin:
            margin = slack
            binding_tol = tol
        if not slack >= 0.0:
            passed = False
            details.setdefault("failed", []).append(label)
    details["subchecks"] = [
        {"label": lbl, "observed": obs, "tolerance": tol} for lbl, obs, tol in triples
    ]
    return CheckReport(name, passed, margin, binding_tol, details)


def tol_disc(model: HybridModel, value_grid: ValueGrid) -> float:
    """First-order discretization tolerance c (dt + dx) with
    c = 2 (sup |f| + Lip(g)), both taken over the solved grid and its
    candidate pairs.  A documented heuristic, not a proven bound."""
    kern_nodes = value_grid.nodes
    n = kern_nodes.shape[0]
    sup_f = 0.0
    for i in range(1, model.regime_count + 1):
        for mu in value_grid.mu_candidates:
            for nu in value_grid.nu_candidates:
                for t in (float(value_grid.times[0]), float(value_grid.times[-1])):
                    vals = model.running_cost_at(
                        t,
                        kern_nodes,
                        np.full(n, i),
                        MeasureBatch.constant(mu, n),
                        MeasureBatch.constant(nu, n),
                    )
                    sup_f = max(sup_f, float(np.max(np.abs(vals))))
    g = model.terminal_cost_at(kern_nodes)
    lip_g = 0.0
    shape = tuple(len(a) for a in value_grid.axes)
    g_nd = g.reshape(shape)
    for d, axis in enumerate(value_grid.axes):
        dx = np.diff(axis)
        diffs = np.abs(np.diff(g_nd, axis=d))
        lip_g = max(lip_g, float(np.max(diffs / dx.reshape([-1 if dd == d else 1 for dd in range(len(shape))]))))
    c = 2.0 * (sup_f + lip_g)
    max_dx = max(float(np.max(np.diff(a))) for a in value_grid.axes)
    return c * (value_grid.dt + max_dx)


def gronwall_sup_moment_bound(growth_bound: float, x0, t_end: float, p: int, dim: int) -> float:
    """Explicit constant with E[sup_{t<=T} |X_t|^p] below it, for coefficients
    with |b| + ||sigma|| <= C (1 + |x|).

    Derivation: split X into initial value, drift integral and martingale
    part; bound the drift by Hoelder, the martingale supremum by Doob (p=2)
    or a Doob/BDG combination (p=4), then close with Gronwall.  Deliberately
    generous; the checks compare estimates against 2x this constant.
    """
    if p not in (2, 4):
        raise ValidationError("moment bound implemented for p in {2, 4}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    c = float(growth_bound)
    if p == 2:
        kappa = 4.0
    else:
        doob4 = (4.0 / 3.0) ** 4
        kappa = (doob4 * 6.0) ** 2 * dim**2
    a0 = 3.0 ** (p - 1) * float(np.linalg.norm(x0)) ** p
    dcoef = 3.0 ** (p - 1) * 2.0 ** (p - 1) * c**p * (t_end ** (p - 1) + kappa * t_end ** (p / 2 - 1))
    if dcoef * t_end > 700.0:  # finite in exact arithmetic, above float range
        return math.inf
    return float((a0 + dcoef * t_end) * np.exp(dcoef * t_end))


class LatticeProblem:
    """Fully discretized tiny instance with explicit per-pair kernels.

    Cells are (node, regime) pairs flattened as node * N + (regime - 1).  For
    each candidate pair, ``kernels[p]`` is the dense (n_cells, n_cells)
    one-step transition built from the solver's own movement and regime
    kernels, ``running[p]`` the per-slice stage costs, and ``terminal`` the
    final slice.  Kernel rows are stochastic to float precision.
    """

    def __init__(self, model: HybridModel, grid: GridSpec, mu_candidates, nu_candidates):
        if model.state_dim != 1:
            raise CapacityError("lattice oracle supports d = 1 only")
        if model.regime_count > 3:
            raise CapacityError("lattice oracle supports at most 3 regimes")
        if grid.time_steps > 5:
            raise CapacityError("lattice oracle supports at most 5 time steps")
        if grid.space_nodes[0] > 31:
            raise CapacityError("lattice oracle supports at most 31 space nodes")
        kern = SolverKernels(model, grid, mu_candidates, nu_candidates)
        if len(kern.pairs) > 4:
            raise CapacityError("lattice oracle supports at most 4 candidate pairs")
        self.model = model
        n_nodes, n_reg = kern.n_nodes, model.regime_count
        self.n_cells = n_nodes * n_reg
        self.n_steps = grid.time_steps

        self.kernels = []
        for mi, ni in kern.pairs:
            k_pair = np.zeros((self.n_cells, self.n_cells))
            # cell (node, i) -> cell (node', j): regime factor times state transport
            for i in range(1, n_reg + 1):
                move_i = kern.move[i - 1][mi].toarray()
                rows_i = kern.regime_rows[i - 1][ni]
                src = np.arange(n_nodes) * n_reg + (i - 1)
                for j in range(1, n_reg + 1):
                    dst = np.arange(n_nodes) * n_reg + (j - 1)
                    k_pair[np.ix_(src, dst)] = move_i * rows_i[:, j - 1][:, None]
            self.kernels.append(k_pair)

        running = np.zeros((len(kern.pairs), self.n_steps, self.n_cells))
        for k in range(self.n_steps):
            for i in range(1, n_reg + 1):
                running[:, k, np.arange(n_nodes) * n_reg + (i - 1)] = kern.stage_costs(float(kern.times[k]), i)
        self.running = list(running)

        g_vals = model.terminal_cost_at(kern.nodes)
        self.terminal = np.repeat(g_vals, n_reg)

    @property
    def n_pairs(self) -> int:
        return len(self.kernels)

    def policy_count(self) -> float:
        return float(self.n_pairs) ** (self.n_steps * self.n_cells)


def enumerate_value(problem: LatticeProblem) -> np.ndarray:
    """Exact value table of the lattice problem, (n_steps + 1, nodes, regimes).

    Always computed by per-cell exhaustive backward minimization; when the
    total Markov-policy count is at most 1e5 the initial slice is recomputed
    by full policy enumeration and the two must agree to 1e-12 (the finite
    dynamic programming identity).
    """
    n_cells = problem.n_cells
    table = np.empty((problem.n_steps + 1, n_cells))
    table[-1] = problem.terminal
    for k in range(problem.n_steps - 1, -1, -1):
        stacked = np.stack(
            [problem.running[p][k] + problem.kernels[p] @ table[k + 1] for p in range(problem.n_pairs)]
        )
        table[k] = np.min(stacked, axis=0)

    if problem.policy_count() <= _ENUMERATION_LIMIT:
        slots = problem.n_steps * n_cells
        best = np.full(n_cells, np.inf)
        for assignment in itertools.product(range(problem.n_pairs), repeat=slots):
            pi = np.asarray(assignment, dtype=np.intp).reshape(problem.n_steps, n_cells)
            w = problem.terminal
            for k in range(problem.n_steps - 1, -1, -1):
                w = np.array(
                    [
                        problem.running[pi[k, c]][k, c] + problem.kernels[pi[k, c]][c] @ w
                        for c in range(n_cells)
                    ]
                )
            best = np.minimum(best, w)
        if float(np.max(np.abs(best - table[0]))) > 1e-12:
            raise NumericalError(
                "policy enumeration disagrees with backward minimization; lattice kernels inconsistent"
            )
    return table.reshape(problem.n_steps + 1, -1, problem.model.regime_count)


def _dpp_subchecks(model, grid, mu_candidates, nu_candidates, intermediate_k, x0, i0, path_count, seed):
    """(triples, details) of the DPP check of one instance: one-step and
    multi-step residuals of the recursion plus the Monte Carlo restatement,
    V(0, x0, i0) against E[int_0^{t_k} f dt + V(t_k, X, Lam)] under the
    extracted policy."""
    kern = SolverKernels(model, grid, mu_candidates, nu_candidates)
    vg = solve(model, grid, mu_candidates, nu_candidates, kern)
    if not 1 <= intermediate_k <= grid.time_steps:
        raise ValidationError("intermediate_k must be a positive slice index")
    one_step = max(
        dpp_residual(vg, model, k, k + 1, kern) for k in range(grid.time_steps)
    )
    multi = dpp_residual(vg, model, 0, intermediate_k, kern)

    policy = TableControl(vg)
    t_mid = float(vg.times[intermediate_k])
    start_x, start_i = np.atleast_1d(np.asarray(x0, dtype=float)), int(i0)
    # the engine's running sums, costed as ``cost`` costs them, with V(t_mid) in place of g
    chunks = simulate_chunks(model, policy, 0.0, start_x, start_i, t_mid, vg.dt, seed, path_count, costing=True)
    samples = np.concatenate([chunk.running + vg.values_at(t_mid, chunk.x, chunk.regimes) for chunk in chunks])
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(path_count))
    v0 = float(vg.values_at(0.0, start_x, [start_i])[0])
    tol = tol_disc(model, vg)
    details = {
        "value": v0,
        "mc_restatement": mean,
        "stderr": stderr,
        "one_step_residual": one_step,
        "multi_step_residual": multi,
        "tol_disc": tol,
    }
    triples = [
        ("one_step_residual_exact", one_step, 0.0),
        ("mc_restatement", abs(v0 - mean), 3 * stderr + tol),
        ("multi_step_within_tol", multi, tol),
    ]
    return triples, details


def _minimizing_sequence_subchecks(model, grid, mu_candidates, nu_candidates, control_sequence, x0, i0, path_count, seed):
    """(triples, details) of a desk-scale shadow of minimizing-sequence
    convergence: the declared controls' costs do not rise along the
    sequence, every one costs at least the grid value (up to noise +
    discretization), and the extracted policy is minimal among them.  Each
    allowance for noise is 3 standard errors."""
    vg = solve(model, grid, mu_candidates, nu_candidates)
    policy = TableControl(vg)
    v0 = float(vg.values_at(0.0, np.atleast_1d(x0), [int(i0)])[0])
    tol = tol_disc(model, vg)
    t_end = float(vg.times[-1])

    estimates = [monte_carlo_cost(model, c, 0.0, x0, i0, t_end, vg.dt, path_count, seed) for c in control_sequence]
    policy_est = monte_carlo_cost(model, policy, 0.0, x0, i0, t_end, vg.dt, path_count, seed)
    means = np.array([e.mean for e in estimates])
    stderrs = np.array([e.stderr for e in estimates])
    # rise of each cost over its predecessor in the declared order, less 3 se
    rises = np.diff(means) - 3 * np.sqrt(stderrs[:-1] ** 2 + stderrs[1:] ** 2)
    order_violation = float(np.max(rises, initial=0.0))

    lower_violation = float(np.max((v0 - 3 * stderrs - tol) - means))
    minimal_violation = float(np.max(policy_est.mean - (means + 3 * np.maximum(stderrs, policy_est.stderr))))
    details = {
        "value": v0,
        "costs": means.tolist(),
        "policy_cost": policy_est.mean,
        "tol_disc": tol,
    }
    triples = [
        ("costs_nonincreasing_in_declared_order", order_violation, 0.0),
        ("costs_dominate_value", lower_violation, 0.0),
        ("extracted_policy_minimal", minimal_violation, 0.0),
    ]
    return triples, details


def _moment_bound_subchecks(model, control, p, path_count, seed, x0, i0, t_end, dt):
    """(triples, details) of the empirical E[sup_t |X_t|^p] against twice the
    Gronwall constant, plus a scan of the declared growth constant."""
    chunks = simulate_chunks(model, control, 0.0, x0, i0, t_end, dt, seed, path_count)
    sup_norm = np.concatenate([np.max(np.linalg.norm(batch.states, axis=2), axis=1) for batch in chunks])
    estimate = float(np.mean(sup_norm**p))
    stderr = float(np.std(sup_norm**p, ddof=1) / np.sqrt(path_count))
    bound = gronwall_sup_moment_bound(model.growth_bound, x0, t_end, p, model.state_dim)

    # sanity scan of the declared growth constant on a node grid
    probe = np.linspace(model.truncation_lower, model.truncation_upper, 33).reshape(-1, model.state_dim)
    ratio = 0.0
    for regime in range(1, model.regime_count + 1):
        for mu in control.mu_pool:
            mb = MeasureBatch.constant(mu, probe.shape[0])
            regs = np.full(probe.shape[0], regime)
            b = model.drift_at(probe, regs, mb)
            sig = model.diffusion_at(probe, regs, mb)
            ratio = max(ratio, float(np.max(growth_ratio(probe, b, sig))))
    details = {
        "estimate": estimate,
        "stderr": stderr,
        "bound": bound,
        "growth_ratio": ratio,
        "declared_growth": model.growth_bound,
    }
    triples = [
        ("sup_moment_within_2x_bound", estimate, 2.0 * bound),
        ("declared_growth_holds", max(ratio - model.growth_bound, 0.0), 1e-9),
    ]
    return triples, details


# ---------------------------------------------------------------------------
# Bundled demo suite ("the battery"): one named check per acceptance target.
# Each check builds its own tiny one-dimensional instances with ``_model_1d``,
# except the regime-cost model, which is ``cli.DEMO_MODEL`` read through
# ``config.load_model``; ``determinism`` drives the CLI on the demo files.
# ---------------------------------------------------------------------------


def _model_1d(rates, rate_bound, drift, diffusion, running, terminal="0", horizon=1.0, box=1.0, **kwargs):
    """One-dimensional model on the unit action interval and the box
    [-box, box]: ``rates`` are the rate-matrix rows (None on the diagonal),
    ``drift`` and ``diffusion`` one expression per regime; ``kwargs`` go to
    ``HybridModel`` (declared constants, starts)."""
    return HybridModel(
        state_dim=1,
        action_set=ActionSet([0.0], [1.0]),
        rates=RateSpec(len(rates), rates, rate_bound),
        drift=[[e] for e in drift],
        diffusion=[[[e]] for e in diffusion],
        running_cost=running,
        terminal_cost=terminal,
        horizon=horizon,
        truncation_lower=[-box],
        truncation_upper=[box],
        **kwargs,
    )


def check_w1_metric() -> CheckReport:
    """Metric axioms, Dirac distances, diameter bound, and LP agreement of the
    CDF ([0,1]) and small-pair ([0,1]^2) closed forms on 500 random measure
    pairs/triples.  Each space draws its triples, then its Dirac points, and
    takes all its distances in one batched W1 call."""
    gen = rng.stream(101, 0, rng.ROLE_VALIDATE)
    sym_worst = tri_worst = neg_worst = ident_worst = diam_worst = dirac_worst = cdf_lp_worst = tree_lp_worst = 0.0

    for action_set in (ActionSet([0.0], [1.0]), ActionSet([0.0, 0.0], [1.0, 1.0])):
        span = action_set.upper - action_set.lower
        # 175 triples per space -> 350 triples, 500+ pairs
        measures = random_measures(action_set, [draw_measure(gen, action_set, max_atoms=6) for _ in range(3 * 175)])
        a, b, c = (tuple(measures[k::3]) for k in range(3))
        points = np.array([[action_set.lower + gen.random(action_set.dim) * span for _ in range(2)] for _ in range(75)])
        x, y = ([dirac(action_set, p) for p in points[:, k]] for k in (0, 1))
        dab, dba, dbc, dac, daa, dbb, dxy = np.split(
            w1_distance(a + b + b + a + a + b + tuple(x), b + a + c + c + a + b + tuple(y)), np.arange(1, 7) * 175
        )
        sym_worst = max(sym_worst, float(np.max(np.abs(dab - dba))))
        neg_worst = max(neg_worst, -float(np.min([dab, dbc, dac])))
        tri_worst = max(tri_worst, float(np.max(dac - (dab + dbc))))
        ident_worst = max(ident_worst, float(np.max([daa, dbb])))
        diam_worst = max(diam_worst, float(np.max([dab, dbc, dac])) - action_set.diameter)
        dirac_worst = max(dirac_worst, float(np.max(np.abs(dxy - euclidean(points[:, 0] - points[:, 1])))))
        if action_set.dim == 1:
            cdf = np.array([w1_sorted_cdf(p, q) for p, q in zip(a, b)])
            cdf_lp_worst = max(cdf_lp_worst, float(np.max(np.abs(cdf - w1_transport_lp(a, b)))))
        else:
            p, q, d = zip(*[(p, q, d) for p, q, d in zip(a + b + a, b + c + c, np.concatenate([dab, dbc, dac]))
                            if within_tree_cap(p.size, q.size)])
            tree_lp_worst = float(np.max(np.abs(np.array(d) - w1_transport_lp(p, q))))

    triples = [
        ("symmetry_exact", sym_worst, 0.0),
        ("nonnegativity", neg_worst, 0.0),
        ("triangle_inequality", tri_worst, 1e-9),
        ("identity", ident_worst, 0.0),
        ("diameter_bound", diam_worst, 1e-9),
        ("dirac_euclidean_exact", dirac_worst, 0.0),
        ("cdf_vs_lp", cdf_lp_worst, 1e-9),
        ("trees_vs_lp", tree_lp_worst, 1e-9),
    ]
    return _finish("w1_metric", triples)


def transition_matrix(rates: RateSpec, x, nu, dt: float) -> np.ndarray:
    """Exact expm(Q(x, nu) * dt) at one state x (d,) by scipy: the reference
    for the uniformized rows of ``switching.transition_rows_batch``."""
    from scipy.linalg import expm

    check_step(rates, dt)
    return np.clip(expm(rates.generator(np.reshape(x, (1, -1)), nu)[0] * dt), 0.0, None)


def check_intervals() -> CheckReport:
    """The uniformized jump kernel on 200 random rate evaluations plus one
    with an exit rate at the bound: nonnegative, stochastic, and its series
    rows equal to expm at dt * M = DT_RATE_CAP; then the jump law of a fixed
    kernel under 1e5 uniform draws per row."""
    gen = rng.stream(202, 0, rng.ROLE_VALIDATE)
    u_set = ActionSet([0.0], [1.0])
    neg_worst = sum_worst = expm_worst = 0.0
    # q_ij = c (0.5 + 0.5 m1(nu)) + d x1^2, built as trees: parsing 200 specs would dominate
    scaled, square = ex.parse("0.5 + 0.5*nu_m(1,0)"), ex.parse("x1*x1")

    def probe(rates, x, nu):
        nonlocal neg_worst, sum_worst, expm_worst
        kernel = jump_kernel(rates, x, nu)
        neg_worst = max(neg_worst, -float(kernel.min()))
        sum_worst = max(sum_worst, float(np.max(np.abs(kernel.sum(axis=-1) - 1.0))))
        n = rates.regime_count
        dt = DT_RATE_CAP / rates.rate_bound
        rows = transition_rows_batch(rates, np.arange(1, n + 1), np.tile(x, (n, 1)), nu, dt)
        expm_worst = max(expm_worst, float(np.max(np.abs(rows - transition_matrix(rates, x, nu, dt)))))

    probes, draws = [], []
    for _ in range(200):
        n = int(gen.integers(2, 5))
        exprs = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(None)
                else:
                    c = ex.Num(gen.random() / (n - 1) * 0.9)
                    d = ex.Num(gen.random() * 0.05)
                    row.append(ex.Binary("+", ex.Binary("*", c, scaled), ex.Binary("*", d, square)))
            exprs.append(row)
        probes.append((RateSpec(n, exprs, 1.0), gen.random(1) * 2 - 1))
        draws.append(draw_measure(gen, u_set))
    for (spec, x), nu in zip(probes, random_measures(u_set, draws)):
        probe(spec, x, nu)
    # an exit rate above M = 1 but inside the rate tolerance, which the generator accepts
    probe(RateSpec(2, [[None, "1.0000000000005"], ["0.5", None]], 1.0), np.zeros(1), dirac(u_set, [0.5]))

    # jump law: q_ij / M off the diagonal, 1 - q_i / M for staying
    rates = RateSpec(3, [[None, "0.4", "0.2"], ["0.3", None, "0.1"], ["0.0", "0.5", None]], 1.0)
    nu = dirac(u_set, [0.5])
    q = rates.off_diagonal(np.zeros((1, 1)), nu)[0]
    law = q / rates.rate_bound + np.diag(1.0 - q.sum(axis=-1) / rates.rate_bound)
    draws = gen.random((100_000, 3))
    picked = pick_regime(jump_kernel(rates, np.zeros(1), nu)[0], draws)
    # worst gap in standard errors; a probability of 0 or 1 must hold exactly
    law_worst = 0.0
    for i in range(3):
        for j in range(3):
            p_true = float(law[i, j])
            frac = float(np.mean(picked[:, i] == j + 1))
            se = math.sqrt(p_true * (1 - p_true) / len(draws))
            if se > 0:
                law_worst = max(law_worst, abs(frac - p_true) / se)
            elif frac != p_true:
                law_worst = math.inf

    triples = [
        ("kernel_nonnegative", neg_worst, 0.0),
        ("kernel_rows_sum_to_one", sum_worst, 1e-15),
        ("rows_match_expm", expm_worst, 1e-15),
        ("jump_law_within_3se", law_worst, 3.0),
    ]
    return _finish("intervals", triples)


def _two_state_chain():
    """Regime 1 leaves for regime 2 at rate 1, regime 2 is absorbing, the state
    is frozen; with a constant control, which the model does not read."""
    model = _model_1d([[None, "1"], ["0", None]], 1.0, ["0", "0"], ["0", "0"], "i")
    return model, ConstantControl(dirac(model.action_set, [0.5]), dirac(model.action_set, [0.5]))


#: Paths of the switching, diffusion and cost laws.
_LAW_PATHS = 10_000


def check_switching_law() -> CheckReport:
    """Two-state constant-rate chain: occupation of regime 2 at T = 1 against
    the exact law 1 - e^{-1}."""
    model, control = _two_state_chain()
    chunks = simulate_chunks(model, control, 0.0, [0.0], 1, 1.0, 0.01, 303, _LAW_PATHS)
    frac = float(np.mean(np.concatenate([batch.regimes[:, -1] for batch in chunks]) == 2))
    p_true = 1.0 - math.exp(-1.0)
    se = math.sqrt(p_true * (1 - p_true) / _LAW_PATHS)
    details = {"fraction": frac, "target": p_true, "stderr": se}
    return _finish("switching_law", [("occupation_at_T", abs(frac - p_true), 3 * se)], details)


def check_diffusion_law() -> CheckReport:
    """Driftless unit diffusion, one regime: X_T has mean x0 and variance T."""
    model = _model_1d([[None]], 0.0, ["0"], ["1"], "0", box=8.0)
    control = ConstantControl(dirac(model.action_set, [0.5]), dirac(model.action_set, [0.5]))
    chunks = simulate_chunks(model, control, 0.0, [0.0], 1, 1.0, 0.01, 404, _LAW_PATHS)
    x_t = np.concatenate([batch.states[:, -1, 0] for batch in chunks])
    mean = float(np.mean(x_t))
    var = float(np.var(x_t, ddof=1))
    se_mean = float(np.std(x_t, ddof=1) / math.sqrt(_LAW_PATHS))
    details = {"mean": mean, "variance": var, "stderr_mean": se_mean}
    triples = [
        ("terminal_mean", abs(mean - 0.0), 3 * se_mean),
        ("terminal_variance_within_5pct", abs(var - 1.0), 0.05),
    ]
    return _finish("diffusion_law", triples, details)


def check_cost_oracle() -> CheckReport:
    """Regime-occupation running cost against the closed form 1 + e^{-1}."""
    model, control = _two_state_chain()
    dt = 0.01
    est = monte_carlo_cost(model, control, 0.0, [0.0], 1, 1.0, dt, _LAW_PATHS, 505)
    target = 1.0 + math.exp(-1.0)
    tol = 3 * est.stderr + 2 * dt
    details = {"estimate": est.mean, "target": target, "stderr": est.stderr}
    return _finish("cost_oracle", [("occupation_cost", abs(est.mean - target), tol)], details)


def _regime_cost_instance():
    """The demo model: two regimes, frozen state, controllable switch rate
    0.4 * m1(nu), here on a 4-step grid.

    The optimal nu is the Dirac at 0 (suppresses switching entirely), which
    makes V(0, x, 1) exactly T = 1.
    """
    from .cli import DEMO_MODEL  # local import: the CLI imports this module

    model, _ = cfg.load_model(DEMO_MODEL)
    u1 = model.action_set
    grid = GridSpec(time_steps=4, space_nodes=[9], quad_order=3)
    return model, grid, [dirac(u1, [0.5])], [dirac(u1, [0.0]), dirac(u1, [1.0])]


def _drift_steering_instance():
    """One regime, controllable drift +-1 via the mean of mu, quadratic exit
    cost; the optimum steers the state toward zero."""
    model = _model_1d(
        [[None]], 0.0, ["2*mu_m(1,0) - 1"], ["0"], "0", "x1*x1", horizon=0.5, box=2.0,
        lipschitz_drift_diffusion=16.0, growth_bound=3.0, starts=[([1.0], 1)],
    )
    u1 = model.action_set
    grid = GridSpec(time_steps=5, space_nodes=[21], quad_order=3)
    return model, grid, [dirac(u1, [0.0]), dirac(u1, [1.0])], [dirac(u1, [0.5])]


def _coupled_instance():
    """Two regimes, diffusion, state- and control-dependent switch rate."""
    model = _model_1d(
        [[None, "0.2*(1 + x1*x1/4)*(0.5 + 0.5*nu_m(1,0))"], ["0.1", None]], 0.4,
        ["0", "0"], ["0.5", "0.25"], "0.25*x1*x1 + 0.5*i", "abs(x1)", box=2.0, starts=[([0.0], 1)],
    )
    u1 = model.action_set
    grid = GridSpec(time_steps=5, space_nodes=[21], quad_order=5)
    return model, grid, [dirac(u1, [0.5])], [dirac(u1, [0.0]), dirac(u1, [1.0])]


#: (label, builder) of the lattice instances of ``solver_oracle`` and ``dpp``.
_LATTICE_INSTANCES = (
    ("regime_cost", _regime_cost_instance),
    ("drift_steering", _drift_steering_instance),
    ("coupled", _coupled_instance),
)


def check_solver_oracle() -> CheckReport:
    """Backward solver against the lattice oracle's per-cell backward
    minimization on three instances, including the regime-cost instance with
    V(0, ., 1) = 1; plus a spot check of the solver's batched two-state
    transition rows against the scalar exponential."""
    triples = []
    instances = {}
    for label, builder in _LATTICE_INSTANCES:
        model, grid, mu_c, nu_c = instances[label] = builder()
        vg = solve(model, grid, mu_c, nu_c)
        oracle = enumerate_value(LatticeProblem(model, grid, mu_c, nu_c))
        gap = float(np.max(np.abs(vg.values - oracle)))
        triples.append((f"solve_vs_oracle_{label}", gap, 1e-9))
        if label == "regime_cost":
            triples.append(
                ("regime_cost_value_is_one", float(np.max(np.abs(vg.values[0][:, 0] - 1.0))), 1e-9)
            )

    # the rows the solver and simulator use, against the two-state scalar formula
    model, _, _, nu_c = instances["regime_cost"]
    dt = 0.25
    for nu, label in ((nu_c[0], "rate_zero"), (nu_c[1], "rate_active")):
        row = transition_rows_batch(model.rates, np.array([1]), np.zeros((1, 1)), MeasureBatch.constant(nu, 1), dt)[0]
        q12 = 0.4 * nu.moment(1, 0)
        scalar = np.array([math.exp(-q12 * dt), 1.0 - math.exp(-q12 * dt)])
        triples.append((f"two_state_scalar_{label}", float(np.max(np.abs(row - scalar))), 1e-12))
    return _finish("solver_oracle", triples)


def check_dpp_battery() -> CheckReport:
    """Criterion-style DPP check on three instances."""
    triples = []
    details = {}
    for label, builder in _LATTICE_INSTANCES:
        model, grid, mu_c, nu_c = builder()
        x0, i0 = model.default_start()
        subs, details[label] = _dpp_subchecks(model, grid, mu_c, nu_c, grid.time_steps // 2, x0, i0, 4000, 606)
        triples += [(f"{label}:{sub}", observed, tol) for sub, observed, tol in subs]
    return _finish("dpp", triples, details)


def _moduli(vg: ValueGrid) -> tuple[float, float]:
    vals = vg.values  # (n_t+1, n_nodes, N)
    dx = float(vg.axes[0][1] - vg.axes[0][0])
    lip_x = float(np.max(np.abs(np.diff(vals, axis=1)))) / dx
    lip_t = float(np.max(np.abs(np.diff(vals, axis=0)))) / vg.dt
    return lip_x, lip_t


def check_continuity() -> CheckReport:
    """Empirical space/time Lipschitz moduli of V stay within a factor 2
    under grid doubling, and refinement does not raise V at a fixed point by
    more than the discretization tolerance."""
    model = _model_1d(
        [[None, "0.5"], ["0.5", None]], 0.5, ["-x1", "-0.5*x1"], ["0.4", "0.3"], "x1*x1 + 0.1*i",
        "x1*x1", horizon=0.5, box=2.0, lipschitz_drift_diffusion=2.0, growth_bound=1.4,
    )
    mu_c = nu_c = [dirac(model.action_set, [0.5])]
    coarse = solve(model, GridSpec(time_steps=10, space_nodes=[21], quad_order=5), mu_c, nu_c)
    fine = solve(model, GridSpec(time_steps=20, space_nodes=[41], quad_order=5), mu_c, nu_c)
    lx_c, lt_c = _moduli(coarse)
    lx_f, lt_f = _moduli(fine)
    ratio_x = max(lx_f / lx_c, lx_c / lx_f)
    ratio_t = max(lt_f / lt_c, lt_c / lt_f)

    # soft lower-semicontinuity direction: refinement should not push V up
    # beyond the discretization tolerance at a fixed physical point
    tol = tol_disc(model, coarse)
    probe_x, probe_i = np.array([[0.5]]), [1]
    upward = float(fine.values_at(0.0, probe_x, probe_i)[0] - coarse.values_at(0.0, probe_x, probe_i)[0])
    details = {
        "lip_x_coarse": lx_c,
        "lip_x_fine": lx_f,
        "lip_t_coarse": lt_c,
        "lip_t_fine": lt_f,
        "upward_oscillation": upward,
        "tol_disc": tol,
    }
    triples = [
        ("lip_x_stable_2x", ratio_x, 2.0),
        ("lip_t_stable_2x", ratio_t, 2.0),
        ("upward_within_tol", upward, tol),
    ]
    return _finish("continuity", triples, details)


def check_minimizing_sequence_battery() -> CheckReport:
    """Ten mixtures of the regime-cost instance's two nu candidates,
    interpolating the switch rate downward, followed by the extracted policy."""
    model, grid, mu_c, nu_c = _regime_cost_instance()
    weights = np.linspace(1.0, 0.1, 10)
    controls = [ConstantControl(mu_c[0], mixture(nu_c, [1.0 - w, w])) for w in weights]
    subchecks = _minimizing_sequence_subchecks(model, grid, mu_c, nu_c, controls, [0.0], 1, 2000, 707)
    return _finish("minimizing_sequence", *subchecks)


def check_moment_bound_battery() -> CheckReport:
    """Mean-reverting unit-noise instance, p = 2, against the Gronwall constant."""
    model = _model_1d([[None]], 0.0, ["-x1"], ["1"], "0", box=8.0)
    control = ConstantControl(dirac(model.action_set, [0.5]), dirac(model.action_set, [0.5]))
    triples, details = _moment_bound_subchecks(model, control, 2, 10_000, 808, [1.0], 1, 1.0, 0.01)
    # the estimate must also dominate the analytic marginal second moment
    marginal_sup = max(
        math.exp(-2 * t) * 1.0 + (1 - math.exp(-2 * t)) / 2 for t in np.linspace(0, 1, 101)
    )
    violation = max(marginal_sup - details["estimate"] - 3 * details["stderr"], 0.0)
    triples.append(("dominates_marginal_sup", violation, 0.0))
    return _finish("moment_bound", triples, details)


def check_determinism() -> CheckReport:
    """CLI-level byte determinism: solve twice, simulate twice at workers 1
    and once at workers 8 over two path chunks."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from . import cli  # local import: the CLI imports this module

    def run(argv, out):
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise ValidationError(f"{argv[0]} exited with {code}")
        return out.read_bytes()

    quiet = contextlib.redirect_stdout(io.StringIO())
    with tempfile.TemporaryDirectory() as tmp, quiet:
        root = Path(tmp)
        model_path = root / "model.json"
        control_path = root / "control.json"
        cli.write_demo_config(model_path, control_path)

        solve_argv = ["solve", "--model", str(model_path), "--grid-nt", "4", "--grid-nx", "9", "--quad-order", "3",
                      "--mu-atoms", "1", "--mu-levels", "1", "--nu-atoms", "2", "--nu-levels", "1"]
        solves = [run(solve_argv, root / f"{tag}.json") for tag in ("a", "b")]
        solve_match = solves[0] == solves[1]

        # one block and 64 paths: two chunks, so --workers 8 runs a process pool
        simulate_argv = ["simulate", "--model", str(model_path), "--control", str(control_path),
                         "--paths", str(rng.BLOCK_PATHS + 64), "--dt", "0.05", "--seed", "9", "--workers"]
        sims = [
            run(simulate_argv + [str(workers)], root / f"paths_{tag}.csv")
            for tag, workers in (("w1", 1), ("w1b", 1), ("w8", 8))
        ]
        sim_repeat = sims[0] == sims[1]
        sim_workers = sims[0] == sims[2]

    details = {"solve_repeat": solve_match, "simulate_repeat": sim_repeat, "simulate_workers": sim_workers}
    triples = [
        ("solve_repeat_identical", 0.0 if solve_match else 1.0, 0.0),
        ("simulate_repeat_identical", 0.0 if sim_repeat else 1.0, 0.0),
        ("simulate_workers_1_vs_8", 0.0 if sim_workers else 1.0, 0.0),
    ]
    return _finish("determinism", triples, details)


#: The bundled demo suite, in acceptance order.
BATTERY = {
    "w1_metric": check_w1_metric,
    "intervals": check_intervals,
    "switching_law": check_switching_law,
    "diffusion_law": check_diffusion_law,
    "cost_oracle": check_cost_oracle,
    "solver_oracle": check_solver_oracle,
    "dpp": check_dpp_battery,
    "continuity": check_continuity,
    "minimizing_sequence": check_minimizing_sequence_battery,
    "moment_bound": check_moment_bound_battery,
    "determinism": check_determinism,
}


def run_battery(names=None) -> list[CheckReport]:
    """Run the named checks (all by default) and return their reports, each
    with its check's wall time as ``elapsed``."""
    if names is None:
        names = list(BATTERY)
    unknown = [n for n in names if n not in BATTERY]
    if unknown:
        raise ValidationError(f"unknown checks: {unknown}; available: {list(BATTERY)}")
    reports = []
    for name in names:
        start = time.perf_counter()
        reports.append(BATTERY[name]())
        reports[-1].elapsed = time.perf_counter() - start
    return reports
