"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Each criterion runs the corresponding bundled verification check at its
stated tolerance and asserts the outcome, the runtime limit and the list of
subcheck labels.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import pytest

from hybridopt.oracle_verify import run_battery

CRITERIA = [
    # (number, check name, runtime limit in seconds, subcheck labels in report order)
    (1, "w1_metric", 30.0, [
        "symmetry_exact", "nonnegativity", "triangle_inequality", "identity", "diameter_bound",
        "dirac_euclidean_exact", "cdf_vs_lp", "trees_vs_lp",
    ]),
    (2, "intervals", 30.0, [
        "kernel_nonnegative", "kernel_rows_sum_to_one", "rows_match_expm", "jump_law_within_3se",
    ]),
    (3, "switching_law", 60.0, ["occupation_at_T"]),
    (4, "diffusion_law", 60.0, ["terminal_mean", "terminal_variance_within_5pct"]),
    (5, "cost_oracle", 60.0, ["occupation_cost"]),
    (6, "solver_oracle", 60.0, [
        "solve_vs_oracle_regime_cost", "regime_cost_value_is_one", "solve_vs_oracle_drift_steering",
        "solve_vs_oracle_coupled", "two_state_scalar_rate_zero", "two_state_scalar_rate_active",
    ]),
    (7, "dpp", 120.0, [
        "regime_cost:one_step_residual_exact", "regime_cost:mc_restatement", "regime_cost:multi_step_within_tol",
        "drift_steering:one_step_residual_exact", "drift_steering:mc_restatement",
        "drift_steering:multi_step_within_tol",
        "coupled:one_step_residual_exact", "coupled:mc_restatement", "coupled:multi_step_within_tol",
    ]),
    (8, "continuity", 120.0, ["lip_x_stable_2x", "lip_t_stable_2x", "upward_within_tol"]),
    (9, "minimizing_sequence", 120.0, [
        "costs_nonincreasing_in_declared_order", "costs_dominate_value", "extracted_policy_minimal",
    ]),
    (10, "moment_bound", 60.0, ["sup_moment_within_2x_bound", "declared_growth_holds", "dominates_marginal_sup"]),
    (11, "determinism", 60.0, ["solve_repeat_identical", "simulate_repeat_identical", "simulate_workers_1_vs_8"]),
]


@pytest.mark.parametrize(
    "number,name,limit,labels", CRITERIA, ids=[f"criterion_{n:02d}_{c}" for n, c, _, _ in CRITERIA]
)
def test_acceptance_criterion(number, name, limit, labels):
    # run_battery sets the check's wall time, which the limit is checked against
    report = run_battery([name])[0]
    flag = "PASS" if report.passed else "FAIL"
    print(
        f"[{flag}] criterion {number:2d} {name}: margin={report.margin:.4g} "
        f"tolerance={report.tolerance:.4g} runtime={report.elapsed:.2f}s (limit {limit:.0f}s)"
    )
    if not report.passed:
        detail = report.details.get("failed", [])
        pytest.fail(f"criterion {number} ({name}) failed subchecks: {detail}")
    assert report.elapsed < limit, f"criterion {number} exceeded its runtime limit"
    # a refactor that drops or renames a subcheck fails here
    assert [s["label"] for s in report.details["subchecks"]] == labels
