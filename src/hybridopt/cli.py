"""Command-line surface.

Subcommands: ``validate`` (coefficient hypothesis report), ``simulate``
(paths to CSV/JSON), ``estimate`` (Monte Carlo cost of a control),
``solve`` (value-grid artifact), ``verify`` (oracle battery).  Outputs are
deterministic given config + seed, carry the config hash, and are written
atomically.  Plot-ready CSV/JSON is the output contract; no plotting here.

Exit codes: 0 ok, 2 config/parse error, 3 hypothesis failure, 4 simulation
error, 5 capacity error, 6 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import config as cfg
from . import oracle_verify, rng
from .control import candidate_set
from .cost import monte_carlo_cost
from .dpp_solver import GridSpec, solve
from .dynamics import simulate_paths, validate_model
from .errors import CapacityError, HybridOptError, ModelError, NumericalError, SimulationError, ValidationError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_SIMULATION = 4
EXIT_CAPACITY = 5
EXIT_VERIFY = 6
# exit codes of the error kinds that are not config/parse errors
_EXIT_CODES = (
    (CapacityError, EXIT_CAPACITY),
    (ModelError, EXIT_HYPOTHESIS),
    ((SimulationError, NumericalError), EXIT_SIMULATION),
)


def _default_workers() -> int:
    env = os.environ.get("HYBRIDOPT_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model config JSON")
    p.add_argument("--workers", type=int, default=None, help="worker processes (default: HYBRIDOPT_WORKERS or CPU count)")
    p.add_argument("--out", default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hybridopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the declared coefficient hypotheses by sampling")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("simulate", help="simulate controlled paths")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--control", required=True, help="control spec JSON")
    p.add_argument("--paths", type=int, default=10)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--x0", default=None, help="comma-separated start state (default: model starts)")
    p.add_argument("--i0", type=int, default=None, help="start regime (default: model starts)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=None, help="end time (default: model horizon)")

    p = sub.add_parser("estimate", help="Monte Carlo cost of a control")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--control", required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--x0", default=None)
    p.add_argument("--i0", type=int, default=None)
    p.add_argument("--antithetic", action="store_true")

    p = sub.add_parser("solve", help="backward-induction value grid")
    _add_common(p)
    p.add_argument("--grid-nt", type=int, default=10)
    p.add_argument("--grid-nx", default="21", help="comma-separated nodes per dimension")
    p.add_argument("--quad-order", type=int, default=5)
    p.add_argument("--mu-atoms", type=int, default=2)
    p.add_argument("--mu-levels", type=int, default=1)
    p.add_argument("--nu-atoms", type=int, default=2)
    p.add_argument("--nu-levels", type=int, default=1)

    p = sub.add_parser("verify", help="run the oracle verification battery")
    p.add_argument("--check", nargs="*", default=None, help="check names (default: the full battery)")
    p.add_argument("--tolerance-scale", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.add_argument("--list", action="store_true", help="list available checks and exit")
    return parser


def _parse_x0(raw, model):
    if raw is None:
        return model.default_start()[0]
    try:
        return np.array([float(v) for v in str(raw).split(",")], dtype=float)
    except ValueError as err:
        raise ValidationError(f"bad --x0 value {raw!r}: {err}") from err


def _run_hash(args, model_payload, control_payload, x0, i0, t0, horizon, antithetic=False) -> str:
    """Hash of everything a simulate/estimate output depends on, the layout of
    the random streams included.  The worker count is left out on purpose:
    outputs do not depend on it."""
    return cfg.config_hash(
        {
            "model": model_payload,
            "control": control_payload,
            "x0": [float(v) for v in x0],
            "i0": int(i0),
            "t0": float(t0),
            "horizon": float(horizon),
            "dt": args.dt,
            "paths": args.paths,
            "seed": args.seed,
            "antithetic": bool(antithetic),
            "streams": rng.STREAM_LAYOUT,
        }
    )


# paths per block of rows handed to the file by the CSV writer
CSV_BLOCK_PATHS = 64


def _csv_cells(pool, end: str = "") -> np.ndarray:
    """Each measure's canonical JSON as a cell quoted by the csv module, then the
    empty cell of a path's terminal row; ``end`` is appended to every cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([cfg.canonical_json(m.to_dict())] for m in pool)
    return np.array([c + end for c in buf.getvalue().split("\n")[:-1] + [""]], dtype=object)


def _paths_to_csv(batch, hash_line: str, fh) -> None:
    """Write one CSV row per path and grid time to ``fh``, CSV_BLOCK_PATHS paths
    at a time; the byte contract is in the README ("Path CSV")."""
    n_paths, n_rows, d = batch.states.shape
    fh.write(f"# config_hash={hash_line}\n")
    fh.write(",".join(["path", "t"] + [f"x{c + 1}" for c in range(d)] + ["regime", "mu", "nu"]) + "\n")
    measures = ((_csv_cells(batch.mu_pool), batch.mu_idx), (_csv_cells(batch.nu_pool, end="\n"), batch.nu_idx))
    times = [repr(t) for t in batch.times.tolist()]
    for lo in range(0, n_paths, CSV_BLOCK_PATHS):
        block = slice(lo, lo + CSV_BLOCK_PATHS)
        n = len(batch.path_indices[block])
        cols = [map(str, np.repeat(batch.path_indices[block], n_rows).tolist()), times * n]
        cols += [map(repr, batch.states[block, :, c].ravel().tolist()) for c in range(d)]
        cols.append(map(str, batch.regimes[block].ravel().tolist()))
        for cells, idx in measures:
            # index len(pool) is a terminal row's empty cell; the nu cells end in "\n"
            full = np.pad(idx[block], ((0, 0), (0, 1)), constant_values=len(cells) - 1)
            cols.append(cells[full.ravel()].tolist())
        fh.writelines(map(",".join, zip(*cols)))


def _paths_to_json(batch, hash_line: str) -> dict:
    mu_dicts = [m.to_dict() for m in batch.mu_pool]
    nu_dicts = [m.to_dict() for m in batch.nu_pool]
    return {
        "config_hash": hash_line,
        "times": batch.times.tolist(),
        "mu_pool": mu_dicts,
        "nu_pool": nu_dicts,
        "paths": [
            {
                "path": int(p),
                "states": batch.states[row].tolist(),
                "regimes": batch.regimes[row].tolist(),
                "mu_index": batch.mu_idx[row].tolist(),
                "nu_index": batch.nu_idx[row].tolist(),
            }
            for row, p in enumerate(batch.path_indices)
        ],
    }


def _print_artifact(out, doc) -> None:
    """Print the artifact text of ``doc`` and, with ``--out``, write it there too."""
    text = cfg.artifact_json(doc)
    if out:
        cfg.atomic_write_text(out, text + "\n")
    print(text)


def cmd_validate(args) -> int:
    model, payload = cfg.load_model(args.model)
    report = validate_model(model, args.samples, args.seed)
    doc = report.to_dict()
    doc["config_hash"] = cfg.config_hash(payload)
    _print_artifact(args.out, doc)
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def cmd_simulate(args) -> int:
    model, payload = cfg.load_model(args.model)
    control, control_payload = cfg.load_control(args.control, model)
    x0 = _parse_x0(args.x0, model)
    i0 = args.i0 if args.i0 is not None else model.default_start()[1]
    t_end = args.horizon if args.horizon is not None else model.horizon
    workers = args.workers if args.workers is not None else _default_workers()
    batch = simulate_paths(
        model, control, args.t0, x0, i0, t_end, args.dt, args.seed, args.paths, workers
    )
    run_hash = _run_hash(args, payload, control_payload, x0, i0, args.t0, t_end)
    out = args.out or "paths.csv"
    if str(out).endswith(".json"):
        cfg.atomic_write_json(out, _paths_to_json(batch, run_hash))
    else:
        with cfg.atomic_open(out) as fh:
            _paths_to_csv(batch, run_hash, fh)
    print(f"wrote {args.paths} paths to {out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    model, payload = cfg.load_model(args.model)
    control, control_payload = cfg.load_control(args.control, model)
    x0 = _parse_x0(args.x0, model)
    i0 = args.i0 if args.i0 is not None else model.default_start()[1]
    workers = args.workers if args.workers is not None else _default_workers()
    est = monte_carlo_cost(
        model, control, 0.0, x0, i0, model.horizon, args.dt, args.paths, args.seed,
        workers, args.antithetic,
    )
    doc = est.to_dict()
    doc["config_hash"] = _run_hash(
        args, payload, control_payload, x0, i0, 0.0, model.horizon, args.antithetic
    )
    _print_artifact(args.out, doc)
    return EXIT_OK


def cmd_solve(args) -> int:
    model, payload = cfg.load_model(args.model)
    nx = [int(v) for v in str(args.grid_nx).split(",")]
    grid = GridSpec(args.grid_nt, nx, args.quad_order)
    mu_c = candidate_set(model.action_set, args.mu_atoms, args.mu_levels)
    nu_c = candidate_set(model.action_set, args.nu_atoms, args.nu_levels)
    vg = solve(model, grid, mu_c, nu_c)

    starts = model.starts or [(tuple(model.default_start()[0].tolist()), model.default_start()[1])]
    start_values = []
    for x0, i0 in starts:
        value = vg.value_at(0.0, np.asarray(x0, dtype=float), i0)
        start_values.append({"x": list(x0), "i": i0, "value": value})
        print(f"V(0, {list(x0)}, {i0}) = {value!r}")

    doc = vg.to_dict()
    doc["config_hash"] = cfg.config_hash(
        {"model": payload, "grid": grid.to_dict(),
         "mu": [args.mu_atoms, args.mu_levels], "nu": [args.nu_atoms, args.nu_levels]}
    )
    doc["start_values"] = start_values
    out = args.out or "value_grid.json"
    cfg.atomic_write_json(out, doc)
    print(f"wrote value grid to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.list:
        for name in oracle_verify.BATTERY:
            print(name)
        return EXIT_OK
    names = args.check
    if names is not None and len(names) == 0:
        print("warning: empty check list, nothing verified", file=sys.stderr)
        if args.out:
            cfg.atomic_write_json(args.out, {"pass": True, "checks": []})
        return EXIT_OK
    reports = oracle_verify.run_battery(names, args.tolerance_scale)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.name}: margin={r.margin:.3g} tolerance={r.tolerance:.3g} ({r.elapsed:.2f}s)")
    if args.out:
        cfg.atomic_write_json(
            args.out,
            {"pass": all_pass, "tolerance_scale": args.tolerance_scale,
             "checks": [r.to_dict() for r in reports]},
        )
    return EXIT_OK if all_pass else EXIT_VERIFY


#: The bundled demo model config: two regimes, frozen state, controllable
#: switch rate 0.4 * m1(nu).  ``write_demo_config`` writes it and the
#: battery's regime-cost instance loads it.
DEMO_MODEL = {
    "state_dim": 1,
    "regime_count": 2,
    "horizon": 1.0,
    "action_set": {"lower": [0.0], "upper": [1.0]},
    "truncation": {"lower": [-1.0], "upper": [1.0]},
    "clamp": True,
    "drift": [["0"], ["0"]],
    "diffusion": [[["0"]], [["0"]]],
    "rates": [[None, "0.4*nu_m(1,0)"], ["0", None]],
    "rate_bound": 0.4,
    "running_cost": "i",
    "terminal_cost": "0",
    "constants": {"lipschitz_drift_diffusion": 1.0, "lipschitz_rates": 1.0, "growth": 1.0},
    "cost_lower_bounds": {"f": 0.0, "g": 0.0},
    "starts": [{"x": [0.0], "i": 1}],
}


def write_demo_config(model_path, control_path) -> None:
    """Bundled demo instance: ``DEMO_MODEL`` and a constant control, used by
    the determinism check and the README example."""
    control = {
        "kind": "constant",
        "mu": {"atoms": [[0.5]], "weights": [1.0]},
        "nu": {"atoms": [[0.0]], "weights": [1.0]},
    }
    cfg.atomic_write_json(model_path, DEMO_MODEL)
    cfg.atomic_write_json(control_path, control)


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (json.JSONDecodeError, FileNotFoundError, HybridOptError) as err:
        print(f"error: {err}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(err, kinds)), EXIT_PARSE)

if __name__ == "__main__":
    sys.exit(main())
