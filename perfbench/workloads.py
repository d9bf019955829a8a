"""The four benchmark workloads: generated inputs, CLI arguments, output checks.

Each workload turns the benchmark seed into input files, names the
``hybridopt`` command line of one job, says how much work one job does, and
checks the output a job leaves behind.  Every job of one run uses the same
inputs, so a run also checks that repeated jobs agree.

Why each workload exists, and which layer it should stress, is written down
in ``perfbench/README.md``.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference estimates were made on CLI seeds at or above this value; the
# workload maps its seed below it, so the two never share a stream.
REFERENCE_SEED_BASE = 2**40
SEED_RANGE = 2**32

# Job sizes.  "tiny" runs the same code and checks on inputs small enough
# for the benchmark's own tests.
SIZES = {
    "full": {
        "mc_estimate": {"paths": 10000, "dt": 0.01},
        "path_export": {"paths": 1000, "dt": 0.01},
        "solve_2d": {"nx": 41, "nt": 20, "quad": 5},
        "validate_2d": {"samples": 500},
    },
    "tiny": {
        "mc_estimate": {"paths": 200, "dt": 0.05},
        "path_export": {"paths": 50, "dt": 0.05},
        "solve_2d": {"nx": 9, "nt": 4, "quad": 3},
        "validate_2d": {"samples": 100},
    },
}

# Allowed distance from the reference mean, in combined standard errors.
MC_SIGMAS = 4.0
SOLVE_TOL = 1e-9


def _dirac(*point):
    return {"atoms": [list(point)], "weights": [1.0]}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def model_1d(rates) -> dict:
    """1-D, 2-regime diffusion with mu-dependent drift and diffusion."""
    return {
        "state_dim": 1,
        "regime_count": 2,
        "horizon": 1.0,
        "action_set": {"lower": [0.0], "upper": [1.0]},
        "truncation": {"lower": [-2.0], "upper": [2.0]},
        "clamp": True,
        "drift": [["-x1 + mu_m(1,0)"], ["-0.5*x1 - mu_m(1,0)"]],
        "diffusion": [[["0.3 + 0.2*mu_m(1,0)"]], [["0.5 + 0.1*mu_m(2,0)"]]],
        "rates": rates,
        "rate_bound": 0.4,
        "running_cost": "x1*x1 + i + 0.1*mu_m(1,0) + 0.1*nu_m(1,0)",
        "terminal_cost": "x1*x1",
        "constants": {"lipschitz_drift_diffusion": 5.0, "lipschitz_rates": 1.0, "growth": 5.0},
        "cost_lower_bounds": {"f": 0.0, "g": 0.0},
        "starts": [{"x": [0.0], "i": 1}],
    }


def model_2d(action_dim: int, a: float, b: float, starts) -> dict:
    """2-D, 2-regime diffusion whose exit rates both depend on the state.

    With ``action_dim == 2`` the second state coordinate reads the second
    action coordinate, so W1 between two multi-atom measures needs the
    transport LP.  For every a in [0.5, 1.5] and b in [0.2, 0.6] the squared
    Lipschitz constant of (drift, diffusion) is at most max(2a^2, 4b^2 + 0.05)
    <= 4.5 and the rates are 0.4-Lipschitz in |dx| + W1, inside the declared
    constants, so every ``validate`` check passes.
    """
    c = action_dim - 1
    return {
        "state_dim": 2,
        "regime_count": 2,
        "horizon": 1.0,
        "action_set": {"lower": [0.0] * action_dim, "upper": [1.0] * action_dim},
        "truncation": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "clamp": True,
        "drift": [
            [f"-{a!r}*x1 + {b!r}*mu_m(1,0)", f"-{a!r}*x2 + {b!r}*mu_m(1,{c})"],
            [f"0.5*{b!r} - {a!r}*x1", f"-{a!r}*x2 - {b!r}*mu_m(1,{c})"],
        ],
        "diffusion": [
            [["0.3 + 0.2*mu_m(1,0)", "0"], ["0", "0.3"]],
            [["0.4", "0"], [f"0.1*mu_m(1,{c})", "0.3 + 0.1*mu_m(1,0)"]],
        ],
        "rates": [
            [None, "0.2*(1 + x1*x1)*(0.5 + 0.5*nu_m(1,0))"],
            [f"0.1*(1 + x2*x2)*(1 + nu_m(1,{c}))", None],
        ],
        "rate_bound": 0.4,
        "running_cost": f"x1*x1 + x2*x2 + i + 0.2*mu_m(1,0) + 0.1*nu_m(1,{c})",
        "terminal_cost": "x1*x1 + x2*x2",
        "constants": {"lipschitz_drift_diffusion": 5.0, "lipschitz_rates": 1.0, "growth": 5.0},
        "cost_lower_bounds": {"f": 0.0, "g": 0.0},
        "starts": starts,
    }


MC_MODEL = model_1d(
    [
        [None, "0.2*(1 + x1*x1/4)*(0.5 + 0.5*nu_m(1,0))"],
        ["0.1*(1 + x1*x1/4)*(1 + nu_m(1,0))", None],
    ]
)
MC_CONTROL = {
    "kind": "markov",
    "mu": {
        "candidates": [_dirac(0.0), _dirac(0.5), _dirac(1.0)],
        "index_expr": "min(max(x1 + 1, 0), 2)",
    },
    "nu": {
        "candidates": [_dirac(0.2), {"atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}],
        "per_regime": [0, 1],
    },
}

EXPORT_MODEL = model_1d([[None, "0.4*nu_m(1,0)"], ["0.1 + 0.3*nu_m(2,0)", None]])
EXPORT_CONTROL = {
    "kind": "path_dependent",
    "window": 10,
    "statistic": "max",
    "coordinate": 0,
    "buckets": [-0.25, 0.25],
    "mu": {"candidates": [_dirac(0.0), _dirac(0.5), _dirac(1.0)], "map": [0, 1, 2]},
    "nu": {"candidates": [_dirac(0.25), _dirac(0.75)], "map": [0, 1, 1]},
}

SOLVE_A, SOLVE_B = 1.0, 0.4


def cli_seed(seed: int) -> int:
    return seed % SEED_RANGE


class Job:
    """One workload instance: its inputs, its command line and its checks."""

    work_unit = ""

    def __init__(self, workdir: Path, seed: int, size: str):
        self.size = size
        self.params = SIZES[size][self.name]
        self.argv: list[str] = []
        self.work = 0

    def check(self, code: int) -> list[str]:
        """Problems with the output of the job that just ran (empty when fine)."""
        if code != 0:
            return [f"exit code {code}"]
        return self.check_output()

    def check_output(self) -> list[str]:
        raise NotImplementedError


class McEstimate(Job):
    name = "mc_estimate"
    work_unit = "path-steps"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        _write_json(workdir / "model.json", MC_MODEL)
        _write_json(workdir / "control.json", MC_CONTROL)
        p = self.params
        self.steps = round(MC_MODEL["horizon"] / p["dt"])
        self.work = p["paths"] * self.steps
        self.out = workdir / "estimate.json"
        self.argv = [
            "estimate", "--model", str(workdir / "model.json"),
            "--control", str(workdir / "control.json"),
            "--paths", str(p["paths"]), "--dt", repr(p["dt"]),
            "--seed", str(cli_seed(seed)), "--workers", "1", "--out", str(self.out),
        ]
        self.first_mean = None

    def check_output(self):
        doc = json.loads(self.out.read_text())
        ref = json.loads((REFERENCE_DIR / "mc_estimate.json").read_text())[self.size]
        problems = []
        if doc["paths"] != self.params["paths"]:
            problems.append(f"estimate reports {doc['paths']} paths")
        sigma = math.hypot(doc["stderr"], ref["stderr"])
        if not abs(doc["mean"] - ref["mean"]) <= MC_SIGMAS * sigma:
            problems.append(
                f"mean {doc['mean']!r} is more than {MC_SIGMAS} combined standard errors "
                f"({sigma:.3g}) from the reference {ref['mean']!r}"
            )
        if self.first_mean is None:
            self.first_mean = doc["mean"]
        elif doc["mean"] != self.first_mean:
            problems.append("the same seed gave a different mean")
        return problems


class PathExport(Job):
    name = "path_export"
    work_unit = "path-steps"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        _write_json(workdir / "model.json", EXPORT_MODEL)
        _write_json(workdir / "control.json", EXPORT_CONTROL)
        p = self.params
        self.steps = round(EXPORT_MODEL["horizon"] / p["dt"])
        self.work = p["paths"] * self.steps
        self.out = workdir / "paths.csv"
        self.argv = [
            "simulate", "--model", str(workdir / "model.json"),
            "--control", str(workdir / "control.json"),
            "--paths", str(p["paths"]), "--dt", repr(p["dt"]),
            "--seed", str(cli_seed(seed)), "--workers", "1", "--out", str(self.out),
        ]
        self.first_digest = None

    def check_output(self):
        data = self.out.read_bytes()
        problems = []
        # one comment line and one header line precede the data rows
        rows = data.count(b"\n") - 2
        expected = self.params["paths"] * (self.steps + 1)
        if rows != expected:
            problems.append(f"{rows} data rows, expected {expected}")
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("the same seed gave a different CSV")
        return problems


def solve_model(seed: int) -> dict:
    """The solve_2d model; the seed picks only the start points, which do not
    change the value grid, so one recorded reference grid serves every seed."""
    gen = random.Random(seed)
    starts = [
        {"x": [round(gen.uniform(-0.5, 0.5), 6), round(gen.uniform(-0.5, 0.5), 6)], "i": i}
        for i in (1, 2)
    ]
    return model_2d(1, SOLVE_A, SOLVE_B, starts)


def bilinear(axes, table, x) -> float:
    """Clamped bilinear interpolation of a (nx1 * nx2,) node table at x."""
    idx, frac = [], []
    for axis, v in zip(axes, x):
        v = min(max(v, axis[0]), axis[-1])
        k = min(max(int(np.searchsorted(axis, v, side="right")) - 1, 0), len(axis) - 2)
        idx.append(k)
        frac.append((v - axis[k]) / (axis[k + 1] - axis[k]))
    grid = table.reshape(len(axes[0]), len(axes[1]))
    (i, j), (f, g) = idx, frac
    return float(
        (1 - f) * (1 - g) * grid[i, j] + (1 - f) * g * grid[i, j + 1]
        + f * (1 - g) * grid[i + 1, j] + f * g * grid[i + 1, j + 1]
    )


class Solve2d(Job):
    name = "solve_2d"
    work_unit = "lattice updates"
    mu_nu_pairs = 9

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.model = solve_model(seed)
        _write_json(workdir / "model.json", self.model)
        p = self.params
        self.work = p["nx"] ** 2 * 2 * self.mu_nu_pairs * p["nt"]
        self.out = workdir / "value_grid.json"
        self.argv = [
            "solve", "--model", str(workdir / "model.json"),
            "--grid-nt", str(p["nt"]), "--grid-nx", f"{p['nx']},{p['nx']}",
            "--quad-order", str(p["quad"]),
            "--mu-atoms", "3", "--mu-levels", "1", "--nu-atoms", "3", "--nu-levels", "1",
            "--workers", "1", "--out", str(self.out),
        ]

    def check_output(self):
        doc = json.loads(self.out.read_text())
        values = np.asarray(doc["values"], dtype=float)
        with np.load(REFERENCE_DIR / f"solve_2d_{self.size}.npz") as ref:
            ref_values = ref["values"]
        if values.shape != ref_values.shape:
            return [f"value grid shape {values.shape}, expected {ref_values.shape}"]
        problems = []
        gap = float(np.max(np.abs(values - ref_values)))
        if not gap <= SOLVE_TOL:
            problems.append(f"value grid differs from the reference by {gap:.3g}")
        axes = [np.asarray(a, dtype=float) for a in doc["axes"]]
        for start, entry in zip(self.model["starts"], doc["start_values"]):
            want = bilinear(axes, ref_values[0][:, start["i"] - 1], start["x"])
            if not abs(entry["value"] - want) <= SOLVE_TOL:
                problems.append(f"V(0, {start['x']}, {start['i']}) = {entry['value']!r}, expected {want!r}")
        return problems


class Validate2d(Job):
    name = "validate_2d"
    work_unit = "sample pairs"

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        # the sampler's stream is fixed inside hybridopt; the seed varies the
        # coefficients within the range the declared constants cover
        gen = random.Random(seed)
        a = round(gen.uniform(0.5, 1.5), 6)
        b = round(gen.uniform(0.2, 0.6), 6)
        _write_json(workdir / "model.json", model_2d(2, a, b, [{"x": [0.0, 0.0], "i": 1}]))
        self.work = self.params["samples"]
        self.out = workdir / "validate.json"
        self.argv = [
            "validate", "--model", str(workdir / "model.json"),
            "--samples", str(self.params["samples"]), "--workers", "1", "--out", str(self.out),
        ]

    def check_output(self):
        doc = json.loads(self.out.read_text())
        problems = [f"check {c['name']} failed" for c in doc["checks"] if not c["pass"]]
        if not doc["pass"] and not problems:
            problems.append("report does not pass")
        if doc["sample_count"] != self.params["samples"]:
            problems.append(f"report covers {doc['sample_count']} samples")
        return problems


WORKLOADS = {cls.name: cls for cls in (McEstimate, PathExport, Solve2d, Validate2d)}
