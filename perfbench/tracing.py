"""Per-layer tracing from outside the package.

A ``Tracer`` replaces public functions at the module boundaries of
``hybridopt`` with wrappers that record a span (start, end, parent) and
per-call counts, then puts the originals back.  Each function is patched in
the namespace that looks the name up: ``dynamics`` imports the switching
functions by name, ``cli`` imports ``solve``, ``simulate_paths`` and
``validate_model`` by name, and methods are patched on their class.  Nothing
in ``src/`` changes.

Self time of a span is its duration minus the time covered by its child
spans, so the self times of one job add up to the traced part of its wall
time.  A span opened with ``absorb=True`` takes the time of everything it
calls: calls inside it still count, but open no spans of their own.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

TIME_METRICS = (
    "rng.draw_s",
    "switching.rows_s",
    "switching.pick_s",
    "expr.eval_s",
    "dynamics.coef_s",
    "dynamics.engine_s",
    "dynamics.validate_s",
    "control.indices_s",
    "cost.batch_costs_s",
    "measure_space.w1_s",
    "measure_space.lp_s",
    "dpp_solver.kernel_build_s",
    "dpp_solver.interp_s",
    "dpp_solver.sweep_s",
    "dpp_solver.serialize_s",
    "cli.format_s",
    "config.load_s",
    "config.write_s",
)

# Counts that must repeat exactly for the same inputs.
EXACT_COUNTS = (
    "rng.streams",
    "switching.expm_calls",
    "switching.rows_computed",
    "expr.calls",
    "dpp_solver.stage_values_calls",
    "measure_space.lp_calls",
    "cli.output_bytes",
)

COUNT_METRICS = EXACT_COUNTS + (
    "rng.bytes",
    "switching.rows_calls",
    "dynamics.clamp_events",
    "control.calls",
    "measure_space.w1_calls",
)


def _rows(result, _args):
    return {"switching.rows_computed": result.shape[0] if result.ndim == 2 else 1}


def _nbytes(result, _args):
    return {"rng.bytes": int(result.nbytes)}


def _clamps(result, _args):
    return {"dynamics.clamp_events": int(result.clamp_count)}


def _text_bytes(_result, args):
    return {"cli.output_bytes": len(args[1].encode("utf-8"))}


# (module, owner inside the module or None, attribute, time metric,
#  call counter, result counter, absorb)
BOUNDARIES = (
    ("rng", None, "brownian_increments", "rng.draw_s", None, _nbytes, False),
    ("rng", None, "switch_uniforms", "rng.draw_s", None, _nbytes, False),
    ("rng", None, "stream", "rng.draw_s", "rng.streams", None, False),
    ("dynamics", None, "transition_rows_batch", "switching.rows_s", "switching.rows_calls", _rows, False),
    ("dynamics", None, "step_transition_probs", "switching.rows_s", "switching.rows_calls", _rows, False),
    ("dpp_solver", None, "step_transition_probs", "switching.rows_s", "switching.rows_calls", _rows, False),
    ("switching", None, "expm", "switching.rows_s", "switching.expm_calls", None, False),
    ("dynamics", None, "pick_regime", "switching.pick_s", None, None, False),
    ("expr", None, "eval_vector", "expr.eval_s", None, None, False),
    ("expr", None, "evaluate", "expr.eval_s", "expr.calls", None, False),
    ("dynamics", "HybridModel", "drift_at", "dynamics.coef_s", None, None, False),
    ("dynamics", "HybridModel", "diffusion_at", "dynamics.coef_s", None, None, False),
    ("dynamics", None, "_simulate_block", "dynamics.engine_s", None, _clamps, False),
    ("cli", None, "validate_model", "dynamics.validate_s", None, None, False),
    ("control", "ConstantControl", "indices", "control.indices_s", "control.calls", None, False),
    ("control", "MarkovControl", "indices", "control.indices_s", "control.calls", None, False),
    ("control", "TableControl", "indices", "control.indices_s", "control.calls", None, False),
    ("control", "PathDependentControl", "indices", "control.indices_s", "control.calls", None, False),
    ("cost", None, "batch_costs", "cost.batch_costs_s", None, None, True),
    ("dynamics", None, "w1_distance", "measure_space.w1_s", "measure_space.w1_calls", None, False),
    ("measure_space", None, "w1_transport_lp", "measure_space.lp_s", "measure_space.lp_calls", None, False),
    ("dpp_solver", "SolverKernels", "__init__", "dpp_solver.kernel_build_s", None, None, False),
    ("dpp_solver", None, "interpolation_matrix", "dpp_solver.interp_s", None, None, False),
    ("cli", None, "solve", "dpp_solver.sweep_s", None, None, False),
    ("dpp_solver", "SolverKernels", "stage_values", "dpp_solver.sweep_s", "dpp_solver.stage_values_calls", None, False),
    ("dpp_solver", "ValueGrid", "to_dict", "dpp_solver.serialize_s", None, None, False),
    ("cli", None, "_paths_to_csv", "cli.format_s", None, None, False),
    ("cli", None, "_paths_to_json", "cli.format_s", None, None, False),
    ("config", None, "load_model", "config.load_s", None, None, False),
    ("config", None, "load_control", "config.load_s", None, None, False),
    ("config", None, "atomic_write_text", "config.write_s", None, _text_bytes, False),
    ("config", None, "atomic_write_json", "config.write_s", None, None, False),
)


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Collects self times and counts for the jobs run while it is installed."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._absorbing = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()

    def _wrap(self, fn, metric, counter, on_result, absorb):
        tracer = self
        stack = self._stack
        counts = self.counts
        times = self.times

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            if tracer._absorbing:
                result = fn(*args, **kwargs)
            else:
                frame = _Frame()
                stack.append(frame)
                tracer._absorbing += absorb
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - start
                    tracer._absorbing -= absorb
                    stack.pop()
                    times[metric] += duration - frame.child
                    if stack:
                        stack[-1].child += duration
            if on_result:
                for key, value in on_result(result, args).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Patch every boundary that exists; record the ones that do not."""
        self.missing = []
        for module_name, owner_name, attr, metric, counter, on_result, absorb in BOUNDARIES:
            module = importlib.import_module(f"hybridopt.{module_name}")
            owner = getattr(module, owner_name, None) if owner_name else module
            label = ".".join(filter(None, (module_name, owner_name, attr)))
            if owner is None or attr not in vars(owner):
                self.missing.append(label)
                continue
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, metric, counter, on_result, absorb))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self, wall: float) -> dict:
        """Per-layer self times and counts of the jobs since the last reset."""
        out = {name: self.times.get(name, 0.0) for name in TIME_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        out["trace.unattributed_s"] = wall - sum(self.times.values())
        return out
