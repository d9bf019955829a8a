"""JSON surfaces: model configs, control specs, artifacts, atomic writes.

Model configs carry coefficient expressions as strings; measures are always
``{"atoms": [[...], ...], "weights": [...]}``.  Every artifact embeds the
SHA-256 of the canonical (sorted-keys) config JSON it was produced from, so
outputs are traceable and reruns are byte-comparable.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .control import (
    CandidateMap,
    ConstantControl,
    FeedbackControl,
    MarkovControl,
    PathDependentControl,
    TableControl,
)
from .dynamics import HybridModel
from .dpp_solver import ValueGrid
from .errors import ValidationError
from .measure_space import ActionSet, DiscreteMeasure
from .switching import RateSpec


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@contextmanager
def atomic_open(path):
    """Text file handle on a sibling temp file that is renamed onto ``path``
    on a clean exit, so readers never see partial files.  On an error the
    temp file is removed and an earlier file at ``path`` keeps its bytes."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _load_payload(source) -> dict:
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return json.load(fh)
    return source


def load_model(source) -> tuple[HybridModel, dict]:
    """Build a HybridModel from a config dict or JSON file path.

    Returns the model together with the raw payload (for hashing).
    """
    payload = _load_payload(source)
    try:
        box = payload["action_set"]
        action_set = ActionSet(box["lower"], box["upper"])
        n = int(payload["regime_count"])
        rates = RateSpec(n, payload["rates"], payload["rate_bound"])
        constants = payload.get("constants", {})
        floors = payload.get("cost_lower_bounds", {})
        trunc = payload["truncation"]
        model = HybridModel(
            state_dim=int(payload["state_dim"]),
            action_set=action_set,
            rates=rates,
            drift=payload["drift"],
            diffusion=payload["diffusion"],
            running_cost=payload["running_cost"],
            terminal_cost=payload["terminal_cost"],
            horizon=float(payload["horizon"]),
            truncation_lower=trunc["lower"],
            truncation_upper=trunc["upper"],
            clamp=bool(payload.get("clamp", True)),
            lipschitz_drift_diffusion=float(constants.get("lipschitz_drift_diffusion", 1.0)),
            lipschitz_rates=float(constants.get("lipschitz_rates", 1.0)),
            growth_bound=float(constants.get("growth", 1.0)),
            running_cost_floor=float(floors.get("f", 0.0)),
            terminal_cost_floor=float(floors.get("g", 0.0)),
            starts=[(s["x"], s["i"]) for s in payload.get("starts", [])],
        )
    except KeyError as err:
        raise ValidationError(f"model config missing field {err}") from err
    except (IndexError, TypeError) as err:
        raise ValidationError(f"malformed model config: {err}") from err
    return model, payload


def _measures(action_set: ActionSet, items) -> list[DiscreteMeasure]:
    return [DiscreteMeasure.from_dict(action_set, m) for m in items]


def load_control(source, model: HybridModel) -> tuple[FeedbackControl, dict]:
    """Build a FeedbackControl from a spec dict or JSON file path.

    Returns the control together with the spec as it enters a run hash.  A
    table control names its artifact by file path, so there the path is
    replaced by the hash of the artifact's contents.
    """
    payload = _load_payload(source)
    kind = payload.get("kind")
    a = model.action_set
    if kind == "constant":
        control = ConstantControl(
            DiscreteMeasure.from_dict(a, payload["mu"]),
            DiscreteMeasure.from_dict(a, payload["nu"]),
        )
    elif kind == "markov":
        def build(spec):
            return CandidateMap(
                _measures(a, spec["candidates"]),
                index_expr=spec.get("index_expr"),
                per_regime=spec.get("per_regime"),
            )

        control = MarkovControl(build(payload["mu"]), build(payload["nu"]))
    elif kind == "table":
        artifact = _load_payload(payload["artifact"])
        payload = {**payload, "artifact": config_hash(artifact)}
        from .dpp_solver import extract_policy

        control = extract_policy(ValueGrid.from_dict(artifact, a))
    elif kind == "path_dependent":
        control = PathDependentControl(
            window=payload["window"],
            statistic=payload["statistic"],
            coordinate=payload.get("coordinate", 0),
            bucket_edges=payload["buckets"],
            mu_candidates=_measures(a, payload["mu"]["candidates"]),
            mu_map=payload["mu"]["map"],
            nu_candidates=_measures(a, payload["nu"]["candidates"]),
            nu_map=payload["nu"]["map"],
        )
    else:
        raise ValidationError(f"unknown control kind {kind!r}")
    return control, payload
