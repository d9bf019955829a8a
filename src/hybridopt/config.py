"""JSON surfaces: model configs, control specs, artifacts, atomic writes.

Model configs carry coefficient expressions as strings; measures are always
``{"atoms": [[...], ...], "weights": [...]}``.  Every artifact embeds the
SHA-256 of the canonical (sorted-keys) config JSON it was produced from, so
outputs are traceable and reruns are byte-comparable.
"""
from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import tempfile
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

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


def check_target(path) -> None:
    """Raise the OSError, naming ``path``, that writing a file there would end
    in: ``path`` is a directory, or its parent is not one.  The CLI calls it
    on the output target before a command's work, so a bad one fails at once."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(path.parent))


@contextmanager
def atomic_open(path):
    """UTF-8 text handle, lines ending in ``\\n`` on every platform, on a
    sibling temp file that is renamed onto ``path`` on a clean exit, so
    readers never see partial files.  On an error the temp file is removed
    and an earlier file at ``path`` keeps its bytes.  The file gets the mode
    ``open`` would give it, 0o666 less the umask.  An OSError from making the
    temp file is raised as one naming ``path``."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    except OSError as err:
        raise OSError(err.errno, err.strerror, str(path)) from err
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _float_str(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _array_json(arr: np.ndarray, level: int) -> str:
    """A numeric array as ``json.dumps(arr.tolist(), indent=1)`` writes it
    ``level`` deep: one repr map over the flat values, interleaved with the
    separator each gap between neighbouring values needs."""
    if arr.ndim == 0 or arr.size == 0 or arr.dtype.kind not in "biuf":
        return artifact_json(arr.tolist(), level)
    flat = arr.ravel()
    if arr.dtype.kind == "b":
        texts = map({True: "true", False: "false"}.__getitem__, flat.tolist())
    elif arr.dtype.kind == "f":
        texts = map(float.__repr__ if np.isfinite(arr).all() else _float_str, flat.tolist())
    elif int(flat.max()) - int(flat.min()) < flat.size:
        # a table of texts, indexed by offset from the least value (exact in wrapping int64)
        table = np.array([int.__repr__(v) for v in range(int(flat.min()), int(flat.max()) + 1)], dtype=object)
        texts = table[np.subtract(flat, flat.min(), dtype=np.int64)].tolist()
    else:
        texts = map(int.__repr__, flat.tolist())
    d = arr.ndim
    pad = ["\n" + " " * (level + a) for a in range(d + 1)]
    opens, closes = ["[" + p for p in pad[1:]], [p + "]" for p in pad[:-1]]
    # after a value whose last r indices are at their ends, r lists close and r open
    seps = np.array([
        "".join(closes[d - r:][::-1]) + "," + pad[d - r] + "".join(opens[d - r:]) for r in range(d)
    ], dtype=object)
    ends = np.arange(1, arr.size)
    wraps = np.zeros(arr.size - 1, dtype=np.intp)
    for a in range(1, d):
        wraps += ends % math.prod(arr.shape[a:]) == 0
    parts = [""] * (2 * arr.size - 1)
    parts[0::2], parts[1::2] = texts, seps[wraps].tolist()
    return "".join(opens) + "".join(parts) + "".join(closes[::-1])


def artifact_pieces(o, level: int = 0):
    """The text of ``artifact_json(o, level)`` in pieces: a dict gives its
    values' pieces key by key, an array of two or more dimensions one piece
    per outermost index, and anything else one piece."""
    inner = "\n" + " " * (level + 1)
    if isinstance(o, dict) and o:
        for n, (k, v) in enumerate(sorted(o.items())):
            yield ("," if n else "{") + inner + encode_basestring_ascii(k) + ": "
            yield from artifact_pieces(v, level + 1)
        yield "\n" + " " * level + "}"
    elif isinstance(o, np.ndarray) and o.ndim > 1 and o.size and o.dtype.kind in "biuf":
        yield from (("," if n else "[") + inner + _array_json(row, level + 1) for n, row in enumerate(o))
        yield "\n" + " " * level + "]"
    else:
        yield artifact_json(o, level)


def artifact_json(o, level: int = 0) -> str:
    """Exactly ``json.dumps(o, sort_keys=True, indent=1)``, nested ``level``
    deep, with NumPy arrays written as their ``tolist()`` but from one flat
    pass over the values (byte contract in the README, "Value-grid artifact").
    Object keys must be strings; anything JSON cannot hold raises TypeError."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or isinstance(o, bool):
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_str(o)
    if isinstance(o, np.ndarray):
        return _array_json(o, level)
    if isinstance(o, dict):
        return "".join(artifact_pieces(o, level)) if o else "{}"
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "[]"
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("," + inner).join([artifact_json(v, level + 1) for v in o]) + "\n" + " " * level + "]"


def atomic_write_json(path, payload) -> None:
    """``artifact_json(payload)`` and a newline, written piece by piece."""
    with atomic_open(path) as fh:
        fh.writelines(artifact_pieces(payload))
        fh.write("\n")


def _load_payload(source) -> dict:
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    return source


@contextmanager
def _config_errors(what: str):
    """Raise the KeyError, IndexError, TypeError, ValueError or AttributeError
    of reading a malformed ``what`` as a ValidationError (exit 2)."""
    try:
        yield
    except KeyError as err:
        raise ValidationError(f"{what} missing field {err}") from err
    except (IndexError, TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"malformed {what}: {err}") from err


def load_model(source) -> tuple[HybridModel, dict]:
    """Build a HybridModel from a config dict or JSON file path.

    Returns the model together with the raw payload (for hashing).
    """
    payload = _load_payload(source)
    with _config_errors("model config"):
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
            undeclared=[k for k in ("lipschitz_drift_diffusion", "lipschitz_rates", "growth") if k not in constants],
        )
    return model, payload


def load_control(source, model: HybridModel) -> tuple[FeedbackControl, dict]:
    """Build a FeedbackControl from a spec dict or JSON file path.

    Returns the control together with the spec as it enters a run hash.  A
    table control names its artifact by file path, so there the path is
    replaced by the hash of the artifact's contents.
    """
    payload = _load_payload(source)
    with _config_errors("control spec"):
        kind = payload.get("kind")
        a = model.action_set
        if kind == "constant":
            control = ConstantControl(*DiscreteMeasure.from_dicts(a, [payload["mu"], payload["nu"]]))
        elif kind == "markov":
            def build(spec):
                cmap = CandidateMap(
                    DiscreteMeasure.from_dicts(a, spec["candidates"]),
                    index_expr=spec.get("index_expr"),
                    per_regime=spec.get("per_regime"),
                )
                if cmap.per_regime is not None and len(cmap.per_regime) < model.regime_count:
                    raise ValidationError(f"per_regime table needs {model.regime_count} entries, one per regime")
                return cmap

            control = MarkovControl(build(payload["mu"]), build(payload["nu"]))
        elif kind == "table":
            artifact = _load_payload(payload["artifact"])
            payload = {**payload, "artifact": config_hash(artifact)}
            vg = ValueGrid.from_dict(artifact, a)
            if len(vg.axes) != model.state_dim or vg.values.shape[2] != model.regime_count:
                raise ValidationError("table artifact's dimension or regime count differs from the model's")
            control = TableControl(vg)
        elif kind == "path_dependent":
            control = PathDependentControl(
                window=payload["window"],
                statistic=payload["statistic"],
                coordinate=payload.get("coordinate", 0),
                bucket_edges=payload["buckets"],
                mu_candidates=DiscreteMeasure.from_dicts(a, payload["mu"]["candidates"]),
                mu_map=payload["mu"]["map"],
                nu_candidates=DiscreteMeasure.from_dicts(a, payload["nu"]["candidates"]),
                nu_map=payload["nu"]["map"],
            )
            if not 0 <= control.coordinate < model.state_dim:
                raise ValidationError(f"coordinate {control.coordinate} outside 0..{model.state_dim - 1}")
        else:
            raise ValidationError(f"unknown control kind {kind!r}")
    return control, payload
