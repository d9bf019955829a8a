"""The artifact encoder writes exactly what json.dumps(sort_keys=True, indent=1)
writes, with NumPy arrays taken as their tolist(), and the artifact writer
puts those bytes in the file piece by piece."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hybridopt.config import artifact_json, atomic_write_json

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, -2.5e-300]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
numeric_arrays = (
    arrays(np.float64, shapes, elements=floats)
    # few distinct values, negative ones included, go through the table of texts
    | arrays(np.int64, shapes, elements=st.integers(-3, 3))
    | arrays(np.int64, shapes, elements=st.integers(-(2**63), 2**63 - 1))
    | arrays(np.uint64, shapes, elements=st.integers(2**64 - 3, 2**64 - 1) | st.integers(0, 2**64 - 1))
    | arrays(np.int8, shapes)
    | arrays(np.bool_, shapes)
)
scalars = st.none() | st.booleans() | st.integers() | floats | st.text()
payloads = st.recursive(
    scalars | numeric_arrays,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=12,
)


def plain(o):
    """The payload with every array replaced by its tolist()."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (list, tuple)):
        return type(o)(plain(v) for v in o)
    if isinstance(o, dict):
        return {k: plain(v) for k, v in o.items()}
    return o


def stdlib(o) -> str:
    return json.dumps(plain(o), sort_keys=True, indent=1)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_matches_json_dumps(payload):
    assert artifact_json(payload) == stdlib(payload)


@pytest.mark.parametrize(
    "arr",
    [
        np.array(SPECIAL_FLOATS),
        np.array(SPECIAL_FLOATS[:8]).reshape(2, 2, 2),
        np.array(1e16),
        np.array(-0.0),
        np.array(True),
        np.array([[True], [False]]),
        np.arange(24, dtype=np.intp).reshape(2, 3, 4),
        np.arange(6, dtype=np.uint8).reshape(3, 2),
        np.zeros((0,)),
        np.zeros((2, 0, 3)),
        np.zeros((3, 2, 0), dtype=np.int64),
        np.array(["a", "é"]),
    ],
    ids=lambda a: f"{a.dtype}{a.shape}",
)
def test_arrays_at_every_depth(arr):
    for payload in (arr, [arr], {"a": {"b": [arr, 1]}}):
        assert artifact_json(payload) == stdlib(payload)


def test_scalars_keys_and_strings():
    payload = {
        "values": [None, True, False, 0, -7, 10**30, -0.0, 5e-324, 1e16, math.nan, -math.inf],
        "nested": ({"z": ()}, [], {}),
        "non-ascii é✓\U0001f600": "café \"quoted\" \\ \n\t\x00",
        "float subclass": np.float64(0.1),
    }
    assert artifact_json(payload) == json.dumps(payload, sort_keys=True, indent=1)


@pytest.mark.parametrize("payload", [{"a": np.int64(1)}, [object()], {"a": 1, 2: "b"}, np.array([1j])])
def test_rejects_what_json_rejects(payload):
    with pytest.raises(TypeError):
        json.dumps(plain(payload), sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        artifact_json(payload)


@pytest.mark.parametrize("payload", [{1: "a"}, {None: 0}, {"a": {2.5: 0}}])
def test_keys_must_be_strings(payload):
    with pytest.raises(TypeError):
        artifact_json(payload)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_written_file_matches_json_dumps(tmp_path_factory, payload):
    out = tmp_path_factory.getbasetemp() / "artifact.json"
    atomic_write_json(out, payload)
    assert out.read_bytes() == (stdlib(payload) + "\n").encode("ascii")


def solve_2d_sized():
    """A document shaped like the solve_2d artifact: 41 x 41 nodes, 2 regimes,
    20 slices and 3 candidates of each kind."""
    rng = np.random.default_rng(0)
    nodes = 41 * 41
    return {
        "axes": [np.linspace(-2.0, 2.0, 41)] * 2,
        "times": np.linspace(0.0, 1.0, 21),
        "values": rng.normal(size=(21, nodes, 2)),
        "policy_mu": rng.integers(0, 3, size=(20, nodes, 2)),
        "policy_nu": rng.integers(0, 3, size=(20, nodes, 2)),
        "clamp_count": 0,
    }


def test_error_part_way_keeps_the_earlier_file(tmp_path):
    out = tmp_path / "artifact.json"
    out.write_bytes(b"earlier")
    # the array's text passes the write buffer before the object after it fails
    with pytest.raises(TypeError):
        atomic_write_json(out, {"a": solve_2d_sized()["values"], "b": object()})
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
    assert out.read_bytes() == b"earlier"


def test_writer_holds_one_slice_at_a_time(tmp_path):
    # building the whole text, its newline copy and its UTF-8 copy peaked at
    # about 4x the file; a slice of the value table is a small part of it
    doc, out = solve_2d_sized(), tmp_path / "artifact.json"
    tracemalloc.start()
    try:
        atomic_write_json(out, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 3_000_000
    assert peak < 0.75 * out.stat().st_size
