"""Canonical JSON writer: byte equality with the stdlib indented encoder."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmf import GapPolicy, load_spec
from hsmf.output import JsonStream, json_bytes, write_json

ROOT = Path(__file__).resolve().parents[1]


def oracle_json_bytes(obj) -> bytes:
    """The writer it replaces: the stdlib's pure-Python indented encoder."""
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n").encode("ascii")


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, -2.5e-300,
               1.7976931348623157e308]
EDGE_TEXT = ["", "plain", "café", "☃ \U0001f600", "tab\there", "nl\nq\"b\\",
             "\x00\x01\x1f\x7f", "</script>"]

CASES = [
    None, True, False, 0, -1, 2**80, -(2**200), *EDGE_FLOATS, *EDGE_TEXT,
    GapPolicy.NO_GAPS, np.float64(0.1), np.float64(-math.inf), np.float64(math.nan),
    [], {}, [[]], [{}], {"a": {}}, {"a": []}, [[], [[]], {"x": [{}]}],
    [1, 2, 3], [0.5, -0.0, math.nan, math.inf], [1, 2.0], [True, 1, False, 0], [1, True],
    [1.0, np.float64(2.0)], ["a", 1, None, 2.5, [3], {"k": 4}], (1, 2), ((), (1.5,)),
    [GapPolicy.EQUAL_GAPS, "no_gaps"],
    {k: v for k, v in zip(EDGE_TEXT, EDGE_FLOATS)},
    {"b": 1, "a": [True, None], "é": {"\x00": -0.0}, "": GapPolicy.NO_GAPS},
    {2: "int key", 1: "other"}, {1.5: "float key", 0.5: 1}, {math.nan: 0},
    {"meta": {"q": 2.0, "t": 0.0}, "samples": [{"path": [1, 2, 1], "log_mass": -1.5,
                                                "log_length": -2.0, "alpha_hat": 0.75}]},
]


@pytest.mark.parametrize("obj", CASES, ids=range(len(CASES)))
def test_json_bytes_equals_stdlib_on_edge_cases(obj):
    assert json_bytes(obj) == oracle_json_bytes(obj)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.text(max_size=8),
    st.sampled_from(EDGE_TEXT),
    st.sampled_from(list(GapPolicy)),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.integers(), max_size=8),
        st.lists(st.floats(), max_size=8),
        st.dictionaries(st.one_of(st.text(max_size=6), st.sampled_from(EDGE_TEXT)),
                        children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(obj=trees)
def test_json_bytes_equals_stdlib_on_random_trees(obj):
    assert json_bytes(obj) == oracle_json_bytes(obj)


@settings(max_examples=100, deadline=None)
@given(obj=trees)
def test_write_json_chunks_join_to_json_bytes(obj):
    chunks = []
    write_json(obj, chunks.append)
    assert all(isinstance(c, bytes) for c in chunks)
    assert b"".join(chunks) == json_bytes(obj)


@pytest.mark.parametrize("items", [[], [1], [1, 2.5], [[]], [{}], [{"a": [1, 2]}, None, "x"],
                                   list(range(3000)), [{"k": [0.5] * 8}] * 700],
                         ids=lambda v: f"len{len(v)}")
def test_json_stream_is_written_as_a_list(items):
    for wrap in (lambda v: v(), lambda v: [v(), v()], lambda v: {"b": v(), "a": 1}):
        streamed = wrap(lambda: JsonStream(iter(items)))
        assert json_bytes(streamed) == oracle_json_bytes(wrap(lambda: items))


def test_json_stream_is_consumed_while_chunks_are_written():
    drawn = []

    def records():
        for i in range(5000):
            drawn.append(i)
            yield {"path": [1, 2, 1], "log_mass": -1.5 * i}

    seen = []
    write_json({"samples": JsonStream(records())}, lambda chunk: seen.append(len(drawn)))
    assert len(seen) > 2 and seen[0] < 5000 and seen[-1] == 5000


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, b"raw", np.bool_(True)],
                         ids=["int64", "set", "bytes", "bool_"])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1, v], lambda v: {"k": v}],
                         ids=["top", "in_list", "in_dict"])
def test_json_bytes_rejects_what_stdlib_rejects(bad, wrap):
    with pytest.raises(TypeError):
        oracle_json_bytes(wrap(bad))
    with pytest.raises(TypeError):
        json_bytes(wrap(bad))


def test_json_bytes_rejects_unsupported_keys():
    with pytest.raises(TypeError):
        oracle_json_bytes({(1, 2): 0})
    with pytest.raises(TypeError):
        json_bytes({(1, 2): 0})


def test_json_bytes_peak_allocation_is_bounded():
    """
    Allocation guard, not a timing gate. The stdlib encoder peaks at about 7x
    the output, this writer at about 2.0x, and at about 3.5x if it held every
    piece until the end instead of flushing chunks.
    """
    rng = np.random.default_rng(5)
    paths = rng.integers(1, 3, size=(2048, 64)).tolist()
    floats = rng.standard_normal((2048, 3)).tolist()
    payload = {
        "meta": {"q": 2.0, "t": 0.0},
        "samples": [{"path": p, "log_mass": a, "log_length": b, "alpha_hat": c}
                    for p, (a, b, c) in zip(paths, floats)],
    }
    tracemalloc.start()
    try:
        out = json_bytes(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == oracle_json_bytes(payload)
    assert peak < 3.0 * len(out)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "specs").glob("*.json")) + [ROOT / "tests" / "fixtures" / "lopsided.json"],
    ids=lambda p: p.name,
)
def test_save_spec_reproduces_shipped_files(path):
    assert json_bytes(load_spec(path).as_dict()) == path.read_bytes()
