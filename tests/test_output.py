"""Canonical JSON: json_bytes and the samples.json writer against the stdlib indented encoder."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmf import GapPolicy, load_spec
from hsmf.output import SAMPLE_BATCH, json_bytes, write_samples

ROOT = Path(__file__).resolve().parents[1]


def oracle_json_bytes(obj) -> bytes:
    """The stdlib's indented encoding, written out in full."""
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


def _sample_records(paths, log_mass, log_len) -> list[dict]:
    return [{"path": [int(i) for i in path], "log_mass": float(m), "log_length": float(ln),
             "alpha_hat": float(m / ln)} for path, m, ln in zip(paths, log_mass, log_len)]


def test_write_samples_hands_the_sink_one_record_per_call():
    """The header, each record and the closing brackets reach the sink one
    per call. Non-finite floats are written as the stdlib writes them, and
    int16 paths with their three-digit child indices as Python ints."""
    count = 2 * SAMPLE_BATCH + 3
    rng = np.random.default_rng(7)
    paths = rng.integers(1, 301, size=(count, 5)).astype(np.int16)
    log_mass, log_len = -rng.random((2, count))
    log_mass[:2] = [math.nan, -math.inf]
    log_len[2] = -math.inf
    meta = {"q": 2.0, "t": 0.0, "seed": 1}
    chunks = []
    write_samples(meta, paths, log_mass, log_len, chunks.append)
    assert len(chunks) == count + 2
    assert all(chunk.count(b'"alpha_hat"') == 1 for chunk in chunks[1:-1])
    records = _sample_records(paths, log_mass, log_len)
    assert b"".join(chunks) == oracle_json_bytes({"meta": meta, "samples": records})


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


def test_write_samples_peak_allocation_is_bounded():
    """
    Allocation guard, not a timing gate. The sink keeps every chunk, so the
    output itself is a 1.0x floor; with the batch being formatted the writer
    peaks near 1.3x. The stdlib encoder, building the whole document, peaks
    near 7x.
    """
    rng = np.random.default_rng(5)
    paths = rng.integers(1, 3, size=(2048, 64)).astype(np.int8)
    log_mass, log_len = -rng.random((2, 2048))
    meta = {"q": 2.0, "t": 0.0}
    chunks = []
    tracemalloc.start()
    try:
        write_samples(meta, paths, log_mass, log_len, chunks.append)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = b"".join(chunks)
    assert out == oracle_json_bytes({"meta": meta, "samples": _sample_records(paths, log_mass, log_len)})
    assert peak < 3.0 * len(out)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "specs").glob("*.json")) + [ROOT / "tests" / "fixtures" / "lopsided.json"],
    ids=lambda p: p.name,
)
def test_save_spec_reproduces_shipped_files(path):
    assert json_bytes(load_spec(path).as_dict()) == path.read_bytes()
