import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from paulimix import cli as cli_mod
from paulimix.serialization import (
    complex_matrix_to_pairs,
    dumps_canonical,
    format_float,
    pairs_to_complex_matrix,
)


def test_dumps_canonical_is_valid_json_and_roundtrips():
    payload = {
        "a": 1,
        "b": [0.1, 2.5e-300, -3.0],
        "c": {"nested": True, "none": None},
        "d": "text with \"quotes\"",
    }
    text = dumps_canonical(payload)
    parsed = json.loads(text)
    assert parsed["a"] == 1
    assert parsed["b"] == [0.1, 2.5e-300, -3.0]
    assert parsed["c"] == {"nested": True, "none": None}


def test_floats_use_17_significant_digits():
    text = dumps_canonical({"x": 1 / 3})
    assert "0.33333333333333331" in text


def test_nonfinite_floats_become_strings():
    assert dumps_canonical([float("-inf"), float("inf")]) == '["-inf", "inf"]'
    assert dumps_canonical(float("nan")) == '"nan"'


def test_numpy_scalars_and_arrays_supported():
    text = dumps_canonical({"v": np.arange(3), "s": np.float64(0.5), "b": np.bool_(True)})
    assert json.loads(text) == {"v": [0, 1, 2], "s": 0.5, "b": True}


def test_determinism():
    payload = {"x": math.pi, "rows": [[1e-9, 2.0], [3.0, 4.0]]}
    assert dumps_canonical(payload) == dumps_canonical(payload)


def test_complex_pair_roundtrip():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pairs = complex_matrix_to_pairs(mat)
    assert np.array_equal(pairs_to_complex_matrix(pairs), mat)
    # the encoding survives a JSON round trip
    again = pairs_to_complex_matrix(json.loads(dumps_canonical(pairs)))
    assert np.max(np.abs(again - mat)) == 0.0


def test_pairs_decoder_rejects_malformed_input():
    with pytest.raises(ValueError):
        pairs_to_complex_matrix([[1.0, 2.0, 3.0]])


def _reference_write(obj, out):
    """The earlier writer, one string per token joined at the end: the bytes the writer must keep."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, (key, value) in enumerate(obj.items()):
            if idx:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _reference_write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, value in enumerate(obj):
            if idx:
                out.append(", ")
            _reference_write(value, out)
        out.append("]")
    elif hasattr(obj, "tolist"):
        _reference_write(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _reference_dumps(obj):
    out = []
    _reference_write(obj, out)
    return "".join(out)


_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _FLOATS,
    st.text(),  # escapes, control characters and non-ASCII
    _FLOATS.map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
    hnp.arrays(np.bool_, hnp.array_shapes(max_dims=2, max_side=3)),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(), st.booleans()), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_the_writer_prints_the_token_writers_bytes(payload):
    assert dumps_canonical(payload) == _reference_dumps(payload)


def test_unserializable_values_are_refused_as_before():
    for bad in ({"z": 1j}, [object()], np.array([1j])):
        for dumps in (_reference_dumps, dumps_canonical):
            with pytest.raises(TypeError, match="cannot serialize object of type"):
                dumps(bad)


def test_the_writer_holds_at_most_three_times_its_output(monkeypatch):
    payloads = []
    monkeypatch.setattr(cli_mod, "_emit_json", lambda payload, output: payloads.append(payload))
    weights = ",".join([repr(1 / 33)] * 33)
    # exact zeros print as 0, so the default 11 times of this state make only 299 KB
    cli_mod.main(["evolve", "--d", "32", "--n", "1.03", "--weights", weights, "--state", "mub:1:0", "--steps", "30"])
    tracemalloc.start()
    try:
        text = dumps_canonical(payloads[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 500_000
    # the token list held 4.9 bytes per output byte
    assert peak <= 3 * len(text)
