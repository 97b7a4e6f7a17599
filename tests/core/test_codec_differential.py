"""The table-dispatched codec against the frozen ``isinstance``-chain one.

``reference_codec`` is the codec as it stood before the rewrite, kept
verbatim; every property here holds the live codec to it byte for byte,
so a change to ``repro.core.codec`` that moves the image format fails
here rather than in a restart three PRs later.
"""

import enum
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import codec
from repro.errors import CodecError
from repro.net import Endpoint
from repro.vos.syscalls import Errno

from . import reference_codec


class Label(str):
    pass


class Pair(tuple):
    pass


class Row(NamedTuple):
    name: str
    weight: float


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


class Count(int):
    pass


_text = st.text(max_size=24)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]),
    st.floats(),   # NaN and the infinities included: compared as bytes
    _text,
    st.text(max_size=80),                # past the string memo's length cap
    st.binary(max_size=40),
    st.binary(max_size=12).map(bytearray),
    st.builds(Errno, _text, _text),
    _text.map(Label),
    st.sampled_from(list(Level)),
    st.integers(min_value=-(2**70), max_value=2**70).map(Count),
    st.builds(Endpoint, _text, st.integers(min_value=0, max_value=65535)),
    st.builds(Row, _text, st.floats(allow_nan=False)),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
    st.integers(min_value=0, max_value=2**63).map(np.uint64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
)


@st.composite
def _ndarrays(draw):
    dtype = draw(st.sampled_from(["u1", "i2", "i8", "f4", "f8", "bool"]))
    shape = draw(st.lists(st.integers(min_value=0, max_value=4), max_size=3))
    arr = (np.arange(int(np.prod(shape, dtype=int))) * 3 % 251).astype(dtype)
    arr = arr.reshape(shape)
    if arr.ndim >= 2 and draw(st.booleans()):
        arr = arr.T                      # not C-contiguous
    if arr.ndim >= 1 and arr.shape[0] > 1 and draw(st.booleans()):
        arr = arr[::2]                   # strided view
    return arr


_keys = st.one_of(
    _text, st.integers(min_value=-(2**70), max_value=2**70), st.binary(max_size=6),
    st.tuples(_text, st.integers(min_value=0, max_value=9)),
    st.builds(Endpoint, _text, st.integers(min_value=0, max_value=65535)),
    _text.map(Label),
)

_values = st.recursive(
    st.one_of(_scalars, _ndarrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=3).map(Pair),
        st.dictionaries(_text, children, max_size=5),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=25,
)


def _same(a, b) -> bool:
    """Deep equality that also compares types, NaNs and arrays."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    if isinstance(a, Errno):
        return (a.name, a.detail) == (b.name, b.detail)
    return a == b


@settings(max_examples=400, deadline=None)
@given(_values)
def test_encode_size_and_decode_match_the_oracle(obj):
    data = reference_codec.encode(obj)
    assert codec.encode(obj) == data
    assert codec.encoded_size(obj) == len(data)
    assert _same(codec.decode(data), reference_codec.decode(data))


@settings(max_examples=150, deadline=None)
@given(_values)
def test_every_strict_prefix_is_rejected_by_both(obj):
    data = codec.encode(obj)
    cuts = range(len(data)) if len(data) <= 256 else range(0, len(data), 7)
    for cut in cuts:
        for decode in (codec.decode, reference_codec.decode):
            with pytest.raises(CodecError):
                decode(data[:cut])


def test_size_of_a_large_payload_does_not_copy_it():
    """``encoded_size`` measures array and bytes payloads by reference:
    sizing an image must not allocate a second copy of it."""
    import tracemalloc

    big = {"mem": b"\x5a" * (8 << 20), "grid": np.zeros(1 << 20, dtype="f8")}
    expected = len(codec.encode(big))
    tracemalloc.start()
    try:
        assert codec.encoded_size(big) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"encoded_size allocated {peak} bytes"


def test_string_memo_and_type_table_stay_bounded(monkeypatch):
    # fresh tables: this test fills them, later tests should not inherit that
    monkeypatch.setattr(codec, "_STR_MEMO", {})
    monkeypatch.setattr(codec, "_ENCODERS", dict(codec._ENCODERS))
    for i in range(3 * codec._STR_MEMO_SIZE):
        codec.encode(f"k{i}")
    codec.encode("x" * (codec._STR_MEMO_CHARS + 1))
    assert len(codec._STR_MEMO) <= codec._STR_MEMO_SIZE
    assert all(len(k) <= codec._STR_MEMO_CHARS for k in codec._STR_MEMO)
    for i in range(2 * codec._ENCODERS_SIZE):
        kind = type(f"T{i}", (tuple,), {})
        assert codec.encode(kind((i,))) == reference_codec.encode((i,))
    assert len(codec._ENCODERS) <= codec._ENCODERS_SIZE


def test_subclasses_resolve_in_the_old_chain_order():
    # np.float64 is a float *and* an np.floating; IntEnum is an int
    for obj in (np.float64(2.5), Level.HIGH, Count(-3), Label("x"), Pair((1,)),
                Row("a", 1.0), Endpoint("10.0.0.1", 80)):
        assert codec.encode(obj) == reference_codec.encode(obj)
