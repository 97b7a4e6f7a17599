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


class Grid(np.ndarray):
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


# ---------------------------------------------------------------------------
# one header fragment per (dtype, shape): same bytes, building it and finding it
# ---------------------------------------------------------------------------

AWKWARD_ARRAYS = {
    "0-d": np.array(3.5),
    "0-d-byte-swapped": np.array(7, dtype=">i2"),
    "zero-size": np.zeros((0, 3)),
    "zero-size-inner-axis": np.zeros((3, 0), dtype="i2"),
    "non-contiguous": np.arange(12.0).reshape(3, 4)[:, ::2],
    "fortran-order": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "byte-swapped": np.arange(6, dtype=">f8").reshape(2, 3),
    "byte-swapped-transposed": np.arange(6, dtype=">i4").reshape(2, 3).T,
    "datetime64": np.array(["2005-09-27", "2026-10-01"], dtype="datetime64[s]"),
    "datetime64-generic-unit": np.zeros(2, dtype="M8"),
    "timedelta64": np.array([1, 2], dtype="timedelta64[ms]"),
    "fixed-width-bytes": np.array([b"abc", b"de"], dtype="S5"),
    "unicode": np.array(["abc", "de"]),
    "void": np.zeros(3, dtype="V4"),
    "complex": np.array([1 + 2j]),
    "half": np.zeros(2, dtype="f2"),
    "long-double": np.zeros(2, dtype=np.longdouble),
    "ndarray-subclass": np.arange(4).reshape(2, 2).view(Grid),
}


@pytest.fixture
def fresh_array_memos(monkeypatch):
    monkeypatch.setattr(codec, "_ARRAY_MEMO", {})
    monkeypatch.setattr(codec, "_DTYPE_MEMO", {})


@pytest.mark.parametrize("name", list(AWKWARD_ARRAYS))
def test_an_array_encodes_the_same_building_its_header_and_finding_it(name, fresh_array_memos):
    arr = AWKWARD_ARRAYS[name]
    data = reference_codec.encode(arr)
    for _ in range(2):
        assert codec.encode(arr) == data
        assert codec.encoded_size(arr) == len(data)
        assert codec.encode({"k": [arr, arr.copy()]}) == reference_codec.encode({"k": [arr, arr]})
        assert _same(codec.decode(data), reference_codec.decode(data))
    assert len(codec._ARRAY_MEMO) == 1 and len(codec._DTYPE_MEMO) == 1


def test_equal_dtypes_however_spelled_encode_as_the_oracle_does(fresh_array_memos):
    # equal dtypes share one remembered header, so they must share one name
    for spelling in ("=f8", "<f8", "float64", "d", np.dtype("f8", metadata={"unit": "m"}),
                     "l", "q", "int64", "p", "L", "Q", "P", ">f8", "<U3", ">U3", "U3"):
        arr = np.zeros(2, dtype=spelling)
        assert codec.encode(arr) == reference_codec.encode(arr), spelling
    assert len(codec._ARRAY_MEMO) < 16


def test_an_array_is_as_deep_as_its_shape_tuple(fresh_array_memos):
    """The shape ``t`` sits one level below the ``a``: the header fragment
    must not let an array in where its shape tuple would have been
    refused, building the header or finding it."""
    deepest = np.zeros(1)
    for _ in range(codec.MAX_DEPTH - 2):
        deepest = [deepest]
    too_deep = reference_codec.encode([deepest])     # the oracle has no cap
    for _ in range(2):
        assert codec.encode(deepest) == reference_codec.encode(deepest)
        assert _same(codec.decode(codec.encode(deepest)), deepest)
        for refuse, arg in ((codec.encode, [deepest]), (codec.encoded_size, [deepest]),
                            (codec.decode, too_deep)):
            with pytest.raises(CodecError, match="nested deeper"):
                refuse(arg)


def test_array_memos_stay_bounded(fresh_array_memos, monkeypatch):
    monkeypatch.setattr(codec, "_ARRAY_MEMO_SIZE", 8)
    for n in range(20):
        arr = np.zeros(n, dtype=f"S{n + 1}")
        data = reference_codec.encode(arr)
        for _ in range(2):
            assert codec.encode(arr) == data
            assert _same(codec.decode(data), arr)
    assert len(codec._ARRAY_MEMO) == 8 and len(codec._DTYPE_MEMO) == 8
    # a dtype name decode could be sent, too long to be worth keeping
    wide = "i4," * 12 + "i4"
    codec.decode(b"a" + codec.encode(wide) + codec.encode((0,)) + codec.encode(b""))
    assert wide not in codec._DTYPE_MEMO


# ---------------------------------------------------------------------------
# nothing encodes that cannot decode
# ---------------------------------------------------------------------------

UNDECODABLE_ARRAYS = {
    "structured": np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
    "object": np.array([{}, 1], dtype=object),
    "structured-with-an-object-field": np.zeros(2, dtype=[("a", "O")]),
    "record": np.rec.array([(1, 2.0)], dtype=[("a", "i4"), ("b", "f8")]),
}


@pytest.mark.parametrize("name", list(UNDECODABLE_ARRAYS))
def test_an_array_that_could_not_be_decoded_is_refused_at_encode(name, fresh_array_memos):
    arr = UNDECODABLE_ARRAYS[name]
    # the parent wrote it (an object array as raw pointers) and only the
    # restart found out
    written = reference_codec.encode(arr)
    with pytest.raises(CodecError):
        codec.decode(written)
    for _ in range(2):
        for refuse in (codec.encode, codec.encoded_size):
            with pytest.raises(CodecError, match="dtype"):
                refuse(arr)
            with pytest.raises(CodecError, match="dtype"):
                refuse({"regs": {"u": arr}})
    assert not codec._ARRAY_MEMO     # a refused dtype is never remembered
