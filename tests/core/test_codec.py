"""Codec tests, including property-based round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import decode, encode, encoded_size
from repro.errors import CodecError
from repro.vos.syscalls import Errno


def test_scalars_round_trip():
    for obj in (None, True, False, 0, -1, 2**40, -(2**70), 3.5, "héllo", b"\x00\xff"):
        assert decode(encode(obj)) == obj


def test_containers_round_trip():
    obj = {"a": [1, 2, (3, "x")], "b": {"nested": b"bytes"}, "c": None}
    assert decode(encode(obj)) == obj


def test_ndarray_round_trip():
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    back = decode(encode(arr))
    assert isinstance(back, np.ndarray)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)


def test_numpy_scalars_become_python_scalars():
    assert decode(encode(np.int64(7))) == 7
    assert decode(encode(np.float64(2.5))) == 2.5


def test_non_string_dict_keys_round_trip():
    obj = {1: "a", (2, "b"): [3], b"k": None}
    assert decode(encode(obj)) == obj


def test_unrepresentable_type_rejected():
    with pytest.raises(CodecError):
        encode(object())


def test_truncated_buffer_rejected():
    data = encode({"k": b"0123456789"})
    with pytest.raises(CodecError):
        decode(data[:-3])


def test_trailing_garbage_rejected():
    with pytest.raises(CodecError):
        decode(encode(1) + b"junk")


def test_unknown_tag_rejected():
    with pytest.raises(CodecError):
        decode(b"Z")


def test_encoded_size_matches():
    obj = {"x": list(range(100))}
    assert encoded_size(obj) == len(encode(obj))


# ---------------------------------------------------------------------------
# property-based round-trips
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_round_trip_property(obj):
    assert decode(encode(obj)) == obj


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["u1", "i4", "i8", "f4", "f8"]),
    st.integers(min_value=0, max_value=50),
)
def test_ndarray_round_trip_property(dtype, n):
    arr = (np.arange(n) * 3).astype(dtype)
    back = decode(encode(arr))
    assert back.dtype == arr.dtype and np.array_equal(back, arr)


@settings(max_examples=100, deadline=None)
@given(_values)
def test_encoding_is_deterministic(obj):
    assert encode(obj) == encode(obj)


def test_errno_round_trip():
    obj = {"rc": Errno("ECONNREFUSED", "10.77.0.1:9600")}
    back = decode(encode(obj))
    assert isinstance(back["rc"], Errno)
    assert back["rc"].name == "ECONNREFUSED"
    assert back["rc"].detail == "10.77.0.1:9600"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=120))
def test_decode_of_arbitrary_bytes_never_crashes_uncontrolled(data):
    """Fuzz: decoding garbage either yields a value (if it happens to be
    well-formed) or raises CodecError — never an uncontrolled exception.
    Checkpoint images may arrive corrupted; the decoder must fail safe."""
    try:
        decode(data)
    except CodecError:
        pass


@settings(max_examples=150, deadline=None)
@given(_values, st.integers(min_value=0, max_value=10_000))
def test_truncation_always_detected(obj, cut):
    """Any strict prefix of a valid encoding is rejected."""
    data = encode(obj)
    if len(data) < 2:
        return
    cut = cut % (len(data) - 1)
    with pytest.raises(CodecError):
        decode(data[:cut + 1]) if data[:cut + 1] != data else None


# ---------------------------------------------------------------------------
# the format, pinned: one fixed byte vector per tag of the wire grammar
# ---------------------------------------------------------------------------

_I64 = b"\x00\x00\x00\x00\x00\x00\x00"   # high seven bytes of a small int64

GOLDEN = [
    ("N", None, b"N"),
    ("T", True, b"T"),
    ("F", False, b"F"),
    ("i", -2, b"i\xff\xff\xff\xff\xff\xff\xff\xfe"),
    ("I", 2**64, b"I\x00\x00\x00\x0a\x00\x01" + b"\x00" * 8),
    ("f", 1.5, b"f\x3f\xf8\x00\x00\x00\x00\x00\x00"),
    ("s", "hé", b"s\x00\x00\x00\x03h\xc3\xa9"),
    ("b", b"\x00\xff", b"b\x00\x00\x00\x02\x00\xff"),
    ("l", [1, None], b"l\x00\x00\x00\x02i" + _I64 + b"\x01N"),
    ("t", (True, "x"), b"t\x00\x00\x00\x02Ts\x00\x00\x00\x01x"),
    ("d", {"k": 7}, b"d\x00\x00\x00\x01s\x00\x00\x00\x01ki" + _I64 + b"\x07"),
    ("D", {1: "a", "b": 2.0},
     b"D\x00\x00\x00\x02i" + _I64 + b"\x01s\x00\x00\x00\x01a"
     b"s\x00\x00\x00\x01bf\x40\x00\x00\x00\x00\x00\x00\x00"),
    ("a", np.arange(3, dtype="u1").reshape(1, 3),
     b"as\x00\x00\x00\x05uint8t\x00\x00\x00\x02i" + _I64 + b"\x01i" + _I64
     + b"\x03b\x00\x00\x00\x03\x00\x01\x02"),
    ("E", Errno("EPIPE", "peer"), b"Es\x00\x00\x00\x05EPIPEs\x00\x00\x00\x04peer"),
]


@pytest.mark.parametrize("tag,value,vector", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_vector_per_tag(tag, value, vector):
    assert vector[:1] == tag.encode()
    assert encode(value) == vector
    assert encoded_size(value) == len(vector)
    back = decode(vector)
    assert type(back) is type(value)
    if isinstance(value, np.ndarray):
        assert back.dtype == value.dtype and np.array_equal(back, value)
    else:
        assert back == value


def test_golden_vectors_cover_the_whole_grammar():
    from repro.core import codec

    known = {bytes((tag,)) for tag, dec in enumerate(codec._DECODERS)
             if dec is not codec._dec_unknown}
    assert known == {g[0].encode() for g in GOLDEN}


# ---------------------------------------------------------------------------
# numpy scalars held in registers
# ---------------------------------------------------------------------------


def test_numpy_bool_round_trips_as_a_plain_bool():
    assert encode(np.bool_(True)) == b"T" and encode(np.bool_(False)) == b"F"
    back = decode(encode({"lt": np.float64(1.0) < 2.0, "eq": np.int32(3) == 4}))
    assert back == {"lt": True, "eq": False}
    assert type(back["lt"]) is bool and type(back["eq"]) is bool


# ---------------------------------------------------------------------------
# the decoder fails safe: a corrupt image is a CodecError, never a crash
# ---------------------------------------------------------------------------


def _ndarray_image(dtype, shape, raw):
    return b"a" + encode(dtype) + encode(shape) + encode(raw)


CORRUPT = {
    "invalid-utf8": b"s\x00\x00\x00\x02\xc3\x28",
    "unhashable-map-key": b"D\x00\x00\x00\x01l\x00\x00\x00\x00N",
    "ndarray-unknown-dtype": _ndarray_image("floaT64", (1,), b"\x00" * 8),
    "ndarray-non-string-dtype": _ndarray_image(5, (1,), b"\x00" * 8),
    "ndarray-object-dtype": _ndarray_image("O", (1,), b"\x00" * 8),
    "ndarray-unparsable-dtype": _ndarray_image("(2,", (1,), b"\x00" * 8),  # a SyntaxError inside numpy
    "ndarray-shape-mismatch": _ndarray_image("float64", (3,), b"\x00" * 8),
    "ndarray-ragged-payload": _ndarray_image("float64", (1,), b"\x00" * 7),
    "ndarray-non-integer-shape": _ndarray_image("float64", ("x",), b"\x00" * 8),
    "nested-lists": b"l\x00\x00\x00\x01" * 5000,
    "nested-tuples": b"t\x00\x00\x00\x01" * 5000,
    "nested-maps": b"d\x00\x00\x00\x01s\x00\x00\x00\x01k" * 5000,
    "nested-errnos": b"E" * 5000,
    "huge-count": b"l\xff\xff\xff\xff",
    "huge-length": b"b\xff\xff\xff\xff",
    "short-int": b"i\x00\x00",
    "empty": b"",
}


@pytest.mark.parametrize("data", CORRUPT.values(), ids=CORRUPT.keys())
def test_corrupt_image_is_a_codec_error(data):
    with pytest.raises(CodecError):
        decode(data)


def test_nesting_cap_is_the_same_in_both_directions():
    from repro.core.codec import MAX_DEPTH

    deepest = None
    for _ in range(MAX_DEPTH):
        deepest = [deepest]
    assert decode(encode(deepest)) == deepest
    with pytest.raises(CodecError):
        encode([deepest])
    loop = []
    loop.append(loop)
    with pytest.raises(CodecError):
        encode(loop)   # used to be a RecursionError


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in edits:
        at = where % (len(buf) + 1)
        if kind == "insert":
            buf.insert(at, byte)
        elif buf:
            at %= len(buf)
            if kind == "flip":
                buf[at] ^= byte or 0x01
            else:
                del buf[at]
    return bytes(buf)


_edits = st.lists(
    st.tuples(st.sampled_from(["flip", "insert", "delete"]),
              st.integers(min_value=0, max_value=1 << 16),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=4)

_arrays = st.builds(
    lambda dtype, n: (np.arange(n) * 7).astype(dtype),
    st.sampled_from(["u1", "i4", "f8"]), st.integers(min_value=0, max_value=6))

_images = st.recursive(
    st.one_of(_scalars, _arrays,
              st.builds(Errno, st.text(max_size=6), st.text(max_size=6))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(min_value=-5, max_value=5), children, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=600, deadline=None)
@given(_images, _edits)
def test_mutated_encodings_decode_or_raise_codec_error(obj, edits):
    """Mutation fuzz: flip, insert and delete bytes of *valid* encodings,
    so the corruption lands inside strings, map keys, ndarray headers and
    counts — paths random bytes almost never reach.  The outcome is a
    value or CodecError; the oracle must agree on every value."""
    from . import reference_codec

    data = _mutate(encode(obj), edits)
    try:
        value = decode(data)
    except CodecError:
        return
    assert reference_codec.encode(value) == encode(value)
    assert encode(reference_codec.decode(data)) == encode(value)
