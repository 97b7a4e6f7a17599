"""The intermediate checkpoint format.

ZapC "employs higher-level semantic information specified in an
intermediate format rather than kernel specific data in native format to
keep the format portable across different kernels".  This codec is that
format: a self-describing tag-length-value binary encoding of the
semantic types checkpoint images are built from (scalars, strings,
byte strings, sequences, string-keyed maps, and numpy arrays), with no
Python pickling — an image written by one simulated kernel can be
decoded by any other.

Wire grammar (big-endian):

===========  ===========================================
tag ``N``    None
tag ``T/F``  booleans
tag ``i``    int64
tag ``I``    arbitrary-precision int: u32 length + bytes
tag ``f``    float64
tag ``s``    str: u32 length + utf-8 bytes
tag ``b``    bytes: u32 length + raw bytes
tag ``l``    list: u32 count + items
tag ``t``    tuple: u32 count + items
tag ``d``    dict, str keys: u32 count + (str key, value) pairs
tag ``D``    dict, any keys: u32 count + (key, value) pairs
tag ``a``    ndarray: dtype str, shape tuple, raw bytes
tag ``E``    Errno: name str + detail str (syscall error held in a register)
===========  ===========================================

Both directions are one pass over one dispatch table (DESIGN §5):
:data:`_ENCODERS` is keyed by ``type(obj)`` and every handler appends
*fragments* (tag + header as one ``bytes``, payloads by reference) to a
parts list that :func:`encode` joins once, :func:`encoded_size` only
measures, :func:`encode_parts` hands over as it is and :func:`encode_held`
coalesces into a :class:`Blob`; :data:`_DECODERS` is indexed by the tag
byte, and :func:`decode_parts` gives stored payload fragments back as
themselves.  A value that will be encoded more than once is sealed by
:func:`fragment` and spliced from then on.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..errors import CodecError
from ..vos.syscalls import Errno

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: containers nested deeper than this are refused in both directions, so
#: a hostile image fails with :class:`CodecError` long before the
#: interpreter's recursion limit, and nothing encodes that cannot decode.
MAX_DEPTH = 128

_TAG_I64 = struct.Struct(">cq").pack
_TAG_F64 = struct.Struct(">cd").pack
_TAG_U32 = struct.Struct(">cI").pack
_I64_AT = struct.Struct(">q").unpack_from
_F64_AT = struct.Struct(">d").unpack_from
_U32_AT = struct.Struct(">I").unpack_from

#: str -> its complete ``s`` fragment.  Images repeat a small vocabulary
#: (record keys, protocol and state names) thousands of times; only
#: strings of at most ``_STR_MEMO_CHARS`` are remembered and insertion
#: stops at ``_STR_MEMO_SIZE`` entries, so the memo never outgrows a few
#: tens of KB and never holds a payload.
_STR_MEMO: Dict[str, bytes] = {}
_STR_MEMO_CHARS = 32
_STR_MEMO_SIZE = 1024

#: (dtype, shape) -> everything an ``a`` record says before its payload:
#: the tag, the dtype ``s``, the shape ``t`` and the ``b`` length header
#: (the payload is always ``nbytes`` long).  A run moves arrays of a
#: handful of dtypes and shapes through every MPI frame and image, and
#: ``str(dtype)`` alone is several Python frames inside numpy.  Decode
#: remembers the way back, dtype string -> ``np.dtype``.  Both stop
#: growing at ``_ARRAY_MEMO_SIZE`` entries; a dtype the format refuses is
#: never remembered.
_ARRAY_MEMO: Dict[Tuple[np.dtype, Tuple[int, ...]], bytes] = {}
_DTYPE_MEMO: Dict[str, np.dtype] = {}
_ARRAY_MEMO_SIZE = 1024

Parts = List[Any]   # bytes fragments plus by-reference bytes-like payloads

#: container levels a :class:`Fragment` may hold.  It is encoded as if it
#: already sat ``MAX_DEPTH - FRAGMENT_LEVELS`` deep and spliced no deeper
#: than that, so no splice can pass :data:`MAX_DEPTH` and none has to
#: look inside the bytes to know.
FRAGMENT_LEVELS = 8


class Fragment(bytes):
    """One value already in the intermediate format, which the encoder
    splices verbatim where the value would have been walked.  Made only
    by :func:`fragment`: the encoder trusts these bytes."""

    __slots__ = ()


class Blob:
    """Held bytes: the fragments whose join is one byte string, kept as
    they are.  It encodes as one ``b`` record with the fragments spliced
    in by reference, :func:`decode` reads it in place, and ``bytes(blob)``
    is the one join, for a consumer that needs contiguous bytes.  It
    equals any bytes-like value with the same bytes."""

    __slots__ = ("parts", "nbytes")

    def __init__(self, parts) -> None:
        self.parts: Tuple[bytes, ...] = tuple(parts)
        self.nbytes = sum(map(len, self.parts))

    def __len__(self) -> int:
        return self.nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)

    def __iter__(self):
        return iter(bytes(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Blob, bytes, bytearray, memoryview)):
            return NotImplemented
        return bytes(self) == bytes(other)

    __hash__ = None


#: an exact ``bytes`` payload at least this long is held by reference in
#: the :class:`Blob` :func:`encode_held` makes; anything shorter or
#: mutable is copied into the runs between the held payloads.
HELD_MIN = 4096


def encode_held(obj: Any) -> Any:
    """The bytes :func:`encode` gives, as a :class:`Blob`: every exact
    ``bytes`` payload of at least :data:`HELD_MIN` bytes is the object
    ``obj`` holds, and everything between two of them (headers, small
    payloads, array and other mutable buffers) is copied once into one
    run.  With nothing held, the one run itself."""
    parts = encode_parts(obj)
    held = [i for i, part in enumerate(parts)
            if type(part) is bytes and len(part) >= HELD_MIN]
    out: Parts = []
    for start, end in zip([-1, *held], [*held, len(parts)]):
        if start + 1 < end:
            out.append(b"".join(parts[start + 1:end]))
        if end < len(parts):
            out.append(parts[end])
    return Blob(out) if len(out) > 1 else out[0]


def fragment(obj: Any) -> Fragment:
    """Seal ``obj``: encode it now, once, for every later :func:`encode`
    or :func:`encoded_size` of something that holds the result.  The
    bytes are those :func:`encode` gives, and decode to a plain value."""
    parts: Parts = []
    _emit(obj, parts, MAX_DEPTH - FRAGMENT_LEVELS)
    return Fragment(b"".join(parts))


def encode(obj: Any) -> bytes:
    """Serialize ``obj`` to the intermediate format."""
    parts: Parts = []
    _emit(obj, parts, 0)
    return b"".join(parts)


def encode_parts(obj: Any) -> Parts:
    """The fragments :func:`encode` would join, for a writer that can
    take them one by one: bytes and array payloads (an image inside its
    container) are in the list by reference, never copied."""
    parts: Parts = []
    _emit(obj, parts, 0)
    return parts


def encoded_size(obj: Any) -> int:
    """Byte size of ``obj`` in the intermediate format (no buffer built:
    the same fragments :func:`encode` would join, only measured — bytes
    and array payloads appear in them by reference)."""
    return sum(map(len, encode_parts(obj)))


def decode(data) -> Any:
    """Deserialize a buffer produced by :func:`encode`, or a :class:`Blob`
    (see :func:`decode_parts`).  ``data`` may be a byte ``memoryview``:
    ``b`` payloads then come back as views of it, not copies, and the
    caller decides which to materialise."""
    if type(data) is Blob:
        return decode_parts(data.parts)
    obj, pos = _read(data, 0, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after decode")
    return obj


def decode_parts(parts: Parts) -> Any:
    """The inverse of :func:`encode_parts`: decode the join of ``parts``
    (a transient buffer).  A ``b`` payload that is exactly a run of whole
    fragments of exact type ``bytes`` — matched by position, never by
    content — comes back as those objects (one fragment itself, several
    a :class:`Blob`); any other as a ``bytes`` copy, never a view."""
    return decode(_Joined(parts))


class _Joined(bytearray):
    """The buffer :func:`decode_parts` decodes.  Reads of it are plain
    ``bytearray`` reads; only the ``b`` decoder asks :meth:`held` for a
    payload, through the offsets at which the stored fragments start."""

    __slots__ = ("parts", "starts")

    def __init__(self, parts: Parts) -> None:
        super().__init__(sum(map(len, parts)))
        self.parts = parts
        self.starts: Dict[int, int] = {}
        pos = 0
        with memoryview(self) as view:    # a bytearray's own slice store copies
            for i, part in enumerate(parts):
                end = pos + len(part)
                view[pos:end] = part
                self.starts[pos] = i    # an empty part yields to the next
                pos = end

    def held(self, start: int, end: int) -> Any:
        """The payload at ``[start, end)``: the stored fragments it is
        made of when they are exact ``bytes``, else a ``bytes`` copy."""
        i = self.starts.get(start)
        j = self.starts.get(end) if end < len(self) else len(self.parts)
        if i is not None and j is not None and i < j:
            run = self.parts[i:j]
            if set(map(type, run)) == {bytes}:
                return run[0] if len(run) == 1 else Blob(run)
        return bytes(memoryview(self)[start:end])


# ---------------------------------------------------------------------------
# encode: handlers keyed by type
# ---------------------------------------------------------------------------


def _emit(obj: Any, parts: Parts, depth: int) -> None:
    tp = type(obj)
    (_ENCODERS.get(tp) or _resolve(tp))(obj, parts, depth)


def _enc_none(obj, parts, depth) -> None:
    parts.append(b"N")


def _enc_bool(obj, parts, depth) -> None:
    parts.append(b"T" if obj else b"F")


def _enc_int(obj, parts, depth) -> None:
    if _I64_MIN <= obj <= _I64_MAX:
        parts.append(_TAG_I64(b"i", obj))
    else:
        raw = obj.to_bytes((obj.bit_length() + 15) // 8, "big", signed=True)
        parts.append(_TAG_U32(b"I", len(raw)) + raw)


def _enc_float(obj, parts, depth) -> None:
    parts.append(_TAG_F64(b"f", obj))


def _enc_str(obj, parts, depth) -> None:
    raw = obj.encode("utf-8")
    parts.append(_TAG_U32(b"s", len(raw)) + raw)


def _enc_exact_str(obj, parts, depth) -> None:
    # exact ``str`` only: a subclass may compare or hash differently
    frag = _STR_MEMO.get(obj)
    if frag is None:
        raw = obj.encode("utf-8")
        frag = _TAG_U32(b"s", len(raw)) + raw
        if len(obj) <= _STR_MEMO_CHARS and len(_STR_MEMO) < _STR_MEMO_SIZE:
            _STR_MEMO[obj] = frag
    parts.append(frag)


def _enc_bytes(obj, parts, depth) -> None:
    parts.append(_TAG_U32(b"b", len(obj)))
    parts.append(obj)


def _enc_blob(obj, parts, depth) -> None:
    parts.append(_TAG_U32(b"b", obj.nbytes))
    parts.extend(obj.parts)


def _enc_fragment(obj, parts, depth) -> None:
    if depth > MAX_DEPTH - FRAGMENT_LEVELS:
        raise CodecError(f"sealed fragment spliced deeper than "
                         f"{MAX_DEPTH - FRAGMENT_LEVELS} containers")
    parts.append(obj)


def _byte_view(obj):
    """``obj``'s buffer as a flat byte view when it exports one."""
    try:
        return memoryview(obj).cast("B")
    except (TypeError, ValueError, BufferError):
        # non-contiguous, zero-sized or buffer-less (datetime64) exports
        return obj.tobytes()


def _enc_memoryview(obj, parts, depth) -> None:
    _enc_bytes(_byte_view(obj), parts, depth)


def _nested(depth: int) -> int:
    if depth >= MAX_DEPTH:
        raise CodecError(f"containers nested deeper than {MAX_DEPTH}")
    return depth + 1


def _sequence_encoder(tag: bytes):
    def enc(obj, parts, depth) -> None:
        depth = _nested(depth)
        parts.append(_TAG_U32(tag, len(obj)))
        lookup = _ENCODERS.get
        for item in obj:
            tp = type(item)
            (lookup(tp) or _resolve(tp))(item, parts, depth)
    return enc


_enc_list = _sequence_encoder(b"l")
_enc_tuple = _sequence_encoder(b"t")


def _enc_dict(obj, parts, depth) -> None:
    depth = _nested(depth)
    append = parts.append
    header = len(parts)
    append(None)  # the tag is known once every key has been seen
    all_str = True
    lookup = _ENCODERS.get
    memo = _STR_MEMO.get
    for key, value in obj.items():
        tp = type(key)
        frag = memo(key) if tp is str else None
        if frag is not None:
            append(frag)  # a remembered record key: the common case
        else:
            if all_str and not isinstance(key, str):
                all_str = False
            (lookup(tp) or _resolve(tp))(key, parts, depth)
        tp = type(value)
        (lookup(tp) or _resolve(tp))(value, parts, depth)
    parts[header] = _TAG_U32(b"d" if all_str else b"D", len(obj))


def _array_head(dtype: np.dtype, shape: Tuple[int, ...], nbytes: int) -> bytes:
    """The fragment an array of ``dtype`` and ``shape`` starts with."""
    name = str(dtype)
    try:
        decodable = not dtype.hasobject and np.dtype(name) == dtype
    except (TypeError, ValueError, SyntaxError):
        # a structured or record dtype's str is not a dtype string, and
        # numpy's parser says so in any of these three ways
        decodable = False
    if not decodable:
        # nothing encodes that cannot decode: an object array's bytes are
        # pointers, and decode could not name this dtype again
        raise CodecError(f"ndarray dtype {name} is not representable in the image format")
    head: Parts = [b"a"]
    _enc_exact_str(name, head, 0)
    _enc_tuple(shape, head, 0)
    head.append(_TAG_U32(b"b", nbytes))
    return b"".join(head)


def _enc_ndarray(obj, parts, depth) -> None:
    _nested(_nested(depth))  # the shape tuple sits one level below the array
    key = (obj.dtype, obj.shape)
    head = _ARRAY_MEMO.get(key)
    if head is None:
        head = _array_head(*key, obj.nbytes)
        if len(_ARRAY_MEMO) < _ARRAY_MEMO_SIZE:
            _ARRAY_MEMO[key] = head
    parts.append(head)
    parts.append(_byte_view(np.ascontiguousarray(obj)))


def _enc_errno(obj, parts, depth) -> None:
    # a process may hold a syscall error in a register across a
    # checkpoint (e.g. the result of a refused connect)
    depth = _nested(depth)
    parts.append(b"E")
    _emit(obj.name, parts, depth)
    _emit(obj.detail, parts, depth)


def _enc_np_integer(obj, parts, depth) -> None:
    _enc_int(int(obj), parts, depth)


def _enc_np_floating(obj, parts, depth) -> None:
    _enc_float(float(obj), parts, depth)


Encoder = Callable[[Any, Parts, int], None]

#: the representable base types, in the precedence an ``isinstance``
#: chain would test them — a subclass takes the first base it matches.
_BASES: Tuple[Tuple[type, Encoder], ...] = (
    (type(None), _enc_none),
    (bool, _enc_bool),
    (int, _enc_int),
    (float, _enc_float),
    (str, _enc_str),
    (bytes, _enc_bytes),
    (bytearray, _enc_bytes),
    (memoryview, _enc_memoryview),
    (list, _enc_list),
    (tuple, _enc_tuple),
    (dict, _enc_dict),
    (np.ndarray, _enc_ndarray),
    (Errno, _enc_errno),
    (np.integer, _enc_np_integer),
    (np.floating, _enc_np_floating),
    (np.bool_, _enc_bool),
)

_ENCODERS: Dict[type, Encoder] = dict(_BASES)
_ENCODERS[str] = _enc_exact_str
# not through ``_resolve``: it is a ``bytes`` and would encode as a ``b``
_ENCODERS[Fragment] = _enc_fragment
_ENCODERS[Blob] = _enc_blob
#: subclasses (NamedTuples, IntEnums, numpy scalar types) are resolved
#: once and remembered; past this many types they are resolved per call.
_ENCODERS_SIZE = 256


def _resolve(tp: type) -> Encoder:
    for base, enc in _BASES:
        if issubclass(tp, base):
            if len(_ENCODERS) < _ENCODERS_SIZE:
                _ENCODERS[tp] = enc
            return enc
    raise CodecError(f"type {tp.__name__} is not representable in the image format")


# ---------------------------------------------------------------------------
# decode: handlers indexed by tag byte
# ---------------------------------------------------------------------------
# Every handler takes ``(data, pos, depth)`` with ``pos`` just past its
# tag and returns ``(value, next_pos)``.  Fixed-width reads are bounds-
# checked by ``unpack_from`` itself (``struct.error``), length-prefixed
# payloads by :func:`_span` (a slice would truncate silently), and a
# missing tag by the ``IndexError`` of ``data[pos]``.


def _truncated() -> CodecError:
    return CodecError("truncated image")


def _read(data, pos: int, depth: int) -> Tuple[Any, int]:
    try:
        dec = _DECODERS[data[pos]]
    except IndexError:
        raise _truncated() from None
    return dec(data, pos + 1, depth)


def _span(data, pos: int) -> Tuple[int, int]:
    """Bounds of the u32-length-prefixed payload whose prefix is at ``pos``."""
    try:
        start = pos + 4
        end = start + _U32_AT(data, pos)[0]
    except struct.error:
        raise _truncated() from None
    if end > len(data):
        raise _truncated()
    return start, end


def _count(data, pos: int) -> int:
    try:
        return _U32_AT(data, pos)[0]
    except struct.error:
        raise _truncated() from None


def _constant(value):
    def dec(data, pos, depth):
        return value, pos
    return dec


def _dec_i64(data, pos, depth):
    try:
        return _I64_AT(data, pos)[0], pos + 8
    except struct.error:
        raise _truncated() from None


def _dec_bigint(data, pos, depth):
    start, end = _span(data, pos)
    return int.from_bytes(data[start:end], "big", signed=True), end


def _dec_f64(data, pos, depth):
    try:
        return _F64_AT(data, pos)[0], pos + 8
    except struct.error:
        raise _truncated() from None


def _dec_str(data, pos, depth):
    start, end = _span(data, pos)
    try:
        return str(data[start:end], "utf-8"), end
    except UnicodeDecodeError as err:
        raise CodecError(f"invalid utf-8 in a string at offset {start}: {err}") from None


def _dec_bytes(data, pos, depth):
    start, end = _span(data, pos)
    if type(data) is _Joined:
        return data.held(start, end), end
    return data[start:end], end


def _dec_list(data, pos, depth):
    n = _count(data, pos)
    pos += 4
    depth = _nested(depth)
    items = []
    append = items.append
    decoders = _DECODERS
    try:
        for _ in range(n):
            item, pos = decoders[data[pos]](data, pos + 1, depth)
            append(item)
    except IndexError:
        raise _truncated() from None
    return items, pos


def _dec_tuple(data, pos, depth):
    items, pos = _dec_list(data, pos, depth)
    return tuple(items), pos


def _dec_strmap(data, pos, depth):
    n = _count(data, pos)
    pos += 4
    depth = _nested(depth)
    out = {}
    decoders = _DECODERS
    try:
        for _ in range(n):
            key, pos = decoders[data[pos]](data, pos + 1, depth)
            if type(key) is not str:
                raise CodecError("non-string key in a string-keyed map")
            out[key], pos = decoders[data[pos]](data, pos + 1, depth)
    except IndexError:
        raise _truncated() from None
    return out, pos


def _dec_anymap(data, pos, depth):
    n = _count(data, pos)
    pos += 4
    depth = _nested(depth)
    out = {}
    for _ in range(n):
        key, pos = _read(data, pos, depth)
        value, pos = _read(data, pos, depth)
        try:
            out[key] = value
        except TypeError:
            raise CodecError(f"unhashable {type(key).__name__} key in a map") from None
    return out, pos


def _dec_ndarray(data, pos, depth):
    depth = _nested(depth)
    dtype, pos = _read(data, pos, depth)
    shape, pos = _read(data, pos, depth)
    raw, pos = _read(data, pos, depth)
    if not (isinstance(dtype, str) and isinstance(shape, tuple)
            and isinstance(raw, (bytes, bytearray, memoryview))):
        raise CodecError("malformed ndarray: expected dtype str, shape tuple, raw bytes")
    try:
        dt = _DTYPE_MEMO.get(dtype)
        if dt is None:
            dt = np.dtype(dtype)
            if len(dtype) <= _STR_MEMO_CHARS and len(_DTYPE_MEMO) < _ARRAY_MEMO_SIZE:
                _DTYPE_MEMO[dtype] = dt
        return np.frombuffer(raw, dtype=dt).reshape(shape).copy(), pos
    except (TypeError, ValueError, SyntaxError) as err:
        # unknown dtype (numpy's parser raises any of the three), shape
        # that does not match the payload, ...
        raise CodecError(f"malformed ndarray: {err}") from None


def _dec_errno(data, pos, depth):
    depth = _nested(depth)
    name, pos = _read(data, pos, depth)
    detail, pos = _read(data, pos, depth)
    return Errno(str(name), str(detail)), pos


def _dec_unknown(data, pos, depth):
    raise CodecError(f"unknown tag {bytes(data[pos - 1:pos])!r} at offset {pos - 1}")


_DECODERS: List[Callable[[Any, int, int], Tuple[Any, int]]] = [_dec_unknown] * 256
for _tag, _dec in (
    (b"N", _constant(None)), (b"T", _constant(True)), (b"F", _constant(False)),
    (b"i", _dec_i64), (b"I", _dec_bigint), (b"f", _dec_f64),
    (b"s", _dec_str), (b"b", _dec_bytes),
    (b"l", _dec_list), (b"t", _dec_tuple),
    (b"d", _dec_strmap), (b"D", _dec_anymap),
    (b"a", _dec_ndarray), (b"E", _dec_errno),
):
    _DECODERS[_tag[0]] = _dec
del _tag, _dec
