"""The pre-dispatch-table codec, frozen verbatim as a test-only oracle.

``_enc`` / ``_need`` / ``_dec`` below are the ``isinstance``-chain
encoder and the tag-compare decoder exactly as ``repro.core.codec``
shipped them before the table-dispatched rewrite.  The differential
tests in ``test_codec_differential.py`` hold the live codec to this
one byte for byte, so the image format cannot drift with the
implementation.  Do not "fix" anything here: the oracle's known leaks
(``UnicodeDecodeError`` and friends escaping ``decode``) are part of
what it documents, and ``np.bool_`` is unrepresentable in it.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

import numpy as np

from repro.errors import CodecError
from repro.vos.syscalls import Errno

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def encode(obj: Any) -> bytes:
    out = bytearray()
    _enc(obj, out)
    return bytes(out)


def decode(data: bytes) -> Any:
    obj, pos = _dec(data, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after decode")
    return obj


def _enc(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        if _I64_MIN <= obj <= _I64_MAX:
            out += b"i"
            out += struct.pack(">q", obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 15) // 8, "big", signed=True)
            out += b"I"
            out += struct.pack(">I", len(raw))
            out += raw
    elif isinstance(obj, float):
        out += b"f"
        out += struct.pack(">d", obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"s"
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out += b"b"
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(obj, list):
        out += b"l"
        out += struct.pack(">I", len(obj))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, tuple):
        out += b"t"
        out += struct.pack(">I", len(obj))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, dict):
        all_str = all(isinstance(k, str) for k in obj)
        out += b"d" if all_str else b"D"
        out += struct.pack(">I", len(obj))
        for key, value in obj.items():
            _enc(key, out)
            _enc(value, out)
    elif isinstance(obj, np.ndarray):
        out += b"a"
        _enc(str(obj.dtype), out)
        _enc(tuple(int(x) for x in obj.shape), out)
        _enc(np.ascontiguousarray(obj).tobytes(), out)
    elif isinstance(obj, Errno):
        # a process may hold a syscall error in a register across a
        # checkpoint (e.g. the result of a refused connect)
        out += b"E"
        _enc(obj.name, out)
        _enc(obj.detail, out)
    elif isinstance(obj, (np.integer,)):
        _enc(int(obj), out)
    elif isinstance(obj, (np.floating,)):
        _enc(float(obj), out)
    else:
        raise CodecError(f"type {type(obj).__name__} is not representable in the image format")


def _need(data: bytes, pos: int, n: int) -> None:
    if pos + n > len(data):
        raise CodecError("truncated image")


def _dec(data: bytes, pos: int) -> Tuple[Any, int]:
    _need(data, pos, 1)
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        _need(data, pos, 8)
        return struct.unpack(">q", data[pos:pos + 8])[0], pos + 8
    if tag == b"I":
        _need(data, pos, 4)
        n = struct.unpack(">I", data[pos:pos + 4])[0]
        pos += 4
        _need(data, pos, n)
        return int.from_bytes(data[pos:pos + n], "big", signed=True), pos + n
    if tag == b"f":
        _need(data, pos, 8)
        return struct.unpack(">d", data[pos:pos + 8])[0], pos + 8
    if tag in (b"s", b"b"):
        _need(data, pos, 4)
        n = struct.unpack(">I", data[pos:pos + 4])[0]
        pos += 4
        _need(data, pos, n)
        raw = data[pos:pos + n]
        return (raw.decode("utf-8") if tag == b"s" else raw), pos + n
    if tag in (b"l", b"t"):
        _need(data, pos, 4)
        n = struct.unpack(">I", data[pos:pos + 4])[0]
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _dec(data, pos)
            items.append(item)
        return (items if tag == b"l" else tuple(items)), pos
    if tag in (b"d", b"D"):
        _need(data, pos, 4)
        n = struct.unpack(">I", data[pos:pos + 4])[0]
        pos += 4
        out = {}
        for _ in range(n):
            key, pos = _dec(data, pos)
            if tag == b"d" and not isinstance(key, str):
                raise CodecError("non-string key in a string-keyed map")
            value, pos = _dec(data, pos)
            out[key] = value
        return out, pos
    if tag == b"a":
        dtype, pos = _dec(data, pos)
        shape, pos = _dec(data, pos)
        raw, pos = _dec(data, pos)
        arr = np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape).copy()
        return arr, pos
    if tag == b"E":
        name, pos = _dec(data, pos)
        detail, pos = _dec(data, pos)
        return Errno(str(name), str(detail)), pos
    raise CodecError(f"unknown tag {tag!r} at offset {pos - 1}")
