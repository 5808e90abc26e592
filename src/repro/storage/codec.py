"""Deterministic binary codec for log records and snapshots.

Log records must be durable artifacts: inspectable, version-stable, and
free of arbitrary code execution on load — so ``pickle`` is out.  The
codec here is a compact type-length-value encoding covering exactly the
types the library persists:

``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``list``/``tuple`` (decoded as ``list``), and ``dict`` with ``str``
keys.

Encoding is deterministic: dict items are written in insertion order
(callers that need canonical bytes sort their dicts first), integers
use a fixed zig-zag varint, floats use IEEE-754 big-endian.

Batched use: :func:`encode_into` appends a record to a caller-owned
(reusable) buffer so N records need one buffer and one framing pass,
and :func:`decode_from` reads one value at an offset from ``bytes`` or
a ``memoryview`` — recovery replay hands out sub-slices of a single
mapped batch without per-record byte copies.
"""

from __future__ import annotations

import struct
from typing import Any, Union

Buffer = Union[bytes, bytearray, memoryview]

_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_DICT = b"M"

# decode compares integer tags: ``data[pos]`` is an int for bytes,
# bytearray, and memoryview alike, and avoids a slice object per value
_TAG_NONE = _T_NONE[0]
_TAG_TRUE = _T_TRUE[0]
_TAG_FALSE = _T_FALSE[0]
_TAG_INT = _T_INT[0]
_TAG_FLOAT = _T_FLOAT[0]
_TAG_STR = _T_STR[0]
_TAG_BYTES = _T_BYTES[0]
_TAG_LIST = _T_LIST[0]
_TAG_DICT = _T_DICT[0]

_FLOAT = struct.Struct(">d")


class CodecError(ValueError):
    """Raised for unsupported types on encode or malformed bytes on decode."""


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: Buffer, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        # No shift cap: integers are arbitrary-precision; the loop is
        # bounded by the input length (pos advances every iteration).


def _bigzag(value: int) -> int:
    # Arbitrary-precision zig-zag: non-negative -> even, negative -> odd.
    return value * 2 if value >= 0 else -value * 2 - 1


def encode_into(out: bytearray, obj: Any) -> None:
    """Append the encoding of ``obj`` to ``out``.

    The batched-append building block: callers reuse one buffer across
    N records (one allocation, one framing pass) instead of paying
    ``encode``'s fresh ``bytearray`` + ``bytes`` copy per record."""
    _encode_into(out, obj)


def _encode_into(out: bytearray, obj: Any) -> None:
    # Exact-type dispatch (``type(obj) is …``) ordered by hot-path
    # frequency — log records are dicts of str keys, small ints, and
    # short strings — with inlined one-byte varints for the < 0x80
    # values that dominate lengths and ids.  Subclasses (IntEnum,
    # namedtuple, …) fall through to the general isinstance chain.
    kind = type(obj)
    if kind is str:
        raw = obj.encode("utf-8")
        length = len(raw)
        out += _T_STR
        if length < 0x80:
            out.append(length)
        else:
            _write_varint(out, length)
        out += raw
    elif kind is int:
        zig = obj + obj if obj >= 0 else -obj - obj - 1
        out += _T_INT
        if zig < 0x80:
            out.append(zig)
        else:
            _write_varint(out, zig)
    elif kind is dict:
        length = len(obj)
        out += _T_DICT
        if length < 0x80:
            out.append(length)
        else:
            _write_varint(out, length)
        for key, value in obj.items():
            if type(key) is not str:
                raise CodecError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            klen = len(raw)
            if klen < 0x80:
                out.append(klen)
            else:
                _write_varint(out, klen)
            out += raw
            _encode_into(out, value)
    elif kind is bytes:
        # element records carry their body as one (often large) bytes leaf
        length = len(obj)
        out += _T_BYTES
        if length < 0x80:
            out.append(length)
        else:
            _write_varint(out, length)
        out += obj
    elif obj is None:
        out += _T_NONE
    elif obj is True:
        out += _T_TRUE
    elif obj is False:
        out += _T_FALSE
    elif kind is list or kind is tuple:
        length = len(obj)
        out += _T_LIST
        if length < 0x80:
            out.append(length)
        else:
            _write_varint(out, length)
        for item in obj:
            _encode_into(out, item)
    elif kind is float:
        out += _T_FLOAT
        out += _FLOAT.pack(obj)
    elif kind is bytearray or kind is memoryview:
        raw = bytes(obj)
        out += _T_BYTES
        _write_varint(out, len(raw))
        out += raw
    # --- subclass fallbacks (cold) -----------------------------------
    elif isinstance(obj, int):
        out += _T_INT
        _write_varint(out, _bigzag(int(obj)))
    elif isinstance(obj, float):
        out += _T_FLOAT
        out += _FLOAT.pack(obj)
    elif isinstance(obj, str):
        raw = str(obj).encode("utf-8")
        out += _T_STR
        _write_varint(out, len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out += _T_BYTES
        _write_varint(out, len(raw))
        out += raw
    elif isinstance(obj, (list, tuple)):
        out += _T_LIST
        _write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, dict):
        out += _T_DICT
        _write_varint(out, len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            _write_varint(out, len(raw))
            out += raw
            _encode_into(out, value)
    else:
        raise CodecError(f"unsupported type: {type(obj).__name__}")


def encode(obj: Any) -> bytes:
    """Encode ``obj`` to bytes.  Raises :class:`CodecError` on unsupported
    types (including dicts with non-string keys)."""
    out = bytearray()
    _encode_into(out, obj)
    return bytes(out)


def decode_from(data: Buffer, pos: int) -> tuple[Any, int]:
    """Decode one value at ``pos``; returns ``(value, next_pos)``.

    Accepts ``bytes``, ``bytearray``, or a ``memoryview`` — the latter
    lets recovery replay decode records straight out of one mapped
    batch buffer with no per-record slice copy (``str``/``bytes``
    leaves materialise their own payload; the framing never does)."""
    return _decode_from(data, pos, len(data))


def _decode_from(data: Buffer, pos: int, end: int) -> tuple[Any, int]:
    # The mirror of ``_encode_into``: tags tested in hot-path order, and
    # the one-byte varints (< 0x80) that dominate lengths, counts and
    # small ints read inline.  ``end`` is ``len(data)``, taken once per
    # top-level call; every read is bounds-checked against it so a short
    # buffer raises CodecError, never IndexError.
    if pos >= end:
        raise CodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _TAG_STR:
        if pos >= end:
            raise CodecError("truncated varint")
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_varint(data, pos)
        stop = pos + length
        if stop > end:
            raise CodecError("truncated string")
        return str(data[pos:stop], "utf-8"), stop
    if tag == _TAG_INT:
        if pos >= end:
            raise CodecError("truncated varint")
        zig = data[pos]
        if zig < 0x80:
            pos += 1
        else:
            zig, pos = _read_varint(data, pos)
        return (zig >> 1) ^ -(zig & 1), pos
    if tag == _TAG_DICT:
        if pos >= end:
            raise CodecError("truncated varint")
        count = data[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _read_varint(data, pos)
        result: dict[str, Any] = {}
        for _ in range(count):
            if pos >= end:
                raise CodecError("truncated varint")
            klen = data[pos]
            if klen < 0x80:
                pos += 1
            else:
                klen, pos = _read_varint(data, pos)
            stop = pos + klen
            if stop > end:
                raise CodecError("truncated dict key")
            key = str(data[pos:stop], "utf-8")
            result[key], pos = _decode_from(data, stop, end)
        return result, pos
    if tag == _TAG_LIST:
        if pos >= end:
            raise CodecError("truncated varint")
        count = data[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _read_varint(data, pos)
        items = []
        append = items.append
        for _ in range(count):
            item, pos = _decode_from(data, pos, end)
            append(item)
        return items, pos
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_BYTES:
        length, pos = _read_varint(data, pos)
        stop = pos + length
        if stop > end:
            raise CodecError("truncated bytes")
        return bytes(data[pos:stop]), stop
    if tag == _TAG_FLOAT:
        stop = pos + 8
        if stop > end:
            raise CodecError("truncated float")
        return _FLOAT.unpack_from(data, pos)[0], stop
    raise CodecError(f"unknown type tag {chr(tag)!r}")


def decode(data: Buffer) -> Any:
    """Decode bytes produced by :func:`encode`.  Raises
    :class:`CodecError` on malformed input or trailing garbage."""
    end = len(data)
    obj, pos = _decode_from(data, 0, end)
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after value")
    return obj
