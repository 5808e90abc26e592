"""The wire protocol: CRC'd, length-prefixed frames of codec payloads.

The in-process transports pass Python objects by reference; a real
socket needs bytes.  A frame reuses the storage layer's framing idea
(:mod:`repro.storage.codec` records behind a length + CRC header, the
same shape as a WAL record) so a torn TCP stream fails the same way a
torn log tail does — loudly, at the CRC check, never by silently
decoding garbage::

    +--------+-----+-------+-----------+----------+===========+
    | magic  | ver | flags | length u32| crc32 u32|   body    |
    | "RQ"   | u8  | u8    | of body   | of body  | codec ... |
    +--------+-----+-------+-----------+----------+===========+

The body is one codec-encoded list ``[kind, call_id, payload]``:

* ``kind`` — ``"call"`` or ``"resp"``;
* ``call_id`` — the per-connection correlation id echoed back in the
  response, so concurrent calls multiplexed over one socket each get
  exactly their own result;
* ``payload`` — the operation (or its result), limited to codec types.

Frames above ``max_frame`` bytes are rejected *before* allocating the
body (a 4-byte length must not make the peer allocate 4 GiB), and any
header/CRC mismatch raises :class:`FrameError` — the connection is then
unusable and must be closed, because stream framing cannot resynchronize
after corruption.

Results and errors cross the wire as ``{"ok": value}`` /
``{"err": class_name, "msg": ...}`` envelopes; :func:`raise_remote`
rebuilds the exception from the :mod:`repro.errors` taxonomy so remote
callers see the very same classes in-proc callers do.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterator

from repro import errors as _errors
from repro.errors import CommError, ReproError, TransactionAborted
from repro.storage.codec import CodecError, decode, encode

MAGIC = b"RQ"
VERSION = 1
#: ceiling for one frame's body: a protocol constant both ends share
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

_HEADER = struct.Struct(">2sBBII")
HEADER_SIZE = _HEADER.size

KIND_CALL = "call"
KIND_RESP = "resp"


class FrameError(CommError):
    """The byte stream does not contain a well-formed frame (bad magic,
    bad CRC, oversized body, or a truncated header mid-stream)."""


def encode_frame(kind: str, call_id: int, payload: Any) -> bytes:
    """One wire frame for ``payload``; raises
    :class:`~repro.storage.codec.CodecError` for non-codec types and
    :class:`FrameError` for bodies over :data:`DEFAULT_MAX_FRAME` (fail
    at the sender, where the error is actionable — the receiver would
    just drop the connection)."""
    body = encode([kind, call_id, payload])
    if len(body) > DEFAULT_MAX_FRAME:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{DEFAULT_MAX_FRAME}-byte limit"
        )
    header = _HEADER.pack(MAGIC, VERSION, 0, len(body), zlib.crc32(body))
    return header + body


class FrameReader:
    """Incremental frame decoder for one connection's byte stream.

    Feed it received chunks; it yields complete ``(kind, call_id,
    payload)`` triples and keeps partial frames buffered until the rest
    arrives.  Any framing violation raises :class:`FrameError`; the
    caller must drop the connection (the stream cannot be re-synced).
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[tuple[str, int, Any]]:
        self._buf.extend(data)
        while True:
            if len(self._buf) < HEADER_SIZE:
                return
            magic, version, _flags, length, crc = _HEADER.unpack_from(self._buf)
            if magic != MAGIC:
                raise FrameError(f"bad frame magic {bytes(magic)!r}")
            if version != VERSION:
                raise FrameError(f"unsupported wire version {version}")
            if length > self.max_frame:
                raise FrameError(
                    f"frame body of {length} bytes exceeds the "
                    f"{self.max_frame}-byte limit"
                )
            if len(self._buf) < HEADER_SIZE + length:
                return  # partial frame: wait for more bytes
            body = bytes(self._buf[HEADER_SIZE:HEADER_SIZE + length])
            del self._buf[:HEADER_SIZE + length]
            if zlib.crc32(body) != crc:
                raise FrameError("frame body failed its CRC check")
            try:
                triple = decode(body)
            except (CodecError, ValueError) as exc:
                raise FrameError(f"undecodable frame body: {exc}") from exc
            # A CRC-valid body of the wrong shape is as corrupt as a bad
            # CRC: it must fail as a FrameError, the one error readers
            # handle by dropping the connection.
            if (type(triple) is not list or len(triple) != 3
                    or type(triple[0]) is not str or type(triple[1]) is not int):
                raise FrameError(
                    "frame body is not a [kind, call_id, payload] list"
                )
            yield triple[0], triple[1], triple[2]


# ---------------------------------------------------------------------------
# Result / error envelopes
# ---------------------------------------------------------------------------

#: every exception class of the repro taxonomy, by name — the registry
#: that lets an error cross the wire and re-raise as the same class
_ERROR_CLASSES: dict[str, type[BaseException]] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type)
    and issubclass(obj, BaseException)
    and not issubclass(obj, _errors.SimulatedCrash)
}


def ok_payload(value: Any) -> dict[str, Any]:
    return {"ok": value}


def error_payload(exc: BaseException) -> dict[str, Any]:
    """Envelope for a :class:`~repro.errors.ReproError` crossing the wire."""
    payload: dict[str, Any] = {"err": type(exc).__name__, "msg": str(exc)}
    if isinstance(exc, TransactionAborted):
        payload["reason"] = exc.reason
    return payload


def raise_remote(payload: dict[str, Any]) -> None:
    """Re-raise the error carried in an ``{"err": ...}`` envelope as its
    original :mod:`repro.errors` class (or :class:`ReproError` if the
    name is unknown to this build)."""
    name, message = payload["err"], payload.get("msg", "")
    cls = _ERROR_CLASSES.get(name)
    if cls is None:
        raise ReproError(f"remote {name}: {message}")
    if cls is TransactionAborted or issubclass(cls, TransactionAborted):
        raise TransactionAborted(None, payload.get("reason", message))
    raise cls(message)


def unwrap(payload: Any) -> Any:
    """Return the value of an ``ok`` envelope, re-raising ``err`` ones."""
    if isinstance(payload, dict):
        if "err" in payload:
            raise_remote(payload)
        if "ok" in payload:
            return payload["ok"]
    raise FrameError(f"malformed response envelope: {payload!r}")
