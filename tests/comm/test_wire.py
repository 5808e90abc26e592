"""Wire-protocol edge cases: the frames themselves, independent of any
socket — torn delivery, corruption, oversize, version skew."""

import struct
import zlib

import pytest

from repro.comm.wire import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    KIND_CALL,
    KIND_RESP,
    FrameError,
    FrameReader,
    encode_frame,
    error_payload,
    ok_payload,
    unwrap,
)
from repro.errors import (
    DeadlockError,
    QueueEmpty,
    ReproError,
    TransactionAborted,
)
from repro.storage.codec import encode


def raw_frame(body: bytes) -> bytes:
    """A well-formed, CRC-valid frame around an arbitrary body."""
    return struct.pack(">2sBBII", b"RQ", 1, 0, len(body), zlib.crc32(body)) + body


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame(KIND_CALL, 7, {"op": "depth", "queue": "q"})
        reader = FrameReader()
        frames = list(reader.feed(frame))
        assert frames == [(KIND_CALL, 7, {"op": "depth", "queue": "q"})]

    def test_torn_frames_reassemble_byte_by_byte(self):
        """A frame arriving one byte at a time (worst-case TCP
        segmentation) decodes once — never partially, never twice."""
        frame = encode_frame(KIND_RESP, 3, ok_payload([1, 2, 3]))
        reader = FrameReader()
        collected = []
        for i in range(len(frame)):
            collected.extend(reader.feed(frame[i:i + 1]))
        assert collected == [(KIND_RESP, 3, {"ok": [1, 2, 3]})]

    def test_two_frames_in_one_chunk(self):
        chunk = (encode_frame(KIND_CALL, 1, "a")
                 + encode_frame(KIND_CALL, 2, "b"))
        frames = list(FrameReader().feed(chunk))
        assert [(call_id, payload) for _, call_id, payload in frames] == [
            (1, "a"), (2, "b"),
        ]

    def test_split_across_chunk_boundary(self):
        a = encode_frame(KIND_CALL, 1, {"x": "y" * 100})
        b = encode_frame(KIND_CALL, 2, {"z": 9})
        stream = a + b
        reader = FrameReader()
        out = []
        mid = len(a) - 3  # cut inside frame a's trailing bytes
        out.extend(reader.feed(stream[:mid]))
        out.extend(reader.feed(stream[mid:]))
        assert [call_id for _, call_id, _ in out] == [1, 2]

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(KIND_CALL, 1, None))
        frame[0:2] = b"XX"
        with pytest.raises(FrameError, match="magic"):
            list(FrameReader().feed(bytes(frame)))

    def test_bad_version_rejected(self):
        frame = bytearray(encode_frame(KIND_CALL, 1, None))
        frame[2] = 99
        with pytest.raises(FrameError, match="version"):
            list(FrameReader().feed(bytes(frame)))

    def test_crc_corruption_rejected(self):
        frame = bytearray(encode_frame(KIND_CALL, 1, {"op": "enqueue"}))
        frame[-1] ^= 0xFF  # flip a body bit
        with pytest.raises(FrameError, match="CRC"):
            list(FrameReader().feed(bytes(frame)))

    @pytest.mark.parametrize("body", [
        7, None, "resp", [KIND_RESP, 1], [KIND_RESP, 1, None, None],
        [1, 2, None], [KIND_RESP, "1", None], [KIND_RESP, None, None],
    ], ids=repr)
    def test_crc_valid_body_of_the_wrong_shape_rejected(self, body):
        """Only a ``[kind: str, call_id: int, payload]`` list is a frame
        body; anything else fails as a FrameError, the error readers
        answer by dropping the connection."""
        with pytest.raises(FrameError, match="kind, call_id, payload"):
            list(FrameReader().feed(raw_frame(encode(body))))

    def test_oversized_payload_rejected_before_allocation(self):
        """A hostile or corrupt length field must be refused from the
        12-byte header alone — before buffering a 'frame' that large."""
        header = struct.pack(
            ">2sBBII", b"RQ", 1, 0, DEFAULT_MAX_FRAME + 1, 0
        )
        reader = FrameReader()
        with pytest.raises(FrameError, match="exceeds"):
            list(reader.feed(header))
        assert len(reader._buf) <= HEADER_SIZE

    def test_encode_refuses_oversize(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(KIND_CALL, 1, "x" * (DEFAULT_MAX_FRAME + 1))

    def test_custom_frame_limit(self):
        small = FrameReader(max_frame=64)
        frame = encode_frame(KIND_CALL, 1, "payload")
        assert list(small.feed(frame))[0][2] == "payload"
        big = encode_frame(KIND_CALL, 2, "y" * 512)
        with pytest.raises(FrameError, match="exceeds"):
            list(small.feed(big))


class TestErrorEnvelopes:
    def test_ok_round_trip(self):
        assert unwrap(ok_payload({"depth": 3})) == {"depth": 3}

    def test_error_reconstructs_class(self):
        envelope = error_payload(DeadlockError("t1 vs t2"))
        with pytest.raises(DeadlockError, match="t1 vs t2"):
            unwrap(envelope)

    def test_queue_empty_crosses_the_wire(self):
        with pytest.raises(QueueEmpty):
            unwrap(error_payload(QueueEmpty("q is empty")))

    def test_transaction_aborted_keeps_reason(self):
        original = TransactionAborted(42, "deadlock victim")
        with pytest.raises(TransactionAborted) as info:
            unwrap(error_payload(original))
        assert "deadlock victim" in str(info.value)

    def test_unknown_error_class_degrades_to_repro_error(self):
        with pytest.raises(ReproError, match="no such thing"):
            unwrap({"err": "NotARealErrorClass", "msg": "no such thing"})
