"""Segmented write-ahead log with CRC framing and torn-write recovery.

Record layout on disk — individually-appended records keep their own
CRC frame::

    +-------+----------+----------+------------------+
    | magic | length   | crc32    | payload          |
    | 2 B   | 4 B (BE) | 4 B (BE) | ``length`` bytes |
    +-------+----------+----------+------------------+

A *batch* (``append_batch``/``append_many``: one lock acquisition, one
disk write, one CRC pass for N records — the per-transaction commit
batching of :class:`~repro.transaction.log.LogManager`) shares one
frame::

    +--------+----------+----------+----------------------------------+
    | bmagic | body_len | crc32    | body: ( sub_len 4B | payload )*  |
    | 2 B    | 4 B (BE) | 4 B (BE) | ``body_len`` bytes               |
    +--------+----------+----------+----------------------------------+

The batch CRC covers the whole body.  A sub-record's LSN is the byte
offset of its ``sub_len`` field in the record stream, so LSNs stay
dense and strictly ordered whether a record travelled alone or in a
batch.  A torn tail inside a batch drops the *whole* batch: the batch
CRC cannot vouch for a prefix, and a batch is one transaction's
records ending in its commit/prepare record, so losing a prefix and
losing the batch are the same outcome (the transaction was never
acknowledged — its commit record was not durable).

The CRC covers the payload.  The log is split across numbered *segment
areas* (``<area>.000001``, ``<area>.000002``, …); each segment starts
with a 16-byte header naming the LSN of its first record::

    +-----------+----------+----------+
    | seg magic | base LSN | crc32    |
    | 4 B       | 8 B (BE) | 4 B (BE) |
    +-----------+----------+----------+

A record's LSN is its byte offset in the *record stream* — segment
headers are excluded — so LSNs are dense, ordered, monotonic across
segment rolls, and stable across restarts.  Appends go to the *live*
(highest-numbered) segment; once :meth:`WriteAheadLog.roll` seals a
segment it is immutable and fully durable, which is what lets
:meth:`WriteAheadLog.gc` reclaim whole segments after a checkpoint
covers them (Section 10's log "managed as a database": bounded, not
ever-growing).

Torn-write handling: a crash may leave a partial record at the tail of
the **live segment only** — sealed segments were flushed before the
roll, so damage inside one (or framing damage followed by valid data
in the live segment) is genuine corruption and raises
:class:`~repro.errors.CorruptRecordError`.  A crash can also tear the
live segment's *header* (the roll buffered it but never flushed): such
a segment has no durable records by construction, so it is durably
deleted and its predecessor becomes live again.

Flush-failure handling (panic semantics): when ``disk.flush`` raises,
the durability of everything buffered becomes unknowable — a kernel (or
our :class:`~repro.storage.faults.FaultyDisk`) may have dropped the
dirty pages.  Retrying the flush later could then silently make a
commit record durable *after* its transaction was reported as failed,
so recovery would redo a transaction the application believes never
happened.  The log therefore *panics* on the first flush failure: the
original exception propagates to the committer, and every subsequent
append or flush raises :class:`~repro.errors.WalPanicError` until the
node restarts and rebuilds the log from the durable prefix.  This is
the post-"fsyncgate" PostgreSQL policy, and it is what makes group
commit safe under I/O errors: a follower whose leader's flush failed
cannot retry the flush and accidentally promote the leader's records.
"""

from __future__ import annotations

import re
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import (
    CorruptRecordError,
    DiskCrashedError,
    StorageError,
    WalFencedError,
    WalPanicError,
)
from repro.obs import Observability, get_observability
from repro.storage.disk import Disk

_MAGIC = b"\xC4\x51"
_BATCH_MAGIC = b"\xC4\x52"
#: both magics share this first byte — the corruption probe scans for it
_MAGIC_PREFIX = b"\xC4"
_HEADER = struct.Struct(">2sII")  # magic, length, crc32
HEADER_SIZE = _HEADER.size
_SUB_LEN = struct.Struct(">I")  # per-record length inside a batch body
SUB_HEADER_SIZE = _SUB_LEN.size

_SEG_MAGIC = b"WSEG"
_SEG_HEADER = struct.Struct(">4sQI")  # magic, base lsn, crc32(magic+base)
SEGMENT_HEADER_SIZE = _SEG_HEADER.size

#: Soft segment-size bound: an append that finds the live segment at or
#: past this many record bytes rolls first.  Large enough that unit
#: tests over a handful of records never see a roll.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def _pack_segment_header(base_lsn: int) -> bytes:
    body = _SEG_MAGIC + struct.pack(">Q", base_lsn)
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def _parse_segment_header(data: bytes) -> int | None:
    """Base LSN of the segment, or None if the header is torn/invalid."""
    if len(data) < SEGMENT_HEADER_SIZE:
        return None
    magic, base, crc = _SEG_HEADER.unpack_from(data, 0)
    if magic != _SEG_MAGIC:
        return None
    if zlib.crc32(data[: SEGMENT_HEADER_SIZE - 4]) & 0xFFFFFFFF != crc:
        return None
    return base


@dataclass(frozen=True)
class WalRecord:
    """One log record as returned by a scan."""

    lsn: int
    payload: bytes
    #: stream offset just past this record's framing — differs between
    #: individually-framed records (10-byte header) and batch
    #: sub-records (4-byte sub-length); excluded from equality so
    #: hand-built ``WalRecord(lsn, payload)`` values compare by content
    end: int | None = field(default=None, compare=False)

    @property
    def next_lsn(self) -> int:
        if self.end is not None:
            return self.end
        return self.lsn + HEADER_SIZE + len(self.payload)


class WriteAheadLog:
    """Append-only log over numbered segment areas of one disk.

    Thread-safe.  ``append`` buffers; ``flush`` forces; the *flushed
    LSN* is tracked so callers can implement force-at-commit cheaply
    (skip the flush if the commit record is already durable).  Because
    a roll seals the old segment only after flushing it, a single
    ``disk.flush`` of the live segment is always enough to advance the
    flushed LSN to the append point — ``flush_until`` (group commit)
    works unchanged across segment boundaries.
    """

    def __init__(self, disk: Disk, area: str = "wal",
                 obs: Observability | None = None, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        self.disk = disk
        self.area = area
        self.segment_bytes = max(1, int(segment_bytes))
        self._lock = threading.Lock()
        #: serializes flush_until callers (see _flush_until)
        self._flush_lock = threading.Lock()
        #: (index, base_lsn) per segment, ascending; last entry is live.
        self._segs: list[tuple[int, int]] = []
        self._panic: BaseException | None = None
        self._fence_reason: str | None = None
        #: Shipping hooks (``repro.replication``): ``on_append`` hooks
        #: receive ``(lsn, framed_bytes)`` for every physical append,
        #: ``on_flush`` hooks receive the new flushed LSN after a
        #: successful force.  Both fire *while the log lock is held*, so
        #: a shipper observes appends and flushes in log order.
        self.on_append: list[Callable[[int, bytes], None]] = []
        self.on_flush: list[Callable[[int], None]] = []
        # Resume appending after the valid record prefix (restart); a
        # torn tail left by a crash is durably discarded first, because
        # appending *after* damaged framing would turn an expected torn
        # write into mid-log corruption on the next scan.
        self._next_lsn = self._open()
        self._flushed_lsn = self._next_lsn
        obs = obs if obs is not None else get_observability()
        metrics = obs.metrics
        self._flight = obs.flight
        self._m_appends = metrics.counter(
            "wal_appends_total", "physical log appends "
            "(a batch of records counts once)", ("area",)
        ).labels(area=area)
        self._m_records = metrics.counter(
            "wal_records_total", "log records appended "
            "(batch sub-records count individually)", ("area",)
        ).labels(area=area)
        self._m_bytes = metrics.counter(
            "wal_appended_bytes_total", "log bytes appended (incl. framing)", ("area",)
        ).labels(area=area)
        self._m_flushes = metrics.counter(
            "wal_flushes_total", "log forces (fsync-equivalents)", ("area",)
        ).labels(area=area)
        self._m_panics = metrics.counter(
            "wal_panics_total", "log panics after a failed flush", ("area",)
        ).labels(area=area)
        self._m_append_time = metrics.histogram(
            "wal_append_seconds", "time spent appending one record "
            "(buffering only, no force)", ("area",)
        ).labels(area=area)
        self._m_force_time = metrics.histogram(
            "wal_force_seconds", "time spent in one disk flush "
            "(the force half of force-at-commit)", ("area",)
        ).labels(area=area)
        metrics.gauge(
            "wal_segments", "live segment count per log", ("area",)
        ).labels(area=area).set_function(self.segment_count)
        metrics.gauge(
            "wal_live_bytes", "bytes across live segments per log", ("area",)
        ).labels(area=area).set_function(self.live_bytes)

    # -- segment bookkeeping -----------------------------------------------

    def _seg_area(self, index: int) -> str:
        return f"{self.area}.{index:06d}"

    @property
    def live_area(self) -> str:
        """Disk area of the live (append) segment."""
        with self._lock:
            return self._seg_area(self._segs[-1][0])

    def segments(self) -> list[str]:
        """Disk areas of all segments, oldest first."""
        with self._lock:
            return [self._seg_area(index) for index, _base in self._segs]

    def segment_count(self) -> int:
        with self._lock:
            return len(self._segs)

    def oldest_lsn(self) -> int:
        """LSN of the first record still on disk (base of the oldest
        segment); records below it have been reclaimed by :meth:`gc`."""
        with self._lock:
            return self._segs[0][1]

    def live_bytes(self) -> int:
        """Total on-disk bytes across all segments (incl. headers)."""
        with self._lock:
            areas = [self._seg_area(index) for index, _base in self._segs]
        return sum(self.disk.size(area) for area in areas)

    def _create_segment(self, index: int, base: int) -> None:
        # Buffered: the header becomes durable with the first flush that
        # covers the segment.  A crash before that leaves a headerless
        # area, which _open treats as "the roll never happened".
        self.disk.append(self._seg_area(index), _pack_segment_header(base))
        self._segs.append((index, base))

    def _open(self) -> int:
        """Discover segments, validate them, trim the live torn tail.
        Returns the append point."""
        pattern = re.compile(re.escape(self.area) + r"\.(\d{6})")
        found = sorted(
            int(match.group(1))
            for name in self.disk.areas()
            if (match := pattern.fullmatch(name)) is not None
        )
        if not found:
            self._create_segment(1, 0)
            return 0
        expected_base: int | None = None
        next_lsn = 0
        for position, index in enumerate(found):
            area = self._seg_area(index)
            last = position == len(found) - 1
            data = self.disk.read(area)
            base = _parse_segment_header(data)
            if base is None or (expected_base is not None
                                and base != expected_base):
                # A headerless *last* segment is a torn roll (the header
                # was buffered, never flushed): by construction it holds
                # no durable records, so drop it and resume on the
                # predecessor.  Anything else — a damaged header in a
                # sealed segment, a base-LSN discontinuity, or valid
                # records behind the damage — is real corruption.
                if not last or self._valid_record_after(data, 1):
                    raise CorruptRecordError(
                        f"segment {area!r} has a damaged header"
                    )
                self.disk.delete(area)
                if not self._segs:
                    self._create_segment(1, 0)
                    return 0
                return next_lsn
            pos = SEGMENT_HEADER_SIZE
            while True:
                _records, next_pos, ok = self._parse_frame(data, pos)
                if not ok:
                    break
                pos = next_pos
            if pos < len(data):
                lsn = base + pos - SEGMENT_HEADER_SIZE
                if not last or self._valid_record_after(data, pos + 1):
                    raise CorruptRecordError(
                        f"corrupt record at lsn {lsn} followed by valid data"
                    )
                self.disk.replace(area, data[:pos])
            self._segs.append((index, base))
            expected_base = base + pos - SEGMENT_HEADER_SIZE
            next_lsn = expected_base
        return next_lsn

    # -- panic state -------------------------------------------------------

    @property
    def panicked(self) -> bool:
        """True once a flush has failed; the log refuses all writes."""
        return self._panic is not None

    @property
    def panic_cause(self) -> BaseException | None:
        """The flush failure that panicked the log, if any."""
        return self._panic

    def _check_panic(self) -> None:
        # Caller holds self._lock.
        if self._panic is not None:
            raise WalPanicError(
                f"log area {self.area!r} is panicked after a failed flush"
            ) from self._panic
        if self._fence_reason is not None:
            raise WalFencedError(
                f"log area {self.area!r} is fenced: {self._fence_reason}"
            )

    # -- fencing (failover) --------------------------------------------------

    @property
    def fenced(self) -> bool:
        """True once :meth:`fence` was called; the log refuses writes."""
        return self._fence_reason is not None

    def fence(self, reason: str = "superseded by failover") -> None:
        """Refuse all further writes (append/flush/ingest/roll/gc).

        Called on a deposed primary after its standby is promoted: a
        zombie node that wakes up mid-append must not land bytes that
        diverge from the new primary's history.  Scanning stays legal —
        a fenced log is read-only, not destroyed.  Idempotent.
        """
        with self._lock:
            if self._fence_reason is None:
                self._fence_reason = reason
        self._flight.record("wal.fence", area=self.area, reason=reason)

    def _flush_disk(self) -> None:
        # Caller holds self._lock and has verified there is data to
        # force.  Only the live segment can hold unflushed bytes —
        # sealed segments were flushed by the roll that sealed them.
        # A DiskCrashedError does not panic: the crash already
        # discarded the buffers, so there is nothing a retry could
        # wrongly promote; restart/recovery handles it.
        try:
            with self._m_force_time.time():
                self.disk.flush(self._seg_area(self._segs[-1][0]))
        except DiskCrashedError:
            raise
        except (StorageError, OSError) as exc:
            self._panic = exc
            self._m_panics.inc()
            # Black-box dump: the panic is node-fatal, so this is the
            # last chance to capture what led up to it.
            self._flight.record("wal.panic", area=self.area,
                                error=type(exc).__name__, lsn=self._next_lsn)
            self._flight.auto_dump("wal-panic")
            raise
        self._flushed_lsn = self._next_lsn
        self._m_flushes.inc()
        self._flight.record("wal.force", area=self.area, lsn=self._next_lsn)
        for hook in self.on_flush:
            hook(self._flushed_lsn)

    # -- segment rolling and reclamation -----------------------------------

    def _roll_locked(self) -> None:
        if self._segs[-1][1] == self._next_lsn:
            return  # live segment holds no records yet; nothing to seal
        # Seal invariant: everything in a sealed segment is durable, so
        # later flushes only ever need to touch the live segment.
        if self._flushed_lsn < self._next_lsn:
            self._flush_disk()
        self._create_segment(self._segs[-1][0] + 1, self._next_lsn)

    def _maybe_roll_locked(self) -> None:
        if self._next_lsn - self._segs[-1][1] >= self.segment_bytes:
            self._roll_locked()

    def roll(self) -> str:
        """Seal the live segment (flushing it) and open a fresh one; a
        no-op while the live segment is empty.  Returns the live area.

        Checkpoints roll first so that the checkpoint-begin record
        opens a segment: once the checkpoint covers everything below
        it, :meth:`gc` can reclaim *all* older segments.
        """
        with self._lock:
            self._check_panic()
            self._roll_locked()
            return self._seg_area(self._segs[-1][0])

    def gc(self, keep_from_lsn: int) -> int:
        """Durably delete sealed segments wholly below ``keep_from_lsn``
        (oldest first, never the live segment).  Returns the number of
        segments reclaimed.

        Safe at any moment: a crash between deletes just leaves more
        segments for the next GC, and the base-LSN chain stays
        contiguous because reclamation is strictly oldest-first.
        """
        with self._lock:
            self._check_panic()
            reclaimed = 0
            while len(self._segs) > 1:
                index, _base = self._segs[0]
                end = self._segs[1][1]
                if end > keep_from_lsn:
                    break
                self.disk.delete(self._seg_area(index))
                self._segs.pop(0)
                reclaimed += 1
            return reclaimed

    # -- writing -----------------------------------------------------------

    def append(self, payload: bytes,
               on_lsn: Callable[[int], None] | None = None) -> int:
        """Append one record (buffered).  Returns its LSN.

        ``on_lsn`` is invoked with the record's LSN *while the log lock
        is held*: anything published there is ordered-before every
        later append (the hook :class:`~repro.transaction.log.LogManager`
        uses to keep its first-LSN table consistent with the log).
        """
        header = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        size = HEADER_SIZE + len(payload)
        with self._m_append_time.time():
            with self._lock:
                self._check_panic()
                self._maybe_roll_locked()
                lsn = self._next_lsn
                data = header + payload
                self.disk.append(self._seg_area(self._segs[-1][0]), data)
                self._next_lsn = lsn + size
                if on_lsn is not None:
                    on_lsn(lsn)
                for hook in self.on_append:
                    hook(lsn, data)
        self._m_appends.inc()
        self._m_records.inc()
        self._m_bytes.inc(size)
        return lsn

    def append_batch(self, body: bytes | bytearray | memoryview,
                     offsets: Sequence[int],
                     on_lsns: Callable[[list[int]], None] | None = None,
                     ) -> list[int]:
        """Append N pre-framed records as one batch frame: one lock
        acquisition, one CRC pass over the whole body, one disk write.

        ``body`` is the batch body — ``(sub_len | payload)*`` sub-frames
        — and ``offsets`` holds each sub-frame's start offset within it.
        :class:`~repro.transaction.log.LogManager` builds the body
        incrementally as a transaction logs updates, so publishing at
        commit needs no re-framing or per-record copies.  A
        single-record batch is written as a classic frame, so records
        that travel alone keep their own CRC.

        ``on_lsns`` is invoked with the records' LSNs *while the log
        lock is held* (the ordering contract of ``append``'s
        ``on_lsn``).  Returns the LSNs, in order.
        """
        count = len(offsets)
        if count == 0:
            return []
        if count == 1:
            payload = bytes(memoryview(body)[SUB_HEADER_SIZE:])
            data = _HEADER.pack(
                _MAGIC, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
            ) + payload
        else:
            crc = zlib.crc32(body) & 0xFFFFFFFF
            data = b"".join((_HEADER.pack(_BATCH_MAGIC, len(body), crc), body))
        size = len(data)
        with self._m_append_time.time():
            with self._lock:
                self._check_panic()
                self._maybe_roll_locked()
                first = self._next_lsn
                if count == 1:
                    lsns = [first]
                else:
                    record_base = first + HEADER_SIZE
                    lsns = [record_base + offset for offset in offsets]
                self.disk.append(self._seg_area(self._segs[-1][0]), data)
                self._next_lsn = first + size
                if on_lsns is not None:
                    on_lsns(lsns)
                for hook in self.on_append:
                    hook(first, data)
        self._m_appends.inc()
        self._m_records.inc(count)
        self._m_bytes.inc(size)
        return lsns

    def append_many(self, payloads: Iterable[bytes]) -> list[int]:
        """Append a vector of records as one batch frame (one lock
        acquisition, one CRC, one disk write).  Returns their LSNs.

        A torn tail inside the batch drops the *whole* batch (module
        docstring); the batch lands in one segment (the bound is soft).
        """
        body = bytearray()
        offsets: list[int] = []
        for payload in payloads:
            offsets.append(len(body))
            body += _SUB_LEN.pack(len(payload))
            body += payload
        return self.append_batch(body, offsets)

    def flush(self) -> None:
        """Force all appended records to stable storage.

        A failure propagates to the caller and panics the log (see
        module docstring); the flushed LSN does not advance.
        """
        with self._lock:
            self._check_panic()
            if self._flushed_lsn < self._next_lsn:
                self._flush_disk()

    def flush_until(self, lsn: int) -> int:
        """Force the record appended at ``lsn`` (and everything before
        it) to stable storage; a no-op if it is already durable.

        Because a flush forces the whole live segment (and sealed
        segments are durable by construction), the flushed LSN advances
        to the current append point, not just past ``lsn``: one flush
        covers every record appended so far.  Returns the flushed LSN.
        """
        self._flush_until(lsn)
        return self._flushed_lsn

    def _flush_until(self, lsn: int) -> bool:
        """:meth:`flush_until`, reporting whether this call ran the disk
        flush (True) or found ``lsn`` already durable (False).

        This is group commit (the force half of
        :meth:`~repro.transaction.log.LogManager._force`): one flush
        runs at a time, under the log lock, so a committer whose record
        was appended before a flush began waits here, then finds its
        record durable and returns without flushing.  If that flush
        failed, the log is panicked and the waiter gets
        :class:`~repro.errors.WalPanicError` instead.  Waiters queue on
        a lock of their own rather than on the log lock, so appends
        that were blocked by the flush land before the next flush
        starts and share it; queued on the log lock, each appender
        would mostly flush alone (docs/performance.md, *Group commit*).
        """
        with self._flush_lock:
            if self._flushed_lsn > lsn:
                return False
            with self._lock:
                self._check_panic()
                if self._flushed_lsn <= lsn and self._flushed_lsn < self._next_lsn:
                    self._flush_disk()
                    return True
                return False

    def append_flush(self, payload: bytes,
                     on_lsn: Callable[[int], None] | None = None) -> int:
        """Append one record and force it (one-call force-at-commit)."""
        lsn = self.append(payload, on_lsn=on_lsn)
        self.flush()
        return lsn

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    # -- scanning ------------------------------------------------------------

    def scan(self, from_lsn: int = 0) -> Iterator[WalRecord]:
        """Yield valid records starting at ``from_lsn``.

        ``from_lsn`` must be a record boundary — a classic frame start
        or a batch sub-record start — at or above :meth:`oldest_lsn`
        (reclaimed records cannot be scanned).  Stops silently at a
        torn tail of the live segment; raises
        :class:`CorruptRecordError` if valid data follows corruption or
        a sealed segment is damaged (mid-log damage).
        """
        with self._lock:
            segs = list(self._segs)
        for position, (index, base) in enumerate(segs):
            last = position == len(segs) - 1
            if not last and segs[position + 1][1] <= from_lsn:
                continue  # segment wholly below the scan start
            data = self.disk.read(self._seg_area(index))
            lsn_base = base - SEGMENT_HEADER_SIZE
            pos = SEGMENT_HEADER_SIZE
            while pos < len(data):
                if lsn_base + pos < from_lsn:
                    # Fast-skip frames wholly below the scan start from
                    # their headers alone (no CRC work for records the
                    # caller already consumed).  A frame *containing*
                    # ``from_lsn`` — a batch scanned from one of its
                    # sub-records — is parsed in full below and its
                    # too-early sub-records filtered out.
                    end = self._frame_end(data, pos)
                    if end is not None and lsn_base + end <= from_lsn:
                        pos = end
                        continue
                records, next_pos, ok = self._parse_frame(data, pos, lsn_base)
                if not ok:
                    lsn = lsn_base + pos
                    if not last or self._valid_record_after(data, pos + 1):
                        raise CorruptRecordError(
                            f"corrupt record at lsn {lsn} followed by valid data"
                        )
                    return
                for record in records:
                    if record.lsn >= from_lsn:
                        yield record
                pos = next_pos

    def records(self) -> list[WalRecord]:
        """All valid records, eagerly."""
        return list(self.scan())

    # -- log shipping (repro.replication) ------------------------------------

    def read_stream(self, from_lsn: int, upto_lsn: int | None = None) -> bytes:
        """Raw record-stream bytes in ``[from_lsn, upto_lsn)``.

        Segment headers are excluded — the result is a contiguous slice
        of the LSN-addressed stream, suitable for :meth:`ingest` on a
        standby's log (which frames its own segments).  ``from_lsn``
        must be at or above :meth:`oldest_lsn` (reclaimed bytes cannot
        be shipped; the shipper falls back to a full resync).
        ``upto_lsn`` defaults to the flushed LSN: only durable bytes
        ship, so a standby can never run ahead of its primary.
        """
        with self._lock:
            segs = list(self._segs)
            if upto_lsn is None:
                upto_lsn = self._flushed_lsn
        if from_lsn < segs[0][1]:
            raise ValueError(
                f"lsn {from_lsn} is below the oldest on-disk lsn "
                f"{segs[0][1]} (reclaimed by gc)"
            )
        chunks: list[bytes] = []
        for position, (index, base) in enumerate(segs):
            end = segs[position + 1][1] if position + 1 < len(segs) else None
            if end is not None and end <= from_lsn:
                continue
            if base >= upto_lsn:
                break
            stream = self.disk.read(self._seg_area(index))[SEGMENT_HEADER_SIZE:]
            lo = max(from_lsn - base, 0)
            hi = min(len(stream), upto_lsn - base)
            if hi > lo:
                chunks.append(stream[lo:hi])
        return b"".join(chunks)

    def ingest(self, data: bytes, expected_lsn: int) -> int:
        """Append raw shipped record-stream bytes (standby side).

        ``expected_lsn`` is the stream offset of ``data``'s first byte
        and must equal this log's append point — the shipper's cursor
        contract; a mismatch raises :class:`ValueError` so a buggy
        cursor cannot silently corrupt the mirror.  The bytes are
        buffered like any append; the caller flushes.  Returns the new
        append point.
        """
        with self._lock:
            self._check_panic()
            if not data:
                return self._next_lsn
            if expected_lsn != self._next_lsn:
                raise ValueError(
                    f"ingest at lsn {expected_lsn} but log area "
                    f"{self.area!r} is at lsn {self._next_lsn}"
                )
            self._maybe_roll_locked()
            self.disk.append(self._seg_area(self._segs[-1][0]), bytes(data))
            self._next_lsn += len(data)
            next_lsn = self._next_lsn
        self._m_appends.inc()
        self._m_bytes.inc(len(data))
        return next_lsn

    def reset_to(self, base_lsn: int) -> None:
        """Durably discard everything and restart the stream at
        ``base_lsn`` (which must be a frame boundary of the *source*
        stream — a segment base always is).  A standby uses this for a
        full resync when its cursor fell below the primary's
        :meth:`oldest_lsn`; the next :meth:`ingest` must start exactly
        at ``base_lsn``.
        """
        with self._lock:
            self._check_panic()
            for index, _base in self._segs:
                self.disk.delete(self._seg_area(index))
            self._segs = []
            self._create_segment(1, base_lsn)
            self._next_lsn = base_lsn
            self._flushed_lsn = base_lsn

    @staticmethod
    def _frame_end(data: bytes, pos: int) -> int | None:
        """End offset of the frame at ``pos`` from its header alone (no
        CRC verification), or None if the header is unrecognisable or
        the frame runs past the end of ``data``."""
        if pos + HEADER_SIZE > len(data):
            return None
        magic, length, _crc = _HEADER.unpack_from(data, pos)
        if magic != _MAGIC and magic != _BATCH_MAGIC:
            return None
        stop = pos + HEADER_SIZE + length
        return stop if stop <= len(data) else None

    @staticmethod
    def _parse_frame(data: bytes, pos: int,
                     lsn_base: int = 0) -> tuple[list[WalRecord], int, bool]:
        """Parse the frame at ``pos``: ``(records, next_pos, ok)``.

        ``lsn_base`` maps a buffer offset to a stream LSN (``base -
        SEGMENT_HEADER_SIZE`` for a segment buffer).  A classic frame
        yields one record; a batch frame yields one per sub-frame, all
        vouched for by the single batch CRC.  ``ok=False`` marks a
        torn or corrupt frame — for a batch, damage anywhere drops the
        *whole* batch, because the batch CRC cannot vouch for a prefix.
        """
        if pos + HEADER_SIZE > len(data):
            return [], pos, False
        magic, length, crc = _HEADER.unpack_from(data, pos)
        start = pos + HEADER_SIZE
        stop = start + length
        if stop > len(data):
            return [], pos, False
        if magic == _MAGIC:
            payload = data[start:stop]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                return [], pos, False
            return (
                [WalRecord(lsn_base + pos, payload, end=lsn_base + stop)],
                stop, True,
            )
        if magic != _BATCH_MAGIC:
            return [], pos, False
        body = memoryview(data)[start:stop]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            return [], pos, False
        records: list[WalRecord] = []
        sub = 0
        while sub < length:
            # A CRC-valid body can only be malformed through a software
            # bug; treat it as damage rather than crashing the parse.
            if sub + SUB_HEADER_SIZE > length:
                return [], pos, False
            (sub_len,) = _SUB_LEN.unpack_from(body, sub)
            sub_stop = sub + SUB_HEADER_SIZE + sub_len
            if sub_stop > length:
                return [], pos, False
            records.append(WalRecord(
                lsn_base + start + sub,
                bytes(body[sub + SUB_HEADER_SIZE:sub_stop]),
                end=lsn_base + start + sub_stop,
            ))
            sub = sub_stop
        return records, stop, True

    @classmethod
    def _valid_record_after(cls, data: bytes, start: int) -> bool:
        """Is there any parseable frame at/after ``start``?  Used to
        distinguish a torn tail (expected) from mid-log corruption."""
        pos = start
        # Bound the search: corruption checks are O(n) worst case but the
        # damaged window is normally tiny (one record).  Both frame
        # magics share their first byte, so one find covers both.
        while pos + HEADER_SIZE <= len(data):
            idx = data.find(_MAGIC_PREFIX, pos)
            if idx < 0:
                return False
            _records, _, ok = cls._parse_frame(data, idx)
            if ok:
                return True
            pos = idx + 1
        return False

    # -- truncation (checkpointing) -------------------------------------------

    def reset(self) -> None:
        """Durably discard the log (caller must have checkpointed all
        state it still needs — see :class:`repro.transaction.log.LogManager`).
        The LSN space restarts at 0."""
        with self._lock:
            # Refuse on panic: a checkpoint taken while commit durability
            # is unknowable must not destroy the durable log prefix.
            self._check_panic()
            for index, _base in self._segs:
                self.disk.delete(self._seg_area(index))
            self._segs = []
            self._create_segment(1, 0)
            self._next_lsn = 0
            self._flushed_lsn = 0
