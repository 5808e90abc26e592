"""Typed, shared, force-at-commit redo log.

One :class:`LogManager` serves *all* resource managers of a node over a
single :class:`~repro.storage.wal.WriteAheadLog`.  Because the commit
record is a single log append, a transaction that touches several RMs
(the server's ``Dequeue; update database; Enqueue`` of Section 5) is
atomic without any intra-node commit protocol.

Per-transaction batching
------------------------

``upd`` records are not appended to the WAL one by one: each
transaction accumulates them in a private buffer — encoded directly
into the batch body via :func:`repro.storage.codec.encode_into`, so a
record is framed exactly once and never copied between buffers — and
the commit (or prepare) publishes buffer + outcome record as **one**
WAL batch append (:meth:`~repro.storage.wal.WriteAheadLog.append_batch`):
one log-lock acquisition, one CRC pass, one disk write, then the usual
single (group-shared) force.  An abort simply drops the buffer — the
seed's abort-by-omission, made literal.  Correctness is unchanged:

* A buffered transaction has no WAL records, so a concurrent fuzzy
  checkpoint's begin marker lands *below* the batch; the transaction's
  first LSN is published under the WAL lock during the batch append
  (exactly as the seed published it during the first ``upd`` append),
  so the floor protocol in :meth:`LogManager.recovery_floor` holds
  verbatim.
* A torn batch is dropped whole at recovery, which is indistinguishable
  from the seed losing the same transaction's unflushed ``upd`` + ``cmt``
  records: the commit never returned, so the transaction must die.
* Crash points ``wal.<area>.batch_append.before`` / ``.after`` bracket
  the publish for the chaos harness (before: everything volatile;
  after: appended and forced — the transaction must survive recovery).

Group commit
------------

Every forced record (commits, prepares, outcomes, auto records, the
``eck`` marker) is appended and then passed to one
:meth:`LogManager._force`, which calls
:meth:`~repro.storage.wal.WriteAheadLog.flush_until`.  One flush runs
at a time, under the WAL lock, so concurrent committers share it: one
whose record was appended before a flush began waits for that flush,
finds the record durable and returns without flushing (a *follower*;
the committer that ran the flush is the *leader*).  ``commit()`` still
returns only after its commit record is durable, but N concurrent
commits can cost one flush instead of N (Gray, *Queues Are
Databases*).  A failed flush panics the log, so no follower is
acknowledged by it.

Crash points ``wal.<area>.group_flush.before`` / ``.after`` bracket the
flush and are reached only when the caller's record is not yet durable
(before: appended, not durable — the transaction must die; after:
durable — it must survive).

Record kinds
------------

``upd``
    A redo record for one RM update, tagged with its transaction.
    Replayed at recovery only if the transaction committed.
``cmt`` / ``abt``
    Transaction outcome.  ``cmt`` is force-flushed (force-at-commit);
    ``abt`` is advisory (an uncommitted transaction is aborted by
    omission).
``auto``
    An auto-committed update: durable and replayed unconditionally, in
    log order.  Used for state that must survive even when the
    enclosing transaction aborts — e.g. the dequeue-abort counters that
    drive the error-queue bound of Section 4.2, and the persistent
    registration records of Section 4.3 when updated outside any
    transaction (the client side of the queue "gateway").
``prep``
    Two-phase-commit branch prepared (force-flushed; carries the global
    transaction id and the locks to be re-acquired at recovery).
``out``
    Two-phase-commit outcome applied at a participant for a previously
    prepared branch.
``bck`` / ``eck``
    Fuzzy-checkpoint markers (ARIES-style).  ``bck`` opens a checkpoint
    (always the first record of a fresh segment — the checkpoint rolls
    first so segment GC can reclaim everything older); ``eck`` closes
    it, carrying the active-transaction table and the computed recovery
    LSN.  Both are bookkeeping, not redo: :meth:`LogManager.records`
    filters them out, and recovery takes its starting point from the
    installed checkpoint blob instead.

Checkpoint protocol
-------------------

:meth:`begin_checkpoint` (roll + ``bck`` at LSN *B*) → snapshot the RMs
(no quiescence; the caller takes committed-view snapshots under each
RM's own mutex) → :meth:`recovery_floor` (min of *B*, the first LSN of
every transaction with live log records, and every GC pin) →
:meth:`end_checkpoint` (forced ``eck``) → :meth:`install_checkpoint`
(atomic blob replace) → :meth:`gc` (reclaim sealed segments below the
floor).  A crash at any point leaves either the old checkpoint or the
new one installed, and in both cases every record at/above the
installed checkpoint's recovery LSN is still on disk, so
recovery-over-snapshot (idempotent redo) reconstructs the same state.

In-doubt two-phase-commit branches outlive restarts, so recovery *pins*
(:meth:`pin`) each branch at its first LSN; the pin holds the floor —
and therefore segment GC — back until the coordinator's decision
resolves the branch (:meth:`unpin`).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from time import perf_counter as _perf_counter
from typing import Any, Callable, Hashable, Iterable

from repro.errors import CheckpointError
from repro.obs import Observability, get_observability
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.storage.codec import _encode_into, _write_varint, decode, encode
from repro.storage.disk import Disk
from repro.storage.wal import SUB_HEADER_SIZE, WriteAheadLog

KIND_UPDATE = "upd"
KIND_COMMIT = "cmt"
KIND_ABORT = "abt"
KIND_AUTO = "auto"
KIND_PREPARE = "prep"
KIND_OUTCOME = "out"
KIND_BEGIN_CKPT = "bck"
KIND_END_CKPT = "eck"

#: marker kinds hidden from :meth:`LogManager.records`
_CKPT_KINDS = (KIND_BEGIN_CKPT, KIND_END_CKPT)

_CHECKPOINT_AREA_SUFFIX = ".ckpt"
#: 3: element records in the snapshots hold their body as codec bytes
#: (see :class:`repro.queueing.element.Element`); blobs of versions 1
#: and 2, with inline bodies, still load
_CHECKPOINT_VERSION = 3

#: sub-frame length prefix of a WAL batch body (see ``append_batch``)
_SUB_LEN = struct.Struct(">I")
_SUB_LEN_ZERO = b"\x00" * SUB_HEADER_SIZE


def _record_envelope(kind: str) -> bytes:
    """Codec bytes of ``{"k": kind, "t": …`` up to (excluding) the
    txn-id value — the constant prefix of every record of ``kind``."""
    raw = kind.encode("utf-8")
    return b"M\x04\x01kS" + bytes((len(raw),)) + raw + b"\x01t"


#: per-kind constant envelope prefixes (every record is the codec dict
#: ``{"k": kind, "t": txn_id, "rm": rm, "d": data}``; kind comes from a
#: closed set, so its prefix is precomputable)
_ENVELOPES = {
    kind: _record_envelope(kind)
    for kind in (KIND_UPDATE, KIND_COMMIT, KIND_ABORT, KIND_AUTO,
                 KIND_PREPARE, KIND_OUTCOME, KIND_BEGIN_CKPT, KIND_END_CKPT)
}

#: codec bytes of the str-keyed entries ``"rm": <name>`` keyed by name —
#: resource-manager names are one-per-queue/table, so the tiny closed
#: set amortizes to zero; capped as a safety valve against unbounded
#: dynamically-named areas
_RM_ENTRIES: dict[str, bytes] = {}
_RM_CACHE_CAP = 1024


def _rm_entry(rm: str) -> bytes:
    entry = _RM_ENTRIES.get(rm)
    if entry is None:
        out = bytearray(b"\x02rm")
        _encode_into(out, rm)
        entry = bytes(out)
        if len(_RM_ENTRIES) < _RM_CACHE_CAP:
            _RM_ENTRIES[rm] = entry
    return entry


class _TxnBuffer:
    """One transaction's pending ``upd`` records, pre-framed as a WAL
    batch body: records are encoded straight into ``body`` behind a
    length placeholder that is patched in place — no per-record bytes
    object, no re-framing at publish time.

    The record envelope (kind / txn id / rm keys) is written from
    precomputed byte skeletons — byte-identical to the generic codec
    encoding of the envelope dict, but without building the dict or
    walking it generically (this is the hottest encode in the system:
    every update of every transaction passes through here)."""

    __slots__ = ("body", "offsets")

    def __init__(self) -> None:
        self.body = bytearray()
        self.offsets: list[int] = []

    def add(self, kind: str, txn_id: int | None, rm: str | None,
            data: dict[str, Any]) -> int:
        """Sub-frame and append one record; returns its index."""
        body = self.body
        start = len(body)
        self.offsets.append(start)
        body += _SUB_LEN_ZERO
        body += _ENVELOPES[kind]
        if txn_id is None:
            body += b"N"
        else:
            zig = txn_id + txn_id if txn_id >= 0 else -txn_id - txn_id - 1
            body += b"I"
            if zig < 0x80:
                body.append(zig)
            else:
                _write_varint(body, zig)
        body += _rm_entry(rm) if rm is not None else b"\x02rmN"
        body += b"\x01d"
        _encode_into(body, data)
        _SUB_LEN.pack_into(body, start, len(body) - start - SUB_HEADER_SIZE)
        return len(self.offsets) - 1


@dataclass(frozen=True)
class LogRecord:
    """Decoded log record."""

    lsn: int
    kind: str
    txn_id: int | None
    rm: str | None
    data: dict[str, Any]


@dataclass(frozen=True)
class CheckpointImage:
    """A decoded checkpoint blob.

    ``recovery_lsn`` is where replay starts (0 for legacy quiescent
    checkpoints, which covered everything); ``next_txn_id`` preserves
    the transaction-id watermark even when the records that proved it
    have been reclaimed by segment GC.
    """

    rms: dict[str, Any]
    recovery_lsn: int = 0
    next_txn_id: int = 0


class LogManager:
    """Shared typed log + checkpoint area for one node."""

    def __init__(self, disk: Disk, area: str = "log",
                 obs: Observability | None = None,
                 injector: FaultInjector | None = None,
                 segment_bytes: int | None = None):
        self.disk = disk
        self.area = area
        obs = obs if obs is not None else get_observability()
        wal_kwargs = {} if segment_bytes is None else {"segment_bytes": segment_bytes}
        self.wal = WriteAheadLog(disk, area, obs=obs, **wal_kwargs)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._point_batch_before = f"wal.{area}.batch_append.before"
        self._point_batch_after = f"wal.{area}.batch_append.after"
        self._point_flush_before = f"wal.{area}.group_flush.before"
        self._point_flush_after = f"wal.{area}.group_flush.after"
        metrics = obs.metrics
        self._m_forced = metrics.counter(
            "wal_group_commit_forced_total",
            "commit forces that ran the group's flush themselves (leaders)",
            ("area",)
        ).labels(area=area)
        self._m_piggybacked = metrics.counter(
            "wal_group_commit_piggybacked_total",
            "commit forces satisfied by another transaction's flush", ("area",)
        ).labels(area=area)
        self._obs_on = obs.enabled
        wait = metrics.histogram(
            "wal_group_commit_wait_seconds",
            "time one committer spends in its commit force, by role: the "
            "leader runs the flush, a follower piggybacks on it",
            ("area", "role"),
        )
        self._m_wait_leader = wait.labels(area=area, role="leader")
        self._m_wait_follower = wait.labels(area=area, role="follower")
        self._lock = threading.Lock()
        #: per-transaction batch buffers: ``upd`` records parked here
        #: until the commit/prepare publishes them as one WAL batch
        self._buffers: dict[int, _TxnBuffer] = {}
        #: first LSN of every transaction with records in the live log
        self._txn_first: dict[int, int] = {}
        #: GC pins: floor contributions that outlive transactions
        #: (in-doubt 2PC branches awaiting their coordinator)
        self._pins: dict[Hashable, int] = {}
        #: LSN of the last installed checkpoint's begin record — the
        #: base of the bytes-since-checkpoint trigger.  Starts at the
        #: oldest on-disk LSN so a restarted node measures from what it
        #: actually still carries.
        self._ckpt_base = self.wal.oldest_lsn()
        #: counters for benchmarks
        self.update_records = 0
        self.commit_records = 0

    # -- writing ------------------------------------------------------------

    def _append(self, kind: str, txn_id: int | None, rm: str | None,
                data: dict[str, Any], *, flush: bool,
                on_lsn: Callable[[int], None] | None = None) -> int:
        payload = encode({"k": kind, "t": txn_id, "rm": rm, "d": data})
        if on_lsn is None and txn_id is not None and kind in (KIND_UPDATE, KIND_PREPARE):
            # Publish the transaction's first LSN under the WAL lock:
            # a checkpoint that appends its begin marker *after* this
            # record is thereby guaranteed to see the entry when it
            # reads the table, so its recovery floor covers us.
            def on_lsn(lsn: int, txn_id: int = txn_id) -> None:
                with self._lock:
                    self._txn_first.setdefault(txn_id, lsn)
        lsn = self.wal.append(payload, on_lsn=on_lsn)
        if flush:
            self._force(lsn)
        return lsn

    def _force(self, lsn: int) -> None:
        """Force-at-commit: return once the record appended at ``lsn``
        is durable, leading a flush or piggybacking on one (module
        docstring, *Group commit*)."""
        start = _perf_counter() if self._obs_on else 0.0
        if self.wal.flushed_lsn <= lsn:
            self.injector.reach(self._point_flush_before)
            if self.wal._flush_until(lsn):
                self.injector.reach(self._point_flush_after)
                self._m_forced.inc()
                if self._obs_on:
                    self._m_wait_leader.observe(_perf_counter() - start)
                return
        self._m_piggybacked.inc()
        if self._obs_on:
            self._m_wait_follower.observe(_perf_counter() - start)

    def _publish(self, buf: _TxnBuffer, kind: str, txn_id: int,
                 data: dict[str, Any]) -> int:
        """Append ``buf``'s records plus the closing ``kind`` record as
        one forced WAL batch; returns the closing record's LSN.

        The transaction's first LSN is published under the WAL lock
        during the append — the same window the seed used for the first
        ``upd`` append — so a concurrent fuzzy checkpoint either sees
        the entry or has its begin marker below the whole batch.
        """
        buf.add(kind, txn_id, None, data)

        def on_lsns(lsns: list[int], txn_id: int = txn_id) -> None:
            with self._lock:
                self._txn_first.setdefault(txn_id, lsns[0])

        self.injector.reach(self._point_batch_before)
        lsns = self.wal.append_batch(buf.body, buf.offsets, on_lsns=on_lsns)
        # Forcing the last record forces the whole batch.
        self._force(lsns[-1])
        self.injector.reach(self._point_batch_after)
        return lsns[-1]

    def _take_buffer(self, txn_id: int) -> _TxnBuffer | None:
        with self._lock:
            return self._buffers.pop(txn_id, None)

    def log_update(self, txn_id: int, rm: str, data: dict[str, Any]) -> int:
        """Buffer one redo record in the transaction's batch; it reaches
        the WAL with the commit/prepare publish (durability still comes
        with the commit flush).  Returns the record's index within the
        batch — its LSN exists only once the batch is published."""
        self.update_records += 1
        with self._lock:
            buf = self._buffers.get(txn_id)
            if buf is None:
                buf = self._buffers[txn_id] = _TxnBuffer()
            return buf.add(KIND_UPDATE, txn_id, rm, data)

    def log_auto(self, rm: str, data: dict[str, Any],
                 on_lsn: Callable[[int], None] | None = None) -> int:
        """Auto-committed update: immediately durable, replayed always.

        ``on_lsn`` runs under the WAL lock at append time — callers
        mirroring the record into volatile tracker state (2PC decisions,
        coordinator epochs) use it so a concurrent fuzzy checkpoint
        either snapshots the mirrored state or replays the record, never
        neither."""
        return self._append(KIND_AUTO, None, rm, data, flush=True, on_lsn=on_lsn)

    def log_commit(self, txn_id: int) -> int:
        """Force-at-commit: the transaction's buffered updates and its
        commit record become durable together, as one batch append and
        one (group-shared) flush."""
        self.commit_records += 1
        buf = self._take_buffer(txn_id)
        if buf is None:
            return self._append(KIND_COMMIT, txn_id, None, {}, flush=True)
        return self._publish(buf, KIND_COMMIT, txn_id, {})

    def log_abort(self, txn_id: int, reason: str = "") -> int:
        # Abort-by-omission, literally: the buffered updates never
        # reach the WAL.  The advisory ``abt`` record still does.
        self._take_buffer(txn_id)
        return self._append(KIND_ABORT, txn_id, None, {"reason": reason}, flush=False)

    def log_prepare(self, txn_id: int, global_id: str, locks: list[str]) -> int:
        data = {"gid": global_id, "locks": locks}
        buf = self._take_buffer(txn_id)
        if buf is None:
            return self._append(KIND_PREPARE, txn_id, None, data, flush=True)
        return self._publish(buf, KIND_PREPARE, txn_id, data)

    def log_outcome(self, txn_id: int, decision: str) -> int:
        return self._append(KIND_OUTCOME, txn_id, None, {"decision": decision}, flush=True)

    # -- fencing (failover) --------------------------------------------------

    def fence(self, reason: str = "superseded by failover") -> None:
        """Fence the underlying WAL (see
        :meth:`repro.storage.wal.WriteAheadLog.fence`): after a standby
        promotion the deposed primary's commits must fail rather than
        diverge.  Any in-flight transaction hits
        :class:`~repro.errors.WalFencedError` on its next log write,
        which the existing storage-error handling turns into an abort."""
        self.wal.fence(reason)

    # -- transaction / pin bookkeeping --------------------------------------

    def forget_txn(self, txn_id: int) -> None:
        """Drop the first-LSN entry of a finished transaction, letting
        future checkpoints advance their recovery floor past it (and
        discard any batch buffer it left behind)."""
        with self._lock:
            self._txn_first.pop(txn_id, None)
            self._buffers.pop(txn_id, None)

    def txn_first_lsns(self) -> dict[int, int]:
        """First LSN per transaction with live records (copy)."""
        with self._lock:
            return dict(self._txn_first)

    def pin(self, key: Hashable, lsn: int) -> None:
        """Hold the recovery floor (and segment GC) at or below ``lsn``
        until :meth:`unpin` — used for in-doubt 2PC branches whose redo
        records must survive until the coordinator decides."""
        with self._lock:
            existing = self._pins.get(key)
            self._pins[key] = lsn if existing is None else min(existing, lsn)

    def unpin(self, key: Hashable) -> None:
        with self._lock:
            self._pins.pop(key, None)

    def pins(self) -> dict[Hashable, int]:
        with self._lock:
            return dict(self._pins)

    # -- reading ------------------------------------------------------------

    def records(self, from_lsn: int = 0) -> list[LogRecord]:
        """All durable+buffered records from ``from_lsn``, in order
        (live view).  Checkpoint markers are internal and filtered out."""
        out = []
        for raw in self.wal.scan(from_lsn):
            body = decode(raw.payload)
            if body["k"] in _CKPT_KINDS:
                continue
            out.append(
                LogRecord(raw.lsn, body["k"], body["t"], body["rm"], body["d"])
            )
        return out

    # -- checkpointing ----------------------------------------------------------

    @property
    def checkpoint_area(self) -> str:
        return self.area + _CHECKPOINT_AREA_SUFFIX

    def bytes_since_checkpoint(self) -> int:
        """Record bytes appended since the last installed checkpoint —
        the checkpointer's trigger.  Measured from the checkpoint-begin
        LSN (not the recovery floor), so one long-running transaction
        cannot livelock the trigger."""
        return self.wal.next_lsn - self._ckpt_base

    def begin_checkpoint(self) -> int:
        """Open a fuzzy checkpoint: roll to a fresh segment and append
        the ``bck`` marker as its first record.  Returns *B*, the
        checkpoint-begin LSN."""
        self.wal.roll()
        return self._append(KIND_BEGIN_CKPT, None, None, {}, flush=False)

    def recovery_floor(self, begin_lsn: int) -> int:
        """Where replay must start for a checkpoint begun at
        ``begin_lsn``: the minimum of *B*, the first LSN of every
        transaction with live records, and every pin.

        Safe to read after the ``bck`` append: any transaction whose
        first record precedes *B* published its entry under the WAL
        lock before that append completed, and any transaction missing
        from the table writes its first record above *B*.
        """
        floor = begin_lsn
        with self._lock:
            for lsn in self._txn_first.values():
                floor = min(floor, lsn)
            for lsn in self._pins.values():
                floor = min(floor, lsn)
        return floor

    def end_checkpoint(self, begin_lsn: int, active: dict[int, int],
                       recovery_lsn: int) -> int:
        """Close the checkpoint with a forced ``eck`` marker carrying
        the active-transaction table (txn id → first LSN) and the
        computed recovery LSN."""
        data = {
            "b": begin_lsn,
            "r": recovery_lsn,
            # codec dict keys must be strings: encode as pairs.
            "active": [[tid, lsn] for tid, lsn in sorted(active.items())],
        }
        return self._append(KIND_END_CKPT, None, None, data, flush=True)

    def install_checkpoint(self, snapshots: dict[str, Any], *,
                           begin_lsn: int, recovery_lsn: int,
                           next_txn_id: int) -> None:
        """Atomically persist the checkpoint blob.  The single
        ``disk.replace`` is the commit point of the whole checkpoint:
        before it the old checkpoint governs recovery, after it the new
        one does, and both are consistent with the (not yet GC'd) log."""
        self.disk.replace(self.checkpoint_area, encode({
            "v": _CHECKPOINT_VERSION,
            "recovery_lsn": recovery_lsn,
            "next_txn_id": next_txn_id,
            "rms": snapshots,
        }))
        self._ckpt_base = begin_lsn

    def gc(self, recovery_lsn: int) -> int:
        """Reclaim sealed segments wholly below ``recovery_lsn``."""
        return self.wal.gc(recovery_lsn)

    def write_checkpoint(self, snapshots: dict[str, Any]) -> None:
        """Quiescent one-shot checkpoint (callers with no concurrent
        transactions): begin, close with an empty active table, install,
        and GC in one call."""
        begin_lsn = self.begin_checkpoint()
        recovery_lsn = self.recovery_floor(begin_lsn)
        self.end_checkpoint(begin_lsn, {}, recovery_lsn)
        self.install_checkpoint(
            snapshots, begin_lsn=begin_lsn, recovery_lsn=recovery_lsn,
            next_txn_id=0,
        )
        self.gc(recovery_lsn)

    def load_checkpoint(self) -> CheckpointImage | None:
        """The installed checkpoint, or None.  Accepts legacy (v1)
        blobs, which have no recovery LSN (replay starts at 0)."""
        raw = self.disk.read(self.checkpoint_area)
        if not raw:
            return None
        try:
            body = decode(raw)
            return CheckpointImage(
                rms=body["rms"],
                recovery_lsn=body.get("recovery_lsn", 0),
                next_txn_id=body.get("next_txn_id", 0),
            )
        except CheckpointError:
            raise
        except Exception as exc:  # codec error -> unusable checkpoint
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc

    def read_checkpoint(self) -> dict[str, Any] | None:
        """RM snapshots of the installed checkpoint, or None."""
        image = self.load_checkpoint()
        return None if image is None else image.rms

    # -- analysis helpers (used by recovery) ---------------------------------------

    def committed_txns(self, records: Iterable[LogRecord] | None = None) -> set[int]:
        recs = self.records() if records is None else records
        return {r.txn_id for r in recs if r.kind == KIND_COMMIT and r.txn_id is not None}

    def outcome_decisions(self, records: Iterable[LogRecord] | None = None) -> dict[int, str]:
        recs = self.records() if records is None else records
        return {
            r.txn_id: r.data["decision"]
            for r in recs
            if r.kind == KIND_OUTCOME and r.txn_id is not None
        }
