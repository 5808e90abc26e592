"""Queue repositories (Section 4.1).

A repository is the unit of failure and recovery: one disk, one shared
log, one lock manager, one transaction manager, a set of recoverable
queues, a registration table, and any application KV tables attached to
the same node (so a server transaction spanning ``Dequeue; update
database; Enqueue`` — Figure 5 — commits atomically with a single log
force).

Data-definition operations (create/destroy/start/stop queue, create
table) are durable: each writes an auto-committed ``_dd`` record, so a
restarted repository rebuilds its catalog before replaying queue
contents.  Constructing :class:`QueueRepository` over a non-empty disk
*is* restart recovery.
"""

from __future__ import annotations

import logging
import threading
import time as _time
from dataclasses import dataclass
from typing import Any

from repro.errors import NoSuchQueueError, QueueExistsError
from repro.obs import Observability, get_observability
from repro.queueing.checkpointer import Checkpointer
from repro.queueing.queue import QueueConfig, RecoverableQueue
from repro.queueing.registration import RegistrationTable
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.storage.disk import Disk, MemDisk
from repro.storage.kvstore import KVStore
from repro.transaction.locks import LockManager
from repro.transaction.log import LogManager
from repro.transaction.manager import TransactionManager
from repro.transaction.recovery import RecoveryReport, recover

logger = logging.getLogger(__name__)

#: Buckets for the checkpoint-duration histogram (seconds).
CHECKPOINT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0
)


class _EidAllocator:
    """Repository-wide element-id allocator.

    Reserves ids in durable batches (one auto record per ``batch``
    allocations) so a crash can skip at most one batch of ids and an
    eid is never reused — element identity (Section 10) depends on it.
    """

    rm_name = "eid"

    def __init__(self, log: LogManager, batch: int = 64):
        self._log = log
        self._batch = batch
        self._next = 1
        self._limit = 1
        self._mutex = threading.Lock()

    def alloc(self) -> int:
        with self._mutex:
            if self._next >= self._limit:
                new_limit = self._next + self._batch
                self._log.log_auto(self.rm_name, {"reserve": new_limit})
                self._limit = new_limit
            eid = self._next
            self._next += 1
            return eid

    # -- resource-manager protocol ------------------------------------

    def redo(self, data: dict[str, Any]) -> None:
        with self._mutex:
            self._limit = max(self._limit, data["reserve"])
            self._next = max(self._next, self._limit)

    def snapshot(self) -> Any:
        with self._mutex:
            return {"next": self._next, "limit": self._limit}

    def restore(self, state: Any) -> None:
        with self._mutex:
            self._limit = state["limit"]
            # ``next`` in the image is a fuzzy mid-batch value:
            # allocations after the snapshot stay volatile until the
            # *next* reserve record, so resuming there could reissue
            # live eids.  Resume at the reserved limit instead — a
            # restart skips at most one batch, exactly the replay rule.
            self._next = state["limit"]


class _EpochRM:
    """Durable high-water mark of 2PC-coordinator epochs.

    The epoch itself is logged as an auto record under the pseudo-RM
    ``"_shards"`` (see :mod:`repro.queueing.sharded`).  Registering this
    tracker as a real resource manager lets fuzzy checkpoints capture
    the mark, so segment GC may reclaim the records that carried it
    without a restarted facade ever reissuing an old epoch.
    """

    rm_name = "_shards"

    def __init__(self) -> None:
        self._epoch = 0
        self._mutex = threading.Lock()

    def note(self, epoch: int) -> None:
        with self._mutex:
            self._epoch = max(self._epoch, epoch)

    @property
    def epoch(self) -> int:
        with self._mutex:
            return self._epoch

    def redo(self, data: dict[str, Any]) -> None:
        self.note(data.get("epoch", 0))

    def snapshot(self) -> Any:
        return {"epoch": self.epoch}

    def restore(self, state: Any) -> None:
        self.note(state.get("epoch", 0))


class _DecisionRM:
    """Two-phase-commit decisions by global id (pseudo-RM ``"_2pc"``).

    Decision records must outlive segment GC: an in-doubt branch on one
    shard may need a decision whose record lived on another shard's
    log.  Checkpoints snapshot this tracker, so the decision survives
    even after its auto record's segment is reclaimed.  (Presumed
    abort keeps the absence of an entry meaningful: no decision
    anywhere still means abort.)
    """

    rm_name = "_2pc"

    def __init__(self) -> None:
        self._decisions: dict[str, str] = {}
        self._mutex = threading.Lock()

    def note(self, gid: str, decision: str) -> None:
        with self._mutex:
            self._decisions[gid] = decision

    def get(self, gid: str) -> str | None:
        with self._mutex:
            return self._decisions.get(gid)

    def redo(self, data: dict[str, Any]) -> None:
        self.note(data["gid"], data["decision"])

    def snapshot(self) -> Any:
        with self._mutex:
            return dict(self._decisions)

    def restore(self, state: Any) -> None:
        with self._mutex:
            self._decisions = dict(state)


@dataclass(frozen=True)
class CheckpointStats:
    """What one fuzzy checkpoint did."""

    begin_lsn: int
    recovery_lsn: int
    #: transactions active while the snapshot was taken
    active_txns: int
    #: sealed WAL segments reclaimed by the trailing GC
    segments_removed: int


class QueueRepository:
    """One named repository of recoverable queues on one node.

    Constructing the repository over a disk that already holds a log
    (and possibly a checkpoint) performs restart recovery; over an
    empty disk it starts fresh.
    """

    rm_name = "_dd"  # the repository is itself the data-definition RM

    def __init__(
        self,
        name: str,
        disk: Disk | None = None,
        injector: FaultInjector | None = None,
        lock_manager: LockManager | None = None,
        obs: Observability | None = None,
        checkpoint_interval_bytes: int | None = None,
    ):
        self.name = name
        self.disk = disk if disk is not None else MemDisk()
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.obs = obs if obs is not None else get_observability()
        self.checkpoint_interval_bytes = checkpoint_interval_bytes
        # Size segments well below the checkpoint interval so the
        # trailing GC always has sealed segments to reclaim.
        segment_bytes = (
            None if checkpoint_interval_bytes is None
            else max(4096, checkpoint_interval_bytes // 4)
        )
        self.log = LogManager(
            self.disk, area=f"{name}.log", obs=self.obs,
            injector=self.injector, segment_bytes=segment_bytes,
        )
        self.locks = (
            lock_manager if lock_manager is not None else LockManager()
        )
        self.tm = TransactionManager(
            self.log, self.locks, self.injector, obs=self.obs, node=name
        )
        self.registration = RegistrationTable()
        self.eids = _EidAllocator(self.log)
        self.epochs = _EpochRM()
        self.decisions = _DecisionRM()
        self.queues: dict[str, RecoverableQueue] = {}
        self.tables: dict[str, KVStore] = {}
        #: name -> resource manager; mutated by _dd redo during replay
        self.rms: dict[str, Any] = {
            self.rm_name: self,
            RegistrationTable.rm_name: self.registration,
            _EidAllocator.rm_name: self.eids,
            _EpochRM.rm_name: self.epochs,
            _DecisionRM.rm_name: self.decisions,
        }
        self._dd_mutex = threading.Lock()
        #: serializes fuzzy checkpoints (manual + background driver)
        self._ckpt_mutex = threading.Lock()
        if self.injector is not NULL_INJECTOR and hasattr(self.disk, "crash"):
            # A simulated crash must freeze the disk at exactly the
            # injection point, before any harness code runs.
            self.injector.on_crash.append(lambda _point: self.disk.crash())
        recovery_started = _time.perf_counter()
        with self.obs.tracer.start_span(
            "recovery", trace_id=f"recovery-{name}", repo=name
        ) as recovery_span:
            self.last_recovery: RecoveryReport = recover(
                self.log, self.rms, self.tm, self.locks
            )
        report = self.last_recovery
        recovery_seconds = _time.perf_counter() - recovery_started
        # LSNs are record-stream byte offsets, so the replayed byte span
        # is simply append-point minus replay-start.
        replayed_bytes = max(0, self.log.wal.next_lsn - report.recovery_lsn)
        if report.checkpoint_loaded:
            # Replay covered only the log suffix above the checkpoint.
            recovery_mode = "checkpoint-suffix"
        elif report.replayed_records or report.committed:
            recovery_mode = "full-replay"
        else:
            recovery_mode = "fresh"
        recovery_span.set_attr("mode", recovery_mode)
        recovery_span.set_attr("replayed_records", report.replayed_records)
        recovery_span.set_attr("replayed_bytes", replayed_bytes)
        recovery_span.set_attr("in_doubt", len(report.in_doubt))
        self.obs.metrics.counter(
            "recovery_runs_total", "restart recoveries performed", ("repo",)
        ).labels(repo=name).inc()
        self.obs.metrics.counter(
            "recovery_replayed_records_total",
            "log records replayed by restart recoveries", ("repo",)
        ).labels(repo=name).inc(self.last_recovery.replayed_records)
        self.obs.metrics.counter(
            "recovery_replayed_bytes_total",
            "log bytes scanned above the replay start by restart "
            "recoveries", ("repo",)
        ).labels(repo=name).inc(replayed_bytes)
        self.obs.metrics.histogram(
            "recovery_duration_seconds",
            "wall time of one restart recovery (checkpoint load + "
            "replay + lock re-acquisition)", ("repo",),
            buckets=CHECKPOINT_BUCKETS,
        ).labels(repo=name).observe(recovery_seconds)
        self.obs.metrics.counter(
            "recovery_mode_total",
            "restart recoveries by replay classification", ("repo", "mode"),
        ).labels(repo=name, mode=recovery_mode).inc()
        self.obs.flight.record(
            "recovery.complete", repo=name, mode=recovery_mode,
            records=report.replayed_records, bytes=replayed_bytes,
            in_doubt=len(report.in_doubt),
        )
        self._m_checkpoints = self.obs.metrics.counter(
            "checkpoints_total", "fuzzy checkpoints completed", ("repo",)
        ).labels(repo=name)
        self._m_ckpt_duration = self.obs.metrics.histogram(
            "checkpoint_duration_seconds",
            "wall time of one fuzzy checkpoint", ("repo",),
            buckets=CHECKPOINT_BUCKETS,
        ).labels(repo=name)
        self._m_ckpt_stall = self.obs.metrics.histogram(
            "checkpoint_stall_seconds",
            "checkpoint phase that can stall writers: RM snapshots "
            "under their mutexes plus the forced end-checkpoint record",
            ("repo",),
            buckets=CHECKPOINT_BUCKETS,
        ).labels(repo=name)
        logger.debug(
            "repository %r recovered: %s", name, self.last_recovery
        )
        for queue in self.queues.values():
            queue.sweep_poisoned()
        #: background byte-triggered checkpoint driver; passive (polled
        #: by the harness) under fault injection for determinism
        self.checkpointer: Checkpointer | None = None
        if checkpoint_interval_bytes is not None:
            self.checkpointer = Checkpointer(
                self, checkpoint_interval_bytes,
                threaded=self.injector is NULL_INJECTOR,
            )

    def close(self) -> None:
        """Stop background machinery (the checkpointer thread).  The
        durable state stays ready for a future restart recovery."""
        if self.checkpointer is not None:
            self.checkpointer.stop()

    # ------------------------------------------------------------------
    # Data definition (Section 4.1: create, destroy, start, stop)
    # ------------------------------------------------------------------

    def create_queue(self, qname: str, **config: Any) -> RecoverableQueue:
        """Create a recoverable queue; durable immediately."""
        with self._dd_mutex:
            if qname in self.queues:
                raise QueueExistsError(f"queue {qname!r} already exists in {self.name!r}")
            cfg = QueueConfig(name=qname, **config)
            self.log.log_auto(self.rm_name, {"op": "mkq", "cfg": cfg.to_record()})
            queue = self._attach_queue(cfg)
        return queue

    def _attach_queue(self, cfg: QueueConfig) -> RecoverableQueue:
        queue = RecoverableQueue(cfg, self)
        self.queues[cfg.name] = queue
        self.rms[queue.rm_name] = queue
        return queue

    def destroy_queue(self, qname: str) -> None:
        """Destroy a queue and its contents; durable immediately."""
        with self._dd_mutex:
            if qname not in self.queues:
                raise NoSuchQueueError(f"no queue {qname!r} in {self.name!r}")
            self.log.log_auto(self.rm_name, {"op": "rmq", "q": qname})
            queue = self.queues.pop(qname)
            self.rms.pop(queue.rm_name, None)

    def stop_queue(self, qname: str) -> None:
        """Stop a queue, durably: a restarted repository keeps it
        stopped (Section 4.1's start/stop are data-definition ops)."""
        with self._dd_mutex:
            queue = self.get_queue(qname)
            self.log.log_auto(self.rm_name, {"op": "stopq", "q": qname})
            queue.stop()

    def start_queue(self, qname: str) -> None:
        """Restart a stopped queue, durably."""
        with self._dd_mutex:
            queue = self.get_queue(qname)
            self.log.log_auto(self.rm_name, {"op": "startq", "q": qname})
            queue.start()

    def create_table(self, tname: str) -> KVStore:
        """Attach an application KV table to this node (shares the log
        and the transaction manager, so server transactions spanning
        queue + database commit atomically)."""
        with self._dd_mutex:
            if tname in self.tables:
                return self.tables[tname]
            self.log.log_auto(self.rm_name, {"op": "mktable", "t": tname})
            return self._attach_table(tname)

    def _attach_table(self, tname: str) -> KVStore:
        table = KVStore(tname)
        self.tables[tname] = table
        self.rms[table.rm_name] = table
        return table

    def get_queue(self, qname: str) -> RecoverableQueue:
        queue = self.queues.get(qname)
        if queue is None:
            raise NoSuchQueueError(f"no queue {qname!r} in {self.name!r}")
        return queue

    def get_table(self, tname: str) -> KVStore:
        table = self.tables.get(tname)
        if table is None:
            raise NoSuchQueueError(f"no table {tname!r} in {self.name!r}")
        return table

    def queue_names(self) -> list[str]:
        return sorted(self.queues)

    def depths(self) -> dict[str, int]:
        return {name: queue.depth() for name, queue in self.queues.items()}

    # ------------------------------------------------------------------
    # Allocation / checkpointing
    # ------------------------------------------------------------------

    def alloc_eid(self) -> int:
        return self.eids.alloc()

    def checkpoint(self) -> CheckpointStats:
        """Online fuzzy checkpoint: snapshot every RM *without
        quiescence*, install the image, and GC dead log segments.

        The protocol (see ``docs/architecture.md``):

        1. roll the log and append the ``bck`` marker (LSN *B*);
        2. read the recovery floor — min of *B*, the first LSN of every
           transaction with live records, and every GC pin — **before**
           taking snapshots, so a transaction the floor has passed is
           guaranteed to have its effects already final in them;
        3. take committed-view snapshots under each RM's own mutex
           (``_dd`` first so restore rebuilds the catalog before queue
           and table images are applied) while transactions keep
           running;
        4. force the ``eck`` marker carrying the active table;
        5. atomically install the checkpoint blob (the commit point);
        6. reclaim sealed segments wholly below the recovery floor.

        Safe concurrently with commits because RM redo is idempotent:
        replay from the floor may re-apply work the snapshot already
        captured, never the reverse.
        """
        injector = self.injector
        with self._ckpt_mutex:
            started = _time.perf_counter()
            injector.reach("ckpt.begin.before")
            begin_lsn = self.log.begin_checkpoint()
            injector.reach("ckpt.begin.after")
            recovery_lsn = self.log.recovery_floor(begin_lsn)
            first = self.log.txn_first_lsns()
            active = {
                tid: first.get(tid, begin_lsn) for tid in self.tm.active_txns()
            }
            injector.reach("ckpt.snapshot.before")
            with self._m_ckpt_stall.time():
                snapshots: dict[str, Any] = {self.rm_name: self.snapshot()}
                for rm_name, rm in list(self.rms.items()):
                    if rm_name != self.rm_name:
                        snapshots[rm_name] = rm.snapshot()
                injector.reach("ckpt.snapshot.after")
                self.log.end_checkpoint(begin_lsn, active, recovery_lsn)
            injector.reach("ckpt.install.before")
            self.log.install_checkpoint(
                snapshots, begin_lsn=begin_lsn, recovery_lsn=recovery_lsn,
                next_txn_id=self.tm.next_txn_id(),
            )
            injector.reach("ckpt.install.after")
            injector.reach("ckpt.gc.before")
            removed = self.log.gc(recovery_lsn)
            injector.reach("ckpt.gc.after")
            self._m_checkpoints.inc()
            self._m_ckpt_duration.observe(_time.perf_counter() - started)
            return CheckpointStats(
                begin_lsn=begin_lsn,
                recovery_lsn=recovery_lsn,
                active_txns=len(active),
                segments_removed=removed,
            )

    # ------------------------------------------------------------------
    # Resource-manager protocol for data definition
    # ------------------------------------------------------------------

    def redo(self, data: dict[str, Any]) -> None:
        op = data["op"]
        if op == "mkq":
            cfg = QueueConfig.from_record(data["cfg"])
            if cfg.name not in self.queues:
                self._attach_queue(cfg)
        elif op == "rmq":
            queue = self.queues.pop(data["q"], None)
            if queue is not None:
                self.rms.pop(queue.rm_name, None)
        elif op == "mktable":
            if data["t"] not in self.tables:
                self._attach_table(data["t"])
        elif op == "stopq":
            queue = self.queues.get(data["q"])
            if queue is not None:
                queue.stop()
        elif op == "startq":
            queue = self.queues.get(data["q"])
            if queue is not None:
                queue.start()
        else:  # pragma: no cover - log corruption guard
            raise ValueError(f"unknown data-definition redo op {op!r}")

    def snapshot(self) -> Any:
        return {
            "queues": [q.config.to_record() for q in self.queues.values()],
            "tables": sorted(self.tables),
            "stopped": sorted(n for n, q in self.queues.items() if q.stopped),
        }

    def restore(self, state: Any) -> None:
        for record in state["queues"]:
            cfg = QueueConfig.from_record(record)
            if cfg.name not in self.queues:
                self._attach_queue(cfg)
        for tname in state["tables"]:
            if tname not in self.tables:
                self._attach_table(tname)
        for qname in state.get("stopped", []):
            queue = self.queues.get(qname)
            if queue is not None:
                queue.stop()
