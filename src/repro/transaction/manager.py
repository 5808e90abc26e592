"""Transaction manager: begin / commit / abort with strict 2PL.

Design (see DESIGN.md §5):

* **Redo-only WAL, in-memory undo.**  An RM applies each update to its
  volatile state immediately after logging a redo record.  Commit
  writes + forces one ``cmt`` record (force-at-commit); the force is
  the log's group commit (:meth:`repro.transaction.log.LogManager._force`),
  so concurrent committers share a single flush while ``commit()``
  still returns only after the record is durable.  Abort runs the transaction's in-memory undo stack in
  reverse.  A crash simply discards volatile state; recovery replays
  only committed records, so uncommitted work vanishes with no undo
  pass.
* **Strict two-phase locking.**  Locks are acquired through the
  transaction and released only at commit/abort (or transferred to a
  successor — Section 6's lock inheritance).
* **Hooks.**  ``on_commit`` / ``on_abort`` callbacks run after the
  outcome is decided and logged; the queue manager uses them to make
  elements visible, wake blocked dequeuers, return aborted dequeues to
  their queue, and bump durable abort counters for the error-queue
  bound of Section 4.2.

Crash points (for the crash-at-every-step harness):

* ``tm.commit.before_log`` — all work done, commit record not yet
  durable: the transaction must roll back at recovery.
* ``tm.commit.after_log`` — commit record durable, hooks/locks not yet
  processed: the transaction must be durable at recovery.
* ``tm.abort.before_undo`` / ``tm.abort.after_undo``.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import InvalidTransactionState, StorageError, TransactionAborted
from repro.obs import Observability, get_observability
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.transaction.cc import ConcurrencyControl, TwoPhaseLockingCC
from repro.transaction.ids import TxnStatus
from repro.transaction.locks import LockManager, LockMode
from repro.transaction.log import LogManager


class Transaction:
    """One transaction.  Not thread-safe: a transaction belongs to the
    single thread (simulated process) executing it."""

    def __init__(
        self,
        tm: "TransactionManager",
        txn_id: int,
        cc: ConcurrencyControl | None = None,
    ):
        self.tm = tm
        self.id = txn_id
        #: concurrency-control strategy this transaction runs under;
        #: defaults to the manager's (strict 2PL), overridden per
        #: transaction by the deterministic lane.
        self.cc = cc if cc is not None else tm.cc
        self.status = TxnStatus.ACTIVE
        self._undo: list[Callable[[], None]] = []
        self._on_commit: list[Callable[[], None]] = []
        self._on_abort: list[Callable[[], None]] = []
        #: global id when this is a two-phase-commit branch
        self.global_id: str | None = None
        #: begin time for the txn-duration histogram (set iff observing)
        self._started: float | None = _time.perf_counter() if tm._obs_on else None

    # -- resource-manager interface -----------------------------------------

    def require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise InvalidTransactionState(
                f"transaction {self.id} is {self.status.value}, not active"
            )

    def lock(self, resource: str, mode: LockMode) -> None:
        """Acquire a lock on behalf of this transaction (strict 2PL:
        released only at end of transaction)."""
        self.require_active()
        try:
            self.cc.acquire(self.id, resource, mode)
        except Exception:
            # Deadlock/timeout: caller decides whether to abort; the lock
            # was not granted, so no cleanup is needed here.
            raise

    def log_update(self, rm: str, data: dict[str, Any]) -> int:
        self.require_active()
        return self.tm.log.log_update(self.id, rm, data)

    def add_undo(self, fn: Callable[[], None]) -> None:
        """Register a closure that reverses one volatile update."""
        self.require_active()
        self._undo.append(fn)

    def on_commit(self, fn: Callable[[], None]) -> None:
        self._on_commit.append(fn)

    def on_abort(self, fn: Callable[[], None]) -> None:
        self._on_abort.append(fn)

    # -- outcomes -------------------------------------------------------------

    def commit(self) -> None:
        self.tm.commit(self)

    def abort(self, reason: str = "application abort") -> None:
        self.tm.abort(self, reason)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Transaction(id={self.id}, status={self.status.value})"


class TransactionManager:
    """Per-node transaction manager."""

    def __init__(
        self,
        log: LogManager,
        locks: LockManager | None = None,
        injector: FaultInjector | None = None,
        obs: Observability | None = None,
        node: str = "node",
    ):
        self.log = log
        self.locks = locks if locks is not None else LockManager()
        #: default concurrency-control strategy (strict 2PL over the
        #: node's lock table); individual transactions may carry a
        #: different strategy (``begin(cc=...)``).
        self.cc: ConcurrencyControl = TwoPhaseLockingCC(self.locks, obs=obs)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._next_id = 1
        self._mutex = threading.Lock()
        self._active: dict[int, Transaction] = {}
        #: counters for benchmarks
        self.commits = 0
        self.aborts = 0
        obs = obs if obs is not None else get_observability()
        self._obs_on = obs.enabled
        self._node = node
        self._flight = obs.flight
        metrics = obs.metrics
        self._m_commits = metrics.counter(
            "txn_commits_total", "committed transactions", ("node",)
        ).labels(node=node)
        self._m_aborts = metrics.counter(
            "txn_aborts_total", "aborted transactions", ("node",)
        ).labels(node=node)
        self._m_active = metrics.gauge(
            "txn_active", "currently active transactions", ("node",)
        ).labels(node=node)
        self._m_duration = metrics.histogram(
            "txn_duration_seconds", "begin-to-outcome transaction time", ("node",)
        ).labels(node=node)
        self._lane_counter = metrics.counter(
            "txn_lane_total",
            "transactions completed per concurrency-control lane",
            ("node", "lane"),
        )
        self._m_lane: dict[str, Any] = {}
        if self._obs_on:
            self._m_active.set_function(lambda: len(self._active))

    # -- lifecycle -------------------------------------------------------------

    def begin(self, cc: ConcurrencyControl | None = None) -> Transaction:
        with self._mutex:
            txn_id = self._next_id
            self._next_id += 1
            txn = Transaction(self, txn_id, cc=cc)
            self._active[txn_id] = txn
            return txn

    def set_next_id(self, next_id: int) -> None:
        """Recovery hook: resume ids after the highest one in the log so
        restarted nodes never reuse a transaction id."""
        with self._mutex:
            self._next_id = max(self._next_id, next_id)

    def commit(self, txn: Transaction) -> None:
        """Commit: force the log (coalesced with concurrent commits by
        the group committer), then release locks and fire hooks."""
        txn.require_active()
        self.injector.reach("tm.commit.before_log")
        try:
            self.log.log_commit(txn.id)
        except StorageError as exc:
            # The commit record may or may not be durable (the WAL has
            # panicked, so no later flush can quietly promote it).  The
            # transaction cannot be acknowledged: abort it so its locks
            # are released and its volatile effects are undone, and let
            # the storage error reach the caller.  If the record *did*
            # reach the platter, recovery will redo the work — the
            # request-level idempotence of the queue protocols absorbs
            # that, exactly as it absorbs a crash after ``after_log``.
            self._hard_abort(txn, f"commit force failed: {exc}")
            raise
        self.injector.reach("tm.commit.after_log")
        txn.status = TxnStatus.COMMITTED
        if self._obs_on:
            self._flight.record("txn.commit", node=self._node, txn=txn.id)
        self._finish(txn, txn._on_commit)
        self.commits += 1
        self._observe_outcome(txn, self._m_commits)

    def abort(self, txn: Transaction, reason: str = "application abort") -> None:
        """Abort: reverse volatile effects, then release locks and fire
        abort hooks (queue elements return to their queues here)."""
        if txn.status is TxnStatus.ABORTED:
            return
        if txn.status is TxnStatus.COMMITTED:
            raise InvalidTransactionState(f"transaction {txn.id} already committed")
        self.injector.reach("tm.abort.before_undo")
        for undo in reversed(txn._undo):
            undo()
        self.injector.reach("tm.abort.after_undo")
        try:
            self.log.log_abort(txn.id, reason)
        except StorageError:
            # The abort record is an optimization (recovery treats a
            # missing outcome as abort), so a failing log must not block
            # the undo/lock-release path — that would wedge the node.
            pass
        txn.status = TxnStatus.ABORTED
        if self._obs_on:
            self._flight.record("txn.abort", node=self._node, txn=txn.id,
                                reason=reason)
        self._finish(txn, txn._on_abort)
        self.aborts += 1
        self._observe_outcome(txn, self._m_aborts)

    def _hard_abort(self, txn: Transaction, reason: str) -> None:
        """Abort after a failed commit force: undo, release, and report
        — without requiring the (possibly panicked) log to cooperate."""
        for undo in reversed(txn._undo):
            undo()
        try:
            self.log.log_abort(txn.id, reason)
        except StorageError:
            pass
        txn.status = TxnStatus.ABORTED
        if self._obs_on:
            self._flight.record("txn.hard_abort", node=self._node,
                                txn=txn.id, reason=reason)
        self._finish(txn, txn._on_abort)
        self.aborts += 1
        self._observe_outcome(txn, self._m_aborts)

    def _observe_outcome(self, txn: Transaction, counter) -> None:
        counter.inc()
        lane = txn.cc.lane
        m_lane = self._m_lane.get(lane)
        if m_lane is None:
            m_lane = self._lane_counter.labels(node=self._node, lane=lane)
            self._m_lane[lane] = m_lane
        m_lane.inc()
        if txn._started is not None:
            self._m_duration.observe(_time.perf_counter() - txn._started)

    def abort_by_id(self, txn_id: int, reason: str = "external abort") -> bool:
        """Abort an active transaction by id.

        Used by Section 7's Kill_element: "If it was dequeued by a
        transaction that has not yet committed, the transaction is
        aborted".  Returns False if no such active transaction exists.
        The owning process discovers the abort on its next operation
        (``require_active`` raises).
        """
        with self._mutex:
            txn = self._active.get(txn_id)
        if txn is None:
            return False
        self.abort(txn, reason)
        return True

    def active_txns(self) -> list[int]:
        """Ids of currently active (incl. prepared) transactions — the
        active-transaction table a fuzzy checkpoint records."""
        with self._mutex:
            return sorted(self._active)

    def next_txn_id(self) -> int:
        """The id the next ``begin()`` would hand out — the watermark a
        checkpoint persists so restarted nodes never reuse ids whose
        records were GC'd with their segments."""
        with self._mutex:
            return self._next_id

    def _finish(self, txn: Transaction, hooks: list[Callable[[], None]]) -> None:
        # Hooks run while locks are still held so that, e.g., a returned
        # queue element becomes visible atomically with the lock release
        # that follows.  They run *before* the transaction leaves the
        # active table: a fuzzy checkpoint that no longer sees the
        # transaction as active may rely on its snapshot-visible effects
        # being final (the RMs' committed-view snapshot bookkeeping is
        # cleaned up by these hooks).
        for hook in hooks:
            hook()
        with self._mutex:
            self._active.pop(txn.id, None)
        self.log.forget_txn(txn.id)
        txn.cc.release_all(txn.id)
        txn._undo.clear()

    # -- two-phase-commit branch support ------------------------------------------

    def prepare(self, txn: Transaction, global_id: str) -> None:
        """Make the branch durable while keeping its locks (2PC phase 1)."""
        txn.require_active()
        locks = sorted(txn.cc.held_by(txn.id))
        self.injector.reach("tm.prepare.before_log")
        self.log.log_prepare(txn.id, global_id, locks)
        self.injector.reach("tm.prepare.after_log")
        txn.status = TxnStatus.PREPARED
        txn.global_id = global_id
        if self._obs_on:
            self._flight.record("txn.prepare", node=self._node, txn=txn.id,
                                gid=global_id)

    def commit_prepared(self, txn: Transaction) -> None:
        if txn.status is not TxnStatus.PREPARED:
            raise InvalidTransactionState(
                f"transaction {txn.id} is {txn.status.value}, not prepared"
            )
        self.log.log_outcome(txn.id, "commit")
        txn.status = TxnStatus.COMMITTED
        if self._obs_on:
            self._flight.record("txn.commit_prepared", node=self._node,
                                txn=txn.id, gid=txn.global_id)
        self._finish(txn, txn._on_commit)
        self.commits += 1
        self._observe_outcome(txn, self._m_commits)

    def abort_prepared(self, txn: Transaction) -> None:
        if txn.status is not TxnStatus.PREPARED:
            raise InvalidTransactionState(
                f"transaction {txn.id} is {txn.status.value}, not prepared"
            )
        self.log.log_outcome(txn.id, "abort")
        for undo in reversed(txn._undo):
            undo()
        txn.status = TxnStatus.ABORTED
        if self._obs_on:
            self._flight.record("txn.abort_prepared", node=self._node,
                                txn=txn.id, gid=txn.global_id)
        self._finish(txn, txn._on_abort)
        self.aborts += 1
        self._observe_outcome(txn, self._m_aborts)

    # -- conveniences ---------------------------------------------------------------

    @contextmanager
    def transaction(
        self, cc: ConcurrencyControl | None = None
    ) -> Iterator[Transaction]:
        """``with tm.transaction() as txn:`` — commit on success, abort on
        any exception (the exception is re-raised)."""
        txn = self.begin(cc=cc)
        try:
            yield txn
        except BaseException as exc:
            if txn.status is TxnStatus.ACTIVE:
                # A SimulatedCrash must not trigger a graceful abort: the
                # "process" is gone.  Volatile state is discarded wholesale
                # by the harness, which is equivalent.
                from repro.errors import SimulatedCrash

                if not isinstance(exc, SimulatedCrash):
                    self.abort(txn, reason=f"{type(exc).__name__}: {exc}")
            raise
        else:
            if txn.status is TxnStatus.ACTIVE:
                self.commit(txn)
            elif txn.status is TxnStatus.ABORTED:
                # Externally aborted (e.g. Kill_element) while the body
                # ran: the work is gone, the caller must know.
                raise TransactionAborted(txn.id, "aborted externally")

    def run(self, fn: Callable[[Transaction], Any], attempts: int = 3) -> Any:
        """Run ``fn`` in a transaction, retrying on deadlock up to
        ``attempts`` times."""
        from repro.errors import DeadlockError

        last: Exception | None = None
        for _ in range(attempts):
            try:
                with self.transaction() as txn:
                    return fn(txn)
            except DeadlockError as exc:
                last = exc
        raise TransactionAborted(None, f"deadlock retries exhausted: {last}")
