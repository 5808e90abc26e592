"""Driver-side stubs for the TCP shard deployment.

The design rule of this module: **reuse the routing layer, replace the
medium**.  :class:`~repro.transaction.routing.ShardedTransactionManager`
and :class:`~repro.transaction.routing.RoutedTransaction` already know
how to pick a commit protocol from the branch set (0 branches → no-op,
1 → single shard force, ≥2 → presumed-abort two-phase commit with the
first-touched shard coordinating).  Here they run unchanged — their
``shard_tm(i)`` just returns a :class:`RemoteShardTM` whose branches
live in another OS process, and their per-shard coordinator is a
:class:`RemoteTwoPhaseCoordinator` that forces the decision record on
the coordinator *shard's* log over the wire.  The queue-manager stub
is reused too: :class:`RemoteShardedQueueManager` only overrides the
two routing hooks of :class:`repro.comm.remote.RemoteQueueManager`,
where the operation bodies and wire payloads live.

Branches cost no calls of their own on the common path.
:meth:`RemoteShardTM.begin` is local: it returns an unopened
:class:`RemoteBranch`, and the first queue operation sent in it opens
it on the shard (``"txn": "new"``, see :mod:`repro.comm.remote`).  An
``enqueue(..., final=True)`` in a transaction that is one branch carries
the commit, after which :meth:`RemoteShardTM.commit` has nothing left to
send — Figure 5's server transaction is two wire calls, its two queue
operations.  A transaction with two branches commits by the two-phase
path below, unchanged.

Branch-status mirroring: a :class:`RemoteBranch` keeps a client-side
copy of the server transaction's status, updated by the outcome of
each wire call, because the routing layer steers on ``branch.status``.
The server remains authoritative — a mirror can only lag in ways the
protocol already tolerates (e.g. an externally-aborted branch is
discovered at commit time as :class:`TransactionAborted`).

Failure mapping (the same taxonomy in-proc callers see):

* a dead shard surfaces as :class:`PartitionedError`/:class:`RpcTimeout`
  from the transport, classified retryable by servers and clerks;
* a commit whose reply was lost — ``txn_commit``'s or the final
  enqueue's that carried it — is *unknown*: the caller retries the
  whole request transaction, and the queue discipline (tagged
  operations, dequeue redelivery) makes the end result exactly-once —
  the paper's argument, now over a real wire;
* an opening operation whose reply was lost may have opened a branch
  nobody can name: it holds its locks (a dequeued element) until the
  shard restarts and recovery aborts it — the element is delayed,
  never lost (ROADMAP item 5(ii) is the lease that would reclaim it
  sooner);
* a coordinator crash between decision and phase 2 leaves branches
  prepared on live shards; :meth:`RemoteTwoPhaseCoordinator.commit`
  polls the restarted coordinator for the durable decision (presumed
  abort if none survived) and finishes phase 2, raising
  :class:`TwoPhaseInDoubtError` only if the coordinator stays
  unreachable.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Mapping
from typing import Any, Callable, Iterator

from repro.comm.remote import RemoteQueueManager, op_create_queue, op_depth
from repro.comm.transport import TcpTransport, Transport
from repro.comm.wire import unwrap
from repro.errors import (
    CommError,
    InvalidTransactionState,
    NoSuchQueueError,
    QueueExistsError,
    ReproError,
    StorageError,
    TransactionAborted,
    TwoPhaseCommitError,
    TwoPhaseInDoubtError,
)
from repro.obs import Observability
from repro.queueing.placement import ConsistentHashPlacement, PlacementPolicy
from repro.queueing.queue import DequeueMode
from repro.transaction.ids import TxnStatus
from repro.transaction.routing import RoutedTransaction, ShardedTransactionManager


class ShardClient:
    """Thin typed wrapper: one transport to one shard service.

    With an :class:`~repro.obs.Observability`, every call lands in the
    ``rpc_client_seconds`` histogram and the transport's byte counters
    feed ``rpc_client_bytes_total`` — the wire-level cost ledger the
    ``network`` section of ``python -m repro.obs.report`` renders.
    """

    def __init__(self, transport: Transport, obs: Observability | None = None,
                 node: str = "reqnode", shard: int = 0):
        self.transport = transport
        self._m_latency = None
        if obs is not None and obs.enabled:
            metrics = obs.metrics
            self._m_latency = metrics.histogram(
                "rpc_client_seconds",
                "driver-side wire call round-trip", ("node", "shard"),
            ).labels(node=node, shard=str(shard))
            bytes_total = metrics.counter(
                "rpc_client_bytes_total",
                "driver-side wire bytes by direction",
                ("node", "shard", "direction"),
            )
            self._m_sent = bytes_total.labels(
                node=node, shard=str(shard), direction="sent")
            self._m_received = bytes_total.labels(
                node=node, shard=str(shard), direction="received")
            self._seen_sent = 0
            self._seen_received = 0
            self._metric_mutex = threading.Lock()

    def _observe(self, elapsed: float) -> None:
        self._m_latency.observe(elapsed)
        sent = getattr(self.transport, "bytes_sent", 0)
        received = getattr(self.transport, "bytes_received", 0)
        with self._metric_mutex:
            delta_sent, self._seen_sent = sent - self._seen_sent, sent
            delta_received = received - self._seen_received
            self._seen_received = received
        if delta_sent > 0:
            self._m_sent.inc(delta_sent)
        if delta_received > 0:
            self._m_received.inc(delta_received)

    def call(self, payload: dict[str, Any], timeout: float | None = None,
             retries: int | None = None) -> Any:
        if self._m_latency is None:
            return unwrap(
                self.transport.request(
                    payload, timeout=timeout, retries=retries)
            )
        started = time.perf_counter()
        try:
            return unwrap(
                self.transport.request(
                    payload, timeout=timeout, retries=retries)
            )
        finally:
            self._observe(time.perf_counter() - started)

    def close(self) -> None:
        self.transport.close()


# ---------------------------------------------------------------------------
# Remote transaction branches
# ---------------------------------------------------------------------------


class RemoteBranch:
    """Client-side mirror of one shard-local branch transaction."""

    def __init__(self, tm: "RemoteShardTM"):
        self.tm = tm
        #: the shard's id for the branch; ``None`` until its first
        #: operation has opened it there — an unopened branch has
        #: nothing on the shard to commit, prepare or abort
        self.id: int | None = None
        self.status = TxnStatus.ACTIVE
        #: global id, set when the branch is prepared — lets outcome
        #: calls fall back to gid resolution across a shard restart
        self.gid: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RemoteBranch(id={self.id}, status={self.status.value})"


class RemoteShardTM:
    """The :class:`~repro.transaction.manager.TransactionManager`
    surface of one remote shard, as the routing layer drives it.

    Outcome calls go out with ``retries=0`` (at-most-once): a retried
    commit could re-execute against a *different* incarnation of the
    branch id space after a restart.  An unknown outcome (lost reply)
    surfaces as :class:`CommError`; the caller retries the whole
    request transaction and the queues absorb the duplicate.

    Every outcome of a branch that never opened is local, and so is
    the commit of one whose final enqueue already carried it.
    """

    def __init__(self, client: ShardClient, shard_index: int):
        self.client = client
        self.shard_index = shard_index

    # -- lifecycle -------------------------------------------------------

    def begin(self) -> RemoteBranch:
        return RemoteBranch(self)

    def _outcome(self, txn: RemoteBranch, op: str, **fields: Any) -> None:
        """Send one outcome call — unless ``txn`` never opened, when the
        shard has nothing to apply it to."""
        if txn.id is not None:
            self.client.call({"op": op, "txn": txn.id, **fields}, retries=0)

    def commit(self, txn: RemoteBranch) -> None:
        if txn.status is TxnStatus.COMMITTED:
            return  # its final enqueue carried the commit
        try:
            self._outcome(txn, "txn_commit")
        except TransactionAborted:
            txn.status = TxnStatus.ABORTED
            raise
        txn.status = TxnStatus.COMMITTED

    def abort(self, txn: RemoteBranch, reason: str = "application abort") -> None:
        if txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
            return
        if txn.id is not None:
            try:
                self.client.call(
                    {"op": "txn_abort", "txn": txn.id, "reason": reason}
                )
            except CommError:
                # Shard unreachable: its restart recovery aborts the
                # branch anyway (presumed abort for unprepared work).
                pass
        txn.status = TxnStatus.ABORTED

    def abort_by_id(self, txn_id: int, reason: str = "external abort") -> bool:
        try:
            return bool(self.client.call(
                {"op": "txn_abort_by_id", "txn": txn_id, "reason": reason}
            ))
        except CommError:
            return False

    # -- two-phase branch operations ------------------------------------

    def prepare(self, txn: RemoteBranch, global_id: str) -> None:
        try:
            self._outcome(txn, "txn_prepare", gid=global_id)
        except TransactionAborted:
            txn.status = TxnStatus.ABORTED
            raise
        txn.status = TxnStatus.PREPARED
        txn.gid = global_id

    def commit_prepared(self, txn: RemoteBranch) -> None:
        self._outcome(txn, "txn_commit_prepared", gid=txn.gid)
        txn.status = TxnStatus.COMMITTED

    def abort_prepared(self, txn: RemoteBranch) -> None:
        self._outcome(txn, "txn_abort_prepared", gid=txn.gid)
        txn.status = TxnStatus.ABORTED

    # -- counters (benchmark parity) ------------------------------------

    def _stats(self) -> dict[str, int]:
        try:
            return self.client.call({"op": "txn_stats"})
        except CommError:
            return {"commits": 0, "aborts": 0}

    @property
    def commits(self) -> int:
        return self._stats()["commits"]

    @property
    def aborts(self) -> int:
        return self._stats()["aborts"]


class RemoteTwoPhaseCoordinator:
    """Presumed-abort two-phase commit whose decision record lives on a
    remote shard's log (the shard this coordinator is bound to).

    Mirrors :class:`~repro.transaction.twophase.TwoPhaseCoordinator`
    step for step; the decision force becomes an idempotent
    ``txn_decide`` call (duplicate decides for the same gid are
    absorbed server-side), so it may ride the at-least-once retry
    discipline that a real network needs.
    """

    #: phase-2 attempts per branch; between attempts the shard may be
    #: restarting, so the budget spans the supervisor's recovery window
    _PHASE2_ATTEMPTS = 10
    #: how long to poll a crashed coordinator for the durable decision
    _DECISION_WAIT = 30.0

    def __init__(self, client: ShardClient, name: str):
        self.client = client
        self.name = name
        self._seq = 0
        self._mutex = threading.Lock()

    def new_global_id(self) -> str:
        with self._mutex:
            self._seq += 1
            return f"{self.name}:p{os.getpid()}:{self._seq}"

    # -- protocol --------------------------------------------------------

    def commit(
        self, branches: list[tuple[RemoteShardTM, RemoteBranch]]
    ) -> str:
        if not branches:
            raise TwoPhaseCommitError("no branches to commit")
        gid = self.new_global_id()

        prepared: list[tuple[RemoteShardTM, RemoteBranch]] = []
        veto = False
        for tm, txn in branches:
            try:
                tm.prepare(txn, gid)
                prepared.append((tm, txn))
            except ReproError:
                veto = True
                break

        if veto:
            try:
                self._decide(gid, "abort")  # advisory under presumed abort
            except ReproError:
                pass
            self._abort_branches(branches)
            return "abort"

        try:
            self._decide(gid, "commit")
        except CommError:
            # The coordinator shard went down with the decision's
            # durability unknown.  Ask its restarted incarnation: the
            # recovered decision tracker is authoritative (presumed
            # abort if the force never reached the disk).
            decision = self._await_decision(gid)
            if decision != "commit":
                self._abort_branches(prepared)
                return "abort"
        except StorageError:
            # Clean force failure: the decision is not durable, so by
            # presumed abort the global decision IS abort.
            self._abort_branches(prepared)
            return "abort"

        for tm, txn in prepared:
            self._commit_branch(tm, txn)
        return "commit"

    def _decide(self, gid: str, decision: str) -> None:
        self.client.call({"op": "txn_decide", "gid": gid, "decision": decision})

    def _await_decision(self, gid: str) -> str:
        deadline = time.monotonic() + self._DECISION_WAIT
        while True:
            try:
                return self.client.call({"op": "txn_decision", "gid": gid})
            except CommError as exc:
                if time.monotonic() > deadline:
                    raise TwoPhaseInDoubtError(
                        f"coordinator for {gid} unreachable; branches "
                        f"remain prepared until the supervisor resolves "
                        f"them"
                    ) from exc
                time.sleep(0.25)

    def _abort_branches(
        self, branches: list[tuple[RemoteShardTM, RemoteBranch]]
    ) -> None:
        for tm, txn in branches:
            try:
                if txn.status is TxnStatus.PREPARED:
                    tm.abort_prepared(txn)
                elif txn.status is TxnStatus.ACTIVE:
                    tm.abort(txn, "2pc veto")
            except ReproError:
                # Shard down: restart recovery + the supervisor's
                # in-doubt pass settle it (presumed abort).
                pass

    def _commit_branch(self, tm: RemoteShardTM, txn: RemoteBranch) -> None:
        """Phase 2 must complete — the decision is durable.  Retries
        span shard restarts (the server resolves by gid after one)."""
        last: ReproError | None = None
        for attempt in range(self._PHASE2_ATTEMPTS):
            try:
                tm.commit_prepared(txn)
                return
            except (CommError, StorageError) as exc:
                last = exc
                time.sleep(min(1.0, 0.05 * 2 ** attempt))
        raise TwoPhaseInDoubtError(
            f"branch {txn.id} could not apply the committed decision: {last}"
        ) from last


# ---------------------------------------------------------------------------
# Repository facade
# ---------------------------------------------------------------------------


class _RemoteQueue:
    """Introspection stub for one remote queue (depth and name; the
    operations go through the queue manager)."""

    def __init__(self, client: ShardClient, name: str):
        self._client = client
        self.name = name

    def depth(self) -> int:
        return self._client.call(op_depth(self.name))


class _RemoteQueues(Mapping):
    """Name → queue-stub mapping over every shard (union of names)."""

    def __init__(self, repo: "RemoteRepository"):
        self._repo = repo

    def __getitem__(self, name: str) -> _RemoteQueue:
        shard = self._repo._locate_queue(name)
        if shard is None:
            raise KeyError(name)
        return _RemoteQueue(self._repo.clients[shard], name)

    def __contains__(self, name: object) -> bool:
        return (
            isinstance(name, str)
            and self._repo._locate_queue(name) is not None
        )

    def __iter__(self) -> Iterator[str]:
        seen: set[str] = set()
        for names in self._repo._names_by_shard():
            for name in names:
                if name not in seen:
                    seen.add(name)
                    yield name

    def __len__(self) -> int:
        return sum(1 for _ in iter(self))


class RemoteRepository:
    """The repository surface (``tm``, ``queues``, ``create_queue``...)
    over shard processes — what a :class:`~repro.core.server.Server`
    or :class:`~repro.core.clerk.Clerk` sees as ``qm.repo`` in the TCP
    deployment.

    Placement is client-side and mirrors the in-process facade exactly
    (:class:`~repro.queueing.placement.ConsistentHashPlacement` hashes
    are process-stable): location-first routing, then co-location pins,
    then the policy.
    """

    def __init__(
        self,
        name: str,
        endpoints: list[tuple[str, int]],
        placement: PlacementPolicy | None = None,
        obs: Observability | None = None,
        seed: int = 0,
        max_retries: int = 10,
    ):
        self.name = name
        self.placement = (
            placement if placement is not None else ConsistentHashPlacement()
        )
        self.shard_count = len(endpoints)
        self.endpoints = list(endpoints)
        self.clients = [
            ShardClient(
                TcpTransport(host, port, seed=seed + i,
                             max_retries=max_retries),
                obs=obs, node=name, shard=i,
            )
            for i, (host, port) in enumerate(endpoints)
        ]
        #: queue name -> shard location cache (volatile; re-validated
        #: against the shards on miss)
        self._locations: dict[str, int] = {}
        self._pins: dict[str, int] = {}
        self.epochs = [
            client.call({"op": "hello"})["epoch"] for client in self.clients
        ]
        coordinator_names = [
            (f"{name}.s{i}.e{self.epochs[i]}" if self.shard_count > 1
             else f"{name}.e{self.epochs[i]}")
            for i in range(self.shard_count)
        ]
        self.coordinators = [
            RemoteTwoPhaseCoordinator(client, cname)
            for client, cname in zip(self.clients, coordinator_names)
        ]
        self.tm = ShardedTransactionManager(
            [RemoteShardTM(client, i) for i, client in enumerate(self.clients)],
            self.coordinators,
            obs=obs,
            node=name,
        )
        self.queues = _RemoteQueues(self)

    # -- location --------------------------------------------------------

    def _names_by_shard(self) -> list[list[str]]:
        out = []
        for client in self.clients:
            try:
                out.append(client.call({"op": "queue_names"}))
            except CommError:
                out.append([])  # shard down: treat as empty for iteration
        return out

    def _locate_queue(self, qname: str) -> int | None:
        cached = self._locations.get(qname)
        if cached is not None:
            return cached
        for index, names in enumerate(self._names_by_shard()):
            if qname in names:
                self._locations[qname] = index
                return index
        return None

    def shard_of(self, name: str) -> int:
        located = self._locate_queue(name)
        if located is not None:
            return located
        pinned = self._pins.get(name)
        if pinned is not None:
            return pinned
        return self.placement.shard_for(name, self.shard_count)

    # -- data definition -------------------------------------------------

    @staticmethod
    def _wire_config(config: dict[str, Any]) -> dict[str, Any]:
        wire: dict[str, Any] = {}
        for key, value in config.items():
            if isinstance(value, DequeueMode):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            wire[key] = value
        return wire

    def create_queue(self, qname: str, **config: Any) -> _RemoteQueue:
        if self._locate_queue(qname) is not None:
            raise QueueExistsError(
                f"queue {qname!r} already exists in {self.name!r}"
            )
        error_queue = config.get("error_queue")
        shard: int | None = None
        if error_queue is not None:
            # Dead-letter moves happen inside one shard transaction, so
            # a queue must share its error queue's shard.
            shard = self._locate_queue(error_queue)
        if shard is None:
            shard = self.shard_of(qname)
        self.clients[shard].call(
            op_create_queue(qname, self._wire_config(config))
        )
        self._locations[qname] = shard
        if error_queue is not None:
            self._pins[error_queue] = shard
        return _RemoteQueue(self.clients[shard], qname)

    def create_table(self, tname: str) -> Any:
        raise ReproError(
            "application tables are not served over the TCP deployment; "
            "handlers must keep request state in queue payloads "
            "(Section 9's scratch pad) or run in-process"
        )

    # -- lookup ----------------------------------------------------------

    def get_queue(self, qname: str) -> _RemoteQueue:
        shard = self._locate_queue(qname)
        if shard is None:
            raise NoSuchQueueError(f"no queue {qname!r} in {self.name!r}")
        return _RemoteQueue(self.clients[shard], qname)

    def queue_names(self) -> list[str]:
        return sorted(self.queues)

    def depths_by_shard(self) -> dict[int, dict[str, int]]:
        return {
            index: client.call({"op": "depths"})
            for index, client in enumerate(self.clients)
        }

    # -- lifecycle -------------------------------------------------------

    def checkpoint(self) -> None:
        for client in self.clients:
            client.call({"op": "checkpoint"})

    def close(self) -> None:
        for client in self.clients:
            client.close()


# ---------------------------------------------------------------------------
# Queue-manager facade
# ---------------------------------------------------------------------------


class RemoteShardedQueueManager(RemoteQueueManager):
    """:class:`~repro.comm.remote.RemoteQueueManager` routed over shard
    processes: each operation goes to the shard owning its queue, and a
    routed transaction's operations resolve to (and lazily open) its
    branch on that shard — the same contract the in-process sharded
    views implement, carried as a branch id on the wire.
    """

    def __init__(self, repo: RemoteRepository):
        self.repo = repo

    def _route(self, qname: str) -> tuple[Callable[..., Any], int]:
        shard = self.repo.shard_of(qname)
        return self.repo.clients[shard].call, shard

    def _branch(self, txn: Any, where: int) -> tuple[RemoteBranch | None, bool]:
        if txn is None:
            return None, False
        if isinstance(txn, RoutedTransaction):
            branch, sole = txn.branch_for(where), not txn.is_cross_shard
        elif isinstance(txn, RemoteBranch):
            branch, sole = txn, False
        else:
            raise ReproError(
                f"cannot route a {type(txn).__name__} over the wire"
            )
        if branch.status is not TxnStatus.ACTIVE:
            # e.g. an operation after the branch's final enqueue: the
            # shard has finished the branch, so this never goes out
            raise InvalidTransactionState(
                f"branch {branch.id} on shard {where} is "
                f"{branch.status.value}, not active"
            )
        return branch, sole
