"""Driver-side stubs for the TCP shard deployment.

The design rule of this module: **reuse the routing layer, replace the
medium**.  :class:`~repro.transaction.routing.ShardedTransactionManager`
and :class:`~repro.transaction.routing.RoutedTransaction` already know
how to pick a commit protocol from the branch set (0 branches → no-op,
1 → single shard force, ≥2 → presumed-abort two-phase commit with the
first-touched shard coordinating).  Here they run unchanged — their
``shard_tm(i)`` just returns a :class:`RemoteShardTM` whose branches
live in another OS process, and their per-shard coordinator is a
:class:`RemoteTwoPhaseCoordinator` — the in-process protocol with the
decision record forced on the coordinator *shard's* log over the wire.
Name → shard routing is :class:`~repro.queueing.sharded.ShardRouter`'s,
shared with the in-process facade.  The queue-manager stub is reused
too: :class:`RemoteShardedQueueManager` only overrides the
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
  prepared on live shards; :meth:`RemoteTwoPhaseCoordinator._decide`
  polls the restarted coordinator for the durable decision (presumed
  abort if none survived) and finishes phase 2, raising
  :class:`TwoPhaseInDoubtError` only if the coordinator stays
  unreachable.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from repro.comm.remote import RemoteQueueManager, op_create_queue, op_depth
from repro.comm.transport import TcpTransport, Transport
from repro.comm.wire import unwrap
from repro.errors import (
    CommError,
    InvalidTransactionState,
    ReproError,
    StorageError,
    TransactionAborted,
    TwoPhaseInDoubtError,
)
from repro.obs import NULL_OBS, Observability
from repro.queueing.placement import PlacementPolicy
from repro.queueing.queue import DequeueMode
from repro.queueing.sharded import ShardRouter, coordinator_name
from repro.transaction.ids import TxnStatus
from repro.transaction.routing import RoutedTransaction, ShardedTransactionManager
from repro.transaction.twophase import TwoPhaseCoordinator


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
        observed = self._m_latency is not None
        started = time.perf_counter() if observed else 0.0
        try:
            return unwrap(
                self.transport.request(
                    payload, timeout=timeout, retries=retries)
            )
        finally:
            if observed:
                self._observe(time.perf_counter() - started)

    # -- the shard surface ShardRouter drives ------------------------------

    @property
    def queues(self) -> list[str]:
        """Names of the queues this shard holds (none while it is down)."""
        try:
            return self.call({"op": "queue_names"})
        except CommError:
            return []

    def create_queue(self, qname: str, **config: Any) -> None:
        wire: dict[str, Any] = {}
        for key, value in config.items():
            if isinstance(value, DequeueMode):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            wire[key] = value
        self.call(op_create_queue(qname, wire))

    def depths(self) -> dict[str, int]:
        return self.call({"op": "depths"})

    def checkpoint(self) -> None:
        self.call({"op": "checkpoint"})

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
            try:
                self.client.call({"op": op, "txn": txn.id, **fields}, retries=0)
            except TransactionAborted:
                # only a branch the shard no longer knows answers this
                txn.status = TxnStatus.ABORTED
                raise

    def commit(self, txn: RemoteBranch) -> None:
        if txn.status is TxnStatus.COMMITTED:
            return  # its final enqueue carried the commit
        self._outcome(txn, "txn_commit")
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
        self._outcome(txn, "txn_prepare", gid=global_id)
        txn.status = TxnStatus.PREPARED
        txn.gid = global_id

    def commit_prepared(self, txn: RemoteBranch) -> None:
        self._outcome(txn, "txn_commit_prepared", gid=txn.gid)
        txn.status = TxnStatus.COMMITTED

    def abort_prepared(self, txn: RemoteBranch) -> None:
        self._outcome(txn, "txn_abort_prepared", gid=txn.gid)
        txn.status = TxnStatus.ABORTED


class RemoteTwoPhaseCoordinator(TwoPhaseCoordinator):
    """:class:`~repro.transaction.twophase.TwoPhaseCoordinator` whose
    decision record lives on a remote shard's log (the shard this
    coordinator is bound to).

    The protocol is the inherited :meth:`commit`; a wire changes three
    of its steps.  The decision force becomes an idempotent
    ``txn_decide`` call (duplicate decides for the same gid are
    absorbed server-side), so it may ride the at-least-once retries a
    real network needs — and when its outcome is *unknown*, the
    restarted coordinator shard is polled.  A branch told to abort may
    be on a shard that is down, and phase 2 keeps trying across a
    shard's recovery window.

    ``name`` must be unique per driver process as well as per shard
    boot (:class:`RemoteRepository` appends ``:p<pid>``): several
    drivers coordinate against the same shard incarnation.
    """

    #: phase-2 attempts per branch; between attempts the shard may be
    #: restarting, so the budget spans the supervisor's recovery window
    _PHASE2_ATTEMPTS = 10
    #: how long to poll a crashed coordinator for the durable decision
    _DECISION_WAIT = 30.0

    def __init__(self, client: ShardClient, name: str):
        self.client = client
        self._protocol_state(name, None, NULL_OBS, area=name)

    def _decide(self, gid: str, decision: str) -> str:
        try:
            self.client.call(
                {"op": "txn_decide", "gid": gid, "decision": decision}
            )
        except CommError:
            if decision != "commit":
                return "abort"  # advisory under presumed abort
            # The coordinator shard went down with the decision's
            # durability unknown.  Ask its restarted incarnation: the
            # recovered decision tracker is authoritative (presumed
            # abort if the force never reached the disk).
            return self._await_decision(gid)
        except StorageError:
            # The shard answered that the force failed: the decision is
            # not durable, so by presumed abort it IS abort — whatever
            # the failure means for that shard, this process lives on.
            return "abort"
        return decision

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
        for branch in branches:
            try:
                super()._abort_branches([branch])
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


class RemoteRepository(ShardRouter):
    """The repository surface (``tm``, ``queues``, ``create_queue``...)
    over shard processes — what a :class:`~repro.core.server.Server`
    or :class:`~repro.core.clerk.Clerk` sees as ``qm.repo`` in the TCP
    deployment.

    Routing *is* the in-process facade's
    (:class:`~repro.queueing.sharded.ShardRouter`; placement hashes are
    process-stable): location first, then co-location pins, then the
    policy.  Its shards are the :class:`ShardClient` stubs; what this
    class adds is a location cache in front of their ``queue_names``
    calls and :class:`_RemoteQueue` as the view of a queue.
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
        super().__init__(name, len(endpoints), placement)
        self.clients = self.shards = [
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
        self.epochs = [
            client.call({"op": "hello"})["epoch"] for client in self.clients
        ]
        self.coordinators = [
            RemoteTwoPhaseCoordinator(
                client,
                coordinator_name(name, i, self.shard_count, self.epochs[i])
                + f":p{os.getpid()}",
            )
            for i, client in enumerate(self.clients)
        ]
        self.tm = ShardedTransactionManager(
            [RemoteShardTM(client, i) for i, client in enumerate(self.clients)],
            self.coordinators,
            obs=obs,
            node=name,
        )

    def _locate_queue(self, qname: str) -> int | None:
        located = self._locations.get(qname)
        if located is None:
            located = super()._locate_queue(qname)
            if located is not None:
                self._locations[qname] = located
        return located

    def _queue_view(self, qname: str, shard: int) -> _RemoteQueue:
        self._locations[qname] = shard  # seen there: created or located
        return _RemoteQueue(self.clients[shard], qname)

    def create_table(self, tname: str) -> Any:
        raise ReproError(
            "application tables are not served over the TCP deployment; "
            "handlers must keep request state in queue payloads "
            "(Section 9's scratch pad) or run in-process"
        )


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
