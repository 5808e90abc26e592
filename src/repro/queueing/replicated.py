"""Replicated queues — Section 10.

"Queue replication can be made explicit.  Indeed, given the importance
of reliably managing requests in a distributed system, queues are a
good candidate for being stored as a replicated database that
guarantees one-copy serializability, despite the cost of such strong
synchronization."

:class:`ReplicatedQueue` keeps one logical queue on two repositories
(nodes).  Every write — enqueue, dequeue, kill — runs as a global
transaction over both replicas under two-phase commit, which is exactly
the "strong synchronization" whose cost the paper warns about (the
extension benchmark X2 measures it).  Reads are served by the primary.

Cross-replica element identity: eids are per-repository, so the
logical identity is a *replication key* carried in the element headers
(``"rkey"``); the secondary's dequeue selects by the key the primary's
dequeue chose, keeping the replicas element-for-element identical.

Failure handling:

* a crash of either node mid-commit leaves an in-doubt branch that
  restart recovery resolves through the coordinator's durable decision
  (presumed abort) — after resolution the replicas are identical again;
* :meth:`failover` swaps the roles, so a surviving replica serves reads
  and writes alone (in degraded, unreplicated mode) until the peer is
  reattached via :meth:`resync`.

This is the *per-queue, strong-sync* end of the replication spectrum:
every write pays a 2PC round (two log forces plus the coordinator's
decision record — X2's measured cost) to keep both replicas
transactionally identical at all times.  The other end is
:mod:`repro.replication` — *per-shard primary/backup via WAL log
shipping* — where the primary commits locally (one force) and the
shipped record stream keeps a warm standby ready to promote, at the
cost of a failover step (epoch-fenced promotion plus client resync)
instead of an always-consistent peer.  Use :class:`ReplicatedQueue`
when a single queue must survive a node loss with zero promotion
window; use log shipping when whole-node redundancy should not tax
every commit (``python benchmarks/run_bench.py --replicate`` measures
the shipping overhead and RTO; ``benchmarks/bench_x2_replication.py``
measures X2's 2PC cost).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable

from repro.queueing.element import Element
from repro.queueing.queue import RecoverableQueue
from repro.queueing.repository import QueueRepository
from repro.transaction.twophase import TwoPhaseCoordinator


class ReplicatedQueue:
    """A logical queue mirrored on two repositories."""

    def __init__(
        self,
        name: str,
        primary: QueueRepository,
        secondary: QueueRepository,
        coordinator: TwoPhaseCoordinator,
    ):
        self.name = name
        self.primary = primary
        self.secondary = secondary
        self.coordinator = coordinator
        for repo in (primary, secondary):
            if name not in repo.queues:
                repo.create_queue(name)
        self._rkey = itertools.count(1)
        self._mutex = threading.Lock()
        #: True while the secondary is detached (degraded mode)
        self.degraded = False
        self.writes = 0

    # -- replica access -----------------------------------------------------

    def _queues(self) -> tuple[RecoverableQueue, RecoverableQueue | None]:
        primary = self.primary.get_queue(self.name)
        secondary = None if self.degraded else self.secondary.get_queue(self.name)
        return primary, secondary

    def depth(self) -> int:
        return self.primary.get_queue(self.name).depth()

    def replica_depths(self) -> tuple[int, int]:
        return (
            self.primary.get_queue(self.name).depth(),
            self.secondary.get_queue(self.name).depth(),
        )

    # -- writes (2PC over both replicas) --------------------------------------

    def _two_phase(self, apply: Callable[..., Any]) -> Any:
        """Run ``apply(txn_primary, txn_secondary)`` under 2PC (or a
        single local transaction in degraded mode)."""
        self.writes += 1
        if self.degraded:
            with self.primary.tm.transaction() as txn:
                return apply(txn, None)
        txn_p = self.primary.tm.begin()
        txn_s = self.secondary.tm.begin()
        try:
            result = apply(txn_p, txn_s)
        except BaseException as exc:
            from repro.errors import SimulatedCrash

            if not isinstance(exc, SimulatedCrash):
                for tm, txn in ((self.primary.tm, txn_p), (self.secondary.tm, txn_s)):
                    if not txn.status.terminal:
                        tm.abort(txn, "replicated write failed")
            raise
        decision = self.coordinator.commit(
            [(self.primary.tm, txn_p), (self.secondary.tm, txn_s)]
        )
        if decision != "commit":  # pragma: no cover - veto path is exceptional
            from repro.errors import TwoPhaseCommitError

            raise TwoPhaseCommitError(f"replicated write to {self.name!r} aborted")
        return result

    def enqueue(
        self,
        body: Any,
        *,
        priority: int = 0,
        headers: dict[str, Any] | None = None,
    ) -> int:
        """Enqueue on both replicas; returns the replication key."""
        with self._mutex:
            rkey = next(self._rkey)
        stamped = dict(headers or {})
        stamped["rkey"] = rkey

        def apply(txn_p, txn_s):
            primary, secondary = self._queues()
            primary.enqueue(txn_p, body, priority=priority, headers=stamped)
            if secondary is not None:
                secondary.enqueue(txn_s, body, priority=priority, headers=stamped)
            return rkey

        return self._two_phase(apply)

    def dequeue(self, selector: Callable[[Element], bool] | None = None) -> Element:
        """Dequeue the same logical element from both replicas."""

        def apply(txn_p, txn_s):
            primary, secondary = self._queues()
            element = primary.dequeue(txn_p, selector=selector)
            if secondary is not None:
                rkey = element.headers["rkey"]
                secondary.dequeue(
                    txn_s, selector=lambda e: e.headers.get("rkey") == rkey
                )
            return element

        return self._two_phase(apply)

    # -- failover ---------------------------------------------------------------

    def failover(self) -> None:
        """The primary is gone: promote the secondary and run degraded."""
        self.primary, self.secondary = self.secondary, self.primary
        self.degraded = True

    def resync(self, recovered: QueueRepository) -> int:
        """Reattach a recovered peer as the new secondary, copying any
        elements it missed while we ran degraded.  Returns the number of
        elements copied."""
        self.secondary = recovered
        if self.name not in recovered.queues:
            recovered.create_queue(self.name)
        primary_queue = self.primary.get_queue(self.name)
        secondary_queue = recovered.get_queue(self.name)
        have = set()
        for eid in secondary_queue.eids():
            try:
                have.add(secondary_queue.read(eid).headers.get("rkey"))
            except Exception:
                continue
        copied = 0
        for eid in primary_queue.eids():
            element = primary_queue.read(eid)
            rkey = element.headers.get("rkey")
            if rkey in have:
                continue
            with recovered.tm.transaction() as txn:
                secondary_queue.enqueue(
                    txn,
                    element.stored_body,
                    priority=element.priority,
                    headers=element.headers,
                )
            copied += 1
        # Remove elements the secondary has that the primary consumed
        # while degraded.
        want = set()
        for eid in primary_queue.eids():
            want.add(primary_queue.read(eid).headers.get("rkey"))
        for eid in list(secondary_queue.eids()):
            element = secondary_queue.read(eid)
            if element.headers.get("rkey") not in want:
                secondary_queue.kill_element(eid)
        self.degraded = False
        return copied

    def consistent(self) -> bool:
        """True iff both replicas hold exactly the same logical
        elements (by replication key)."""
        primary = self.primary.get_queue(self.name)
        secondary = self.secondary.get_queue(self.name)

        def keys(queue):
            out = []
            for eid in queue.eids():
                out.append(queue.read(eid).headers.get("rkey"))
            return sorted(out)

        return keys(primary) == keys(secondary)
