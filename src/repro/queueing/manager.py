"""The queue-manager facade: Figure 3's operations.

``Register``, ``Deregister``, ``Enqueue``, ``Dequeue``, ``Read``, and
(Section 7) ``Kill_element``, with the semantics of Section 4:

* every operation is all-or-nothing and serializable;
* invoked *within* a transaction it obeys transaction semantics;
  invoked *outside* one (the client side of the "gateway" between the
  non-transactional front-end world and the transactional back-end
  world, Section 2) it is wrapped in an internal auto-commit
  transaction, so its effect is durable and visible before it returns
  — "When Send returns, the client knows that the request was stably
  stored";
* a registrant-supplied *tag* rides every Enqueue/Dequeue atomically
  into the persistent registration record (Section 4.3).

When the facade is built with a deterministic lane
(``cc="deterministic"``), auto-commit single-queue enqueues and
non-waiting dequeues — the queue-shaped transaction class — are
routed to the lane's plan queues instead of opening a 2PL transaction;
see :mod:`repro.transaction.deterministic` for the routing rationale.
Everything else (caller-supplied transactions, blocking dequeues,
register/deregister) stays on the 2PL lane.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import NoSuchElementError, NotRegisteredError
from repro.obs import Observability
from repro.queueing.element import Body, Element
from repro.queueing.registration import Registration
from repro.queueing.repository import QueueRepository
from repro.transaction.manager import Transaction


@dataclass(frozen=True)
class QueueHandle:
    """Opaque handle returned by Register (Figure 3's ``h``)."""

    repository: str
    queue: str
    registrant: str


class QueueManager:
    """Facade over one repository, exposing the paper's operations."""

    def __init__(
        self,
        repo: QueueRepository,
        obs: Observability | None = None,
        cc: str = "2pl",
        lane: Any = None,
    ):
        self.repo = repo
        #: concurrency-control policy: "2pl" (seed behavior), or
        #: "deterministic", which routes the queue-shaped transaction
        #: class through ``lane``
        self.cc = cc
        self.lane = lane if cc != "2pl" else None
        obs = obs if obs is not None else repo.obs
        self._obs_on = obs.enabled
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_enq_latency = metrics.histogram(
            "queue_enqueue_latency_seconds",
            "Enqueue wall time incl. registration record", ("queue",),
        )
        self._m_deq_latency = metrics.histogram(
            "queue_dequeue_latency_seconds",
            "Dequeue wall time incl. blocking wait", ("queue",),
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    @contextmanager
    def _txn_scope(self, txn: Transaction | None) -> Iterator[Transaction]:
        """Use the caller's transaction, or an internal auto-commit one."""
        if txn is not None:
            txn.require_active()
            yield txn
        else:
            with self.repo.tm.transaction() as inner:
                yield inner

    def _queue(self, handle: QueueHandle):
        return self.repo.get_queue(handle.queue)

    def _check_registered(self, handle: QueueHandle) -> None:
        if not self.repo.registration.is_registered(handle.queue, handle.registrant):
            raise NotRegisteredError(
                f"{handle.registrant!r} is not registered with {handle.queue!r}"
            )

    # ------------------------------------------------------------------
    # Register / Deregister (Section 4.3)
    # ------------------------------------------------------------------

    def register(
        self,
        qname: str,
        registrant: str,
        stable: bool = True,
        txn: Transaction | None = None,
    ) -> tuple[QueueHandle, Any, int | None]:
        """Figure 3: ``h, t, e = Register(qname, client, stable_flag)``.

        Returns the handle plus the tag and eid of the registrant's
        most recent tagged operation (both ``None`` for a first-time
        registration) — the resynchronization data of Figure 2.
        """
        self.repo.get_queue(qname)  # must exist
        with self._txn_scope(txn) as t:
            reg = self.repo.registration.register(t, qname, registrant, stable)
        handle = QueueHandle(self.repo.name, qname, registrant)
        return handle, reg.last_tag, reg.last_eid

    def registration_info(self, handle: QueueHandle) -> Registration | None:
        """Full last-operation record, including the operation *type*
        (the generalization the end of Section 4.3 recommends) and the
        stable element copy."""
        return self.repo.registration.lookup(handle.queue, handle.registrant)

    def deregister(self, handle: QueueHandle, txn: Transaction | None = None) -> None:
        """Figure 3: ``Deregister(h, client)``."""
        with self._txn_scope(txn) as t:
            self.repo.registration.deregister(t, handle.queue, handle.registrant)

    # ------------------------------------------------------------------
    # Enqueue / Dequeue / Read / Kill_element
    # ------------------------------------------------------------------

    def enqueue(
        self,
        handle: QueueHandle,
        body: Any,
        tag: Any = None,
        *,
        txn: Transaction | None = None,
        priority: int = 0,
        headers: dict[str, Any] | None = None,
        final: bool = False,
    ) -> int:
        """Figure 3: ``e = Enqueue(h, element, t)``.

        The tag (and a stable copy of the element) is recorded in the
        registration atomically with the enqueue, when the registration
        is stable.

        Tagged enqueues are **idempotent** for stable registrants: if
        the registrant's last recorded operation is an enqueue with the
        same tag, this call is a duplicate (e.g. an at-least-once RPC
        retry whose first attempt's acknowledgement was lost) and the
        original eid is returned without enqueuing again.  Rids are
        unique per request (Section 3), so equal tags always mean the
        same logical Send.

        ``final`` is the caller's promise that ``txn`` does nothing
        after this enqueue.  Here it changes nothing (commit is a local
        call); the remote stub uses it to send the commit with the
        enqueue (:mod:`repro.comm.remote`)."""
        if not self._obs_on:
            return self._enqueue(
                handle, body, tag, txn=txn, priority=priority, headers=headers
            )
        t0 = _time.perf_counter()
        with self._tracer.start_span("queue.enqueue", queue=handle.queue) as span:
            eid = self._enqueue(
                handle, body, tag, txn=txn, priority=priority, headers=headers
            )
            span.set_attr("eid", eid)
        self._m_enq_latency.labels(queue=handle.queue).observe(
            _time.perf_counter() - t0
        )
        return eid

    def _enqueue(
        self,
        handle: QueueHandle,
        body: Any,
        tag: Any = None,
        *,
        txn: Transaction | None = None,
        priority: int = 0,
        headers: dict[str, Any] | None = None,
    ) -> int:
        self._check_registered(handle)
        if tag is not None:
            previous = self.repo.registration.lookup(handle.queue, handle.registrant)
            if (
                previous is not None
                and previous.stable
                and previous.last_op == "enq"
                and previous.last_tag == tag
                and previous.last_eid is not None
            ):
                return previous.last_eid
        self._queue(handle)  # must exist, before any transaction begins
        # One Body for the queue's log record and the registration's
        # copy: the first of them to need the bytes encodes it, the
        # other reuses them (and a Body from the wire is never encoded).
        stored = Body.of(body)

        def op(repo, t: Transaction) -> int:
            eid = repo.get_queue(handle.queue).enqueue(
                t, stored, priority=priority, headers=headers
            )
            copy = Element(eid, stored, priority, headers=headers)
            repo.registration.record_op(
                t, handle.queue, handle.registrant, "enq", tag, eid,
                copy.to_record(),
            )
            return eid

        return self._run(handle.queue, "enq", op, txn)

    def _run(self, qname: str, kind: str, op: Callable, txn: Transaction | None,
             plannable: bool = True) -> Any:
        """Run ``op(repo, txn)`` — a queue operation plus its
        registration record — in the caller's transaction, or as an
        auto-commit one: planned on the deterministic lane (which hands
        ``op`` the owning shard and its batch transaction) when there is
        a lane and the operation is ``plannable``, else under 2PL."""
        if txn is None and self.lane is not None and plannable:
            return self.lane.submit(qname, kind, op)
        with self._txn_scope(txn) as t:
            return op(self.repo, t)

    def dequeue(
        self,
        handle: QueueHandle,
        tag: Any = None,
        error_queue: str | None = None,
        *,
        txn: Transaction | None = None,
        block: bool = False,
        timeout: float | None = None,
        selector: Callable[[Element], bool] | None = None,
    ) -> Element:
        """Figure 3: ``element = Dequeue(h, t, eh)``.

        ``error_queue`` mirrors the ``eh`` parameter: where the element
        goes after its ``max_aborts``-th dequeue-abort."""
        if not self._obs_on:
            return self._dequeue(
                handle, tag, error_queue,
                txn=txn, block=block, timeout=timeout, selector=selector,
            )
        t0 = _time.perf_counter()
        wall0 = _time.time()
        element = self._dequeue(
            handle, tag, error_queue,
            txn=txn, block=block, timeout=timeout, selector=selector,
        )
        # The span is created only once an element arrives (empty polls
        # would flood the tracer) and re-parented onto the element's
        # wire context, stitching the consumer to the producer's Send.
        span = self._tracer.start_span(
            "queue.dequeue",
            parent=element.headers.get("trace"),
            start=wall0,
            queue=handle.queue,
            eid=element.eid,
            registrant=handle.registrant,
        )
        span.end()
        self._m_deq_latency.labels(queue=handle.queue).observe(
            _time.perf_counter() - t0
        )
        return element

    def _dequeue(
        self,
        handle: QueueHandle,
        tag: Any = None,
        error_queue: str | None = None,
        *,
        txn: Transaction | None = None,
        block: bool = False,
        timeout: float | None = None,
        selector: Callable[[Element], bool] | None = None,
    ) -> Element:
        self._check_registered(handle)
        self._queue(handle)  # must exist, before any transaction begins

        def op(repo, t: Transaction) -> Element:
            element = repo.get_queue(handle.queue).dequeue(
                t,
                selector=selector,
                block=block,
                timeout=timeout,
                error_queue=error_queue,
            )
            repo.registration.record_op(
                t,
                handle.queue,
                handle.registrant,
                "deq",
                tag,
                element.eid,
                element.to_record(),
            )
            return element

        # Waiting dequeues must not be planned: an executor sleeping on
        # a queue condition would stall every intent behind it, so only
        # immediate polls (non-blocking, or a zero timeout) ride the
        # deterministic lane.
        waits = block and (timeout is None or timeout > 0)
        return self._run(handle.queue, "deq", op, txn, plannable=not waits)

    def read(self, handle: QueueHandle, eid: int) -> Element:
        """Figure 3: ``element = Read(h, e)``.

        Falls back to the registrant's stable registration copy, so a
        recovered registrant can re-read its last element "even if ...
        the enqueued element was dequeued by another registrant"
        (Section 4.3)."""
        queue = self._queue(handle)
        try:
            return queue.read(eid)
        except NoSuchElementError:
            reg = self.repo.registration.lookup(handle.queue, handle.registrant)
            if reg is not None and reg.last_eid == eid and reg.last_element:
                return reg.element()
            raise

    def kill_element(self, handle: QueueHandle, eid: int) -> bool:
        """Section 7's Kill_element; True iff the element was deleted."""
        return self._queue(handle).kill_element(eid)

    # ------------------------------------------------------------------
    # Data definition passthrough
    # ------------------------------------------------------------------

    def create_queue(self, qname: str, **config: Any):
        return self.repo.create_queue(qname, **config)

    def destroy_queue(self, qname: str) -> None:
        self.repo.destroy_queue(qname)

    def start_queue(self, qname: str) -> None:
        self.repo.start_queue(qname)

    def stop_queue(self, qname: str) -> None:
        self.repo.stop_queue(qname)

    def depth(self, qname: str) -> int:
        return self.repo.get_queue(qname).depth()

