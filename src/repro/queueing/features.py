"""Commercial-product queue features (Section 9).

The related-work section catalogs what DECintact, IMS/DC, and CICS
offered; these features are implemented here so the comparisons are
runnable and so the fork/join workflow of Section 6 has its trigger
mechanism:

* :class:`QueueSet` — DECintact's "queue sets (a view of a set of
  queues)": dequeue from whichever member has work.
* :class:`AlertThreshold` — DECintact's "alert thresholds": a callback
  when a queue's committed depth crosses a bound.
* :class:`Redirection` — DECintact's "queue redirection (to
  automatically forward elements from one queue to another)".
* :class:`StartOnArrival` — CICS's transaction-start-on-arrival: spawn
  a worker callback when elements arrive, up to a task limit.
* :class:`JoinTrigger` — Section 6: "A trigger is set to send a request
  when all of the replies to earlier concurrent requests have been
  received" (the join half of fork/join multi-transaction requests).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import QueueEmpty
from repro.queueing.element import Element
from repro.queueing.queue import RecoverableQueue
from repro.transaction.manager import Transaction


class QueueSet:
    """A dequeue view over several queues of one repository.

    Selection walks members round-robin starting after the last served
    member, so no member starves."""

    def __init__(self, queues: list[RecoverableQueue]):
        if not queues:
            raise ValueError("a queue set needs at least one member queue")
        self.queues = list(queues)
        self._next = 0
        self._mutex = threading.Lock()

    def depth(self) -> int:
        return sum(q.depth() for q in self.queues)

    def dequeue(
        self,
        txn: Transaction,
        *,
        selector: Callable[[Element], bool] | None = None,
    ) -> tuple[RecoverableQueue, Element]:
        """Dequeue from the first member (round-robin) with an eligible
        element.  Returns (member, element)."""
        with self._mutex:
            start = self._next
            order = [
                self.queues[(start + i) % len(self.queues)]
                for i in range(len(self.queues))
            ]
        for queue in order:
            try:
                element = queue.dequeue(txn, selector=selector)
            except QueueEmpty:
                continue
            with self._mutex:
                self._next = (self.queues.index(queue) + 1) % len(self.queues)
            return queue, element
        raise QueueEmpty("no eligible element in any member of the queue set")


class AlertThreshold:
    """Fire ``callback(queue, depth)`` when committed depth crosses
    ``threshold`` upward.  Re-arms when depth falls below."""

    def __init__(
        self,
        queue: RecoverableQueue,
        threshold: int,
        callback: Callable[[RecoverableQueue, int], None],
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.queue = queue
        self.threshold = threshold
        self.callback = callback
        self._armed = True
        self._mutex = threading.Lock()
        queue.subscribe_visible(self._on_visible)

    def _on_visible(self, queue: RecoverableQueue, _element: Element) -> None:
        depth = queue.depth()
        with self._mutex:
            if depth < self.threshold:
                self._armed = True
                return
            if not self._armed:
                return
            self._armed = False
        self.callback(queue, depth)


class Redirection:
    """Automatically forward every element that becomes visible in
    ``source`` to ``target`` (same repository — the element keeps its
    eid, Section 10's identity guarantee).

    The forward runs as its own transaction; a crash between the commit
    making the element visible and the forward leaves the element in
    ``source``, where a restarted redirection's :meth:`catch_up` finds
    it — at-least-once forwarding, idempotent because the eid travels.
    """

    def __init__(self, source: RecoverableQueue, target: RecoverableQueue):
        self.source = source
        self.target = target
        self.forwarded = 0
        source.subscribe_visible(self._on_visible)

    def _on_visible(self, _queue: RecoverableQueue, element: Element) -> None:
        self._forward(element.eid)

    def _forward(self, eid: int) -> None:
        repo = self.source.repo
        try:
            with repo.tm.transaction() as txn:
                element = self.source.dequeue(
                    txn, selector=lambda e: e.eid == eid
                )
                self.target.enqueue(
                    txn,
                    element.stored_body,
                    priority=element.priority,
                    headers=element.headers,
                    eid=element.eid,
                )
        except QueueEmpty:
            return  # someone else consumed it; nothing to forward
        self.forwarded += 1

    def catch_up(self) -> int:
        """Forward everything currently visible (post-crash recovery)."""
        moved = 0
        for eid in self.source.eids():
            before = self.forwarded
            self._forward(eid)
            moved += self.forwarded - before
        return moved


class StartOnArrival:
    """CICS-style start-on-arrival: run ``worker(element)`` in a new
    thread when elements become visible, at most ``max_tasks``
    concurrently.  The worker receives the *queue* and is expected to
    dequeue transactionally itself (so crashes keep exactly-once)."""

    def __init__(
        self,
        queue: RecoverableQueue,
        worker: Callable[[RecoverableQueue], None],
        max_tasks: int = 1,
    ):
        self.queue = queue
        self.worker = worker
        self.max_tasks = max_tasks
        self._active = 0
        self._mutex = threading.Lock()
        self.started_tasks = 0
        queue.subscribe_visible(self._on_visible)

    def _on_visible(self, queue: RecoverableQueue, _element: Element) -> None:
        with self._mutex:
            if self._active >= self.max_tasks:
                return
            self._active += 1
            self.started_tasks += 1
        thread = threading.Thread(target=self._run, daemon=True)
        thread.start()

    def _run(self) -> None:
        try:
            self.worker(self.queue)
        finally:
            with self._mutex:
                self._active -= 1


class JoinTrigger:
    """Section 6's join trigger for concurrent multi-transaction
    requests.

    Watches ``reply_queue`` for elements whose ``corr`` header matches
    ``correlation``; when ``expected`` of them have been *observed*,
    fires ``action(replies)`` exactly once per trigger instance.
    Observation is non-destructive — the action itself usually dequeues
    the replies transactionally.
    """

    def __init__(
        self,
        reply_queue: RecoverableQueue,
        correlation: Any,
        expected: int,
        action: Callable[[list[Element]], None],
    ):
        if expected < 1:
            raise ValueError("expected must be >= 1")
        self.reply_queue = reply_queue
        self.correlation = correlation
        self.expected = expected
        self.action = action
        self._seen: dict[int, Element] = {}
        self._fired = False
        self._mutex = threading.Lock()
        reply_queue.subscribe_visible(self._on_visible)
        # Catch up with replies that arrived before the trigger was set
        # (a recovering coordinator re-creates its triggers).
        for eid in reply_queue.eids():
            try:
                element = reply_queue.read(eid)
            except Exception:
                continue
            self._observe(element)

    def _on_visible(self, _queue: RecoverableQueue, element: Element) -> None:
        self._observe(element)

    def _observe(self, element: Element) -> None:
        if element.headers.get("corr") != self.correlation:
            return
        with self._mutex:
            if self._fired:
                return
            self._seen[element.eid] = element
            if len(self._seen) < self.expected:
                return
            self._fired = True
            replies = sorted(self._seen.values(), key=lambda e: e.eid)
        # An action may decline (return False) — e.g. a join that found
        # it could not yet consume every reply — in which case the
        # trigger re-arms and fires again on the next observation.
        if self.action(replies) is False:
            with self._mutex:
                self._fired = False

    @property
    def fired(self) -> bool:
        with self._mutex:
            return self._fired
