"""Volatile queues and the volatile-relay pattern (Section 10).

"A volatile queue is one whose contents is lost by a node failure.
Volatile queues have a useful role in some systems.  For example,
suppose a client redirects its volatile output queue to the volatile
input queue of a server at a different node.  The reliability of the
two volatile queues may be as high as that of a single stable queue."

A :class:`VolatileQueue` supports the same enqueue/dequeue shape as a
recoverable queue but performs no logging; transactional callers still
get abort-undo (in-memory), but a crash empties it.  Benchmark C9
compares throughput and loss against stable queues.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any, Callable

from repro.errors import QueueEmpty
from repro.queueing.element import Element
from repro.transaction.manager import Transaction


class VolatileQueue:
    """An in-memory queue with transactional visibility but no
    durability."""

    def __init__(self, name: str):
        self.name = name
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        #: committed elements, FIFO within priority
        self._elements: list[Element] = []
        self._next_seq = 1
        self._next_eid = 1
        self.enqueues = 0
        self.dequeues = 0

    def depth(self) -> int:
        with self._mutex:
            return len(self._elements)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def enqueue(
        self,
        txn: Transaction | None,
        body: Any,
        *,
        priority: int = 0,
        headers: dict[str, Any] | None = None,
    ) -> int:
        """Visible at commit (or immediately when ``txn`` is None)."""
        with self._mutex:
            element = Element(
                eid=self._next_eid,
                body=body,
                priority=priority,
                enqueue_seq=self._next_seq,
                headers=dict(headers or {}),
            )
            self._next_eid += 1
            self._next_seq += 1
        self.enqueues += 1
        if txn is None:
            self._insert(element)
        else:
            txn.on_commit(lambda: self._insert(element))
        return element.eid

    def _insert(self, element: Element) -> None:
        with self._cond:
            self._elements.append(element)
            self._elements.sort(key=Element.sort_key)
            self._cond.notify_all()

    def dequeue(
        self,
        txn: Transaction | None = None,
        *,
        selector: Callable[[Element], bool] | None = None,
        block: bool = False,
        timeout: float | None = None,
    ) -> Element:
        """Remove the next element; an aborting transaction puts it
        back (in-memory undo only)."""
        deadline = None if timeout is None else _time.monotonic() + timeout
        with self._cond:
            while True:
                index = self._find(selector)
                if index is not None:
                    element = self._elements.pop(index)
                    break
                if not block:
                    raise QueueEmpty(f"volatile queue {self.name!r} is empty")
                remaining = None if deadline is None else deadline - _time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise QueueEmpty(
                        f"volatile queue {self.name!r}: no element within {timeout}s"
                    )
                self._cond.wait(timeout=0.05 if remaining is None else min(remaining, 0.05))
        self.dequeues += 1
        if txn is not None:
            txn.add_undo(lambda: self._insert(element))
        return element

    def _find(self, selector: Callable[[Element], bool] | None) -> int | None:
        for index, element in enumerate(self._elements):
            if selector is None or selector(element):
                return index
        return None

    def drain(self) -> list[Element]:
        """Remove and return everything (relay transfer)."""
        with self._mutex:
            elements, self._elements = self._elements, []
            return elements

    # ------------------------------------------------------------------
    # Crash semantics
    # ------------------------------------------------------------------

    def crash(self) -> int:
        """Simulate node failure: contents are lost.  Returns how many
        elements vanished (benchmark C9 counts them)."""
        with self._mutex:
            lost = len(self._elements)
            self._elements.clear()
            return lost


class VolatileRelay:
    """Section 10's volatile-to-volatile relay.

    Moves elements from a client-side volatile output queue to a
    server-side volatile input queue.  An element survives iff it is
    relayed before either side crashes; the *pair* behaves like one
    queue whose reliability window is the relay interval.
    """

    def __init__(self, source: VolatileQueue, target: VolatileQueue):
        self.source = source
        self.target = target
        self.relayed = 0

    def pump(self, limit: int | None = None) -> int:
        """Move up to ``limit`` elements (all, when None); returns the
        number moved."""
        moved = 0
        while limit is None or moved < limit:
            try:
                element = self.source.dequeue()
            except QueueEmpty:
                break
            self.target.enqueue(
                None,
                element.stored_body,
                priority=element.priority,
                headers=element.headers,
            )
            moved += 1
        self.relayed += moved
        return moved
