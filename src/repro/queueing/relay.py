"""Store-and-forward relay between repositories — Section 1.

"If a client enqueues its requests to a local queue, and periodically
moves its local requests to the remote input queue of a server process,
then the server appears to provide a reliable service to the client
even if the client and server nodes are frequently partitioned by
communication failures."

:class:`StableRelay` moves elements from a queue on one repository
(the client's node) to a queue on another (the server's node).  The
two nodes fail independently and the link between them may be
partitioned, so the transfer cannot be a single transaction; instead
the relay is **at-least-once with remote deduplication**:

1. read (not dequeue) the next local element;
2. enqueue it remotely, tagged with a *relay key*, inside a remote
   transaction that also records the key in a durable dedup table —
   a duplicate key makes the enqueue a no-op;
3. only then dequeue the local element (its own local transaction).

A crash or partition between steps re-sends the element later; the
dedup table makes the retry harmless, so the end-to-end effect is
exactly-once — the same argument as the paper's request protocol, one
level down.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import PartitionedError, QueueEmpty
from repro.queueing.repository import QueueRepository


class StableRelay:
    """Exactly-once element transfer between two repositories."""

    def __init__(
        self,
        source_repo: QueueRepository,
        source_queue: str,
        target_repo: QueueRepository,
        target_queue: str,
        *,
        link_up: Callable[[], bool] | None = None,
    ):
        self.source_repo = source_repo
        self.source_queue = source_queue
        self.target_repo = target_repo
        self.target_queue = target_queue
        #: connectivity probe; None means always connected
        self.link_up = link_up
        #: durable dedup table on the TARGET node
        self.seen = target_repo.create_table(f"{target_queue}.relay_dedup")
        self.forwarded = 0
        self.duplicates_suppressed = 0

    def _relay_key(self, eid: int) -> str:
        return f"{self.source_repo.name}/{self.source_queue}/{eid}"

    def pump_one(self) -> bool:
        """Move one element; returns False when the local queue is
        empty.  Raises :class:`PartitionedError` when the link is down
        (the caller retries after the partition heals)."""
        if self.link_up is not None and not self.link_up():
            raise PartitionedError(
                f"link {self.source_repo.name} -> {self.target_repo.name} is down"
            )
        source = self.source_repo.get_queue(self.source_queue)
        eids = source.eids()
        element = None
        for eid in eids:
            try:
                candidate = source.read(eid)
            except Exception:
                continue
            element = candidate
            break
        if element is None:
            return False

        key = self._relay_key(element.eid)
        # Step 2: remote enqueue + dedup mark, one remote transaction.
        target = self.target_repo.get_queue(self.target_queue)
        with self.target_repo.tm.transaction() as txn:
            if self.seen.get(txn, key):
                self.duplicates_suppressed += 1
            else:
                headers = dict(element.headers)
                headers["relay_key"] = key
                target.enqueue(
                    txn, element.stored_body, priority=element.priority, headers=headers
                )
                self.seen.put(txn, key, True)
        # Step 3: local dequeue (safe to crash before this — the dedup
        # table absorbs the re-send).
        with self.source_repo.tm.transaction() as txn:
            source.dequeue(txn, selector=lambda e: e.eid == element.eid)
        self.forwarded += 1
        return True

    def pump(self, limit: int | None = None) -> int:
        """Move up to ``limit`` elements (all when None); returns how
        many moved.  Stops silently at a partition."""
        moved = 0
        while limit is None or moved < limit:
            try:
                if not self.pump_one():
                    break
            except PartitionedError:
                break
            except QueueEmpty:  # pragma: no cover - raced with a consumer
                break
            moved += 1
        return moved

    def backlog(self) -> int:
        """Elements still waiting on the client's node."""
        return self.source_repo.get_queue(self.source_queue).depth()
