"""One recoverable queue.

Transactional behaviour is an element state machine (Section 10's
"readers scan the queue and ignore write-locked elements"):

* ``Enqueue`` inside transaction T creates a slot in ``ENQ_PENDING``;
  T's commit makes it ``AVAILABLE`` (and wakes blocked dequeuers); T's
  abort deletes it.
* ``Dequeue`` inside T picks the first eligible slot and marks it
  ``DEQ_PENDING``; T's commit removes it (into a bounded archive that
  serves ``Read`` after removal — the "retain the reply until the
  client says to delete it" idea of Section 2); T's abort returns it to
  ``AVAILABLE`` and durably increments its abort count; the
  ``max_aborts``-th abort moves it to the error queue instead
  (Section 4.2's termination guarantee).
* In ``SKIP_LOCKED`` mode a dequeue passes over ``DEQ_PENDING`` slots
  (tolerating the non-FIFO anomaly Section 10 calls "tolerable"); in
  ``STRICT`` mode it refuses (``ElementLockedError``) when the head is
  uncommitted, which benchmark C7 shows is the performance price of
  exact FIFO.
* ``Kill_element`` (Section 7) deletes a named element, aborting the
  uncommitted dequeuer if there is one.

Durability: redo records through the repository's shared log (``enq`` /
``deq`` keyed by eid — idempotent), abort counts as auto-committed
records so they survive crashes independently of the aborting
transaction.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import logging
import threading
import time as _time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    ElementLockedError,
    KillFailedError,
    NoSuchElementError,
    QueueEmpty,
    QueueStoppedError,
    StorageError,
)
from repro.queueing.element import Element, ElementState
from repro.transaction.manager import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queueing.repository import QueueRepository

logger = logging.getLogger(__name__)

#: the fallback scan path compacts its stale ``_order`` entries with a
#: single-pass rebuild once this many accumulate; below it, per-index
#: deletion is cheaper than copying the whole list
_STALE_COMPACT_THRESHOLD = 32


class DequeueMode(enum.Enum):
    """Section 10's ordering/concurrency trade-off."""

    #: pass over uncommitted (DEQ_PENDING) elements — high concurrency,
    #: occasionally non-FIFO completion order
    SKIP_LOCKED = "skip_locked"
    #: refuse to pass an uncommitted head — exact FIFO, low concurrency
    STRICT = "strict"


@dataclass
class QueueConfig:
    """Per-queue attributes (set by data-definition operations)."""

    name: str
    #: the "n" of Section 4.2: the n-th dequeue-abort moves the element
    #: to the error queue instead of back here
    max_aborts: int = 3
    #: name of the error queue in the same repository (None disables the
    #: error-queue move; elements then retry forever)
    error_queue: str | None = None
    mode: DequeueMode = DequeueMode.SKIP_LOCKED
    #: how many removed elements to retain for Read/Rereceive
    archive_limit: int = 1024
    #: count dequeue *attempts* durably so that even crash-aborts are
    #: bounded (extension beyond the paper's explicit-abort counting)
    count_crash_attempts: bool = False
    #: header names to hash-index for O(1) content-based retrieval
    #: (Section 10); e.g. ["rid"] lets cancellation find a request
    #: without scanning the queue
    index_headers: tuple[str, ...] = ()

    def to_record(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "max_aborts": self.max_aborts,
            "error_queue": self.error_queue,
            "mode": self.mode.value,
            "archive_limit": self.archive_limit,
            "count_crash_attempts": self.count_crash_attempts,
            "index_headers": list(self.index_headers),
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "QueueConfig":
        return cls(
            name=record["name"],
            max_aborts=record["max_aborts"],
            error_queue=record["error_queue"],
            mode=DequeueMode(record["mode"]),
            archive_limit=record["archive_limit"],
            count_crash_attempts=record["count_crash_attempts"],
            index_headers=tuple(record.get("index_headers", ())),
        )


@dataclass
class _Slot:
    element: Element
    state: ElementState
    pending_txn: int | None = None
    #: monotonic time the element became visible (enqueue committed);
    #: volatile only — recovered slots have no stamp, so their age is
    #: unknown rather than measured from the restart
    visible_at: float | None = None


class RecoverableQueue:
    """A recoverable queue; a resource manager of its repository."""

    def __init__(self, config: QueueConfig, repo: "QueueRepository"):
        self.config = config
        self.repo = repo
        self.rm_name = f"q:{config.name}"
        self._slots: OrderedDict[int, _Slot] = OrderedDict()
        #: removed elements retained for Read after dequeue (bounded)
        self._archive: OrderedDict[int, Element] = OrderedDict()
        #: (sort_key, eid) kept sorted; stale entries skipped lazily.
        #: Only the fallback scan path (STRICT mode, content selectors)
        #: reads it.
        self._order: list[tuple[tuple[int, int], int]] = []
        #: ready index: a (sort_key, eid) heap holding exactly the
        #: AVAILABLE slots (plus lazily-deleted stale entries), pushed
        #: on every transition *into* AVAILABLE — enqueue-commit,
        #: dequeue-abort return, recovery redo/restore — so the
        #: skip-locked no-selector dequeue selects in O(log n) no
        #: matter how many elements are pending
        self._ready: list[tuple[tuple[int, int], int]] = []
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        self._next_seq = 1
        self.stopped = False
        #: maintained counts by slot state — ``depth()``/``pending()``
        #: back per-op gauges, so they must stay O(1), not scans
        self._n_available = 0
        self._n_pending = 0
        #: hash index: header name -> header value -> set of eids.
        #: Section 10: content-based scheduling "usually requires a QM
        #: with content-based retrieval capability" — this provides it
        #: in O(1) for the headers named in ``config.index_headers``.
        self._header_index: dict[str, dict[Any, set[int]]] = {
            h: {} for h in config.index_headers
        }
        #: callbacks fired (outside the mutex) when an enqueue commits:
        #: used by alert thresholds, redirection, and triggers
        self._on_visible: list[Callable[["RecoverableQueue", Element], None]] = []
        #: benchmark counters
        self.enqueues = 0
        self.dequeues = 0
        self.dequeue_aborts = 0
        self.skipped_locked = 0
        # -- observability (cached children; no-ops when disabled) -----
        obs = repo.obs
        self._obs_on = obs.enabled
        metrics = obs.metrics
        labels = {"queue": config.name}
        self._m_enqueues = metrics.counter(
            "queue_enqueues_total", "elements enqueued", ("queue",)
        ).labels(**labels)
        self._m_dequeues = metrics.counter(
            "queue_dequeues_total", "elements dequeued", ("queue",)
        ).labels(**labels)
        self._m_deq_aborts = metrics.counter(
            "queue_dequeue_aborts_total",
            "dequeues undone by transaction abort (retries)", ("queue",)
        ).labels(**labels)
        self._m_skip_locked = metrics.counter(
            "queue_skip_locked_total",
            "elements passed over because another dequeue holds them", ("queue",)
        ).labels(**labels)
        self._m_error_moves = metrics.counter(
            "queue_error_moves_total",
            "elements moved to the error queue (Section 4.2 bound)", ("queue",)
        ).labels(**labels)
        self._m_kills = metrics.counter(
            "queue_kills_total", "elements deleted by Kill_element", ("queue",)
        ).labels(**labels)
        self._m_age = metrics.histogram(
            "queue_age_seconds",
            "end-to-end element age: enqueue visibility to dequeue "
            "selection (the paper's request-latency figure)", ("queue",),
            buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                     0.1, 0.25, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0),
        ).labels(**labels)
        self._m_select = metrics.histogram(
            "queue_select_seconds",
            "time spent choosing the next eligible element inside "
            "dequeue (the hot-path scan this queue's ready index "
            "replaces)", ("queue",),
            buckets=(0.000001, 0.000005, 0.00001, 0.00005, 0.0001,
                     0.0005, 0.001, 0.005, 0.01, 0.05, 0.1),
        ).labels(**labels)
        depth_gauge = metrics.gauge(
            "queue_depth", "committed, eligible elements", ("queue",)
        ).labels(**labels)
        pending_gauge = metrics.gauge(
            "queue_pending", "elements held by uncommitted transactions", ("queue",)
        ).labels(**labels)
        if self._obs_on:
            # Sampled lazily at snapshot time: the hot path pays nothing.
            depth_gauge.set_function(self.depth)
            pending_gauge.set_function(self.pending)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.config.name

    def depth(self) -> int:
        """Number of committed, eligible elements.  O(1)."""
        with self._mutex:
            return self._n_available

    def pending(self) -> int:
        """Number of elements held by uncommitted transactions.  O(1)."""
        with self._mutex:
            return self._n_pending

    def _count(self, state: ElementState, delta: int) -> None:
        """Adjust the maintained counters for a slot entering (+1) or
        leaving (-1) ``state``.  Callers hold ``_mutex``."""
        if state is ElementState.AVAILABLE:
            self._n_available += delta
        else:
            self._n_pending += delta

    def eids(self) -> list[int]:
        with self._mutex:
            return list(self._slots.keys())

    def subscribe_visible(
        self, callback: Callable[["RecoverableQueue", Element], None]
    ) -> None:
        """Register a callback fired whenever an element becomes visible
        (enqueue committed).  Powers Section 9's alert thresholds /
        redirection / start-on-arrival triggers."""
        self._on_visible.append(callback)

    # ------------------------------------------------------------------
    # Data definition
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the queue: operations raise until started again.
        Blocked dequeuers wake promptly and raise."""
        with self._cond:
            self.stopped = True
            self._cond.notify_all()

    def start(self) -> None:
        with self._cond:
            self.stopped = False
            self._cond.notify_all()

    def _check_started(self) -> None:
        if self.stopped:
            raise QueueStoppedError(f"queue {self.name!r} is stopped")

    # ------------------------------------------------------------------
    # Header index (content-based retrieval, Section 10)
    # ------------------------------------------------------------------

    def _index_add(self, element: Element) -> None:
        for header, buckets in self._header_index.items():
            value = element.headers.get(header)
            if value is not None:
                try:
                    buckets.setdefault(value, set()).add(element.eid)
                except TypeError:  # unhashable header value: not indexed
                    continue

    def _index_remove(self, element: Element) -> None:
        for header, buckets in self._header_index.items():
            value = element.headers.get(header)
            if value is None:
                continue
            try:
                bucket = buckets.get(value)
            except TypeError:
                continue
            if bucket is not None:
                bucket.discard(element.eid)
                if not bucket:
                    buckets.pop(value, None)

    def find_by_header(self, header: str, value: Any) -> list[int]:
        """Eids of committed-or-pending elements whose ``header`` equals
        ``value``.  O(1) when ``header`` is in ``config.index_headers``,
        otherwise a scan."""
        with self._mutex:
            buckets = self._header_index.get(header)
            if buckets is not None:
                return sorted(buckets.get(value, ()))
            return sorted(
                eid
                for eid, slot in self._slots.items()
                if slot.element.headers.get(header) == value
            )

    def browse(self) -> list[Element]:
        """Snapshot of committed elements in dequeue order without
        consuming them (IMS-style browse / Get-Next)."""
        with self._mutex:
            ordered = sorted(
                (s.element for s in self._slots.values()
                 if s.state is ElementState.AVAILABLE),
                key=Element.sort_key,
            )
            return [e.copy() for e in ordered]

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------

    def enqueue(
        self,
        txn: Transaction,
        body: Any,
        *,
        priority: int = 0,
        headers: dict[str, Any] | None = None,
        eid: int | None = None,
    ) -> int:
        """Enqueue ``body``; visible when ``txn`` commits.

        ``eid`` is normally allocated by the repository; passing one
        explicitly preserves element identity across queue moves
        (error-queue moves, redirection — Section 10)."""
        self._check_started()
        txn.require_active()
        if eid is None:
            eid = self.repo.alloc_eid()
        self.repo.injector.reach(f"queue.{self.name}.enqueue.before_log")
        with self._mutex:
            element = Element(
                eid=eid,
                body=body,
                priority=priority,
                enqueue_seq=self._next_seq,
                headers=dict(headers or {}),
            )
            self._next_seq += 1
            txn.log_update(self.rm_name, {"op": "enq", "el": element.to_record()})
            self._slots[eid] = _Slot(element, ElementState.ENQ_PENDING, txn.id)
            self._count(ElementState.ENQ_PENDING, +1)
            self._index_add(element)
            bisect.insort(self._order, (element.sort_key(), eid))
        txn.add_undo(lambda: self._discard_slot(eid))
        txn.on_commit(lambda: self._commit_enqueue(eid))
        self.repo.injector.reach(f"queue.{self.name}.enqueue.after_log")
        self.enqueues += 1
        self._m_enqueues.inc()
        return eid

    def _discard_slot(self, eid: int) -> None:
        with self._mutex:
            slot = self._slots.pop(eid, None)
            if slot is not None:
                self._count(slot.state, -1)
                self._index_remove(slot.element)

    def _commit_enqueue(self, eid: int) -> None:
        with self._cond:
            slot = self._slots.get(eid)
            if slot is None:  # killed before the hook ran
                return
            self._count(slot.state, -1)
            slot.state = ElementState.AVAILABLE
            self._count(ElementState.AVAILABLE, +1)
            slot.pending_txn = None
            heapq.heappush(self._ready, (slot.element.sort_key(), eid))
            if self._obs_on:
                slot.visible_at = _time.monotonic()
            element = slot.element.copy()
            self._cond.notify_all()
        for callback in self._on_visible:
            callback(self, element)

    # ------------------------------------------------------------------
    # Dequeue
    # ------------------------------------------------------------------

    def dequeue(
        self,
        txn: Transaction,
        *,
        selector: Callable[[Element], bool] | None = None,
        block: bool = False,
        timeout: float | None = None,
        error_queue: str | None = None,
    ) -> Element:
        """Remove and return the next eligible element within ``txn``.

        Eligibility order: priority desc, then FIFO; ``selector``
        restricts by content (Section 10's content-based retrieval).
        ``block=True`` waits for an element (the "notify lock" of
        Section 10) up to ``timeout`` seconds.

        On abort the element returns to the queue; its ``max_aborts``-th
        abort moves it to ``error_queue`` (argument overrides the queue
        config, mirroring the ``eh`` parameter of Figure 3's Dequeue).
        """
        self._check_started()
        txn.require_active()
        deadline = None if timeout is None else _time.monotonic() + timeout
        with self._cond:
            while True:
                if self._obs_on:
                    select_started = _time.perf_counter()
                    slot = self._select_slot(txn, selector)
                    self._m_select.observe(
                        _time.perf_counter() - select_started
                    )
                else:
                    slot = self._select_slot(txn, selector)
                if slot is not None:
                    break
                if not block:
                    raise QueueEmpty(f"queue {self.name!r} has no eligible element")
                remaining = None if deadline is None else deadline - _time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise QueueEmpty(
                        f"queue {self.name!r}: no element within {timeout}s"
                    )
                # Wait for a notify: element visible (_commit_enqueue),
                # element returned (_return_slot), start(), or stop().
                # No polling — waiters wake promptly and idle CPU is nil.
                self._cond.wait(timeout=remaining)
                self._check_started()
            eid = slot.element.eid
            if self._obs_on and slot.visible_at is not None:
                # Age since first visibility: a dequeue-abort round trip
                # keeps the original stamp, so retries age the element.
                self._m_age.observe(_time.monotonic() - slot.visible_at)
            self.repo.injector.reach(f"queue.{self.name}.dequeue.before_log")
            txn.log_update(self.rm_name, {"op": "deq", "eid": eid})
            self._count(slot.state, -1)
            slot.state = ElementState.DEQ_PENDING
            self._count(ElementState.DEQ_PENDING, +1)
            slot.pending_txn = txn.id
            element = slot.element.copy()
        if self.config.count_crash_attempts:
            self._bump_abort_count(eid, crash_attempt=True)
        txn.add_undo(lambda: self._return_slot(eid))
        txn.on_commit(lambda: self._commit_dequeue(eid))
        txn.on_abort(lambda: self._after_dequeue_abort(eid, error_queue))
        self.repo.injector.reach(f"queue.{self.name}.dequeue.after_log")
        self.dequeues += 1
        self._m_dequeues.inc()
        return element

    def _select_slot(
        self, txn: Transaction, selector: Callable[[Element], bool] | None
    ) -> _Slot | None:
        """First eligible slot in order.

        Routing: the skip-locked no-selector hot path reads the ready
        index in O(log n); skip-locked equality selectors over an
        indexed header read the O(1) ``_header_index`` bucket; STRICT
        mode and content selectors keep the correct full scan.  All
        paths choose the same element for the same queue state — the
        property test in ``tests/queueing/test_ready_index.py`` pins
        that equivalence.

        STRICT mode raises :class:`ElementLockedError` if the first
        committed element is pending in another transaction and a later
        one would otherwise be taken."""
        if self.config.mode is DequeueMode.SKIP_LOCKED:
            if selector is None:
                return self._select_ready()
            indexed = getattr(selector, "header_equals", None)
            if indexed is not None and indexed[0] in self._header_index:
                return self._select_indexed(selector, *indexed)
        return self._select_scan(txn, selector)

    def _select_ready(self) -> _Slot | None:
        """Skip-locked fast path: peek the best valid ready-index entry.

        The chosen entry is deliberately *not* popped — the caller's
        ``log_update`` may still fail, and the entry only goes stale
        once the slot actually leaves AVAILABLE.  Stale entries (slot
        gone, re-keyed, or no longer AVAILABLE) are popped lazily;
        passing over an uncommitted dequeue's entry is exactly the
        Section 10 skip, so it is counted as one."""
        ready = self._ready
        slots = self._slots
        while ready:
            key, eid = ready[0]
            slot = slots.get(eid)
            if slot is not None and slot.element.sort_key() == key:
                if slot.state is ElementState.AVAILABLE:
                    return slot
                if slot.state is ElementState.DEQ_PENDING:
                    self.skipped_locked += 1
                    self._m_skip_locked.inc()
            heapq.heappop(ready)
        return None

    def _select_indexed(
        self,
        selector: Callable[[Element], bool],
        header: str,
        value: Any,
    ) -> _Slot | None:
        """Skip-locked equality selector over an indexed header: pick
        the best AVAILABLE element of the O(1) hash bucket instead of
        scanning the whole queue.  Pass-overs are counted for the
        bucket's own pending elements that sort before the choice (the
        scan would also have skipped pending non-matching elements;
        the bucket cannot see those)."""
        try:
            bucket = self._header_index[header].get(value)
        except TypeError:  # unhashable selector value: nothing indexed
            return None
        if not bucket:
            return None
        chosen: _Slot | None = None
        chosen_key: tuple[int, int] | None = None
        pending_keys: list[tuple[int, int]] = []
        for eid in bucket:
            slot = self._slots.get(eid)
            if slot is None:
                continue
            if slot.state is ElementState.ENQ_PENDING:
                continue  # uncommitted enqueue: invisible
            key = slot.element.sort_key()
            if slot.state is ElementState.DEQ_PENDING:
                pending_keys.append(key)
                continue
            if not selector(slot.element):
                continue
            if chosen_key is None or key < chosen_key:
                chosen, chosen_key = slot, key
        skipped = sum(
            1 for key in pending_keys
            if chosen_key is None or key < chosen_key
        )
        if skipped:
            self.skipped_locked += skipped
            self._m_skip_locked.inc(skipped)
        return chosen

    def _select_scan(
        self, txn: Transaction, selector: Callable[[Element], bool] | None
    ) -> _Slot | None:
        """The fallback full scan (STRICT mode, content selectors);
        prunes stale order entries as it goes."""
        stale: list[int] = []
        chosen: _Slot | None = None
        for index, (key, eid) in enumerate(self._order):
            slot = self._slots.get(eid)
            if slot is None or slot.element.sort_key() != key:
                stale.append(index)
                continue
            if slot.state is ElementState.ENQ_PENDING:
                continue  # uncommitted enqueue: invisible
            if slot.state is ElementState.DEQ_PENDING:
                if self.config.mode is DequeueMode.STRICT:
                    raise ElementLockedError(
                        f"queue {self.name!r}: head element {eid} is held by "
                        f"uncommitted transaction {slot.pending_txn}"
                    )
                self.skipped_locked += 1
                self._m_skip_locked.inc()
                continue
            if selector is not None and not selector(slot.element):
                continue
            chosen = slot
            break
        if len(stale) >= _STALE_COMPACT_THRESHOLD:
            # Single-pass filtered rebuild: deleting k entries in place
            # is O(k * n); one copy is O(n).
            dead = set(stale)
            self._order = [
                entry for index, entry in enumerate(self._order)
                if index not in dead
            ]
        else:
            for index in reversed(stale):
                del self._order[index]
        return chosen

    def _return_slot(self, eid: int) -> None:
        """Undo of a dequeue: the element becomes available again."""
        with self._cond:
            slot = self._slots.get(eid)
            if slot is not None and slot.state is ElementState.DEQ_PENDING:
                self._count(ElementState.DEQ_PENDING, -1)
                slot.state = ElementState.AVAILABLE
                self._count(ElementState.AVAILABLE, +1)
                slot.pending_txn = None
                heapq.heappush(self._ready, (slot.element.sort_key(), eid))
                self._cond.notify_all()

    def _commit_dequeue(self, eid: int) -> None:
        with self._mutex:
            slot = self._slots.pop(eid, None)
            if slot is not None:
                self._count(slot.state, -1)
                self._index_remove(slot.element)
                self._archive_element(slot.element)

    def _after_dequeue_abort(self, eid: int, error_queue: str | None) -> None:
        """Abort hook: durably count the abort; on the n-th, move the
        element to the error queue (Section 4.2)."""
        self.dequeue_aborts += 1
        self._m_deq_aborts.inc()
        if self.config.count_crash_attempts:
            # The attempt was already counted durably at dequeue time.
            with self._mutex:
                slot = self._slots.get(eid)
                count = slot.element.abort_count if slot is not None else None
        else:
            count = self._bump_abort_count(eid)
        if count is None:
            return
        target_name = error_queue or self.config.error_queue
        if target_name is not None and count >= self.config.max_aborts:
            try:
                self._move_to_error(eid, target_name, count)
            except StorageError:
                # The move runs its own transaction; if storage is
                # failing (the very thing that may have aborted us) the
                # element simply stays in the queue and the move retries
                # after the next abort.  Raising here would propagate
                # out of an abort hook and wedge the aborting caller.
                logger.warning(
                    "queue %r: error-queue move of element %d failed; "
                    "element stays queued", self.name, eid,
                )

    def _bump_abort_count(self, eid: int, crash_attempt: bool = False) -> int | None:
        with self._mutex:
            slot = self._slots.get(eid)
            if slot is None:
                return None
            slot.element.abort_count += 1
            count = slot.element.abort_count
        # Durable independently of any transaction: a retry loop must not
        # reset its own counter by aborting.
        try:
            self.repo.log.log_auto(
                self.rm_name,
                {"op": "abortcount", "eid": eid, "n": count, "crash": crash_attempt},
            )
        except StorageError:
            # Run from abort hooks: must not re-raise (see
            # _after_dequeue_abort).  The volatile count still advanced,
            # so the Section 4.2 bound holds until the next restart; it
            # merely restarts from the last durable value afterwards.
            logger.warning(
                "queue %r: abort-count force for element %d failed",
                self.name, eid,
            )
        return count

    def _move_to_error(self, eid: int, target_name: str, count: int) -> None:
        """Move the element (same eid — identity preserved) to the error
        queue in a fresh internal transaction."""
        target = self.repo.get_queue(target_name)
        with self._mutex:
            slot = self._slots.get(eid)
            if slot is None or slot.state is not ElementState.AVAILABLE:
                return
            element = slot.element.copy()
        with self.repo.tm.transaction() as txn:
            txn.log_update(self.rm_name, {"op": "deq", "eid": eid})
            headers = dict(element.headers)
            headers["abort_code"] = f"aborted {count} times"
            headers["origin_queue"] = self.name
            target.enqueue(
                txn,
                element.stored_body,
                priority=element.priority,
                headers=headers,
                eid=eid,
            )
        with self._mutex:
            slot = self._slots.pop(eid, None)
            if slot is not None:
                self._count(slot.state, -1)
                self._archive_element(slot.element)
        self._m_error_moves.inc()
        logger.warning(
            "queue %r: element %d moved to error queue %r after %d aborts",
            self.name, eid, target_name, count,
        )
        if self._obs_on:
            self.repo.obs.tracer.event(
                "queue.error_move",
                parent=element.headers.get("trace"),
                queue=self.name,
                error_queue=target_name,
                eid=eid,
                aborts=count,
            )

    def sweep_poisoned(self) -> int:
        """Move every available element whose abort count already meets
        ``max_aborts`` to the error queue.  Called by the repository
        after recovery so that crash-attempt counting
        (``count_crash_attempts``) bounds even always-crashing requests.
        Returns the number of elements moved."""
        if self.config.error_queue is None:
            return 0
        with self._mutex:
            poisoned = [
                (s.element.eid, s.element.abort_count)
                for s in self._slots.values()
                if s.state is ElementState.AVAILABLE
                and s.element.abort_count >= self.config.max_aborts
            ]
        for eid, count in poisoned:
            self._move_to_error(eid, self.config.error_queue, count)
        return len(poisoned)

    # ------------------------------------------------------------------
    # Read / Kill_element
    # ------------------------------------------------------------------

    def read(self, eid: int) -> Element:
        """Return the element with ``eid`` without modifying it
        (Figure 3's Read).  Finds committed slots, uncommitted-dequeue
        slots, and recently removed (archived) elements — Section 4.3
        requires Read to work "even if the last operation was a Dequeue"."""
        with self._mutex:
            slot = self._slots.get(eid)
            if slot is not None and slot.state is not ElementState.ENQ_PENDING:
                return slot.element.copy()
            archived = self._archive.get(eid)
            if archived is not None:
                return archived.copy()
        raise NoSuchElementError(f"queue {self.name!r} has no element {eid}")

    def kill_element(self, eid: int) -> bool:
        """Section 7's Kill_element: delete the element if possible.

        * not yet dequeued → durably deleted, returns True;
        * dequeued by an uncommitted transaction → that transaction is
          aborted and the element deleted, returns True;
        * unknown / already consumed → returns False (the request can
          no longer be cancelled this way; see :mod:`repro.core.saga`).
        """
        self._check_started()
        with self._mutex:
            slot = self._slots.get(eid)
            if slot is None:
                return False
            if slot.state is ElementState.ENQ_PENDING:
                raise KillFailedError(
                    f"element {eid} is an uncommitted enqueue; abort its "
                    "transaction instead"
                )
            holder = slot.pending_txn if slot.state is ElementState.DEQ_PENDING else None
        if holder is not None:
            self.repo.tm.abort_by_id(holder, reason=f"kill_element({eid})")
        with self.repo.tm.transaction() as txn:
            with self._mutex:
                slot = self._slots.get(eid)
                if slot is None or slot.state is not ElementState.AVAILABLE:
                    return False
                txn.log_update(self.rm_name, {"op": "deq", "eid": eid})
                removed = self._slots.pop(eid)
                self._count(removed.state, -1)
                self._index_remove(removed.element)
                self._archive_element(removed.element)
        self._m_kills.inc()
        return True

    # ------------------------------------------------------------------
    # Archive
    # ------------------------------------------------------------------

    def _archive_element(self, element: Element) -> None:
        self._archive[element.eid] = element
        self._archive.move_to_end(element.eid)
        while len(self._archive) > self.config.archive_limit:
            self._archive.popitem(last=False)

    # ------------------------------------------------------------------
    # Resource-manager protocol
    # ------------------------------------------------------------------

    def redo(self, data: dict[str, Any]) -> None:
        op = data["op"]
        with self._mutex:
            if op == "enq":
                element = Element.from_record(data["el"])
                previous = self._slots.get(element.eid)
                if previous is not None:
                    self._count(previous.state, -1)
                self._slots[element.eid] = _Slot(element, ElementState.AVAILABLE)
                self._count(ElementState.AVAILABLE, +1)
                self._index_add(element)
                if previous is None:
                    bisect.insort(self._order, (element.sort_key(), element.eid))
                    heapq.heappush(
                        self._ready, (element.sort_key(), element.eid)
                    )
                self._next_seq = max(self._next_seq, element.enqueue_seq + 1)
            elif op == "deq":
                slot = self._slots.pop(data["eid"], None)
                if slot is not None:
                    self._count(slot.state, -1)
                    self._index_remove(slot.element)
                    self._archive_element(slot.element)
            elif op == "abortcount":
                slot = self._slots.get(data["eid"])
                if slot is not None:
                    slot.element.abort_count = max(
                        slot.element.abort_count, data["n"]
                    )
            else:  # pragma: no cover - log corruption guard
                raise ValueError(f"unknown queue redo op {op!r}")

    def snapshot(self) -> Any:
        with self._mutex:
            return {
                "slots": [
                    s.element.to_record()
                    for s in self._slots.values()
                    # Committed view: an uncommitted enqueue is invisible
                    # (if it commits, its `enq` record is above the fuzzy
                    # checkpoint's recovery LSN and gets replayed); an
                    # uncommitted dequeue leaves the element committed-
                    # present, and a later `deq` replay removes it.
                    if s.state is not ElementState.ENQ_PENDING
                ],
                "archive": [e.to_record() for e in self._archive.values()],
                "next_seq": self._next_seq,
            }

    def restore(self, state: Any) -> None:
        with self._mutex:
            self._slots.clear()
            self._order = []
            self._ready = []
            self._archive.clear()
            self._n_available = 0
            self._n_pending = 0
            for buckets in self._header_index.values():
                buckets.clear()
            for record in state["slots"]:
                element = Element.from_record(record)
                self._slots[element.eid] = _Slot(element, ElementState.AVAILABLE)
                self._count(ElementState.AVAILABLE, +1)
                self._index_add(element)
                bisect.insort(self._order, (element.sort_key(), element.eid))
                heapq.heappush(self._ready, (element.sort_key(), element.eid))
            for record in state["archive"]:
                element = Element.from_record(record)
                self._archive[element.eid] = element
            self._next_seq = state["next_seq"]

    def max_eid(self) -> int:
        """Largest eid this queue knows about (repository eid recovery)."""
        with self._mutex:
            eids = list(self._slots.keys()) + list(self._archive.keys())
            return max(eids, default=0)
