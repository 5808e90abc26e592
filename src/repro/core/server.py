"""The transactional server loop — Figure 5, bottom.

"For each request, the server dequeues the request, processes it, and
enqueues the reply, all within a transaction."

* An abort (application error, deadlock, crash) returns the request to
  the queue; the error-queue bound of Section 4.2 guarantees
  termination for poisoned requests.
* A handler may also *succeed with a failure reply*
  (``Reply(status="failed")``): the paper's "unsuccessfully attempting
  to execute the request, and then returning a reply that indicates
  that fact" — that is still exactly-once processing.
* Request and reply queues are queues of one (sharded) repository, so
  the loop's transaction is routed: a single-shard commit when they
  share a shard, presumed-abort two-phase commit when a placement puts
  the reply queue on another node (:mod:`repro.transaction.routing`) —
  or, per Section 6, the application is restructured as a
  multi-transaction request to avoid 2PC entirely (benchmark F6
  compares both).

Trace events: ``request.executed`` is recorded via a commit hook, so it
appears iff the processing transaction durably committed —
exactly what Exactly-Once Request-Processing quantifies over.
"""

from __future__ import annotations

import logging
import threading
import time as _time
from typing import Any, Callable

from repro.core.request import REPLY_FAILED, REPLY_OK, Reply, Request
from repro.errors import (
    CommError,
    DeadlockError,
    DiskCrashedError,
    QueueEmpty,
    StorageError,
    TransactionAborted,
    WalPanicError,
)
from repro.obs import NULL_SPAN, Observability, Span, get_observability
from repro.queueing.manager import QueueHandle, QueueManager
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.sim.trace import TraceRecorder
from repro.transaction.manager import Transaction

logger = logging.getLogger(__name__)

#: handler(txn, request) -> reply body; raise to abort the attempt.
Handler = Callable[[Transaction, Request], Any]


class ServerStats:
    """Counters for benchmarks."""

    def __init__(self) -> None:
        self.processed = 0
        self.failed_replies = 0
        self.aborts = 0
        self.empty_polls = 0
        self.storage_errors = 0
        self.comm_errors = 0


class Server:
    """One server process on a request queue."""

    def __init__(
        self,
        name: str,
        request_qm: QueueManager,
        request_queue: str,
        handler: Handler,
        trace: TraceRecorder | None = None,
        injector: FaultInjector | None = None,
        selector: Callable[..., bool] | None = None,
        obs: Observability | None = None,
    ):
        self.name = name
        self.request_qm = request_qm
        self.request_queue = request_queue
        self.handler = handler
        self.trace = trace
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.selector = selector
        self.stats = ServerStats()
        obs = obs if obs is not None else get_observability()
        self._obs_on = obs.enabled
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_committed = metrics.counter(
            "requests_committed_total",
            "requests whose processing transaction committed", ("server",),
        ).labels(server=name)
        self._m_failed = metrics.counter(
            "requests_failed_total",
            "committed requests that returned a failure reply", ("server",),
        ).labels(server=name)
        self._m_aborts = metrics.counter(
            "server_aborts_total", "processing attempts that aborted", ("server",)
        ).labels(server=name)
        self._m_empty_polls = metrics.counter(
            "server_empty_polls_total", "polls that found no request", ("server",)
        ).labels(server=name)
        self._m_storage_errors = metrics.counter(
            "server_storage_errors_total",
            "processing attempts aborted by storage errors", ("server",),
        ).labels(server=name)
        self._m_comm_errors = metrics.counter(
            "server_comm_errors_total",
            "processing attempts that lost their queue manager", ("server",),
        ).labels(server=name)
        self._m_processing = metrics.histogram(
            "request_processing_seconds",
            "dequeue-to-commit processing time", ("server",),
        ).labels(server=name)
        # Figure 5: Register(req_q, ap_id, FALSE) — servers don't need tags.
        self._h_in, _, _ = request_qm.register(request_queue, name, stable=False)
        self._reply_handles: dict[str, QueueHandle] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: the error that ended the last serve loop, if it was fatal
        self.last_fatal: BaseException | None = None

    # ------------------------------------------------------------------
    # One request
    # ------------------------------------------------------------------

    def process_one(self, block: bool = False, timeout: float | None = None) -> bool:
        """Process the next request.  Returns False when the queue had
        no eligible element.  Aborts propagate the causing exception
        after the transaction has rolled back (the request is back in
        the queue or moved to the error queue)."""
        try:
            with self.request_qm.repo.tm.transaction() as txn:
                self._attempt(txn, block, timeout)
        except QueueEmpty:
            self.stats.empty_polls += 1
            self._m_empty_polls.inc()
            return False
        return True

    def _attempt(
        self, txn: Transaction, block: bool, timeout: float | None
    ) -> None:
        element = self.request_qm.dequeue(
            self._h_in, txn=txn, block=block, timeout=timeout,
            selector=self.selector,
        )
        request = Request.from_body(element.body)
        rid = request.rid
        self.injector.reach("server.after_dequeue")
        if self.trace is not None:
            self.trace.record("request.attempt", rid, server=self.name)
        span = NULL_SPAN
        t0 = 0.0
        if self._obs_on:
            t0 = _time.perf_counter()
            # One span per processing *attempt*: a request that aborts
            # and is re-dequeued shows several, the last one committed.
            span = self._tracer.start_span(
                "server.process",
                trace_id=rid,
                parent=element.headers.get("trace"),
                server=self.name,
                eid=element.eid,
                attempt=element.abort_count + 1,
            )

        def record_abort() -> None:
            self.stats.aborts += 1
            self._m_aborts.inc()
            span.end("aborted")
            logger.debug("server %r: attempt on %s aborted", self.name, rid)
            if self.trace is not None:
                self.trace.record("request.attempt_aborted", rid, server=self.name)

        txn.on_abort(record_abort)
        # One transaction for dequeue, handler and reply; each lands on
        # the branch of the shard that owns the queue or table it touches.
        with self._tracer.use_span(span):
            reply_body = self.handler(txn, request)
            self.injector.reach("server.after_process")
            reply = self._as_reply(rid, reply_body)
            self._enqueue_reply(txn, request, reply, span)
        self.injector.reach("server.before_commit")

        def record_commit() -> None:
            self.stats.processed += 1
            self._m_committed.inc()
            if reply.status == REPLY_FAILED:
                self.stats.failed_replies += 1
                self._m_failed.inc()
            if self._obs_on:
                self._m_processing.observe(_time.perf_counter() - t0)
                span.annotate("txn.committed", status=reply.status)
            span.end("ok")
            self._trace_commit(rid, reply)

        txn.on_commit(record_commit)

    def _trace_commit(self, rid: str, reply: Reply) -> None:
        """Trace hook run when a processing transaction commits.
        Overridden by pipeline stage servers, whose intermediate
        commits are stage executions, not request executions."""
        if self.trace is not None:
            self.trace.record(
                "request.executed", rid, server=self.name, status=reply.status
            )
            self.trace.record("reply.enqueued", rid, server=self.name)

    @staticmethod
    def _as_reply(rid: str, reply_body: Any) -> Reply:
        if isinstance(reply_body, Reply):
            return Reply(rid=rid, body=reply_body.body, status=reply_body.status)
        return Reply(rid=rid, body=reply_body, status=REPLY_OK)

    def _enqueue_reply(
        self,
        txn: Transaction,
        request: Request,
        reply: Reply,
        span: Span = NULL_SPAN,
    ) -> None:
        handle = self._reply_handles.get(request.reply_to)
        if handle is None:
            handle, _, _ = self.request_qm.register(
                request.reply_to, self.name, stable=False
            )
            self._reply_handles[request.reply_to] = handle
        headers = {"rid": reply.rid, "corr": request.rid}
        ctx = span.context()
        if ctx is not None:
            headers["trace"] = ctx
        # The reply is the transaction's last operation (Figure 5), so
        # a remote queue manager may commit in the same call.
        self.request_qm.enqueue(
            handle,
            reply.to_body(),
            txn=txn,
            headers=headers,
            final=True,
        )

    # ------------------------------------------------------------------
    # Threaded operation (Figure 5's "While (true)" loop)
    # ------------------------------------------------------------------

    def serve_until(
        self,
        should_stop: Callable[[], bool],
        poll_timeout: float = 0.05,
        retry_on: tuple[type[BaseException], ...] = (DeadlockError, TransactionAborted),
    ) -> int:
        """Loop: process requests until ``should_stop()``.  Returns how
        many requests were processed.  ``retry_on`` exceptions abort
        the attempt and continue (the request went back to the queue).

        Storage errors surface as aborts, not wedged state: a transient
        :class:`StorageError` counts and continues (the attempt rolled
        back, the request is requeued); a :class:`WalPanicError` or
        :class:`DiskCrashedError` means the node's storage is unusable
        until restart recovery, so the loop stops and records the cause
        in :attr:`last_fatal` for the supervisor (chaos engine, test
        harness) to act on.

        A :class:`CommError` means a remote queue manager is
        unreachable (a shard down for longer than the transport's retry
        budget): whatever the attempt did is settled by the shard's
        restart recovery, so it counts, waits one ``poll_timeout`` and
        continues — the loop outlives the outage.
        """
        processed = 0
        self.last_fatal = None
        while not should_stop():
            try:
                if self.process_one(block=True, timeout=poll_timeout):
                    processed += 1
            except retry_on:
                continue
            except (WalPanicError, DiskCrashedError) as exc:
                self.stats.storage_errors += 1
                self._m_storage_errors.inc()
                self.last_fatal = exc
                logger.warning(
                    "server %r: storage unusable (%s); stopping until restart",
                    self.name, type(exc).__name__,
                )
                break
            except StorageError:
                self.stats.storage_errors += 1
                self._m_storage_errors.inc()
                continue
            except CommError as exc:
                self.stats.comm_errors += 1
                self._m_comm_errors.inc()
                logger.debug("server %r: %s; retrying", self.name, exc)
                self._stop.wait(poll_timeout)
        return processed

    def start(self, poll_timeout: float = 0.05) -> None:
        """Run the serve loop in a daemon thread."""
        if self._thread is not None:
            raise RuntimeError(f"server {self.name!r} is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.serve_until,
            args=(self._stop.is_set, poll_timeout),
            daemon=True,
            name=f"server-{self.name}",
        )
        self._thread.start()

    def stop(self, join_timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=join_timeout)
        self._thread = None
