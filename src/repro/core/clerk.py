"""The clerk: Figure 5's runtime library.

"The client's operations are translated into queue operations.  This
translation is performed by a *clerk program* that is local to the
client (i.e., it is a runtime library)."

Translation (Figure 5, top):

* ``Connect`` — Register with the request queue and the client's reply
  queue (both stable).  The tags returned by the two registrations are
  the client's ``s_rid`` and ``[r_rid, ckpt]`` respectively.
* ``Send(r, rid)`` — Enqueue the request, tagging the operation with
  ``rid``.
* ``Receive(ckpt)`` — Dequeue the next reply, tagging the operation
  with ``[rid-of-previous-Send, ckpt]``.
* ``Rereceive()`` — Read the element most recently dequeued by this
  client (served by the queue archive or the stable registration copy).
* ``Disconnect`` — Deregister from both queues.

All clerk operations run *outside* any client transaction — the queue
is the "gateway between the non-transaction world of front-ends and the
transactional world of back-ends" (Section 2).  Each is individually
atomic and durable (internal auto-commit at the queue manager).

Section 5's Send variants are provided for benchmark C8:
``send`` (RPC-style: returns after the enqueue is durable),
``send_oneway`` (fire-and-forget through a transport; the client learns
the outcome from the reply or at reconnect), and ``transceive``
(merged Send+Receive).

Each operation is written once, as a sans-IO *step generator*: it
yields every queue-manager call it makes as ``(method name, args,
kwargs)`` and is sent the answer back, or has the call's exception
thrown into it.  :class:`Clerk` runs the steps with direct calls on its
queue manager; :class:`repro.gateway.GatewaySession` runs the same
steps as wire calls from an event loop.
"""

from __future__ import annotations

import time as _time
from typing import Any, Generator

from repro.core.request import Reply, Request
from repro.errors import CancelFailed, NotConnectedError, QueueEmpty
from repro.obs import Observability, get_observability
from repro.queueing.manager import QueueHandle, QueueManager
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.sim.trace import TraceRecorder

Call = tuple[str, tuple[Any, ...], dict[str, Any]]  # (method name, args, kwargs)
Steps = Generator[Call, Any, Any]  # a clerk operation (see the module docstring)


def _call(name: str, *args: Any, **kwargs: Any) -> Call:
    return name, args, kwargs


class Clerk:
    """One client's clerk.  Volatile: a crashed client gets a fresh
    clerk and re-learns everything from Connect."""

    def __init__(
        self,
        client_id: str,
        qm: QueueManager,
        request_queue: str,
        reply_queue: str,
        trace: TraceRecorder | None = None,
        injector: FaultInjector | None = None,
        transport: Any = None,
        obs: Observability | None = None,
    ):
        self.client_id = client_id
        self.qm = qm  # holds the request queue and the reply queue
        self.request_queue = request_queue
        self.reply_queue = reply_queue
        self.trace = trace
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.transport = transport  # optional comm layer for one-way sends
        obs = obs if obs is not None else get_observability()
        self._obs_on = obs.enabled
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_sent = metrics.counter(
            "requests_sent_total", "requests sent by clerks", ("client",)
        ).labels(client=client_id)
        self._m_received = metrics.counter(
            "replies_received_total", "replies received by clerks", ("client",)
        ).labels(client=client_id)
        self._m_cancelled = metrics.counter(
            "requests_cancelled_total", "requests cancelled before consumption",
            ("client",),
        ).labels(client=client_id)
        self._m_receive_latency = metrics.histogram(
            "clerk_receive_seconds", "Receive wall time incl. reply wait",
            ("client",),
        ).labels(client=client_id)
        self._h_in: QueueHandle | None = None
        self._h_out: QueueHandle | None = None
        #: rid of the last Send (Connect's ``s_rid`` until the next Send)
        self.last_rid: str | None = None
        self._last_request_eid: int | None = None
        self._last_reply_eid: int | None = None

    def _run(self, steps: Steps) -> Any:
        """Run ``steps`` with direct calls on ``qm``.  The method is
        looked up per call: a caller may have patched the instance."""
        try:
            name, args, kwargs = next(steps)
            while True:
                try:
                    answer = getattr(self.qm, name)(*args, **kwargs)
                except BaseException as exc:
                    name, args, kwargs = steps.throw(exc)
                else:
                    name, args, kwargs = steps.send(answer)
        except StopIteration as done:
            return done.value

    # ------------------------------------------------------------------
    # Connect / Disconnect
    # ------------------------------------------------------------------

    def connect(self) -> tuple[str | None, str | None, Any]:
        """Figure 2/5's Connect: returns ``(s_rid, r_rid, ckpt)``.

        ``s_rid`` — rid of the last request this client sent;
        ``r_rid`` — rid corresponding to the last reply it received;
        ``ckpt`` — the checkpoint it supplied with that Receive.
        All ``None`` for a brand-new client.
        """
        return self._run(self.connect_steps())

    def connect_steps(self) -> Steps:
        self.injector.reach("clerk.connect.before_register")
        self._h_in, rid_tag, req_eid = yield _call(
            "register", self.request_queue, self.client_id, stable=True
        )
        self._h_out, reply_tag, reply_eid = yield _call(
            "register", self.reply_queue, self.client_id, stable=True
        )
        self.injector.reach("clerk.connect.after_register")
        self.last_rid = rid_tag
        self._last_request_eid = req_eid
        self._last_reply_eid = reply_eid
        if reply_tag is None:
            r_rid, ckpt = None, None
        else:
            r_rid, ckpt = reply_tag[0], reply_tag[1]
        if self.trace is not None:
            self.trace.record(
                "client.connected",
                rid=rid_tag,
                client=self.client_id,
                r_rid=r_rid,
                ckpt=ckpt,
            )
        return rid_tag, r_rid, ckpt

    def disconnect(self) -> None:
        """Deregister from both queues."""
        self._run(self.disconnect_steps())

    def disconnect_steps(self) -> Steps:
        self._require_connected()
        yield _call("deregister", self._h_in)
        yield _call("deregister", self._h_out)
        if self.trace is not None:
            self.trace.record("client.disconnected", client=self.client_id)
        self._h_in = self._h_out = None
        self.last_rid = None

    def _require_connected(self) -> None:
        if self._h_in is None or self._h_out is None:
            raise NotConnectedError(f"client {self.client_id!r} is not connected")

    @property
    def connected(self) -> bool:
        return self._h_in is not None

    # ------------------------------------------------------------------
    # Send / Receive / Rereceive
    # ------------------------------------------------------------------

    def send(self, request: Request, rid: str, priority: int = 0) -> int:
        """Enqueue the request, tagged with ``rid``.  "When Send
        returns, the request and rid have been stably stored."  Returns
        the request's eid (kept for Cancel-last-request)."""
        return self._run(self.send_steps(request, rid, priority))

    def send_steps(self, request: Request, rid: str, priority: int = 0) -> Steps:
        self._require_connected()
        self.last_rid = rid
        self.injector.reach("clerk.send.before_enqueue")
        # The Send span uses the rid as its trace id; its wire context
        # rides the element headers so the server's processing span (and
        # the reply trip back) stitch into the same trace.
        with self._tracer.start_span(
            "clerk.send", trace_id=rid, client=self.client_id
        ) as span:
            headers = {"rid": rid, "reply_to": request.reply_to}
            ctx = span.context()
            if ctx is not None:
                headers["trace"] = ctx
            eid = yield _call(
                "enqueue",
                self._h_in,
                request.to_body(),
                tag=rid,
                priority=priority,
                headers=headers,
            )
        self._m_sent.inc()
        self._last_request_eid = eid
        self.injector.reach("clerk.send.after_enqueue")
        if self.trace is not None:
            self.trace.record("request.sent", rid, client=self.client_id, eid=eid)
        return eid

    def send_oneway(self, request: Request, rid: str, priority: int = 0) -> None:
        """Section 5's unacknowledged Send: "invoke Enqueue using a
        one-way message, instead of a remote procedure call".  The
        enqueue may be lost; the client times out waiting for the reply
        and resynchronizes at reconnect.  Requires a transport."""
        self._require_connected()
        self.last_rid = rid
        if self.transport is None:
            # Degenerate local case: the "message" cannot be lost.
            self.send(request, rid, priority)
            return
        self.injector.reach("clerk.send_oneway.before_post")
        # The message carries Send's own steps: lost, the Enqueue never runs.
        self.transport.post(lambda: self.send(request, rid, priority))
        if self.trace is not None:
            self.trace.record("request.posted", rid, client=self.client_id)

    def receive(self, ckpt: Any = None, timeout: float | None = 30.0) -> Reply:
        """Dequeue the next reply, tagging the operation with
        ``[rid-of-previous-Send, ckpt]``.

        Raises :class:`~repro.errors.QueueEmpty` on timeout — the
        client treats that as "the reply is not there yet" and may
        retry or reconnect.

        When the queue manager is remote, an at-least-once RPC retry of
        a *successful* Dequeue whose response was lost consumes the
        reply invisibly; the retry then finds the queue empty.  The
        persistent registration detects exactly this (the last recorded
        Dequeue carries this Receive's tag) and the reply is recovered
        with Read — Section 4.3's "a registrant may Read the element
        identified by this eid, even if the last operation was a
        Dequeue"."""
        return self._run(self.receive_steps(ckpt, timeout))

    def receive_steps(self, ckpt: Any = None, timeout: float | None = 30.0) -> Steps:
        self._require_connected()
        self.injector.reach("clerk.receive.before_dequeue")
        wall0 = _time.time() if self._obs_on else 0.0
        t0 = _time.perf_counter() if self._obs_on else 0.0
        tag = [self.last_rid, ckpt]
        try:
            element = yield _call(
                "dequeue",
                self._h_out,
                tag=tag,
                block=True,
                timeout=timeout,
            )
        except QueueEmpty:
            registration = yield _call("registration_info", self._h_out)
            eid = None if registration is None else registration.dequeued_eid(tag)
            if eid is None:
                raise
            # Our own lost-response attempt already dequeued it.
            element = yield _call("read", self._h_out, eid)
        self._last_reply_eid = element.eid
        self.injector.reach("clerk.receive.after_dequeue")
        reply = Reply.from_body(element.body)
        if self._obs_on:
            # Created after the fact (the rid is only known once the
            # reply arrives) with the true start time, parented onto the
            # server's reply-enqueue context.
            span = self._tracer.start_span(
                "clerk.receive",
                trace_id=reply.rid,
                parent=element.headers.get("trace"),
                start=wall0,
                client=self.client_id,
            )
            span.end()
            self._m_received.inc()
            self._m_receive_latency.observe(_time.perf_counter() - t0)
        if self.trace is not None:
            self.trace.record("reply.received", reply.rid, client=self.client_id)
        return reply

    def rereceive(self) -> Reply:
        """Read the reply most recently dequeued by this client — works
        even after the dequeue removed it, via the queue archive or the
        stable registration copy (Section 4.3)."""
        return self._run(self.rereceive_steps())

    def rereceive_steps(self) -> Steps:
        self._require_connected()
        if self._last_reply_eid is None:
            raise NotConnectedError(
                f"client {self.client_id!r} has never received a reply"
            )
        element = yield _call("read", self._h_out, self._last_reply_eid)
        reply = Reply.from_body(element.body)
        if self.trace is not None:
            self.trace.record("reply.rereceived", reply.rid, client=self.client_id)
        return reply

    def transceive(
        self, request: Request, rid: str, ckpt: Any = None, timeout: float | None = 30.0
    ) -> Reply:
        """Section 5's merged operation: "blocks the client until the
        reply arrives"."""
        self.send(request, rid)
        return self.receive(ckpt=ckpt, timeout=timeout)

    # ------------------------------------------------------------------
    # Cancellation (Section 7)
    # ------------------------------------------------------------------

    def cancel_last_request(self) -> bool:
        """Kill_element on the eid of the last request.  True iff the
        request was cancelled before any server consumed it."""
        return self._run(self.cancel_steps())

    def cancel_steps(self) -> Steps:
        self._require_connected()
        if self._last_request_eid is None:
            raise CancelFailed(f"client {self.client_id!r} has sent no request")
        killed = yield _call("kill_element", self._h_in, self._last_request_eid)
        if killed:
            self._m_cancelled.inc()
            self._tracer.event(
                "request.cancelled", trace_id=self.last_rid, client=self.client_id
            )
        if self.trace is not None:
            kind = "request.cancelled" if killed else "request.cancel_failed"
            self.trace.record(kind, self.last_rid, client=self.client_id)
        return killed

    @property
    def last_request_eid(self) -> int | None:
        return self._last_request_eid
