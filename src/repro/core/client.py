"""The client program — Figure 2, run as a fault-tolerant sequential
program.

The client is *not* transactional (Section 2's final design): it sends
and receives outside any transaction, and at recovery it determines its
last non-idempotent operation (the Send, identified by ``s_rid``) and
reconstructs its internal state — here, its position in the work list,
parsed from the rid sequence number.

Connect-time resynchronization (Figure 2 lines 2–11):

* ``s_rid != r_rid`` — a request is in flight, its reply not yet
  received: Receive it (again) and process it.
* ``s_rid == r_rid`` and the device state still equals the ckpt stored
  with that Receive — the reply was received but *not* processed:
  Rereceive and process it.
* otherwise — the previous request completed; continue with new work.

The reply processor is a testable device (Section 3): its ``state()``
is read before every Receive and travels as the ``ckpt`` tag.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence

from repro.core.clerk import Clerk
from repro.core.request import Reply, Request, make_rid, rid_sequence
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.sim.trace import TraceRecorder


class ReplyProcessor(Protocol):
    """A testable output device (Section 3 / [Pausch 88])."""

    def state(self) -> Any:
        """Readable device state, e.g. the next ticket number."""

    def process(self, rid: str, reply_body: Any) -> None:
        """Consume the reply — atomic, possibly non-idempotent."""


class UserCheckpoint:
    """The user's durable memory (Section 11).

    "So the user should checkpoint that identifier (e.g., on a piece of
    paper), so the user can figure out where the user and client left
    off."  Once the client Disconnects, the *system* remembers nothing
    (Deregister destroys the registration), so only the user's own
    record prevents an amnesiac restart from re-submitting completed
    work.  The object survives client crashes, like the piece of paper.
    """

    def __init__(self) -> None:
        self._done = False
        self.note: Any = None

    def mark_done(self, note: Any = None) -> None:
        self._done = True
        self.note = note

    def is_done(self) -> bool:
        return self._done


class Client:
    """Figure 2's client.  Construct a fresh instance after each crash
    (its state is volatile); the *device* and the *user checkpoint*
    persist across client restarts, like a real ticket printer and a
    real piece of paper would.
    """

    def __init__(
        self,
        client_id: str,
        clerk: Clerk,
        processor: ReplyProcessor,
        work: Sequence[Any],
        trace: TraceRecorder | None = None,
        injector: FaultInjector | None = None,
        receive_timeout: float | None = 30.0,
        user_log: UserCheckpoint | None = None,
    ):
        self.client_id = client_id
        self.clerk = clerk
        self.processor = processor
        self.work = list(work)
        self.trace = trace
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.receive_timeout = receive_timeout
        self.user_log = user_log
        self.replies: list[Reply] = []
        self.finished = False

    # ------------------------------------------------------------------
    # The program of Figure 2
    # ------------------------------------------------------------------

    def run(self) -> list[Reply]:
        """Execute the whole work list with connect-time
        resynchronization; returns the replies processed in this
        incarnation."""
        if self.user_log is not None and self.user_log.is_done():
            # The user's own record says everything finished before a
            # previous Disconnect; re-running would re-submit requests
            # the system has already forgotten about (Section 11).
            self.finished = True
            return []
        next_sequence = self.resynchronize()
        while next_sequence <= len(self.work):
            self.send_only(next_sequence)
            self.injector.reach("client.after_send")
            ckpt = self.processor.state()
            reply = self.clerk.receive(ckpt=ckpt, timeout=self.receive_timeout)
            self.injector.reach("client.after_receive")
            self._process(reply)
            self.injector.reach("client.after_process")
            next_sequence += 1
        if self.user_log is not None:
            # Checkpoint *before* Disconnect: once deregistered, the
            # system keeps no evidence that this work ever ran.
            self.user_log.mark_done(note=len(self.work))
        self.clerk.disconnect()
        self.finished = True
        return self.replies

    def resynchronize(self) -> int:
        """Figure 2 lines 2–11.  Returns the sequence number of the next
        request to send (1 for a fresh client)."""
        s_rid, r_rid, ckpt = self.clerk.connect()
        self.injector.reach("client.after_connect")
        if s_rid is None:
            return 1
        if self.trace is not None:
            # The registration proves this request was durably sent, even
            # if the pre-crash incarnation died before it could say so.
            self.trace.record("request.sent", s_rid, client=self.client_id, resync=True)
        if s_rid != r_rid:
            # Request in flight; receive its reply (possibly again).
            if self.trace is not None:
                self.trace.record("client.resync_receive", s_rid, client=self.client_id)
            reply = self.clerk.receive(
                ckpt=self.processor.state(), timeout=self.receive_timeout
            )
            self.injector.reach("client.after_receive")
            self._process(reply)
            self.injector.reach("client.after_process")
        elif not self._reply_processed(ckpt):
            # Reply was received but never consumed by the device.
            if self.trace is not None:
                self.trace.record("client.resync_rereceive", s_rid, client=self.client_id)
            reply = self.clerk.rereceive()
            self._process(reply)
            self.injector.reach("client.after_process")
        return rid_sequence(s_rid) + 1

    def _reply_processed(self, ckpt: Any) -> bool:
        """Testable-device comparison (Section 3): the ckpt stored with
        the last Receive is the device state *before* processing; if
        the device still shows it, the reply was not processed."""
        if ckpt is None:
            # No checkpoint recorded (e.g. an untagged legacy Receive):
            # assume unprocessed — at-least-once allows reprocessing.
            return False
        return self.processor.state() != ckpt

    def _process(self, reply: Reply) -> None:
        self.processor.process(reply.rid, reply.body)
        self.replies.append(reply)

    # ------------------------------------------------------------------
    # Cancellation entry point (Section 7)
    # ------------------------------------------------------------------

    def send_only(self, sequence: int) -> str:
        """Send request ``sequence`` without waiting for the reply
        (the Send of :meth:`run`; cancellation scenarios and tests call
        it alone)."""
        body = self.work[sequence - 1]
        rid = make_rid(self.client_id, sequence)
        request = Request(
            rid=rid,
            body=body,
            client_id=self.client_id,
            reply_to=self.clerk.reply_queue,
        )
        self.clerk.send(request, rid)
        return rid

    def cancel_last_request(self) -> bool:
        return self.clerk.cancel_last_request()
