"""Streaming requests and replies — Section 11's future-work item.

"One could extend the Client Model to support streaming of requests
and replies, as in the Mercury system [Liskov et al 88]."

A :class:`StreamingClient` keeps up to ``window`` requests in flight
instead of the base model's one-at-a-time.  The protocol change is the
one Section 5 sketches for concurrent clients: instead of a single
(send-tag, receive-tag) pair, each in-flight *slot* is its own
registrant (``"<client>~<slot>"``), so Connect recovers a whole array
of last-operation tags and the resynchronization of Figure 2 runs per
slot.  Requests are distributed over slots round-robin; each slot stays
one-at-a-time internally, so every guarantee argument of Section 5
applies slot-wise, and the union gives exactly-once for the stream.

Replies may complete out of order across slots (that is the point of
streaming); :meth:`StreamingClient.run` reassembles them by rid.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.clerk import Clerk
from repro.core.request import Reply, Request, make_rid, rid_sequence
from repro.core.system import TPSystem
from repro.errors import QueueEmpty
from repro.sim.trace import TraceRecorder


def slot_registrant(client_id: str, slot: int) -> str:
    return f"{client_id}~{slot}"


class StreamingClient:
    """A windowed, restartable request stream.

    Work item *i* (0-based) always travels in slot ``i % window`` with
    rid ``<client>~<slot>#<k>`` where ``k = i // window + 1`` — a pure
    function of the item index, so a recovered incarnation re-derives
    every slot's position from the slot registrations alone.
    """

    def __init__(
        self,
        system: TPSystem,
        client_id: str,
        work: Sequence[Any],
        window: int = 4,
        trace: TraceRecorder | None = None,
        receive_timeout: float | None = 30.0,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.system = system
        self.client_id = client_id
        self.work = list(work)
        self.window = min(window, max(1, len(self.work)))
        self.trace = trace if trace is not None else system.trace
        self.receive_timeout = receive_timeout
        self.clerks: list[Clerk] = []
        self.replies: dict[int, Reply] = {}  # work index -> reply

    # -- index arithmetic ---------------------------------------------------

    def _slot_of(self, index: int) -> int:
        return index % self.window

    def _seq_of(self, index: int) -> int:
        return index // self.window + 1

    def _index_of(self, slot: int, seq: int) -> int:
        return (seq - 1) * self.window + slot

    def _rid(self, index: int) -> str:
        return make_rid(slot_registrant(self.client_id, self._slot_of(index)),
                        self._seq_of(index))

    # -- protocol -------------------------------------------------------------

    def _connect_slots(self) -> list[int]:
        """Connect every slot; returns per-slot next work index, derived
        from the recovered registration tags (the Section 5 tag array)."""
        self.clerks = []
        next_index: list[int] = []
        for slot in range(self.window):
            clerk = self.system.clerk(slot_registrant(self.client_id, slot))
            clerk.trace = self.trace
            s_rid, r_rid, _ckpt = clerk.connect()
            self.clerks.append(clerk)
            if s_rid is None:
                next_index.append(slot)  # first item of this slot
                continue
            self.trace.record("request.sent", s_rid,
                              client=slot_registrant(self.client_id, slot),
                              resync=True)
            sent_index = self._index_of(slot, rid_sequence(s_rid))
            if s_rid != r_rid:
                # In-flight: receive its reply during resync.
                reply = clerk.receive(ckpt=None, timeout=self.receive_timeout)
                self._accept(sent_index, reply)
            else:
                # Reply received before the crash; re-read it.
                reply = clerk.rereceive()
                self._accept(sent_index, reply)
            next_index.append(sent_index + self.window)
        return next_index

    def _accept(self, index: int, reply: Reply) -> None:
        self.replies[index] = reply
        self.trace.record("reply.processed", reply.rid, stream=self.client_id)

    def run(self) -> list[Reply]:
        """Stream the whole work list; returns replies in work order."""
        next_index = self._connect_slots()
        outstanding: dict[int, int] = {}  # slot -> in-flight work index
        # Prime the window.
        for slot in range(self.window):
            index = next_index[slot]
            if index < len(self.work) and index not in self.replies:
                self._send(slot, index)
                outstanding[slot] = index
        # Drain/refill until done.
        while outstanding:
            progressed = False
            for slot in list(outstanding):
                index = outstanding[slot]
                try:
                    reply = self.clerks[slot].receive(
                        ckpt=None, timeout=self.receive_timeout
                    )
                except QueueEmpty:
                    continue
                self._accept(index, reply)
                progressed = True
                following = index + self.window
                if following < len(self.work):
                    self._send(slot, following)
                    outstanding[slot] = following
                else:
                    del outstanding[slot]
            if not progressed and outstanding:
                raise QueueEmpty(
                    f"stream {self.client_id!r}: no replies within timeout; "
                    f"outstanding={sorted(outstanding.values())}"
                )
        for clerk in self.clerks:
            clerk.disconnect()
        return [self.replies[i] for i in sorted(self.replies) if i < len(self.work)]

    def _send(self, slot: int, index: int) -> None:
        rid = self._rid(index)
        request = Request(
            rid=rid,
            body=self.work[index],
            client_id=slot_registrant(self.client_id, slot),
            reply_to=self.clerks[slot].reply_queue,
        )
        self.clerks[slot].send(request, rid)

    @property
    def in_order(self) -> bool:
        """Did replies arrive in work order?  (Usually False once the
        window exceeds 1 — that is streaming working as intended.)"""
        seqs = [e.seq for e in self.trace.events("reply.processed")
                if e.detail.get("stream") == self.client_id]
        rids = [e.rid for e in self.trace.events("reply.processed")
                if e.detail.get("stream") == self.client_id]
        expected = sorted(rids, key=lambda r: (rid_sequence(r), r))
        return rids == expected and seqs == sorted(seqs)
