"""Queue elements.

An element (Section 4.1) is a stable record with a repository-unique
*element identifier* (eid).  Eids are integers allocated by the
repository; an element keeps its eid as it moves between queues of the
repository (the DECintact identity guarantee discussed in Section 10).

``headers`` is an open string-keyed dict used by the higher layers:

* ``"reply_to"`` — the client's private reply queue (Section 5's
  multiple-clients extension),
* ``"rid"`` — the request id the element carries,
* ``"scratch"`` — the IMS/DC scratch pad (Section 9) carrying request
  state between the transactions of a multi-transaction request
  (Section 6),
* ``"abort_code"`` — set when the error-queue machinery moves the
  element (Section 4.2).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.storage.codec import decode, encode

#: ``"fmt"`` of an element record whose ``"body"`` is the body's codec
#: bytes; records without it (written before this format) hold the
#: body inline
RECORD_FORMAT = 2

#: a :class:`Body` whose value has not been decoded yet
_UNDECODED = object()


class ElementState(enum.Enum):
    """Visibility state of an element slot inside a queue.

    The transactional behaviour of Figure 3's operations is implemented
    as a state machine per element rather than long read/write lock
    queues — exactly the "readers scan the queue and ignore write-locked
    elements" design of Section 10.
    """

    #: enqueued by a transaction that has not committed yet — invisible
    ENQ_PENDING = "enq_pending"
    #: committed and eligible for dequeue
    AVAILABLE = "available"
    #: dequeued by a transaction that has not committed yet
    DEQ_PENDING = "deq_pending"


class Body:
    """One element body, held as codec bytes, as the decoded value, or
    both: each form is made from the other at most once, on first use.

    The queue manager never looks inside a body, so a shard holds only
    the bytes the wire brought (and the log and every response carry
    them as they are), while a caller holds only the value until a log
    record or a frame first needs the bytes.  An element and its copies
    share one ``Body``, so whichever form one of them makes, all of
    them have.  Racing threads may both make a form; they make equal
    ones, and either may win.
    """

    __slots__ = ("_value", "_blob")

    def __init__(self, value: Any = _UNDECODED, blob: bytes | None = None):
        self._value = value
        self._blob = blob

    @classmethod
    def of(cls, body: Any) -> "Body":
        """``body`` itself if it is a :class:`Body`, else a new one
        holding it as the value."""
        return body if type(body) is cls else cls(body)

    @property
    def value(self) -> Any:
        value = self._value
        if value is _UNDECODED:
            value = self._value = decode(self._blob)
        return value

    @property
    def blob(self) -> bytes:
        """The codec encoding of the value."""
        blob = self._blob
        if blob is None:
            blob = self._blob = encode(self._value)
        return blob


class Element:
    """One queue element.

    ``body`` may be any codec-encodable value, or a :class:`Body` (what
    an enqueue that already has the bytes passes).  ``priority`` orders
    dequeues (higher first, FIFO within a priority — Section 9's
    "priority-based Enqueue and Dequeue").  ``abort_count`` counts
    dequeue-aborts for the error-queue bound of Section 4.2.
    """

    __slots__ = ("eid", "stored_body", "priority", "enqueue_seq",
                 "abort_count", "headers")

    def __init__(self, eid: int, body: Any, priority: int = 0,
                 enqueue_seq: int = 0, abort_count: int = 0,
                 headers: dict[str, Any] | None = None):
        self.eid = eid
        #: the :class:`Body`: pass it on to move the element without a
        #: codec pass
        self.stored_body = body if type(body) is Body else Body(body)
        self.priority = priority
        self.enqueue_seq = enqueue_seq
        self.abort_count = abort_count
        self.headers = {} if headers is None else headers

    @property
    def body(self) -> Any:
        return self.stored_body.value

    def to_record(self) -> dict[str, Any]:
        """Codec-encodable representation (log records, snapshots,
        registration copies, wire responses): the body as its codec
        bytes, marked by ``"fmt"``."""
        return {
            "eid": self.eid,
            "body": self.stored_body.blob,
            "fmt": RECORD_FORMAT,
            "prio": self.priority,
            "seq": self.enqueue_seq,
            "aborts": self.abort_count,
            "hdrs": dict(self.headers),
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Element":
        """Read any element record: this format's, or one written
        before bodies were stored encoded (no ``"fmt"``; the body
        inline).  The body is decoded on first access, not here."""
        body = record["body"]
        if record.get("fmt") == RECORD_FORMAT:
            body = Body(blob=body)
        return cls(
            eid=record["eid"],
            body=body,
            priority=record["prio"],
            enqueue_seq=record["seq"],
            abort_count=record["aborts"],
            headers=dict(record["hdrs"]),
        )

    def copy(self) -> "Element":
        """A copy with its own headers, sharing the body."""
        return Element(self.eid, self.stored_body, self.priority,
                       self.enqueue_seq, self.abort_count, dict(self.headers))

    def sort_key(self) -> tuple[int, int]:
        """Dequeue order: highest priority first, then FIFO."""
        return (-self.priority, self.enqueue_seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self.eid, self.priority, self.enqueue_seq, self.abort_count,
                self.headers, self.body) == (
            other.eid, other.priority, other.enqueue_seq, other.abort_count,
            other.headers, other.body)

    __hash__ = None  # type: ignore[assignment]  # mutable, so unhashable

    def __repr__(self) -> str:
        return (f"Element(eid={self.eid!r}, body={self.body!r}, "
                f"priority={self.priority!r}, enqueue_seq={self.enqueue_seq!r}, "
                f"abort_count={self.abort_count!r}, headers={self.headers!r})")
