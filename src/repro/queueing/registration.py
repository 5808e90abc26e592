"""Persistent registration with operation tags (Section 4.3).

This is the feature the paper claims as new: the queue manager keeps,
per (queue, registrant), a *stable* record of the last tagged operation
— its type, its registrant-supplied tag, the eid it touched, and a full
copy of the element.  Registration survives registrant failure
("the failure of a registrant does not implicitly deregister it"), so a
recovering client can call Register again and learn exactly where it
left off; that is what makes the clerk's connect-time
resynchronization (Figure 2, lines 2–11) possible.

Durability rules:

* Register / Deregister are immediately durable ("information about a
  registration is guaranteed to be stable when the Register operation
  completes").
* A tagged operation's registration update is atomic with the
  operation: inside a transaction it rides the same commit; outside
  (the client side of the queue "gateway", Section 2) the queue manager
  wraps both in one internal auto-commit transaction.
* ``stable_flag=False`` (Figure 5's servers) registers without tag
  maintenance — benchmark C10 ablates exactly this flag.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.errors import NotRegisteredError
from repro.queueing.element import RECORD_FORMAT, Element
from repro.transaction.manager import Transaction


@dataclass
class Registration:
    """Stable per-(queue, registrant) state."""

    registrant: str
    queue: str
    stable: bool
    #: type of the last tagged operation: "enq" | "deq" | None
    last_op: str | None = None
    #: the registrant-supplied tag of that operation
    last_tag: Any = None
    #: eid of the element operated upon
    last_eid: int | None = None
    #: full stable copy of that element, as an element record (lets
    #: Read succeed "even if ... the enqueued element was dequeued by
    #: another registrant"); :meth:`element` reads it
    last_element: dict[str, Any] | None = None

    def to_record(self) -> dict[str, Any]:
        return {
            "registrant": self.registrant,
            "queue": self.queue,
            "stable": self.stable,
            "last_op": self.last_op,
            "last_tag": self.last_tag,
            "last_eid": self.last_eid,
            "last_element": self.last_element,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Registration":
        reg = cls(**record)
        copy = reg.last_element
        if copy is not None and copy.get("fmt") != RECORD_FORMAT:
            # written before bodies were stored encoded: rewrite it in
            # this format, so no later record or checkpoint repeats it
            reg.last_element = Element.from_record(copy).to_record()
        return reg

    def element(self) -> Element | None:
        """The stable element copy as an :class:`Element` (its body
        decoded on first access), or None."""
        return None if self.last_element is None else Element.from_record(self.last_element)


class RegistrationTable:
    """Resource manager holding every registration of a repository."""

    rm_name = "qreg"

    def __init__(self) -> None:
        self._regs: dict[tuple[str, str], Registration] = {}
        self._mutex = threading.Lock()
        #: pre-image of the first uncommitted write per key (None = the
        #: key did not exist); reverted by snapshot() so fuzzy
        #: checkpoints capture only committed registrations
        self._dirty: dict[tuple[str, str], Registration | None] = {}
        self._dirty_txns: dict[int, set[tuple[str, str]]] = {}

    @staticmethod
    def _key(queue: str, registrant: str) -> tuple[str, str]:
        return (queue, registrant)

    # ------------------------------------------------------------------
    # Register / Deregister (immediately durable: caller logs via
    # an auto record — see QueueManager)
    # ------------------------------------------------------------------

    def register(
        self, txn: Transaction, queue: str, registrant: str, stable: bool
    ) -> Registration:
        """Create or return the registration.

        Re-registering (recovery) returns the existing record with its
        last-operation info intact — that is the whole point.
        A re-register may flip ``stable``; the tag history is kept.
        """
        with self._mutex:
            existing = self._regs.get(self._key(queue, registrant))
        if existing is not None:
            if existing.stable != stable:
                updated = Registration.from_record(existing.to_record())
                updated.stable = stable
                self._apply(txn, updated)
                return updated
            return Registration.from_record(existing.to_record())
        reg = Registration(registrant=registrant, queue=queue, stable=stable)
        self._apply(txn, reg)
        return reg

    def deregister(self, txn: Transaction, queue: str, registrant: str) -> None:
        """Destroy all registration information (Section 4.3's
        Deregister)."""
        key = self._key(queue, registrant)
        with self._mutex:
            existed = key in self._regs
        if not existed:
            raise NotRegisteredError(f"{registrant!r} is not registered with {queue!r}")
        txn.log_update(self.rm_name, {"op": "dereg", "q": queue, "r": registrant})
        with self._mutex:
            old = self._regs.pop(key)
            self._note_dirty(txn, key, old)
        txn.add_undo(lambda: self._restore_reg(old))

    def _restore_reg(self, reg: Registration) -> None:
        with self._mutex:
            self._regs[self._key(reg.queue, reg.registrant)] = reg

    # ------------------------------------------------------------------
    # Tagged-operation updates
    # ------------------------------------------------------------------

    def record_op(
        self,
        txn: Transaction,
        queue: str,
        registrant: str,
        op: str,
        tag: Any,
        eid: int,
        element_record: dict[str, Any],
    ) -> None:
        """Atomically (with ``txn``) remember the last tagged operation.
        No-op for ``stable=False`` registrations."""
        key = self._key(queue, registrant)
        with self._mutex:
            reg = self._regs.get(key)
        if reg is None:
            raise NotRegisteredError(f"{registrant!r} is not registered with {queue!r}")
        if not reg.stable:
            return
        updated = Registration(
            registrant=registrant,
            queue=queue,
            stable=True,
            last_op=op,
            last_tag=tag,
            last_eid=eid,
            last_element=dict(element_record),
        )
        self._apply(txn, updated)

    def _apply(self, txn: Transaction, reg: Registration) -> None:
        key = self._key(reg.queue, reg.registrant)
        with self._mutex:
            old = self._regs.get(key)
        txn.log_update(self.rm_name, {"op": "set", "reg": reg.to_record()})
        with self._mutex:
            self._regs[key] = reg
            self._note_dirty(txn, key, old)
        if old is None:
            txn.add_undo(lambda: self._drop_reg(key))
        else:
            txn.add_undo(lambda: self._restore_reg(old))

    def _drop_reg(self, key: tuple[str, str]) -> None:
        with self._mutex:
            self._regs.pop(key, None)

    def _note_dirty(
        self, txn: Transaction, key: tuple[str, str], old: Registration | None
    ) -> None:
        """Remember ``key``'s committed pre-image (caller holds
        ``self._mutex``); cleared by the transaction's commit/abort
        hooks, which run before its locks are released."""
        if key in self._dirty:
            return
        self._dirty[key] = old
        keys = self._dirty_txns.get(txn.id)
        if keys is None:
            keys = self._dirty_txns[txn.id] = set()
            txn_id = txn.id
            txn.on_commit(lambda: self._clear_dirty(txn_id))
            txn.on_abort(lambda: self._clear_dirty(txn_id))
        keys.add(key)

    def _clear_dirty(self, txn_id: int) -> None:
        with self._mutex:
            for key in self._dirty_txns.pop(txn_id, ()):
                self._dirty.pop(key, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, queue: str, registrant: str) -> Registration | None:
        with self._mutex:
            reg = self._regs.get(self._key(queue, registrant))
            return Registration.from_record(reg.to_record()) if reg else None

    def is_registered(self, queue: str, registrant: str) -> bool:
        with self._mutex:
            return self._key(queue, registrant) in self._regs

    def registrants(self, queue: str) -> list[str]:
        with self._mutex:
            return sorted(r for (q, r) in self._regs if q == queue)

    # ------------------------------------------------------------------
    # Resource-manager protocol
    # ------------------------------------------------------------------

    def redo(self, data: dict[str, Any]) -> None:
        with self._mutex:
            if data["op"] == "set":
                reg = Registration.from_record(data["reg"])
                self._regs[self._key(reg.queue, reg.registrant)] = reg
            elif data["op"] == "dereg":
                self._regs.pop(self._key(data["q"], data["r"]), None)
            else:  # pragma: no cover - log corruption guard
                raise ValueError(f"unknown registration redo op {data['op']!r}")

    def snapshot(self) -> Any:
        """Committed view: uncommitted writes reverted to their
        pre-images (fuzzy-checkpoint safe)."""
        with self._mutex:
            regs = dict(self._regs)
            for key, old in self._dirty.items():
                if old is None:
                    regs.pop(key, None)
                else:
                    regs[key] = old
            return [reg.to_record() for reg in regs.values()]

    def restore(self, state: Any) -> None:
        with self._mutex:
            self._regs = {}
            self._dirty.clear()
            self._dirty_txns.clear()
            for record in state:
                reg = Registration.from_record(record)
                self._regs[self._key(reg.queue, reg.registrant)] = reg
