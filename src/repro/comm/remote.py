"""The remote queue manager — Section 5's deployment assumption.

"If the QM is remote from the client, then we assume that the clerk
invokes QM operations using remote procedure call [Birrell and
Nelson 84]."

This module is the one place that knows the queue-operation wire
vocabulary (``{"op": ..., ...}`` dicts of codec types):

* the ``op_*`` **payload builders** write it — the stub below, the
  remote repository and the asyncio :mod:`repro.gateway` all build
  their frames here, so an operation's shape is decided once;
* :class:`QueueManagerService` reads it: one ``_op_<name>`` method per
  operation, run against a local
  :class:`~repro.queueing.manager.QueueManager`;
* :class:`RemoteQueueManager` is the caller-side stub — the
  :class:`QueueManager` surface forwarded over any
  :class:`~repro.comm.transport.Transport` (the simulated network in
  chaos runs, a real TCP socket in the deployed topology).  The base
  stub has one transport and is auto-commit only (the clerk's view);
  :class:`repro.serve.client.RemoteShardedQueueManager` overrides its
  two routing hooks to pick the owning shard's connection and name the
  caller's transaction branch there.

A transactional caller names its branch in ``"txn"``.  Two shapes save
round trips (begin and commit are bookkeeping around the queue
operations, not work of their own):

* ``"txn": "new"`` — the first operation of a branch opens it: the shard
  begins the branch, runs the operation and answers
  ``{"txn": <branch id>, "result": <the operation's result>}``.  If the
  operation fails, the shard aborts and forgets the branch before
  answering, so the caller has nothing to clean up.
* ``"commit": True`` on an enqueue — the last operation of a
  single-branch transaction carries the commit: enqueue and commit run
  under one dispatch and one log force.  This is an *outcome* call: it
  goes out at-most-once (``retries=0``), and a lost reply leaves the
  outcome unknown exactly as a lost ``txn_commit`` reply does.

The transport is at-least-once (lost messages/replies are retried), so
duplicate *deliveries* of an operation are possible; the queue manager
absorbs them:

* **Register** is naturally idempotent (re-register returns the same
  state);
* **tagged Enqueue** is deduplicated by the registration's last tag
  (rids are unique, so an equal tag is the same logical Send);
* **Dequeue** retries can double-dequeue; the clerk's resynchronization
  (Figure 2) recovers via the tag — the paper's whole point;
* **Deregister** retries find the registration already gone; for a
  destroy operation that *is* success, absorbed server-side.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.comm.transport import Transport
from repro.comm.wire import error_payload, ok_payload, unwrap
from repro.errors import NotRegisteredError, ReproError, TransactionAborted
from repro.queueing.element import Body, Element
from repro.queueing.manager import QueueHandle, QueueManager
from repro.queueing.registration import Registration
from repro.transaction.ids import TxnStatus

#: slack added to a blocking dequeue's wire timeout so the transport
#: outwaits the server-side block before declaring the call lost
_BLOCK_SLACK = 5.0
#: wire timeout for a block-forever dequeue (the retry re-enters the
#: same blocking wait, so this only bounds one attempt)
_BLOCK_FOREVER = 3600.0


def handle_record(handle: QueueHandle) -> dict[str, str]:
    return {
        "repository": handle.repository,
        "queue": handle.queue,
        "registrant": handle.registrant,
    }


def handle_from_record(record: dict[str, str]) -> QueueHandle:
    return QueueHandle(
        record["repository"], record["queue"], record["registrant"]
    )


#: the operations whose wire answer is a record, and how each is read
#: back into what the :class:`QueueManager` method returns
ANSWERS: dict[str, Callable[[Any], Any]] = {
    "register": lambda record: (
        handle_from_record(record["handle"]), record["tag"], record["eid"]),
    "dequeue": Element.from_record,
    "read": Element.from_record,
    "registration_info": lambda record: (
        None if record is None else Registration.from_record(record)),
}


# Payload builders: the one writer of the wire-op vocabulary.  Key order
# is part of the frame bytes (pinned by tests/comm/test_wire_ops.py).


def op_register(qname: str, registrant: str, stable: bool = True) -> dict[str, Any]:
    return {"op": "register", "queue": qname, "registrant": registrant, "stable": stable}


def op_deregister(handle: QueueHandle) -> dict[str, Any]:
    return {"op": "deregister", "handle": handle_record(handle)}


def op_enqueue(handle: QueueHandle, body: Any, tag: Any = None, txn: int | str | None = None,
               priority: int = 0, headers: dict[str, Any] | None = None,
               commit: bool = False) -> dict[str, Any]:
    # The one place a body is encoded for the wire: the frame, the
    # shard, its log and every response carry these bytes as they are.
    payload = {"op": "enqueue", "handle": handle_record(handle), "body": Body.of(body).blob,
               "tag": tag, "txn": txn, "priority": priority, "headers": headers}
    if commit:  # absent otherwise: an auto-commit Send's frame stays as it was
        payload["commit"] = True
    return payload


def op_dequeue(handle: QueueHandle, tag: Any = None, error_queue: str | None = None,
               txn: int | str | None = None, block: bool = False,
               timeout: float | None = None) -> dict[str, Any]:
    return {"op": "dequeue", "handle": handle_record(handle), "tag": tag,
            "error_queue": error_queue, "txn": txn, "block": block, "timeout": timeout}


def op_registration_info(handle: QueueHandle) -> dict[str, Any]:
    return {"op": "registration_info", "handle": handle_record(handle)}


def op_read(handle: QueueHandle, eid: int) -> dict[str, Any]:
    return {"op": "read", "handle": handle_record(handle), "eid": eid}


def op_kill_element(handle: QueueHandle, eid: int) -> dict[str, Any]:
    return {"op": "kill_element", "handle": handle_record(handle), "eid": eid}


def op_depth(qname: str) -> dict[str, Any]:
    return {"op": "depth", "queue": qname}


def op_create_queue(qname: str, config: dict[str, Any]) -> dict[str, Any]:
    return {"op": "create_queue", "queue": qname, "config": config}


def dequeue_wire_timeout(block: bool, timeout: float | None) -> float | None:
    """Per-attempt transport wait for a dequeue: a blocking one must
    outwait the server-side block."""
    if not block:
        return None
    return (timeout if timeout is not None else _BLOCK_FOREVER) + _BLOCK_SLACK


class _Payload(dict):
    """A call payload whose missing fields fail the call, not the
    service: ``payload["field"]`` raises :class:`ReproError`."""

    def __missing__(self, key: str) -> Any:
        raise ReproError(f"malformed payload: missing field {key!r}")


class QueueManagerService:
    """Server-side dispatcher: executes queue operations named by wire
    payloads against a local :class:`QueueManager`.  Operation ``X`` is
    the method ``_op_X``; subclasses add operations by adding methods.

    ``qm`` is rebindable — after a crash/restart the supervisor (or the
    chaos engine) points the service at the recovered queue manager and
    in-flight client retries land on the new incarnation, exactly as a
    reconnecting RPC stub would.

    Only :class:`~repro.errors.ReproError` is converted into an error
    envelope; anything else (notably injected
    :class:`~repro.errors.SimulatedCrash` faults) propagates to the
    caller of :meth:`handle` — over the synchronous in-proc medium that
    is the sender's stack, preserving the chaos engine's crash
    propagation.
    """

    def __init__(self, qm: QueueManager | None):
        self.qm = qm
        self.handled = 0

    def handle(self, payload: Any) -> dict[str, Any]:
        self.handled += 1
        try:
            return ok_payload(self._dispatch(payload))
        except ReproError as exc:
            return error_payload(exc)

    def _dispatch(self, payload: Any) -> Any:
        # Payloads come from outside the process: one that names no
        # operation, or lacks a field its operation reads, is answered
        # like any other failed call instead of escaping as KeyError.
        if not isinstance(payload, dict):
            raise ReproError(
                f"malformed payload: expected a dict, got {type(payload).__name__}"
            )
        payload = _Payload(payload)
        op = payload["op"]
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            raise ReproError(f"unknown queue-manager operation {op!r}")
        return handler(payload)

    def _in_txn(self, payload: dict[str, Any], operation: Callable[[Any], Any]) -> Any:
        """Run ``operation(txn)`` in the transaction the payload names.
        The base service is auto-commit only;
        :class:`repro.serve.service.ShardService` overrides this to
        resolve, open and commit branches of its transaction table."""
        if payload.get("txn") is not None:
            raise ReproError(
                "transactional calls require a shard service"
            )
        return operation(None)

    # -- queue operations (Figure 3) ------------------------------------

    def _op_register(self, payload: dict[str, Any]) -> dict[str, Any]:
        handle, tag, eid = self.qm.register(
            payload["queue"], payload["registrant"],
            stable=payload.get("stable", True),
        )
        return {"handle": handle_record(handle), "tag": tag, "eid": eid}

    def _op_deregister(self, payload: dict[str, Any]) -> None:
        try:
            self.qm.deregister(handle_from_record(payload["handle"]))
        except NotRegisteredError:
            # Duplicate delivery: the first attempt already
            # deregistered and only its reply was lost.
            pass

    def _op_enqueue(self, payload: dict[str, Any]) -> Any:
        blob = payload["body"]
        if type(blob) is not bytes:
            raise ReproError("malformed payload: an enqueue's body must be codec bytes")
        return self._in_txn(payload, lambda txn: self.qm.enqueue(
            handle_from_record(payload["handle"]),
            Body(blob=blob),
            tag=payload.get("tag"),
            txn=txn,
            priority=payload.get("priority", 0),
            headers=payload.get("headers"),
        ))

    def _op_dequeue(self, payload: dict[str, Any]) -> Any:
        return self._in_txn(payload, lambda txn: self.qm.dequeue(
            handle_from_record(payload["handle"]),
            tag=payload.get("tag"),
            error_queue=payload.get("error_queue"),
            txn=txn,
            block=payload.get("block", False),
            timeout=payload.get("timeout"),
        ).to_record())

    def _op_registration_info(self, payload: dict[str, Any]) -> dict[str, Any] | None:
        reg = self.qm.registration_info(handle_from_record(payload["handle"]))
        return None if reg is None else reg.to_record()

    def _op_read(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self.qm.read(
            handle_from_record(payload["handle"]), payload["eid"]
        ).to_record()

    def _op_kill_element(self, payload: dict[str, Any]) -> bool:
        return self.qm.kill_element(
            handle_from_record(payload["handle"]), payload["eid"]
        )

    def _op_depth(self, payload: dict[str, Any]) -> int:
        return self.qm.depth(payload["queue"])


def _branch_ref(branch: Any) -> int | str | None:
    """What names ``branch`` in a payload's ``"txn"`` field."""
    if branch is None:
        return None
    return "new" if branch.id is None else branch.id


def _call_in_branch(call: Callable[..., Any], branch: Any, payload: dict[str, Any],
                    timeout: float | None = None, commit: bool = False) -> Any:
    """Send a queue operation whose ``"txn"`` is ``_branch_ref(branch)``
    and mirror onto ``branch`` what the answer says about it: the id of
    a branch the operation opened, the outcome of a commit it carried."""
    if branch is None:
        return call(payload, timeout=timeout)
    try:
        # A call that carries the commit is an outcome call: at-most-once.
        result = call(payload, timeout=timeout, retries=0 if commit else None)
    except TransactionAborted:
        # Only a branch the shard no longer knows answers this.
        branch.status = TxnStatus.ABORTED
        raise
    if branch.id is None:
        branch.id, result = result["txn"], result["result"]
    if commit:
        branch.status = TxnStatus.COMMITTED
    return result


class RemoteQueueManager:
    """Caller-side stub for a queue manager living across the network.

    Duck-type compatible with :class:`QueueManager` for every operation
    the clerk and the server loop perform — a
    :class:`~repro.core.clerk.Clerk` works unchanged with one of these
    as its ``qm``.

    This base stub speaks to one service over one transport and is
    auto-commit only (``txn`` must be ``None``): the clerk's Sends and
    Receives each run in their own server-side transaction, per
    Figure 3.
    """

    def __init__(self, transport: Transport):
        self.transport = transport

    def _call(self, payload: dict[str, Any], timeout: float | None = None,
              retries: int | None = None) -> Any:
        return unwrap(
            self.transport.request(payload, timeout=timeout, retries=retries)
        )

    # -- routing hooks ---------------------------------------------------

    def _route(self, qname: str) -> tuple[Callable[..., Any], Any]:
        """The call serving queue ``qname``, plus a token naming where
        that is (handed back to :meth:`_branch`)."""
        return self._call, None

    def _branch(self, txn: Any, where: Any) -> tuple[Any, bool]:
        """``txn``'s branch at ``where`` (``None``: auto-commit) and
        whether that branch is all there is of the transaction.  A
        branch has an ``id`` (``None`` until its first operation has
        opened it on the shard) and a ``status``."""
        self._no_txn(txn)
        return None, False

    @staticmethod
    def _no_txn(txn: Any) -> None:
        if txn is not None:
            raise ReproError(
                "auto-commit only: Register/Deregister take no transaction over "
                "the wire, and transactional Enqueue/Dequeue need repro.serve.client"
            )

    # -- forwarded operations ------------------------------------------------

    def register(
        self, qname: str, registrant: str, stable: bool = True, txn=None
    ) -> tuple[QueueHandle, Any, int | None]:
        self._no_txn(txn)
        call, _ = self._route(qname)
        return ANSWERS["register"](call(op_register(qname, registrant, stable)))

    def deregister(self, handle: QueueHandle, txn=None) -> None:
        self._no_txn(txn)
        call, _ = self._route(handle.queue)
        call(op_deregister(handle))

    def enqueue(
        self,
        handle: QueueHandle,
        body: Any,
        tag: Any = None,
        *,
        txn=None,
        priority: int = 0,
        headers: dict[str, Any] | None = None,
        final: bool = False,
    ) -> int:
        """``final=True`` promises that the transaction does nothing
        after this enqueue: when the transaction is one branch, the
        call carries the commit."""
        call, where = self._route(handle.queue)
        branch, sole = self._branch(txn, where)
        commit = final and sole
        return _call_in_branch(call, branch, op_enqueue(
            handle, body, tag, _branch_ref(branch), priority, headers, commit
        ), commit=commit)

    def dequeue(
        self,
        handle: QueueHandle,
        tag: Any = None,
        error_queue: str | None = None,
        *,
        txn=None,
        block: bool = False,
        timeout: float | None = None,
        selector=None,
    ) -> Element:
        if selector is not None:
            raise ReproError("selectors cannot cross the wire")
        call, where = self._route(handle.queue)
        branch, _ = self._branch(txn, where)
        record = _call_in_branch(
            call, branch,
            op_dequeue(handle, tag, error_queue,
                       _branch_ref(branch), block, timeout),
            timeout=dequeue_wire_timeout(block, timeout),
        )
        return Element.from_record(record)

    def registration_info(self, handle: QueueHandle) -> Registration | None:
        call, _ = self._route(handle.queue)
        return ANSWERS["registration_info"](call(op_registration_info(handle)))

    def read(self, handle: QueueHandle, eid: int) -> Element:
        call, _ = self._route(handle.queue)
        return Element.from_record(call(op_read(handle, eid)))

    def kill_element(self, handle: QueueHandle, eid: int) -> bool:
        call, _ = self._route(handle.queue)
        return call(op_kill_element(handle, eid))

    def depth(self, qname: str) -> int:
        call, _ = self._route(qname)
        return call(op_depth(qname))
