"""Fork/join multi-transaction requests — Section 6's concurrency
extension.

"This method can be extended to include concurrent execution of
multiple transactions servicing a user request.  The main issue is
forking a request into multiple requests and rejoining the requests
when the concurrent branches complete.  This can be handled by
extending the QM with a trigger mechanism.  A trigger is set to send a
request when all of the replies to earlier concurrent requests have
been received."

:class:`ForkJoinCoordinator` implements that:

* **fork** — within one transaction, split the incoming request into
  one branch request per branch queue, all tagged with the parent rid
  as correlation id and directed to an internal *join queue* for their
  replies;
* **join** — a :class:`~repro.queueing.features.JoinTrigger` on the
  join queue fires when all branch replies are visible; the join
  action runs one transaction that dequeues every branch reply,
  combines them, and enqueues the client's reply.

Recovery: the coordinator is re-created at restart and re-arms its
triggers; JoinTrigger's constructor catch-up re-observes replies that
arrived before the crash.  The join transaction dequeues the branch
replies, so a re-fired trigger after the join committed finds nothing
and does not duplicate the client reply.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.request import Reply, Request
from repro.core.server import Server
from repro.core.system import TPSystem
from repro.errors import QueueEmpty
from repro.queueing.features import JoinTrigger
from repro.transaction.manager import Transaction

#: (txn, parent request) -> list of (branch queue name, branch body)
ForkFn = Callable[[Transaction, Request], list[tuple[str, Any]]]
#: (txn, parent request, branch replies in branch order) -> reply body
JoinFn = Callable[[Transaction, Request, list[Any]], Any]


class ForkJoinCoordinator:
    """Fork a request into concurrent branches; join their replies."""

    def __init__(
        self,
        system: TPSystem,
        name: str,
        branch_queues: list[str],
        fork: ForkFn,
        join: JoinFn,
    ):
        if not branch_queues:
            raise ValueError("need at least one branch queue")
        self.system = system
        self.name = name
        self.branch_queues = list(branch_queues)
        self.fork = fork
        self.join = join
        repo = system.request_repo
        self.join_queue_name = f"{name}.join"
        for qname in self.branch_queues + [self.join_queue_name]:
            if qname not in repo.queues:
                repo.create_queue(qname, error_queue=system.error_queue)
        #: durable fork bookkeeping so recovery can re-arm triggers
        self.state = system.table(f"{name}.forks")
        self._triggers: dict[str, JoinTrigger] = {}
        self._rearm_pending()

    # ------------------------------------------------------------------
    # Fork server (stage 0)
    # ------------------------------------------------------------------

    def fork_server(self, server_name: str | None = None) -> Server:
        """A server on the system request queue that forks each request
        into its branches (one transaction) and arms the join trigger."""
        coordinator = self

        def handler(txn: Transaction, request: Request) -> Any:
            branches = coordinator.fork(txn, request)
            for qname, body in branches:
                branch_request = Request(
                    rid=request.rid,
                    body=body,
                    client_id=request.client_id,
                    reply_to=coordinator.join_queue_name,
                )
                queue = coordinator.system.request_repo.get_queue(qname)
                queue.enqueue(
                    txn,
                    branch_request.to_body(),
                    headers={
                        "rid": request.rid,
                        "reply_to": coordinator.join_queue_name,
                        "corr": request.rid,
                    },
                )
            coordinator.state.put(
                txn,
                f"fork/{request.rid}",
                {
                    "expected": len(branches),
                    "request": request.to_body(),
                    "joined": False,
                },
            )
            txn.on_commit(lambda: coordinator._arm(request.rid, len(branches)))
            from repro.core.multitxn import _FORWARDED

            return _FORWARDED

        from repro.core.multitxn import _StageServer

        return _StageServer(
            server_name or f"{self.name}.fork",
            self.system.request_qm,
            self.system.request_queue,
            handler,
            trace=self.system.trace,
            injector=self.system.injector,
            final=False,
        )

    # ------------------------------------------------------------------
    # Branch servers
    # ------------------------------------------------------------------

    def branch_server(
        self,
        branch_queue: str,
        handler: Callable[[Transaction, Request], Any],
        server_name: str | None = None,
    ) -> Server:
        """An ordinary Figure 5 server for one branch queue; its reply
        goes to the join queue with the parent's correlation id."""
        return Server(
            server_name or f"{self.name}.{branch_queue}",
            self.system.request_qm,
            branch_queue,
            handler,
            trace=None,  # branch replies are internal, not client replies
            injector=self.system.injector,
        )

    # ------------------------------------------------------------------
    # Join trigger
    # ------------------------------------------------------------------

    def _rearm_pending(self) -> None:
        """Recovery: re-create triggers for forks that never joined."""
        with self.system.request_repo.tm.transaction() as txn:
            pending = [
                (key.split("/", 1)[1], value)
                for key, value in self.state.scan(txn, prefix="fork/")
                if not value.get("joined")
            ]
        for rid, info in pending:
            self._arm(rid, info["expected"])

    def _arm(self, rid: str, expected: int) -> None:
        if rid in self._triggers:
            return
        join_queue = self.system.request_repo.get_queue(self.join_queue_name)
        self._triggers[rid] = JoinTrigger(
            join_queue, rid, expected, lambda replies: self._join(rid)
        )

    def _join(self, rid: str) -> bool:
        """The join transaction: consume the branch replies, emit the
        client reply, mark the fork joined."""
        system = self.system
        repo = system.request_repo
        join_queue = repo.get_queue(self.join_queue_name)
        txn = repo.tm.begin()
        try:
            info = self.state.get(txn, f"fork/{rid}")
            if info is None or info.get("joined"):
                repo.tm.abort(txn, "already joined")
                return True
            request = Request.from_body(info["request"])
            branch_replies: list[Any] = []
            for _ in range(info["expected"]):
                try:
                    element = join_queue.dequeue(
                        txn, selector=lambda e: e.headers.get("corr") == rid
                    )
                except QueueEmpty:
                    # Not all replies present yet (the trigger may fire
                    # on observation catch-up before every branch
                    # committed); give up — it re-fires later.
                    repo.tm.abort(txn, "join incomplete")
                    return False
                branch_replies.append(Reply.from_body(element.body).body)
            reply_body = self.join(txn, request, branch_replies)
            reply = Reply(rid=rid, body=reply_body)
            reply_queue = system.request_repo.get_queue(request.reply_to)
            reply_queue.enqueue(
                txn,
                reply.to_body(),
                headers={"rid": rid, "corr": rid},
            )
            self.state.put(txn, f"fork/{rid}", {**info, "joined": True})

            def record() -> None:
                if system.trace is not None:
                    system.trace.record("request.executed", rid, server=self.name)
                    system.trace.record("reply.enqueued", rid, server=self.name)

            txn.on_commit(record)
        except BaseException as exc:
            from repro.errors import SimulatedCrash

            # A simulated crash killed the node: there is no process
            # left to run a graceful abort (and the disk is frozen).
            if not isinstance(exc, SimulatedCrash) and not txn.status.terminal:
                repo.tm.abort(txn, "join failure")
            raise
        else:
            if not txn.status.terminal:
                repo.tm.commit(txn)
        return True

    def joined(self, rid: str) -> bool:
        with self.system.request_repo.tm.transaction() as txn:
            info = self.state.get(txn, f"fork/{rid}")
            return bool(info and info.get("joined"))
