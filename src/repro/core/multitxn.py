"""Multi-transaction requests — Section 6, Figure 6.

"There is a sequence of server processes, which executes the sequence
of transactions for the request.  Each server registers with a
different pair of queues for req-q and reply-q ...  The clerk and
server algorithms are unchanged from Figure 5."

A :class:`MultiTransactionPipeline` materializes Figure 6: stage *i*
dequeues from queue *i-1* (queue 0 is the system's request queue),
runs its transaction, and enqueues the request-for-the-next-transaction
into queue *i* — all in one transaction.  The final stage enqueues the
client's reply instead.  Because each hop is transactional, "the
sequence of transactions that processes the request cannot be broken by
a failure", and the exactly-once argument is exactly the
single-transaction one, per stage.

State across stages travels in the request's *scratch pad*
(Section 9's IMS/DC feature): "a server must store it either in a
database or in the next request".

Request serializability knobs (Section 6's discussion):

* ``inherit_locks=True`` — "each transaction's database locks are
  inherited by the next transaction in the sequence": committed stages
  park their locks under a per-request chain owner; the next stage
  adopts them; the final stage releases everything.  (Volatile, like
  real lock tables: a node crash drops the chain's locks — the paper
  presents this as a coaxed-database-system technique, not a durable
  one.)
* ``lock_table`` — an :class:`~repro.core.applocks.AppLockTable` for
  the persistent application-lock variant; stage handlers acquire
  through it and the pipeline releases in the final stage.

Stage handlers additionally record their completion in a progress
table, which :mod:`repro.core.saga` uses to compensate cancelled
requests (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.applocks import AppLockTable
from repro.core.request import Reply, Request
from repro.core.server import Server
from repro.core.system import TPSystem
from repro.errors import QueueEmpty
from repro.transaction.manager import Transaction

#: stage handler: (txn, request, stage context) -> body for the next
#: stage (intermediate stages) or the reply body (final stage).
StageHandler = Callable[[Transaction, Request, "StageContext"], Any]


@dataclass
class StageContext:
    """What a stage handler may touch besides the transaction."""

    pipeline: "MultiTransactionPipeline"
    stage_index: int
    rid: str
    scratch: dict[str, Any]

    def app_lock(self, txn: Transaction, resource: str) -> None:
        """Acquire a persistent application lock for this request."""
        if self.pipeline.lock_table is None:
            raise ValueError("pipeline has no application lock table")
        self.pipeline.lock_table.acquire(txn, self.rid, resource)

    @property
    def is_final(self) -> bool:
        return self.stage_index == len(self.pipeline.stages) - 1


@dataclass
class Stage:
    name: str
    handler: StageHandler


class MultiTransactionPipeline:
    """Figure 6's chain of servers and queues."""

    def __init__(
        self,
        system: TPSystem,
        name: str,
        stages: list[Stage],
        *,
        inherit_locks: bool = False,
        lock_table: AppLockTable | None = None,
        progress_table_name: str | None = None,
    ):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.system = system
        self.name = name
        self.stages = list(stages)
        self.inherit_locks = inherit_locks
        self.lock_table = lock_table
        #: per-rid stage completion, consumed by sagas (Section 7)
        self.progress = system.table(progress_table_name or f"{name}.progress")
        repo = system.request_repo
        #: intermediate queue names: stage i feeds queue_names[i]
        self.queue_names = [
            f"{name}.q{i}" for i in range(1, len(stages))
        ]
        for qname in self.queue_names:
            if qname not in repo.queues:
                repo.create_queue(
                    qname,
                    error_queue=system.error_queue,
                    max_aborts=repo.get_queue(system.request_queue).config.max_aborts,
                    index_headers=("rid",),
                )

    # ------------------------------------------------------------------
    # Queue topology
    # ------------------------------------------------------------------

    def input_queue(self, stage_index: int) -> str:
        if stage_index == 0:
            return self.system.request_queue
        return self.queue_names[stage_index - 1]

    def output_queue(self, stage_index: int) -> str | None:
        """None for the final stage (its output is the client reply)."""
        if stage_index == len(self.stages) - 1:
            return None
        return self.queue_names[stage_index]

    def _chain_owner(self, rid: str) -> tuple[str, str, str]:
        return ("chain", self.name, rid)

    # ------------------------------------------------------------------
    # Stage servers
    # ------------------------------------------------------------------

    def stage_server(self, stage_index: int, server_name: str | None = None) -> Server:
        """Build the Figure 5 server for one stage.

        The returned server dequeues from the stage's input queue; its
        handler runs the stage handler, stores updated scratch in the
        next request, records progress, and routes output."""
        if not 0 <= stage_index < len(self.stages):
            raise IndexError(f"no stage {stage_index} in pipeline {self.name!r}")
        stage = self.stages[stage_index]
        name = server_name or f"{self.name}.s{stage_index}"
        pipeline = self

        def handler(txn: Transaction, request: Request) -> Any:
            ctx = StageContext(
                pipeline=pipeline,
                stage_index=stage_index,
                rid=request.rid,
                scratch=dict(request.scratch),
            )
            if pipeline.inherit_locks and stage_index > 0:
                # Adopt the locks the previous stage parked for us.
                pipeline.system.request_repo.locks.transfer(
                    pipeline._chain_owner(request.rid), txn.id
                )
            result = stage.handler(txn, request, ctx)
            pipeline._record_progress(txn, request.rid, stage_index)
            if ctx.is_final:
                if pipeline.lock_table is not None:
                    # "releasing all of these 'application locks' just
                    # before the final transaction ... commits"
                    pipeline.lock_table.release_all(txn, request.rid)
                return result
            # Intermediate stage: forward a request for the next
            # transaction; this *is* the stage's "reply" in Figure 6.
            next_request = Request(
                rid=request.rid,
                body=result,
                client_id=request.client_id,
                reply_to=request.reply_to,
                scratch=ctx.scratch,
            )
            pipeline._forward(txn, stage_index, next_request)
            if pipeline.inherit_locks:
                # Park this transaction's locks for the next stage.
                txn.on_commit(
                    lambda: pipeline.system.request_repo.locks.transfer(
                        txn.id, pipeline._chain_owner(request.rid)
                    )
                )
            # The Server wrapper must NOT also enqueue a client reply.
            return _FORWARDED

        server = _StageServer(
            name,
            pipeline.system.request_qm,
            self.input_queue(stage_index),
            handler,
            trace=pipeline.system.trace,
            injector=pipeline.system.injector,
            final=stage_index == len(self.stages) - 1,
        )
        return server

    def servers(self) -> list[Server]:
        """One server per stage."""
        return [self.stage_server(i) for i in range(len(self.stages))]

    def _forward(self, txn: Transaction, stage_index: int, request: Request) -> None:
        qname = self.output_queue(stage_index)
        assert qname is not None
        queue = self.system.request_repo.get_queue(qname)
        queue.enqueue(
            txn,
            request.to_body(),
            headers={"rid": request.rid, "reply_to": request.reply_to},
        )

    def _record_progress(self, txn: Transaction, rid: str, stage_index: int) -> None:
        key = f"done/{rid}"
        done = self.progress.get(txn, key, default=[])
        if stage_index not in done:
            self.progress.put(txn, key, list(done) + [stage_index])

    def completed_stages(self, txn: Transaction, rid: str) -> list[int]:
        return list(self.progress.get(txn, f"done/{rid}", default=[]))

    # ------------------------------------------------------------------
    # Draining (tests / benchmarks)
    # ------------------------------------------------------------------

    def drain(self, max_rounds: int = 10_000) -> int:
        """Run stage servers round-robin until every pipeline queue is
        empty.  Returns the number of stage transactions executed."""
        servers = self.servers()
        executed = 0
        for _ in range(max_rounds):
            progressed = False
            for server in servers:
                try:
                    if server.process_one():
                        executed += 1
                        progressed = True
                except QueueEmpty:  # pragma: no cover - defensive
                    continue
            if not progressed:
                return executed
        raise RuntimeError(f"pipeline {self.name!r} did not drain")


#: sentinel returned by intermediate stage handlers: "already forwarded,
#: do not enqueue a client reply"
_FORWARDED = object()


class _StageServer(Server):
    """Server subclass for pipeline stages: intermediate results are
    forwarded (no client reply) and traced as *stage* executions; only
    the final stage's commit counts as the request's execution."""

    def __init__(self, *args: Any, final: bool, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.final = final

    def _enqueue_reply(
        self, txn: Transaction, request: Request, reply: Reply, span=None
    ) -> None:
        if reply.body is _FORWARDED:
            return
        super()._enqueue_reply(txn, request, reply, *(() if span is None else (span,)))

    def _trace_commit(self, rid: str, reply: Reply) -> None:
        if reply.body is _FORWARDED:
            if self.trace is not None:
                self.trace.record("request.stage_executed", rid, server=self.name)
            return
        super()._trace_commit(rid, reply)
