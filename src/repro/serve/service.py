"""The shard service: one queue repository behind the wire protocol.

A :class:`ShardService` extends the clerk-facing
:class:`~repro.comm.remote.QueueManagerService` with everything a
*transactional* remote caller needs:

* a branch table — the first ``enqueue``/``dequeue`` of a branch says
  ``"txn": "new"``: the service begins a shard-local transaction, runs
  the operation in it and returns the new id with the result (or, when
  the operation fails, aborts and forgets the branch before
  answering); later calls name the branch (``{"txn": id}``) so a routed
  transaction's queue operations land in it.  ``txn_begin`` opens a
  branch without an operation (no stub sends it; service-level tests
  and tools do);
* the commit riding the last operation — an ``enqueue`` with
  ``"commit": true`` enqueues and commits its branch under one dispatch
  and one log force;
* the two-phase-commit branch operations (``txn_prepare`` /
  ``txn_commit_prepared`` / ``txn_abort_prepared``) driven by the
  client-side coordinator of :mod:`repro.serve.client`;
* the coordinator's durable side: ``txn_decide`` force-logs the global
  decision on *this* shard's log and ``txn_decision`` answers
  presumed-abort lookups — both are methods of the
  :class:`~repro.transaction.twophase.DecisionLog` held over the
  shard's log and decision tracker — and
  ``in_doubt``/``txn_resolve`` let the supervisor settle prepared
  branches left by a crash;
* data definition and introspection (``create_queue``, ``queue_names``,
  ``depths``, ``checkpoint``, ``hello``).

Retry discipline: the transport is at-least-once for idempotent queue
operations but transaction *outcome* ops — ``txn_commit``, an enqueue
that carries the commit, ``txn_prepare`` and the two prepared-branch
outcomes — are called with ``retries=0`` (at-most-once).  A retried
``txn_commit_prepared``/``txn_abort_prepared`` after a restart falls back to the global id: the branch was recovered
in doubt and is resolved by gid, or the outcome already applied before
the crash — either way the call is idempotent because the decision was
durable first.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.comm.remote import QueueManagerService
from repro.errors import QueueExistsError, ReproError, TransactionAborted
from repro.queueing.manager import QueueManager
from repro.queueing.queue import DequeueMode
from repro.queueing.repository import QueueRepository
from repro.transaction.ids import TxnStatus
from repro.transaction.manager import Transaction
from repro.transaction.twophase import DecisionLog

#: remembered outcomes of finished branches, for duplicate outcome calls
_OUTCOME_CACHE = 1024


class ShardService(QueueManagerService):
    """Wire-protocol dispatcher for one repository shard."""

    def __init__(self, repo: QueueRepository, epoch: int = 0,
                 qm: QueueManager | None = None):
        super().__init__(qm if qm is not None else QueueManager(repo))
        self.repo = repo
        self.epoch = epoch
        #: open branches by shard-local transaction id
        self.txns: dict[int, Transaction] = {}
        #: recently finished branch ids -> "commit" | "abort"
        self._outcomes: dict[int, str] = {}
        #: driver-side coordinators run the protocol; the shard only
        #: forces and answers their decisions
        self.decision_log = DecisionLog(
            repo.log, name=repo.name, tracker=repo.decisions
        )

    # -- branch table ---------------------------------------------------

    def _resolve_txn(self, payload: dict[str, Any]) -> Transaction | None:
        branch_id = payload.get("txn")
        if branch_id is None:
            return None
        txn = self.txns.get(branch_id)
        if txn is None:
            raise TransactionAborted(
                branch_id, "unknown branch (shard restarted; presumed abort)"
            )
        return txn

    def _finish(self, branch_id: int, outcome: str) -> None:
        self.txns.pop(branch_id, None)
        self._outcomes[branch_id] = outcome
        while len(self._outcomes) > _OUTCOME_CACHE:
            self._outcomes.pop(next(iter(self._outcomes)))

    def _begin(self) -> Transaction:
        txn = self.repo.tm.begin()
        self.txns[txn.id] = txn
        return txn

    def _commit(self, txn: Transaction) -> None:
        try:
            self.repo.tm.commit(txn)
        except BaseException:
            if txn.status is TxnStatus.ABORTED:
                self._finish(txn.id, "abort")
            raise
        self._finish(txn.id, "commit")

    def _in_txn(self, payload: dict[str, Any], operation: Callable[[Any], Any]) -> Any:
        """Run a queue operation in the branch its payload names:
        ``"txn": "new"`` opens the branch first and answers with its id,
        ``"commit": true`` commits it afterwards."""
        opening = payload.get("txn") == "new"
        txn = self._begin() if opening else self._resolve_txn(payload)
        try:
            result = operation(txn)
            if txn is not None and payload.get("commit"):
                self._commit(txn)
        except BaseException:
            if opening:
                # The caller never learned this branch's id: nobody
                # else can end it (QueueEmpty on every idle poll).
                if txn.status is TxnStatus.ACTIVE:
                    self.repo.tm.abort(txn, "opening operation failed")
                self.txns.pop(txn.id, None)
            raise
        return {"txn": txn.id, "result": result} if opening else result

    # -- admin ----------------------------------------------------------

    def _op_hello(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "name": self.repo.name,
            "epoch": self.epoch,
            "queues": self.repo.queue_names(),
        }

    def _op_create_queue(self, payload: dict[str, Any]) -> None:
        config = dict(payload.get("config") or {})
        if "mode" in config:
            config["mode"] = DequeueMode(config["mode"])
        if "index_headers" in config:
            config["index_headers"] = tuple(config["index_headers"])
        try:
            self.repo.create_queue(payload["queue"], **config)
        except QueueExistsError:
            pass  # duplicate delivery / restart replay: already there

    def _op_queue_names(self, payload: dict[str, Any]) -> list[str]:
        return self.repo.queue_names()

    def _op_depths(self, payload: dict[str, Any]) -> dict[str, int]:
        return self.repo.depths()

    def _op_checkpoint(self, payload: dict[str, Any]) -> None:
        self.repo.checkpoint()

    # -- transaction lifecycle ------------------------------------------

    def _op_txn_begin(self, payload: dict[str, Any]) -> int:
        return self._begin().id

    def _op_txn_commit(self, payload: dict[str, Any]) -> None:
        branch_id = payload["txn"]
        if branch_id not in self.txns and self._outcomes.get(branch_id) == "commit":
            return  # duplicate of a commit that succeeded
        self._commit(self._resolve_txn(payload))

    def _op_txn_abort(self, payload: dict[str, Any]) -> None:
        branch_id = payload["txn"]
        txn = self.txns.get(branch_id)
        if txn is None:
            return  # already finished or lost to a restart: aborted either way
        if txn.status is TxnStatus.ACTIVE:
            self.repo.tm.abort(txn, payload.get("reason", "remote abort"))
        elif txn.status is TxnStatus.PREPARED:
            # Only a coordinator's veto path sends this for a branch
            # whose prepare reply it lost; its global decision is abort.
            self.repo.tm.abort_prepared(txn)
        self._finish(branch_id, "abort")

    def _op_txn_abort_by_id(self, payload: dict[str, Any]) -> bool:
        return self.repo.tm.abort_by_id(
            payload["txn"], payload.get("reason", "external abort")
        )

    # -- two-phase commit branch side -----------------------------------

    def _op_txn_prepare(self, payload: dict[str, Any]) -> None:
        self.repo.tm.prepare(self._resolve_txn(payload), payload["gid"])

    def _op_txn_commit_prepared(self, payload: dict[str, Any]) -> None:
        self._apply_prepared(payload, "commit")

    def _op_txn_abort_prepared(self, payload: dict[str, Any]) -> None:
        self._apply_prepared(payload, "abort")

    def _apply_prepared(self, payload: dict[str, Any], decision: str) -> None:
        branch_id = payload["txn"]
        txn = self.txns.get(branch_id)
        if txn is not None:
            if decision == "commit":
                self.repo.tm.commit_prepared(txn)
            else:
                self.repo.tm.abort_prepared(txn)
            self._finish(branch_id, decision)
            return
        if self._outcomes.get(branch_id) == decision:
            return  # duplicate of an outcome that already applied
        # Restarted since the prepare: recovery re-materialized the
        # branch as in doubt; resolve it by global id.  Not finding it
        # means the outcome applied before the crash (the decision was
        # durable before this call could be made) — idempotent success.
        gid = payload.get("gid")
        if gid is not None:
            self._resolve_by_gid(gid, decision)

    def _resolve_by_gid(self, gid: str, decision: str) -> bool:
        for branch in self.repo.last_recovery.in_doubt:
            if branch.global_id == gid:
                if branch.resolved is None:
                    branch.resolve(decision)
                return True
        return False

    # -- two-phase commit coordinator side ------------------------------

    def _op_txn_decide(self, payload: dict[str, Any]) -> None:
        gid, decision = payload["gid"], payload["decision"]
        if decision not in ("commit", "abort"):
            raise ReproError(f"bad decision {decision!r}")
        # Skip the force if this exact decision is already durable (a
        # retried decide): decision records are write-once per gid.
        if self.repo.decisions.get(gid) == decision:
            return
        self.decision_log.log_decision(gid, decision)

    def _op_txn_decision(self, payload: dict[str, Any]) -> str:
        return self.decision_log.decision(payload["gid"])

    # -- restart resolution (driven by the supervisor) ------------------

    def _op_in_doubt(self, payload: dict[str, Any]) -> list[dict[str, Any]]:
        return [
            {"gid": branch.global_id, "resolved": branch.resolved}
            for branch in self.repo.last_recovery.in_doubt
        ]

    def _op_txn_resolve(self, payload: dict[str, Any]) -> bool:
        return self._resolve_by_gid(payload["gid"], payload["decision"])
