"""Two-phase commit across nodes.

Section 6 notes that a multi-transaction request "may be required in a
distributed system, if the nodes that process the request ... do not
use the same transaction protocol (e.g., two-phase commit)" — i.e. the
queued-request architecture is the *alternative* to distributed commit.
To make that comparison runnable (and because a QM "may need to support
multiple transaction protocols"), the substrate includes a classic
presumed-abort two-phase commit:

* **Phase 1** — the coordinator asks every branch's transaction manager
  to *prepare*: the branch force-logs a ``prep`` record and keeps its
  locks.  Any failure vetoes.
* **Decision** — the coordinator force-logs the global decision in its
  own log (an ``auto`` record under the pseudo-RM ``"_2pc"``).
  *Presumed abort*: if no decision record exists, the answer is abort.
* **Phase 2** — every branch applies the decision (``out`` record) and
  releases its locks.

A participant that crashes between phases recovers the branch as *in
doubt* (see :mod:`repro.transaction.recovery`) and resolves it by
asking the coordinator: :meth:`TwoPhaseCoordinator.decision`.
"""

from __future__ import annotations

import threading

from repro.errors import (
    DiskCrashedError,
    SimulatedCrash,
    StorageError,
    TwoPhaseCommitError,
    TwoPhaseInDoubtError,
    WalPanicError,
)
from repro.obs import Observability, get_observability
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.transaction.ids import TxnStatus
from repro.transaction.log import KIND_AUTO, LogManager
from repro.transaction.manager import Transaction, TransactionManager

_DECISION_RM = "_2pc"


class DecisionLog:
    """The durable half of a coordinator: global decisions forced on,
    and looked up from, one log.

    A shard process serving ``txn_decide``/``txn_decision`` holds just
    this; a :class:`TwoPhaseCoordinator` running the protocol beside
    its log holds one too.
    """

    def __init__(self, log: LogManager, name: str = "coord", tracker=None,
                 obs: Observability | None = None):
        self.log = log
        self.name = name
        #: optional decision tracker (a ``_DecisionRM``): mirrors every
        #: decision record into checkpointable volatile state, so the
        #: decision survives segment GC of the record that carried it
        self.tracker = tracker
        obs = obs if obs is not None else get_observability()
        self._flight = obs.flight
        # Labeled by log area, not coordinator name: restart recovery
        # mints a fresh epoch-suffixed coordinator per shard, and a
        # per-epoch label would grow without bound under chaos.
        self._m_decide = obs.metrics.histogram(
            "twophase_decide_seconds",
            "coordinator decision force (the 2PC commit point)",
            ("area",),
        ).labels(area=log.area)

    def log_decision(self, gid: str, decision: str) -> None:
        # The tracker is updated under the WAL lock at append time
        # (on_lsn): a fuzzy checkpoint concurrent with the decision
        # either snapshots the tracker entry or replays the record —
        # never neither.  If the append fails, nothing was noted.
        on_lsn = None
        if self.tracker is not None:
            def on_lsn(_lsn: int) -> None:
                self.tracker.note(gid, decision)
        with self._m_decide.time():
            self.log.log_auto(
                _DECISION_RM, {"gid": gid, "decision": decision}, on_lsn=on_lsn
            )
        self._flight.record("2pc.decision", coord=self.name,
                            gid=gid, decision=decision)

    def decision(self, gid: str) -> str:
        """Presumed-abort lookup: ``"commit"`` only if a durable commit
        decision exists for ``gid``."""
        if self.tracker is not None:
            found = self.tracker.get(gid)
            if found is not None:
                return found
        for record in self.log.records():
            if (
                record.kind == KIND_AUTO
                and record.rm == _DECISION_RM
                and record.data.get("gid") == gid
            ):
                return record.data["decision"]
        return "abort"


class TwoPhaseCoordinator:
    """Coordinates global transactions over branches at several nodes.

    :meth:`commit` is the one statement of the protocol.  What a medium
    changes is kept in three steps a subclass may override —
    :meth:`_decide` (how the decision becomes durable),
    :meth:`_abort_branches` and :meth:`_commit_branch` (how hard phase
    2 tries) — see :class:`repro.serve.client.RemoteTwoPhaseCoordinator`.
    """

    def __init__(
        self,
        log: LogManager,
        name: str = "coord",
        injector: FaultInjector | None = None,
        tracker=None,
        obs: Observability | None = None,
    ):
        obs = obs if obs is not None else get_observability()
        #: the decision record's home; ``log_decision``/``decision``
        #: are its methods, kept on the coordinator for callers that
        #: resolve in-doubt branches through it
        self.decisions = DecisionLog(log, name, tracker, obs)
        self.log_decision = self.decisions.log_decision
        self.decision = self.decisions.decision
        self._protocol_state(name, injector, obs, log.area)

    def _protocol_state(self, name: str, injector: FaultInjector | None,
                        obs: Observability, area: str) -> None:
        self.name = name
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._seq = 0
        self._mutex = threading.Lock()
        self._flight = obs.flight
        self._m_prepare = obs.metrics.histogram(
            "twophase_prepare_seconds",
            "per-branch prepare round-trip (force-logged prep record)",
            ("area",),
        ).labels(area=area)

    def new_global_id(self) -> str:
        with self._mutex:
            self._seq += 1
            return f"{self.name}:{self._seq}"

    # -- protocol -------------------------------------------------------------

    def commit(self, branches: list[tuple[TransactionManager, Transaction]]) -> str:
        """Run the full protocol.  Returns ``"commit"`` or ``"abort"``.

        Raises :class:`TwoPhaseCommitError` if called with no branches.
        Branch failures during phase 1 turn into a clean global abort.
        """
        if not branches:
            raise TwoPhaseCommitError("no branches to commit")
        gid = self.new_global_id()

        prepared: list[tuple[TransactionManager, Transaction]] = []
        veto = False
        for tm, txn in branches:
            try:
                self.injector.reach("2pc.before_prepare")
                with self._m_prepare.time():
                    tm.prepare(txn, gid)
                prepared.append((tm, txn))
            except Exception:  # a SimulatedCrash is not one: it flies on
                veto = True
                break
        self.injector.reach("2pc.after_prepare")

        if veto:
            try:
                self._decide(gid, "abort")
            except StorageError:
                # Presumed abort: the abort decision record is advisory
                # (no record *means* abort), so a failing coordinator log
                # must not leave the branches locked and in doubt.
                pass
            self._abort_branches(branches)
            return "abort"

        try:
            decision = self._decide(gid, "commit")
        except (WalPanicError, DiskCrashedError):
            # Node-fatal: the process is going down and restart recovery
            # will resolve the prepared branches (presumed abort — the
            # decision never became durable).
            raise
        except StorageError:
            # Transient coordinator-log failure: the commit decision is
            # not durable, so by presumed abort the global decision *is*
            # abort.
            decision = "abort"
        if decision != "commit":
            # Release the prepared branches rather than leaving them
            # locked and in doubt on a live node.
            self._abort_branches(prepared)
            return "abort"
        self.injector.reach("2pc.after_decision")
        for tm, txn in prepared:
            self._commit_branch(tm, txn)
            self.injector.reach("2pc.after_branch_commit")
        return "commit"

    def _decide(self, gid: str, decision: str) -> str:
        """Make ``decision`` durable; returns the decision that *is*
        durable for ``gid`` (here always the one asked for — a medium
        that can lose the answer may learn otherwise)."""
        self.log_decision(gid, decision)
        return decision

    def _abort_branches(
        self, branches: list[tuple[TransactionManager, Transaction]]
    ) -> None:
        for tm, txn in branches:
            if txn.status is TxnStatus.PREPARED:
                tm.abort_prepared(txn)
            elif txn.status is TxnStatus.ACTIVE:
                tm.abort(txn, "2pc veto")

    #: phase-2 retry budget per branch before declaring it in doubt
    _PHASE2_ATTEMPTS = 3

    def _commit_branch(self, tm: TransactionManager, txn: Transaction) -> None:
        """Apply the durable commit decision to one prepared branch.

        Phase 2 must complete — the decision record already forced — so
        a transient I/O error on the branch's outcome record is retried
        (``commit_prepared`` leaves the branch PREPARED when its log
        write fails, so the retry is safe).  If the branch still cannot
        apply the decision, it is in doubt on a live node, holding its
        locks: that is node-fatal (:class:`TwoPhaseInDoubtError`), and
        restart recovery resolves it from the decision record."""
        last: StorageError | None = None
        for _ in range(self._PHASE2_ATTEMPTS):
            try:
                tm.commit_prepared(txn)
                return
            except (SimulatedCrash, WalPanicError, DiskCrashedError):
                raise
            except StorageError as exc:
                last = exc
        # Node-fatal with locks held: dump the black box before raising.
        self._flight.record("2pc.in_doubt", coord=self.name,
                            txn=str(txn.id), error=type(last).__name__)
        self._flight.auto_dump("2pc-in-doubt")
        raise TwoPhaseInDoubtError(
            f"branch {txn.id} could not apply the committed decision: {last}"
        ) from last
