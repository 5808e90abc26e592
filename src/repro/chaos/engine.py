"""The chaos-campaign engine: one seeded, reproducible episode.

One episode runs a concurrent-by-interleaving client/server workload —
multiple clerks talking RPC over a
:class:`~repro.comm.network.SimNetwork` to a shared queue node,
multiple servers plus the error-queue replier processing requests under
transactions, application state in a recoverable KV table — while the
sampled :class:`~repro.chaos.schedule.ChaosSchedule` injects crashes,
disk I/O faults, partitions, poisoned handlers and client crashes.  The
scheduler is single-threaded and seeded: "concurrency" is a random but
reproducible interleaving of actor steps, so the same seed replays the
identical execution bit for bit (the trace fingerprint proves it).

Whenever a node failure surfaces (an injected :class:`SimulatedCrash`,
a WAL panic after a failed flush, or a dead disk) the engine performs
the paper's full restart protocol: crash the disks, revive the device,
rebuild the repositories from the durable prefix (restart recovery),
rewire the remote queue-manager proxies, and let every client
resynchronize via Figure 2.  After the workload finishes (or the fault
budget is exhausted and a clean drain completes it), the episode closes
with :class:`~repro.core.guarantees.GuaranteeChecker` plus structural
checks: the WAL re-scans cleanly, the work queues drained, and the KV
counters match the committed executions in the trace.

Outcomes:

* ``ok`` — workload completed, zero violations, all invariants hold;
* ``violation`` — a guarantee or invariant was violated (a real bug);
* ``stalled`` — the workload could not complete even after a clean
  drain (wedged state — also a bug);
* ``corruption_detected`` — an injected bit-flip made recovery raise
  :class:`~repro.errors.CorruptRecordError` /
  :class:`~repro.errors.CheckpointError`; detecting (rather than
  silently absorbing) media corruption is the correct behaviour, so
  the episode passes;
* ``corruption_data_loss`` — a bit-flip landed where the CRC framing
  reads as a torn tail, so committed state was silently truncated and
  the guarantees failed *because durable storage lied*.  Expected for
  corruption faults (redo-only logging cannot distinguish this from a
  torn write without end-to-end checksummed checkpoints); reported
  separately, not as a protocol bug;
* ``error`` — the engine itself failed (always a bug: file an issue
  with the seed).
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chaos.schedule import (
    KIND_CLIENT_CRASH,
    KIND_CRASH,
    KIND_DISK,
    KIND_FAILOVER,
    KIND_NODE_KILL,
    KIND_PARTITION,
    KIND_POISON,
    KIND_STANDBY_LAG,
    ChaosConfig,
    ChaosSchedule,
    sample_schedule,
)
from repro.comm.network import SimNetwork
from repro.comm.remote import QueueManagerService, RemoteQueueManager
from repro.comm.transport import InProcListener, InProcTransport
from repro.core.clerk import Clerk
from repro.core.guarantees import GuaranteeChecker
from repro.core.request import REPLY_OK, Request, make_rid, rid_sequence
from repro.core.system import TPSystem
from repro.errors import (
    CheckpointError,
    CommError,
    CorruptRecordError,
    DeadlockError,
    DiskCrashedError,
    QueueEmpty,
    SimulatedCrash,
    StorageError,
    TransactionAborted,
    TwoPhaseInDoubtError,
    WalPanicError,
)
from repro.obs import FlightRecorder, Observability, get_observability
from repro.sim.crash import FaultInjector
from repro.sim.trace import TraceRecorder
from repro.storage.disk import MemDisk
from repro.storage.faults import CORRUPT, FaultyDisk
from repro.transaction.log import KIND_COMMIT

logger = logging.getLogger(__name__)

_QM_ENDPOINT = "qm"
_COUNTS_TABLE = "chaos.counts"
_RESTART_ATTEMPTS = 10

OUTCOME_OK = "ok"
OUTCOME_VIOLATION = "violation"
OUTCOME_STALLED = "stalled"
OUTCOME_CORRUPTION_DETECTED = "corruption_detected"
OUTCOME_CORRUPTION_DATA_LOSS = "corruption_data_loss"
OUTCOME_ERROR = "error"

#: outcomes the campaign counts as failures (replayed and shrunk)
FAILING_OUTCOMES = (OUTCOME_VIOLATION, OUTCOME_STALLED, OUTCOME_ERROR)


class ChaosPoison(Exception):
    """Raised by the poisoned handler; aborts the processing attempt."""


class _RestartWedged(Exception):
    """Recovery could not complete within the retry budget."""


class _CountingDevice:
    """A testable output device (Section 3): its state is the number of
    replies processed, so the ckpt comparison of Figure 2 detects an
    unprocessed reply."""

    def __init__(self, trace: TraceRecorder, client_id: str):
        self.trace = trace
        self.client_id = client_id
        self.processed: list[tuple[str, Any]] = []

    def state(self) -> int:
        return len(self.processed)

    def process(self, reply: Any) -> None:
        self.processed.append((reply.rid, reply.body))
        # The status rides along as durable-side evidence: a crash
        # between commit force and the server's on-commit trace hook
        # loses the volatile ``request.executed`` event, but the reply
        # the client eventually processes still proves the execution.
        self.trace.record(
            "reply.processed", reply.rid, client=self.client_id,
            status=reply.status,
        )


class _ClientActor:
    """One client as an explicit Figure-2 state machine.

    The blocking loop of :class:`~repro.core.client.Client` is unrolled
    into single-step transitions so the seeded scheduler can interleave
    many clients (and crash them) deterministically.  States:
    ``connect`` (register + resynchronize), ``send``, ``receive``
    (non-blocking poll; stays there until the reply arrives), ``done``.
    """

    def __init__(self, engine: "ChaosEngine", index: int):
        self.engine = engine
        self.index = index
        self.id = f"c{index}"
        self.device = _CountingDevice(engine.trace, self.id)
        self.work = [
            {"client": self.id, "n": n}
            for n in range(1, engine.config.requests_per_client + 1)
        ]
        self.clerk: Clerk | None = None
        self.state = "connect"
        self.seq = 1
        self.done = False

    def reset(self) -> None:
        """Client (or node) crash: volatile clerk state is gone; the
        next step reconnects and resynchronizes."""
        if not self.done:
            self.clerk = None
            self.state = "connect"

    # -- one scheduler step ------------------------------------------------

    def step(self) -> None:
        if self.done:
            return
        try:
            if self.state == "connect":
                self._connect()
            elif self.state == "send":
                self._send()
            else:
                self._receive()
        except (WalPanicError, DiskCrashedError):
            raise  # node-fatal: the engine restarts the node
        except (CommError, QueueEmpty, TransactionAborted, DeadlockError,
                StorageError):
            # Lost/partitioned RPC, reply not there yet, or the queue
            # operation's internal transaction aborted (e.g. a transient
            # injected I/O error).  The state machine retries the same
            # state on a later step — rid-tagged operations make the
            # retry idempotent.
            return

    def _connect(self) -> None:
        engine = self.engine
        self.clerk = Clerk(
            self.id,
            engine.rqms[self.index],
            engine.config.request_queue,
            engine.rqms[self.index],
            f"reply.{self.id}",
            trace=engine.trace,
            injector=engine.injector,
        )
        s_rid, r_rid, ckpt = self.clerk.connect()
        if s_rid is None:
            self.seq = 1
            self.state = "send"
            return
        # Figure 2 lines 2-11 (mirrors Client.resynchronize).
        engine.trace.record("request.sent", s_rid, client=self.id, resync=True)
        if s_rid != r_rid:
            engine.trace.record("client.resync_receive", s_rid, client=self.id)
            self.seq = rid_sequence(s_rid)
            self.state = "receive"
            return
        if ckpt is None or self.device.state() == ckpt:
            # Reply received but never consumed by the device.
            engine.trace.record("client.resync_rereceive", s_rid, client=self.id)
            self.device.process(self.clerk.rereceive())
        self._advance(rid_sequence(s_rid))

    def _send(self) -> None:
        rid = make_rid(self.id, self.seq)
        request = Request(
            rid=rid,
            body=self.work[self.seq - 1],
            client_id=self.id,
            reply_to=f"reply.{self.id}",
        )
        # A retried Send after a lost RPC response reuses the rid; the
        # tagged enqueue deduplicates it at the queue manager.
        self.clerk.send(request, rid)
        self.state = "receive"

    def _receive(self) -> None:
        reply = self.clerk.receive(ckpt=self.device.state(), timeout=0)
        self.device.process(reply)
        self._advance(rid_sequence(reply.rid))

    def _advance(self, completed_seq: int) -> None:
        self.seq = completed_seq + 1
        if self.seq > len(self.work):
            self.done = True
            self.state = "done"
        else:
            self.state = "send"


@dataclass
class EpisodeResult:
    """What one episode did and how it ended."""

    seed: int
    outcome: str
    schedule: ChaosSchedule
    violations: list[str] = field(default_factory=list)
    steps: int = 0
    restarts: int = 0
    faults_injected: int = 0
    fingerprint: str = ""
    error: str | None = None
    #: path of the flight-recorder dump written for a failing episode
    #: (``None`` when the episode passed or no flight_dir was set)
    flight_dump: str | None = None

    @property
    def failed(self) -> bool:
        return self.outcome in FAILING_OUTCOMES

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "seed": self.seed,
            "outcome": self.outcome,
            "steps": self.steps,
            "restarts": self.restarts,
            "faults_injected": self.faults_injected,
            "fingerprint": self.fingerprint,
            "schedule": self.schedule.to_record(),
        }
        if self.violations:
            record["violations"] = list(self.violations)
        if self.error is not None:
            record["error"] = self.error
        if self.flight_dump is not None:
            record["flight_dump"] = self.flight_dump
        return record


class ChaosEngine:
    """Runs one episode for a given schedule.  Single-use."""

    def __init__(self, schedule: ChaosSchedule, config: ChaosConfig | None = None):
        self.schedule = schedule
        self.config = config if config is not None else ChaosConfig()
        self.seed = schedule.seed
        self._rng = random.Random(f"chaos:{self.seed}:sched")
        self.trace = TraceRecorder()
        self.injector = FaultInjector(record=False)
        for fault in schedule.of_kind(KIND_CRASH):
            self.injector.arm(fault.point, fault.hit)
        # Black-box flight recorder: always real (even when ambient
        # observability is disabled) so a failing episode can dump the
        # last events leading up to the failure.  The episode's obs
        # keeps the ambient metrics/tracing behaviour but substitutes
        # this ring, so component failure-path events (wal.panic,
        # 2pc.in_doubt, disk.fault) land here too.
        ambient = get_observability()
        self.flight = FlightRecorder(
            name=f"chaos-{self.seed}", auto_dump_dir=self.config.flight_dir
        )
        self.obs = Observability(
            enabled=ambient.enabled,
            metrics=ambient.metrics if ambient.enabled else None,
            tracer=ambient.tracer if ambient.enabled else None,
            flight=self.flight,
        )
        self.injector.on_crash.append(
            lambda point: self.flight.record("crash.point", point=point)
        )
        # One faulty device per repository shard; each disk fault is
        # routed to its sampled target shard.  With shards=1 every fault
        # lands on the single disk, matching the unsharded engine
        # exactly.
        shards = max(1, self.config.shards)
        self.faulty_disks = [
            FaultyDisk(
                MemDisk(torn_tail_bytes=schedule.torn_tail),
                faults=[
                    f.to_disk_fault()
                    for f in schedule.of_kind(KIND_DISK)
                    if f.target % shards == i
                ],
                seed=self.seed + i,
                obs=self.obs,
            )
            for i in range(shards)
        ]
        self.faulty = self.faulty_disks[0]
        self.network = SimNetwork(
            seed=self.seed,
            loss_rate=schedule.loss_rate,
            dup_rate=schedule.dup_rate,
        )
        self._poison_hits = {f.hit for f in schedule.of_kind(KIND_POISON)}
        self._handler_calls = 0
        self._partition_heal_at: int | None = None
        #: pending standby.lag heals: (heal_step, shard index)
        self._lag_heal: list[tuple[int, int]] = []
        #: injected-fault counts of disks retired by failovers
        self._retired_faults = 0
        self.restarts = 0
        self.steps = 0
        metrics = get_observability().metrics
        self._m_steps = metrics.counter(
            "chaos_steps_total", "scheduler steps taken by chaos episodes"
        ).labels()
        self._m_restarts = metrics.counter(
            "chaos_restarts_total", "full restart recoveries performed"
        ).labels()

        self.clients = [_ClientActor(self, i) for i in range(self.config.clients)]
        # Clerk-side RPC plumbing: each client endpoint talks to the
        # queue node's endpoint; the service is re-pointed at the fresh
        # queue manager after every restart.
        self.qm_service = QueueManagerService(None)
        InProcListener(self.network, _QM_ENDPOINT, self.qm_service.handle)
        self.rqms: list[RemoteQueueManager] = []
        for i in range(self.config.clients):
            channel = InProcTransport(
                self.network, f"c{i}", _QM_ENDPOINT,
                max_retries=2, backoff_base=0.0, seed=self.seed + i,
            )
            self.rqms.append(RemoteQueueManager(channel))
        self.system: TPSystem | None = None
        self.servers: list = []

    # ------------------------------------------------------------------
    # Workload pieces
    # ------------------------------------------------------------------

    def _handler(self, txn, request):
        self._handler_calls += 1
        if self._handler_calls in self._poison_hits:
            raise ChaosPoison(f"poisoned handler invocation #{self._handler_calls}")
        body = request.body
        total = self.table.update(
            txn, f"count:{body['client']}", lambda v: (v or 0) + 1
        )
        return {"client": body["client"], "count": total}

    def _wire(self, system: TPSystem) -> None:
        """(Re)build everything volatile on top of a (re)opened system."""
        self.system = system
        self.table = system.table(_COUNTS_TABLE)
        for actor in self.clients:
            system.ensure_reply_queue(actor.id)
        self.qm_service.qm = system.request_qm
        self.servers = [
            system.server(f"s{i}", self._handler)
            for i in range(self.config.servers)
        ]
        self.servers.append(system.error_reply_server("err-replier"))
        if self.config.planted_bug:
            self._apply_planted_bug(system)
        for actor in self.clients:
            actor.reset()

    def _apply_planted_bug(self, system: TPSystem) -> None:
        """Test-only bug for the shrinking demo.  ``ack-no-force``
        re-introduces the classic recovery bug the WAL exists to
        prevent: commit acknowledges before its record is forced, so a
        crash in the ack-to-next-force window silently loses an
        acknowledged transaction and the request is executed again at
        recovery."""
        if self.config.planted_bug != "ack-no-force":
            raise ValueError(f"unknown planted bug {self.config.planted_bug!r}")
        for log in system.request_repo.logs:

            def bad_log_commit(txn_id: int, _log=log) -> int:
                return _log._append(KIND_COMMIT, txn_id, None, {}, flush=False)

            log.log_commit = bad_log_commit

    # ------------------------------------------------------------------
    # Crash / restart protocol
    # ------------------------------------------------------------------

    def _boot(self, first: Callable[[], TPSystem] | None = None) -> None:
        """(Re)build the queue node from its disk and wire the workload
        onto it, surviving faults injected into recovery and boot-time
        registration themselves.  ``first`` replaces the first attempt
        (a failover's promote-and-boot); every retry reopens the layout
        the system last recorded.  Each failed attempt advances the
        injectors' hit counters, so retrying makes progress — exactly
        like an operator restarting a node that crashed during
        recovery."""
        attempt = first if first is not None else self._open
        for _ in range(_RESTART_ATTEMPTS):
            try:
                self._wire(attempt())
                return
            except SimulatedCrash:
                self._crash_disk()
            except (CorruptRecordError, CheckpointError):
                raise
            except StorageError:
                self._crash_disk()
            attempt = self._open
        raise _RestartWedged(
            f"recovery did not complete within {_RESTART_ATTEMPTS} attempts"
        )

    def _open(self) -> TPSystem:
        """One boot attempt: restart the node's last system, or build
        the first one."""
        if self.system is not None:
            return self.system.reopen(injector=self.injector)
        return TPSystem(
            shard_disks=self.faulty_disks,
            injector=self.injector,
            trace=self.trace,
            obs=self.obs,
            request_queue=self.config.request_queue,
            max_aborts=self.config.max_aborts,
            checkpoint_interval_bytes=self.config.checkpoint_interval_bytes,
            replicate=self.config.replicate,
            cc=self.config.cc,
        )

    def _crash_disk(self) -> None:
        """Power-cycle the devices between recovery attempts."""
        for faulty in self.faulty_disks:
            if faulty.crashed is False:
                faulty.crash()
            faulty.revive()
            faulty.recover()

    def _restart(self) -> None:
        """Full node failure + restart recovery + client resync."""
        self.restarts += 1
        self._m_restarts.inc()
        self.flight.record("node.restart", n=self.restarts, step=self.steps)
        self.system.crash()
        # A permanently-failed device is replaced at restart; planned
        # (not-yet-fired) faults survive, as does the injected history.
        for faulty in self.faulty_disks:
            faulty.revive()
        self._boot()

    def _fail_over(self, target: int, planned: bool) -> None:
        """Depose one shard's primary and boot its standby's image.

        ``node.kill`` crashes the primary's device *first* — promotion
        then proceeds from whatever the standby last acknowledged (the
        tee buffer needs no primary reads).  A planned ``failover``
        fences and drains the live primary before retiring it, so the
        standby is level at the hand-off.  Either way
        :meth:`TPSystem.fail_over` promotes and boots the new layout as
        the first attempt of the retrying boot protocol, and the old
        device is permanently retired: the promoted image gets a fresh
        fault-free device.
        """
        system = self.system
        if system is None or system.replicas is None:
            return
        index = target % len(self.faulty_disks)
        reason = "failover" if planned else "node.kill"
        self.flight.record("node.failover", shard=index, planned=planned,
                           step=self.steps, reason=reason)
        if not planned and self.faulty_disks[index].crashed is False:
            self.faulty_disks[index].crash()
        # The promotion is the epoch boundary the guarantees must
        # survive; promotion_safety() keys off this trace event.
        self.trace.record("node.failover", f"s{index}", shard=index,
                          planned=planned)
        self.restarts += 1
        self._m_restarts.inc()

        def replace_device(promoted):
            self._retired_faults += len(self.faulty_disks[index].injected)
            self.faulty_disks[index] = FaultyDisk(
                promoted, faults=[], seed=self.seed + 1000 + index, obs=self.obs,
            )
            self.faulty = self.faulty_disks[0]
            for faulty in self.faulty_disks:
                faulty.revive()  # failed survivors are replaced too
            return self.faulty_disks[index]

        self._boot(lambda: system.fail_over(
            index, reason=reason, injector=self.injector,
            wrap_promoted=replace_device,
        ))

    def _start_lag(self, target: int, heal_step: int) -> None:
        """standby.lag fault: shipping to one standby pauses (flushed
        chunks pile up in the tee buffer) until the heal step."""
        if self.system is None or self.system.replicas is None:
            return
        shard = target % len(self.faulty_disks)
        self.system.replicas.pause(shard)
        self._lag_heal.append((heal_step, shard))
        self.flight.record("standby.lag", shard=shard, until=heal_step)

    def _end_lag(self, shard: int) -> None:
        if self.system is None or self.system.replicas is None:
            return
        shipper = self.system.replicas.shippers[shard]
        # A restart or failover in the window replaced the shipper (a
        # fresh one is never paused), so only resume a live pause.
        if shipper.paused:
            shipper.resume()

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------

    def _apply_step_faults(self, step: int) -> None:
        if self._partition_heal_at is not None and step >= self._partition_heal_at:
            self.network.heal()
            self._partition_heal_at = None
        for heal in [h for h in self._lag_heal if h[0] <= step]:
            self._lag_heal.remove(heal)
            self._end_lag(heal[1])
        for fault in self.schedule.faults:
            if fault.kind == KIND_PARTITION and fault.step == step:
                # Unlisted endpoints stay in group 0, so the victim must
                # be the sole member of a non-zero group.
                victim = f"c{fault.target % self.config.clients}"
                self.network.partition([[], [victim]])
                self._partition_heal_at = step + fault.duration
            elif fault.kind == KIND_CLIENT_CRASH and fault.step == step:
                self.clients[fault.target % self.config.clients].reset()
            elif fault.kind == KIND_NODE_KILL and fault.step == step:
                self._fail_over(fault.target, planned=False)
            elif fault.kind == KIND_FAILOVER and fault.step == step:
                self._fail_over(fault.target, planned=True)
            elif fault.kind == KIND_STANDBY_LAG and fault.step == step:
                self._start_lag(fault.target, step + fault.duration)

    def _server_step(self, server) -> None:
        try:
            server.process_one(block=False)
        except QueueEmpty:
            pass
        except (ChaosPoison, TransactionAborted, DeadlockError):
            pass  # attempt aborted; the request went back to its queue
        except (WalPanicError, DiskCrashedError):
            raise  # node-fatal: the engine restarts the node
        except StorageError:
            pass  # transient I/O error surfaced as an abort; keep going

    def _workload_finished(self) -> bool:
        if not all(actor.done for actor in self.clients):
            return False
        repo = self.system.request_repo
        return all(
            repo.queues[name].depth() == 0
            for name in (self.config.request_queue, self.system.error_queue)
            if name in repo.queues
        )

    def _run_steps(self, budget: int) -> bool:
        """Interleave actors for up to ``budget`` steps; True when the
        workload finished."""
        for _ in range(budget):
            if self._workload_finished():
                return True
            self.steps += 1
            self._m_steps.inc()
            self._apply_step_faults(self.steps)
            pick = self._rng.randrange(len(self.clients) + len(self.servers))
            try:
                if pick < len(self.clients):
                    self.clients[pick].step()
                else:
                    self._server_step(self.servers[pick - len(self.clients)])
                self._poll_checkpointers()
                self._poll_replication()
            except SimulatedCrash:
                self._restart()
            except (WalPanicError, DiskCrashedError, TwoPhaseInDoubtError):
                # Node-fatal conditions: a panicked WAL, a dead disk, or
                # a cross-shard branch stuck in doubt with its locks —
                # restart recovery resolves all three.
                self._restart()
        return self._workload_finished()

    def _poll_checkpointers(self) -> None:
        """Drive the byte-triggered checkpointers synchronously.

        Under fault injection the repository creates them passive (no
        thread), so the engine polls once per scheduler step — the
        checkpoint runs inline, deterministically placed in the
        interleaving, and injected ``ckpt.*`` crash points fire here.
        Node-fatal errors propagate to the step loop's restart handling;
        a transient I/O failure just leaves the old checkpoint governing
        recovery until the next poll.
        """
        if self.config.checkpoint_interval_bytes is None:
            return
        for shard in self.system.request_repo.shards:
            if shard.checkpointer is None:
                continue
            try:
                shard.checkpointer.poll()
            except (SimulatedCrash, WalPanicError, DiskCrashedError):
                raise
            except StorageError:
                pass

    def _poll_replication(self) -> None:
        """One shipping housekeeping pass per scheduler step:
        checkpoint-blob mirroring, post-lag/post-restart resync and
        standby warm replay.  Primary-side faults are absorbed inside
        :meth:`LogShipper.poll` — a killed primary just stops feeding
        its standby."""
        if self.system is not None and self.system.replicas is not None:
            self.system.replicas.pump()

    # ------------------------------------------------------------------
    # Episode
    # ------------------------------------------------------------------

    def run(self) -> EpisodeResult:
        corrupted = any(
            f.mode == CORRUPT for f in self.schedule.of_kind(KIND_DISK)
        )
        try:
            self._boot()
            finished = self._run_steps(self.config.max_steps)
            if not finished:
                # Fault budget spent: quiesce and drain cleanly.  If the
                # workload *still* cannot finish, the stack wedged.
                self._quiesce()
                self._restart()
                finished = self._run_steps(self.config.drain_steps)
            # The verdict is about the *recoverable* state: stop
            # injecting, and if the storage stack was left unusable
            # (panicked WAL, crashed disk) restart once more so the
            # checks read the durable truth.
            self._quiesce()
            if self.system.request_repo.wal_panicked or any(
                getattr(faulty, "crashed", False)
                for faulty in self.faulty_disks
            ):
                self._restart()
        except (CorruptRecordError, CheckpointError) as exc:
            if corrupted:
                return self._result(OUTCOME_CORRUPTION_DETECTED, error=str(exc))
            return self._result(OUTCOME_ERROR, error=f"{type(exc).__name__}: {exc}")
        except _RestartWedged as exc:
            return self._result(OUTCOME_STALLED, error=str(exc))
        except Exception as exc:  # engine bug or unhardened protocol path
            logger.exception("chaos episode %d failed", self.seed)
            return self._result(OUTCOME_ERROR, error=f"{type(exc).__name__}: {exc}")

        violations = self._check(finished)
        if violations:
            if corrupted:
                return self._result(
                    OUTCOME_CORRUPTION_DATA_LOSS, violations=violations
                )
            return self._result(OUTCOME_VIOLATION, violations=violations)
        if not finished:
            return self._result(OUTCOME_STALLED)
        return self._result(OUTCOME_OK)

    def _quiesce(self) -> None:
        """Disarm every fault source for the drain phase."""
        self.injector.disarm()
        for faulty in self.faulty_disks:
            faulty.heal()
        self.network.heal()
        self.network.loss_rate = 0.0
        self.network.dup_rate = 0.0
        self._poison_hits = set()
        self._partition_heal_at = None
        self._lag_heal.clear()
        if self.system is not None and self.system.replicas is not None:
            for shipper in self.system.replicas.shippers:
                while shipper.paused:
                    shipper.resume()
            self.system.replicas.pump()

    def _check(self, finished: bool) -> list[str]:
        # An unfinished (stalled) workload still must not violate the
        # guarantees over what *did* happen; completion is only
        # required when the episode claims to have completed.
        violations = [
            str(v)
            for v in GuaranteeChecker(self.trace).check_all(
                require_completion=finished
            )
        ]
        # WAL structural invariant: every shard's surviving log must
        # re-scan cleanly end to end.
        for index, log in enumerate(self.system.request_repo.logs):
            try:
                log.records()
            except StorageError as exc:
                violations.append(
                    f"[wal-structure] shard {index} log re-scan failed: {exc}"
                )
        if finished:
            violations.extend(self._check_counters())
        return violations

    def _check_counters(self) -> list[str]:
        """Application invariant: each client's durable counter equals
        its distinct successfully-executed requests — lost updates and
        double-redo both break this equality.  Execution evidence is the
        committed ``request.executed`` event or, when a crash destroyed
        that volatile record after the commit forced, the ok reply the
        client processed."""
        violations: list[str] = []
        ok_rids = {
            str(e.rid)
            for kind in ("request.executed", "reply.processed")
            for e in self.trace.events(kind)
            if e.detail.get("status") == REPLY_OK
        }
        try:
            with self.system.request_repo.tm.transaction() as txn:
                for actor in self.clients:
                    expected = sum(
                        1 for rid in ok_rids if rid.startswith(f"{actor.id}#")
                    )
                    actual = self.table.get(txn, f"count:{actor.id}", 0)
                    if actual != expected:
                        violations.append(
                            f"[app-invariant] client {actor.id}: counter is "
                            f"{actual}, trace shows {expected} successful "
                            "executions"
                        )
        except StorageError as exc:
            violations.append(f"[app-invariant] counter table unreadable: {exc}")
        return violations

    def _result(
        self,
        outcome: str,
        violations: list[str] | None = None,
        error: str | None = None,
    ) -> EpisodeResult:
        get_observability().metrics.counter(
            "chaos_episodes_total", "chaos episodes by outcome", ("outcome",)
        ).labels(outcome=outcome).inc()
        for violation in violations or []:
            self.flight.record("guarantee.violation", detail=violation)
        self.flight.record(
            "episode.end", outcome=outcome, steps=self.steps,
            restarts=self.restarts, error=error,
        )
        flight_dump: str | None = None
        if outcome in FAILING_OUTCOMES:
            flight_dump = self.flight.auto_dump(outcome)
        return EpisodeResult(
            seed=self.seed,
            outcome=outcome,
            schedule=self.schedule,
            violations=violations or [],
            steps=self.steps,
            restarts=self.restarts,
            faults_injected=(self._retired_faults
                             + sum(len(f.injected) for f in self.faulty_disks)),
            fingerprint=self.fingerprint(),
            error=error,
            flight_dump=flight_dump,
        )

    def fingerprint(self) -> str:
        """SHA-256 over the serialized trace: bit-for-bit replay proof."""
        payload = json.dumps(
            [
                [
                    e.seq,
                    e.kind,
                    str(e.rid),
                    sorted((k, str(v)) for k, v in e.detail.items()),
                ]
                for e in self.trace.events()
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def run_episode(
    seed: int,
    config: ChaosConfig | None = None,
    schedule: ChaosSchedule | None = None,
) -> EpisodeResult:
    """Sample (or accept) a schedule and run one full episode."""
    config = config if config is not None else ChaosConfig()
    if schedule is None:
        schedule = sample_schedule(seed, config)
    return ChaosEngine(schedule, config).run()
