"""The System Model — Figure 4's wiring.

A :class:`TPSystem` assembles the pieces: one (sharded) queue
repository, the request queue with its error queue, per-client private
reply queues (Section 5's multiple-clients extension), a shared trace
recorder, and factories for clerks, clients, and servers.  "Replies on
another node" is a placement (``shards=2,
placement=PinnedPlacement({"req.q": 0, "req.err": 0, "reply.c1": 1})``),
not a second repository: the server's one transaction then commits by
two-phase commit (:mod:`repro.transaction.routing`).

Crash/restart protocol for tests and benchmarks::

    system = TPSystem(injector=inj)
    ...                      # SimulatedCrash flies out of protocol code
    system = system.reopen() # same disks -> restart recovery
    client = system.client("c1", work, device)
    client.run()             # Figure 2 resynchronizes automatically

``reopen`` rebuilds every repository shard from its (crashed, then
recovered) disk, preserving the trace so guarantee checks span the
failure.

Deployment modes (they decide only how the repository, its queue
manager and the process supervisor are built):

* ``deployment="inproc"`` (default) — everything in this process over
  simulated disks, byte-identical to the layout every chaos schedule
  and property suite was recorded against.
* ``deployment="tcp"`` — each shard is a real OS process
  (``repro-shardd``) serving the wire protocol over TCP from a file
  disk under ``data_dir``; clerks and servers run in the driver
  against remote facades, and ``kill_shard`` is a real ``SIGKILL``
  whose restart runs real recovery (see :mod:`repro.serve` and
  ``docs/deployment.md``).  In-process-only arguments (simulated
  disks, injectors, checkpoints, replication) are refused.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Sequence

from repro.core.clerk import Clerk
from repro.core.client import Client, ReplyProcessor, UserCheckpoint
from repro.core.request import REPLY_FAILED, Reply, Request
from repro.core.server import Handler, Server
from repro.core.guarantees import GuaranteeChecker
from repro.obs import Observability, get_observability
from repro.queueing.manager import QueueManager
from repro.queueing.placement import PlacementPolicy
from repro.queueing.queue import DequeueMode
from repro.queueing.sharded import ShardedRepository
from repro.replication import FailoverController, ReplicaSet
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.sim.trace import TraceRecorder
from repro.storage.disk import Disk, MemDisk
from repro.transaction.cc import check_cc_policy
from repro.transaction.deterministic import DeterministicLane

REQUEST_QUEUE = "req.q"
ERROR_QUEUE = "req.err"


class TPSystem:
    """One assembled TP system (Figure 4)."""

    def __init__(
        self,
        request_disk: Disk | None = None,
        injector: FaultInjector | None = None,
        trace: TraceRecorder | None = None,
        obs: Observability | None = None,
        *,
        request_queue: str = REQUEST_QUEUE,
        error_queue: str = ERROR_QUEUE,
        max_aborts: int = 3,
        queue_mode: DequeueMode = DequeueMode.SKIP_LOCKED,
        count_crash_attempts: bool = False,
        shards: int = 1,
        shard_disks: Sequence[Disk] | None = None,
        placement: PlacementPolicy | None = None,
        checkpoint_interval_bytes: int | None = None,
        replicate: bool = False,
        standby_disks: Sequence[Disk | None] | None = None,
        replica_controller: FailoverController | None = None,
        cc: str = "2pl",
        deployment: str = "inproc",
        data_dir: str | None = None,
    ):
        if deployment not in ("inproc", "tcp"):
            raise ValueError(f"unknown deployment {deployment!r}")
        check_cc_policy(cc)
        if deployment == "tcp":
            # What a repro-shardd process cannot be handed or does not
            # run (docs/deployment.md): refused here, never dropped.
            in_process_only = {
                "request_disk": request_disk is not None,
                "shard_disks": bool(shard_disks),
                "checkpoint_interval_bytes": checkpoint_interval_bytes is not None,
                "replicate": replicate,
                "injector": injector is not None and injector is not NULL_INJECTOR,
            }
            refused = [name for name, given in in_process_only.items() if given]
            if refused:
                raise ValueError(
                    f"the tcp deployment does not combine with {', '.join(refused)} "
                    "(shards are processes over file disks; inject faults with kill_shard)"
                )
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.trace = trace if trace is not None else TraceRecorder()
        self.obs = obs if obs is not None else get_observability()
        self.request_queue = request_queue
        self.error_queue = error_queue
        self.deployment = deployment
        self.cc = cc
        self.placement = placement
        #: what reopen/fail_over rebuild with, besides disks and standbys
        self._config = {
            "trace": self.trace,
            "obs": self.obs,
            "request_queue": request_queue,
            "error_queue": error_queue,
            "max_aborts": max_aborts,
            "queue_mode": queue_mode,
            "count_crash_attempts": count_crash_attempts,
            "placement": placement,
            "checkpoint_interval_bytes": checkpoint_interval_bytes,
            "cc": cc,
        }

        self.supervisor = None
        self.data_dir = data_dir
        self.det_lane = None
        if deployment == "tcp":
            import tempfile

            from repro.serve.client import RemoteRepository, RemoteShardedQueueManager
            from repro.serve.supervisor import ShardSupervisor

            if data_dir is None:
                self.data_dir = tempfile.mkdtemp(prefix="repro-tcp-")
            self.shard_disks: list[Disk] = []
            self.supervisor = ShardSupervisor(self.data_dir, shards, name="reqnode", cc=cc)
            endpoints = [("127.0.0.1", s.port) for s in self.supervisor.shards]
            self.request_repo = RemoteRepository(
                "reqnode", endpoints, placement=placement, obs=self.obs,
            )
            self.request_qm = RemoteShardedQueueManager(self.request_repo)
        else:
            if shard_disks:
                self.shard_disks = list(shard_disks)
            else:
                self.shard_disks = [
                    request_disk if request_disk is not None else MemDisk()
                ]
                self.shard_disks.extend(MemDisk() for _ in range(shards - 1))
            self.request_repo = ShardedRepository(
                "reqnode", self.shard_disks, self.injector, obs=self.obs,
                placement=placement,
                checkpoint_interval_bytes=checkpoint_interval_bytes,
            )
            # The deterministic lane takes the queue-shaped transaction
            # class (auto-commit single-queue enqueues and non-waiting
            # dequeues); other work stays on 2PL.
            if cc == "deterministic":
                self.det_lane = DeterministicLane(
                    self.request_repo, obs=self.obs, injector=self.injector
                )
            self.request_qm = QueueManager(self.request_repo, lane=self.det_lane)
        self.request_disk = self.shard_disks[0] if self.shard_disks else None

        if request_queue not in self.request_repo.queues:
            self.request_repo.create_queue(
                request_queue,
                error_queue=error_queue,
                max_aborts=max_aborts,
                mode=queue_mode,
                count_crash_attempts=count_crash_attempts,
                # rid index: cancellation finds a request in O(1)
                index_headers=("rid",),
            )
        if error_queue not in self.request_repo.queues:
            self.request_repo.create_queue(error_queue)

        # Per-shard warm standbys (repro.replication): attached last so
        # the attach-time resync ships the boot records in one pass.
        self.replicas: ReplicaSet | None = None
        self.failover_controller = replica_controller
        #: the standby disks reopen re-attaches (fail_over edits them)
        self._standby_disks: list[Disk | None] | None = None
        if replicate:
            self.replicas = ReplicaSet(
                self.request_repo, standby_disks=standby_disks,
                controller=replica_controller, obs=self.obs,
            )
            self.failover_controller = self.replicas.controller
            self._standby_disks = list(self.replicas.standby_disks())

    # ------------------------------------------------------------------
    # Shard processes (tcp deployment; repro.serve)
    # ------------------------------------------------------------------

    def _require(self, deployment: str, what: str) -> None:
        """Crash and restart differ by deployment: simulated disks
        crash/reopen in-process, shard processes are killed/restarted."""
        if self.deployment != deployment:
            raise ValueError(
                f"{what} requires TPSystem(deployment={deployment!r}) (in-process: "
                f"crash/crash_shard/reopen; tcp: kill_shard/restart_shard)"
            )

    def kill_shard(self, index: int) -> None:
        """SIGKILL shard ``index``'s process — the real ``node.kill``."""
        self._require("tcp", "kill_shard")
        self.supervisor.kill(index)

    def restart_shard(self, index: int) -> None:
        """Boot shard ``index`` again over its data directory: restart
        recovery plus the supervisor's in-doubt 2PC resolution pass."""
        self._require("tcp", "restart_shard")
        self.supervisor.restart(index)

    def close(self) -> None:
        """Release the system's resources (both deployments)."""
        self.request_repo.close()
        if self.supervisor is not None:
            self.supervisor.close()
        if self.replicas is not None:
            self.replicas.detach()

    # ------------------------------------------------------------------
    # Reply queues (private per client, Section 5)
    # ------------------------------------------------------------------

    def reply_queue_name(self, client_id: str) -> str:
        return f"reply.{client_id}"

    def ensure_reply_queue(self, client_id: str) -> str:
        name = self.reply_queue_name(client_id)
        if name not in self.request_repo.queues:
            self.request_repo.create_queue(name)
        return name

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    def clerk(self, client_id: str) -> Clerk:
        reply_queue = self.ensure_reply_queue(client_id)
        return Clerk(
            client_id,
            self.request_qm,
            self.request_queue,
            reply_queue,
            trace=self.trace,
            injector=self.injector,
            obs=self.obs,
        )

    def client(
        self,
        client_id: str,
        work: Sequence[Any],
        processor: ReplyProcessor,
        receive_timeout: float | None = 30.0,
        user_log: "UserCheckpoint | None" = None,
    ) -> Client:
        return Client(
            client_id,
            self.clerk(client_id),
            processor,
            work,
            trace=self.trace,
            injector=self.injector,
            receive_timeout=receive_timeout,
            user_log=user_log,
        )

    def server(
        self,
        name: str,
        handler: Handler,
        request_queue: str | None = None,
        selector: Callable[..., bool] | None = None,
    ) -> Server:
        return Server(
            name,
            self.request_qm,
            request_queue or self.request_queue,
            handler,
            trace=self.trace,
            injector=self.injector,
            selector=selector,
            obs=self.obs,
        )

    def error_reply_server(self, name: str = "error-replier") -> Server:
        """A server on the error queue that turns each dead request into
        a failure reply — completing the paper's "the reply is a promise
        that it will not attempt to execute the request any more"."""

        def handler(_txn, request: Request):
            return Reply(
                rid=request.rid,
                body={"error": "request moved to error queue", "request": request.body},
                status=REPLY_FAILED,
            )

        return self.server(name, handler, request_queue=self.error_queue)

    # ------------------------------------------------------------------
    # Tables (application state on the request node)
    # ------------------------------------------------------------------

    def table(self, name: str):
        return self.request_repo.create_table(name)

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def reopen(self, injector: FaultInjector | None = None) -> "TPSystem":
        """Restart the system on the same disks after a crash.

        Disks left in the crashed state are brought back online first;
        the trace recorder carries over so guarantee checks span the
        failure.  Crash/recover is duck-typed so decorated disks
        (e.g. :class:`~repro.storage.faults.FaultyDisk` over a
        :class:`MemDisk`) restart the same way.

        If a repository's WAL panicked (a flush failed), its disk is
        crashed first even when the "process" is still running: a panic
        restart must discard the unflushed buffers whose durability is
        unknowable, exactly as a power failure would, so recovery sees
        only the durable prefix.

        "The same disks" are the layout the system last recorded: after
        a :meth:`fail_over` whose boot crashed, that is the promoted
        layout, so ``reopen`` finishes the failover.
        """
        self._require("inproc", "reopen")
        # Stop the old process's background checkpointers before the
        # new one starts its own over the same disks.
        self.request_repo.close()
        if self.replicas is not None:
            # The standbys survive the restart on their own disks; the
            # rebuilt system re-attaches fresh shippers to them.
            self.replicas.detach()
        panicked = self.request_repo.wal_panicked
        for disk in self.shard_disks:
            crashed = getattr(disk, "crashed", None)
            if panicked and crashed is False:
                disk.crash()
                crashed = True
            if crashed and hasattr(disk, "recover"):
                disk.recover()
        return TPSystem(
            **self._config,
            injector=injector,
            shard_disks=self.shard_disks,
            replicate=self.replicas is not None,
            standby_disks=self._standby_disks,
            replica_controller=self.failover_controller,
        )

    def fail_over(
        self,
        index: int = 0,
        *,
        reason: str = "node.kill",
        injector: FaultInjector | None = None,
        wrap_promoted: Callable[[Disk], Disk] | None = None,
    ) -> "TPSystem":
        """Promote shard ``index``'s warm standby and boot the system
        with the promoted image as that shard's disk.

        The deposed primary is fenced (its WAL refuses all further
        writes) and its disk is dropped.  The promoted layout — the
        image as shard ``index``, the other shards' disks and standbys,
        the same :class:`~repro.replication.FailoverController` — is
        recorded on this system, then booted by :meth:`reopen`: restart
        recovery bounded by the shipped checkpoint, the per-shard epoch
        bump and in-doubt 2PC resolution, as on any boot.  A crash in
        that boot is retried with ``reopen()``.  The promoted shard gets
        a fresh, empty standby that catches up on the first pump.  The
        elapsed wall time lands in the ``failover_rto_seconds``
        histogram.

        ``wrap_promoted`` lets a harness re-wrap the promoted image
        (e.g. in a :class:`~repro.storage.faults.FaultyDisk`) before
        the boot.
        """
        if self.replicas is None:
            raise ValueError(
                "fail_over requires a system built with replicate=True"
            )
        started = perf_counter()
        promoted = self.replicas.fail_over(index, reason=reason)
        # The old primary is dead by definition of a failover; make
        # sure nothing can quietly keep using its disk.
        deposed = self.shard_disks[index]
        if getattr(deposed, "crashed", None) is False:
            deposed.crash()
        if wrap_promoted is not None:
            promoted = wrap_promoted(promoted)
        self.shard_disks[index] = promoted
        self._standby_disks[index] = None
        system = self.reopen(injector)
        rto = perf_counter() - started
        self.failover_controller.observe_rto(index, rto)
        self.obs.flight.record("failover.complete", shard=index, rto=rto)
        return system

    def crash(self) -> None:
        """Crash every node now (used by scenarios that crash between
        protocol steps rather than via an injector point).  Duck-typed:
        any disk exposing ``crash``/``crashed`` participates, including
        decorators like :class:`~repro.storage.faults.FaultyDisk`."""
        self._require("inproc", "crash")
        for disk in self.shard_disks:
            if getattr(disk, "crashed", None) is False:
                disk.crash()

    def crash_shard(self, index: int) -> None:
        """Crash one request-repository shard's disk (partial failure).

        The rest of the system keeps running; transactions touching the
        crashed shard fail until :meth:`reopen` recovers it."""
        self._require("inproc", "crash_shard")
        disk = self.request_repo.disks[index]
        if getattr(disk, "crashed", None) is False:
            disk.crash()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def checker(self) -> GuaranteeChecker:
        return GuaranteeChecker(self.trace)

    # -- observability conveniences ------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """JSON-ready snapshot of this system's metrics registry."""
        return self.obs.metrics.snapshot()

    def metrics_dashboard(self) -> str:
        """Human-readable metrics summary."""
        return self.obs.metrics.render_dashboard()

    def span_timeline(self, rid: str) -> str:
        """Reconstructed lifetime of one request id (requires an
        enabled :class:`~repro.obs.Observability`)."""
        return self.obs.tracer.timeline(rid)

    def drain(
        self, server: "Server | Sequence[Server]", max_requests: int = 10_000
    ) -> int:
        """Process until the queues are empty; returns the number
        processed (test convenience).  Accepts one server or several —
        multi-shard systems typically drain with one server per shard,
        round-robin until none of them finds work."""
        servers = [server] if isinstance(server, Server) else list(server)
        processed = 0
        progressed = True
        while progressed and processed < max_requests:
            progressed = False
            for srv in servers:
                if processed >= max_requests:
                    break
                if srv.process_one():
                    processed += 1
                    progressed = True
        return processed

    def queue_depths(self, by_shard: bool = False) -> dict[str, int]:
        """Depth of every queue across every repository shard.

        ``by_shard=True`` prefixes each entry with its owning shard
        (``s0:req.q``) so partial-shard tests can assert placement; the
        default keys stay shard-agnostic and therefore identical to the
        unsharded layout.
        """
        if by_shard:
            return {
                f"s{index}:{name}": depth
                for index, shard_depths in
                self.request_repo.depths_by_shard().items()
                for name, depth in shard_depths.items()
            }
        return {
            name: queue.depth()
            for name, queue in self.request_repo.queues.items()
        }
