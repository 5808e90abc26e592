"""Fault schedules: what a chaos episode injects, sampled from a seed.

A :class:`ChaosSchedule` is a pure value — a tuple of
:class:`ChaosFault` entries plus network rates and the torn-tail width
— fully determined by ``(seed, config)``.  The engine replays a
schedule exactly; the shrinker produces smaller schedules by dropping
entries.  Everything serialises to/from plain JSON so a failing
schedule can be committed as a regression artifact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any

from repro.storage.faults import CORRUPT, DISK_FULL, IO_ERROR, PERMANENT, DiskFault
from repro.transaction.cc import check_cc_policy
from repro.transaction.deterministic import DET_PLAN_CRASH_POINTS

#: Crash points the sampler draws from.  These are the instrumented
#: ``injector.reach`` points of the single-node Figure-5 path; the
#: queue-level points are formatted with the request-queue name at
#: sampling time.  (``docs/fault-injection.md`` catalogues all points.)
CRASH_POINTS = (
    "clerk.connect.before_register",
    "clerk.connect.after_register",
    "clerk.send.before_enqueue",
    "clerk.send.after_enqueue",
    "clerk.receive.before_dequeue",
    "clerk.receive.after_dequeue",
    "server.after_dequeue",
    "server.after_process",
    "server.before_commit",
    "tm.commit.before_log",
    "tm.commit.after_log",
    "tm.abort.before_undo",
    "tm.abort.after_undo",
    "queue.{rq}.enqueue.before_log",
    "queue.{rq}.enqueue.after_log",
    "queue.{rq}.dequeue.before_log",
    "queue.{rq}.dequeue.after_log",
    "wal.log.group_flush.before",
    "wal.log.group_flush.after",
)

#: Extra crash points sampled only for sharded campaigns
#: (``config.shards > 1``): the cross-shard two-phase-commit promotion
#: path of :mod:`repro.transaction.routing`.
SHARDED_CRASH_POINTS = CRASH_POINTS + (
    "2pc.before_prepare",
    "2pc.after_prepare",
    "2pc.after_decision",
    "2pc.after_branch_commit",
)

#: Extra crash points sampled only when ``config.batch_crash_points``
#: is set: the per-transaction batched-append publish of
#: :class:`~repro.transaction.log.LogManager` (buffered updates +
#: commit/prepare landing as one WAL batch).  ``before`` crashes with
#: everything still volatile; ``after`` crashes with the batch appended
#: and forced.  The names carry the request node's real WAL area
#: (``reqnode.log`` for the chaos system) because the injector matches
#: reach points by exact string.
BATCH_APPEND_CRASH_POINTS = (
    "wal.reqnode.log.batch_append.before",
    "wal.reqnode.log.batch_append.after",
)

#: Extra crash points sampled only when the campaign runs a byte-
#: triggered checkpointer (``config.checkpoint_interval_bytes``): the
#: fuzzy-checkpoint protocol of
#: :meth:`~repro.queueing.repository.QueueRepository.checkpoint`.
CHECKPOINT_CRASH_POINTS = (
    "ckpt.begin.before",
    "ckpt.begin.after",
    "ckpt.snapshot.before",
    "ckpt.snapshot.after",
    "ckpt.install.before",
    "ckpt.install.after",
    "ckpt.gc.before",
    "ckpt.gc.after",
)

#: Disk operations the sampler targets, weighted towards the hot write
#: path (append/flush run orders of magnitude more often than replace).
_DISK_OPS = ("append", "append", "flush", "flush", "flush", "read", "replace")
_DISK_KINDS = (
    IO_ERROR, IO_ERROR, IO_ERROR, IO_ERROR, IO_ERROR,
    DISK_FULL, DISK_FULL,
    PERMANENT,
    CORRUPT,
)

#: fault kinds of :class:`ChaosFault`
KIND_CRASH = "crash"          # SimulatedCrash at (point, hit)
KIND_DISK = "disk"            # FaultyDisk fault at (op, hit)
KIND_PARTITION = "partition"  # isolate one client for `duration` steps
KIND_POISON = "poison"        # handler raises on its `hit`-th invocation
KIND_CLIENT_CRASH = "client_crash"  # reset one client actor at `step`
# Replication fault family (sampled only when ``config.replicate``):
KIND_NODE_KILL = "node_kill"  # kill shard `target`'s primary at `step`
KIND_FAILOVER = "failover"    # planned switchover of shard `target`
KIND_STANDBY_LAG = "standby_lag"  # defer shipping for `duration` steps

#: extra weights merged into the sampler's mix when ``replicate`` is
#: on; kept out of ``ChaosConfig.weights`` so the default mix — and
#: therefore every historic seed's schedule — stays byte-identical
REPLICATION_WEIGHTS = {
    KIND_NODE_KILL: 3,
    KIND_FAILOVER: 2,
    KIND_STANDBY_LAG: 2,
}


@dataclass(frozen=True)
class ChaosFault:
    """One injected fault.  Which fields matter depends on ``kind``:

    * ``crash`` — ``point`` + ``hit``;
    * ``disk`` — ``op`` + ``hit`` + ``mode`` (a FaultyDisk kind) +
      ``duration``;
    * ``partition`` — ``step`` + ``duration`` + ``target`` (client
      index);
    * ``poison`` — ``hit`` (nth handler invocation overall);
    * ``client_crash`` — ``step`` + ``target`` (client index);
    * ``node_kill`` / ``failover`` — ``step`` + ``target`` (**shard**
      index: the primary to kill/depose);
    * ``standby_lag`` — ``step`` + ``duration`` + ``target`` (shard
      index whose shipping is deferred).
    """

    kind: str
    point: str | None = None
    op: str | None = None
    mode: str | None = None
    hit: int = 1
    step: int = 0
    duration: int = 1
    target: int = 0

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {"kind": self.kind}
        for key in ("point", "op", "mode"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        for key, default in (("hit", 1), ("step", 0), ("duration", 1), ("target", 0)):
            value = getattr(self, key)
            if value != default:
                record[key] = value
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ChaosFault":
        return cls(
            kind=record["kind"],
            point=record.get("point"),
            op=record.get("op"),
            mode=record.get("mode"),
            hit=record.get("hit", 1),
            step=record.get("step", 0),
            duration=record.get("duration", 1),
            target=record.get("target", 0),
        )

    def to_disk_fault(self) -> DiskFault:
        assert self.kind == KIND_DISK
        return DiskFault(
            op=self.op, hit=self.hit, kind=self.mode or IO_ERROR,
            duration=self.duration,
        )

    def __str__(self) -> str:
        if self.kind == KIND_CRASH:
            return f"crash@{self.point}#{self.hit}"
        if self.kind == KIND_DISK:
            return f"disk:{self.mode}@{self.op}#{self.hit}"
        if self.kind == KIND_PARTITION:
            return f"partition:c{self.target}@{self.step}+{self.duration}"
        if self.kind == KIND_POISON:
            return f"poison@handler#{self.hit}"
        if self.kind == KIND_NODE_KILL:
            return f"node_kill:s{self.target}@{self.step}"
        if self.kind == KIND_FAILOVER:
            return f"failover:s{self.target}@{self.step}"
        if self.kind == KIND_STANDBY_LAG:
            return f"standby_lag:s{self.target}@{self.step}+{self.duration}"
        return f"client_crash:c{self.target}@{self.step}"


@dataclass(frozen=True)
class ChaosConfig:
    """Workload shape and fault-mix knobs for a campaign."""

    clients: int = 3
    requests_per_client: int = 3
    servers: int = 2
    max_steps: int = 500
    drain_steps: int = 400
    #: how many faults one episode samples (inclusive range)
    min_faults: int = 1
    max_faults: int = 6
    #: relative weights of the fault kinds
    weights: dict[str, int] = field(default_factory=lambda: {
        KIND_CRASH: 5,
        KIND_DISK: 4,
        KIND_PARTITION: 2,
        KIND_POISON: 2,
        KIND_CLIENT_CRASH: 2,
    })
    #: per-episode network rates are drawn from these choices
    loss_choices: tuple[float, ...] = (0.0, 0.0, 0.05, 0.15)
    dup_choices: tuple[float, ...] = (0.0, 0.0, 0.05, 0.1)
    #: per-episode torn-tail widths (bytes of unflushed data surviving
    #: a crash) are drawn from these choices
    torn_tail_choices: tuple[int, ...] = (0, 0, 3, 17)
    #: upper bound for sampled crash-point / disk-op hit counters
    max_hits: int = 30
    max_aborts: int = 3
    #: patch the request-node log so commit does not force (test-only
    #: bug for the shrinking demo)
    planted_bug: str | None = None
    request_queue: str = "req.q"
    #: repository shards under the queue node; with more than one,
    #: disk faults target individual shards and the sampler also draws
    #: crash points from the cross-shard 2PC path
    shards: int = 1
    #: run a byte-triggered fuzzy checkpointer during the episode (the
    #: engine polls it synchronously at every step); the sampler then
    #: also draws crash points from the checkpoint protocol.  ``None``
    #: keeps existing seeds byte-identical.
    checkpoint_interval_bytes: int | None = None
    #: also draw crash points from the batched commit-publish path
    #: (``BATCH_APPEND_CRASH_POINTS``).  Off by default so schedules
    #: sampled by historic seeds keep their exact shape.
    batch_crash_points: bool = False
    #: run every shard with a warm standby (``repro.replication``) and
    #: let the sampler draw ``node_kill``/``failover``/``standby_lag``
    #: faults (``REPLICATION_WEIGHTS`` merged into the mix).  Off by
    #: default so historic seeds keep their exact schedules.
    replicate: bool = False
    #: concurrency-control policy for the system under test: "2pl"
    #: (seed behavior), or "deterministic", which routes the
    #: queue-shaped transaction class through the deterministic lane
    #: and lets the sampler draw crash points at the plan-batch
    #: boundaries (``DET_PLAN_CRASH_POINTS``).  "2pl" keeps historic
    #: seeds byte-identical.
    cc: str = "2pl"
    #: directory for flight-recorder dumps of failing episodes
    #: (``None`` keeps the ring in memory only — no files are written)
    flight_dir: str | None = None

    def __post_init__(self) -> None:
        check_cc_policy(self.cc)

    @property
    def total_requests(self) -> int:
        return self.clients * self.requests_per_client


@dataclass(frozen=True)
class ChaosSchedule:
    """Everything an episode injects, as a replayable value."""

    seed: int
    faults: tuple[ChaosFault, ...]
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    torn_tail: int = 0

    def of_kind(self, kind: str) -> list[ChaosFault]:
        return [f for f in self.faults if f.kind == kind]

    def without(self, index: int) -> "ChaosSchedule":
        """The same schedule minus the fault at ``index`` (shrinking)."""
        faults = tuple(f for i, f in enumerate(self.faults) if i != index)
        return replace(self, faults=faults)

    def calmed(self) -> "ChaosSchedule":
        """The same faults with a quiet network and clean crash tails
        (shrinking step for the environment knobs)."""
        return replace(self, loss_rate=0.0, dup_rate=0.0, torn_tail=0)

    def to_record(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "loss_rate": self.loss_rate,
            "dup_rate": self.dup_rate,
            "torn_tail": self.torn_tail,
            "faults": [f.to_record() for f in self.faults],
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ChaosSchedule":
        return cls(
            seed=record.get("seed", 0),
            faults=tuple(ChaosFault.from_record(f) for f in record.get("faults", [])),
            loss_rate=record.get("loss_rate", 0.0),
            dup_rate=record.get("dup_rate", 0.0),
            torn_tail=record.get("torn_tail", 0),
        )

    def describe(self) -> str:
        parts = [str(f) for f in self.faults]
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate}")
        if self.dup_rate:
            parts.append(f"dup={self.dup_rate}")
        if self.torn_tail:
            parts.append(f"torn_tail={self.torn_tail}")
        return ", ".join(parts) if parts else "(no faults)"


def _weighted_choice(rng: random.Random, weights: dict[str, int]) -> str:
    kinds = sorted(weights)
    total = sum(weights[k] for k in kinds)
    pick = rng.randrange(total)
    for kind in kinds:
        pick -= weights[kind]
        if pick < 0:
            return kind
    return kinds[-1]  # pragma: no cover - unreachable


def sample_schedule(seed: int, config: ChaosConfig | None = None) -> ChaosSchedule:
    """Deterministically sample one episode's fault schedule.

    The same ``(seed, config)`` always yields the identical schedule —
    this, plus the engine's deterministic scheduler, is what makes
    every campaign failure replayable from its seed alone.
    """
    config = config if config is not None else ChaosConfig()
    rng = random.Random(f"chaos:{seed}:schedule")
    # Sharded campaigns draw two extra values (2PC crash points, disk
    # fault targets); at shards=1 the draw sequence — and therefore
    # every sampled schedule — is byte-identical to the unsharded one.
    crash_points = SHARDED_CRASH_POINTS if config.shards > 1 else CRASH_POINTS
    if config.checkpoint_interval_bytes is not None:
        # Gated on the knob, like the sharded extension, so schedules
        # sampled without a checkpointer keep their exact historic shape.
        crash_points = crash_points + CHECKPOINT_CRASH_POINTS
    if config.batch_crash_points:
        crash_points = crash_points + BATCH_APPEND_CRASH_POINTS
    if config.cc != "2pl":
        crash_points = crash_points + DET_PLAN_CRASH_POINTS
    # The replication family joins the mix only when the campaign runs
    # standbys; merging here (not in the ChaosConfig default) keeps the
    # weighted draw — and every historic seed — byte-identical when off.
    weights = config.weights
    if config.replicate:
        weights = {**config.weights, **REPLICATION_WEIGHTS}
    faults: list[ChaosFault] = []
    n = rng.randint(config.min_faults, config.max_faults)
    for _ in range(n):
        kind = _weighted_choice(rng, weights)
        if kind == KIND_CRASH:
            point = rng.choice(crash_points).format(rq=config.request_queue)
            faults.append(ChaosFault(
                kind=kind, point=point, hit=rng.randint(1, config.max_hits),
            ))
        elif kind == KIND_DISK:
            mode = rng.choice(_DISK_KINDS)
            op = rng.choice(_DISK_OPS)
            duration = rng.choice((1, 1, 1, 2, 3)) if mode == IO_ERROR else 1
            target = rng.randrange(config.shards) if config.shards > 1 else 0
            faults.append(ChaosFault(
                kind=kind, op=op, mode=mode,
                hit=rng.randint(1, config.max_hits * 4), duration=duration,
                target=target,
            ))
        elif kind == KIND_PARTITION:
            faults.append(ChaosFault(
                kind=kind,
                step=rng.randint(1, config.max_steps // 2),
                duration=rng.randint(3, 40),
                target=rng.randrange(config.clients),
            ))
        elif kind == KIND_POISON:
            faults.append(ChaosFault(
                kind=kind, hit=rng.randint(1, config.total_requests * 2),
            ))
        elif kind in (KIND_NODE_KILL, KIND_FAILOVER):
            faults.append(ChaosFault(
                kind=kind,
                step=rng.randint(1, config.max_steps // 2),
                target=rng.randrange(config.shards),
            ))
        elif kind == KIND_STANDBY_LAG:
            faults.append(ChaosFault(
                kind=kind,
                step=rng.randint(1, config.max_steps // 2),
                duration=rng.randint(5, 60),
                target=rng.randrange(config.shards),
            ))
        else:  # KIND_CLIENT_CRASH
            faults.append(ChaosFault(
                kind=kind,
                step=rng.randint(1, config.max_steps // 2),
                target=rng.randrange(config.clients),
            ))
    return ChaosSchedule(
        seed=seed,
        faults=tuple(faults),
        loss_rate=rng.choice(config.loss_choices),
        dup_rate=rng.choice(config.dup_choices),
        torn_tail=rng.choice(config.torn_tail_choices),
    )
