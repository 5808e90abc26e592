"""Sharded queue repositories: N units of failure behind one facade.

The paper's repository (Section 4.1) is the unit of failure and
recovery — one disk, one shared log, one lock manager.  That unit is
also a throughput ceiling: every queue in the system serializes behind
one WAL force.  :class:`ShardedRepository` multiplies the unit instead
of stretching it: it owns **N independent** :class:`QueueRepository`
shards — each with its own disk, WAL, lock manager, transaction
manager, registration table and group committer — and routes every
named object (queue, table) to one owning shard via a pluggable
:class:`~repro.queueing.placement.PlacementPolicy`.

Layering (see ``docs/architecture.md``)::

    QueueManager / Server / Clerk
        │  names (queue, table) + transactions
        ▼
    ShardedRepository ── PlacementPolicy: name -> shard
        │  shard-bound views resolve RoutedTransaction -> branch
        ▼
    QueueRepository × N ── per-shard WAL, locks, TM, group commit

Transactions come from a
:class:`~repro.transaction.routing.ShardedTransactionManager`: they
open a branch on a shard the first time an operation touches it.  A
transaction that stays on one shard commits with that shard's ordinary
single log force; one that spans shards is automatically promoted to
presumed-abort two-phase commit, with the first-touched shard's
coordinator logging the decision.  Coordinator global-ids embed a
durable per-shard *epoch* (an auto record under the pseudo-RM
``"_shards"``) so ids never collide with decision records from before
a restart.

**Placement is volatile; location is durable.**  Each shard's log fully
describes the queues it owns, so restart recovery is shard-local (and
runs in parallel when no fault injector is attached — determinism under
injection requires sequential recovery).  Routing consults actual
location first and the placement policy only for names that do not
exist anywhere yet; co-location pins (an error queue must live on its
source queue's shard, because dead-letter moves happen inside one shard
transaction) therefore survive restarts for free.

With ``N=1`` the facade is a pure passthrough: same repository name,
same log layout, same plain :class:`TransactionManager` — behaviour-
and byte-compatible with using :class:`QueueRepository` directly.

**One router, two media.**  :class:`ShardRouter` (name → shard,
error-queue co-location, the combined ``queues`` mapping, per-shard
fan-out) is also the base of :class:`repro.serve.client.RemoteRepository`
over shard processes, :func:`route` is the ordering the asyncio gateway
applies to its own location table, and every shard boot, in-process or
``repro-shardd``, mints its epoch with :func:`boot_epoch` and names its
coordinator with :func:`coordinator_name`.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Mapping
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter as _perf_counter
from typing import Any, Callable, Iterator

from repro.errors import NoSuchQueueError, QueueExistsError
from repro.obs import Observability, get_observability
from repro.queueing.placement import ConsistentHashPlacement, PlacementPolicy
from repro.queueing.repository import QueueRepository
from repro.sim.crash import NULL_INJECTOR, FaultInjector
from repro.storage.disk import Disk, MemDisk
from repro.transaction.log import LogManager
from repro.transaction.routing import RoutedTransaction, ShardedTransactionManager
from repro.transaction.twophase import TwoPhaseCoordinator

#: pseudo-RM of the durable coordinator-epoch records (tracked by each
#: shard's :class:`~repro.queueing.repository._EpochRM`, so checkpoints
#: preserve the high-water mark across segment GC)
EPOCH_RM = "_shards"

_GID_SHARD_RE = re.compile(r"\.s(?P<shard>\d+)\.e\d+$")


def shard_name(name: str, index: int, shard_count: int) -> str:
    """The repository name of shard ``index``.  A lone shard keeps the
    facade's own name, so its log and metric labels are
    indistinguishable from an unsharded repository's."""
    return name if shard_count == 1 else f"{name}.s{index}"


def boot_epoch(shard: QueueRepository) -> int:
    """Force this boot's coordinator-epoch record on ``shard``'s log
    and return the epoch.

    Global ids minted against this incarnation embed it
    (:func:`coordinator_name`), so they can never collide with decision
    records from before a crash.  The epoch tracker was rebuilt by
    recovery (checkpoint image + replay); ``note()`` runs under the WAL
    lock at append time, so a concurrent checkpoint either snapshots
    the new epoch or replays its record — never loses it to segment GC.
    """
    epoch = shard.epochs.epoch + 1
    shard.log.log_auto(
        EPOCH_RM, {"epoch": epoch},
        on_lsn=lambda _lsn: shard.epochs.note(epoch),
    )
    return epoch


def coordinator_name(name: str, index: int, shard_count: int, epoch: int) -> str:
    """The gid prefix of the coordinator on shard ``index`` booted at
    ``epoch``: ``<name>.s<index>.e<epoch>`` (``<name>.e<epoch>`` for a
    lone shard)."""
    return f"{shard_name(name, index, shard_count)}.e{epoch}"


def coordinator_shard(gid: str) -> int:
    """The shard whose log holds (or, by presumed abort, lacks) the
    decision for ``gid`` — read back from the prefix
    :func:`coordinator_name` wrote."""
    match = _GID_SHARD_RE.search(gid.split(":", 1)[0])
    return int(match.group("shard")) if match else 0


def route(name: str, located: int | None, pins: Mapping[str, int],
          placement: PlacementPolicy, shard_count: int) -> int:
    """The shard owning ``name``: where it actually lives if it exists,
    else its co-location pin, else the placement policy."""
    if located is not None:
        return located
    pinned = pins.get(name)
    if pinned is not None:
        return pinned
    return placement.shard_for(name, shard_count)


def shard_txn(txn: Any, shard: int) -> Any:
    """Resolve ``txn`` to its branch on ``shard``.

    Routed transactions open (or reuse) their branch on the shard's
    transaction manager; plain shard-level transactions pass through
    untouched, so callers holding a branch can use the views directly.
    """
    if isinstance(txn, RoutedTransaction):
        return txn.branch_for(shard)
    return txn


class _ShardView:
    """An object of one shard as seen through the facade: the methods
    in ``_TXN_METHODS`` resolve the caller's routed transaction to this
    shard's branch; everything else passes straight through."""

    _TXN_METHODS: frozenset[str] = frozenset()

    def __init__(self, target: Any, shard: int):
        self._target = target
        self.shard_index = shard

    def __getattr__(self, attr: str) -> Any:
        target = getattr(self._target, attr)
        if attr in self._TXN_METHODS:
            shard = self.shard_index

            def routed(txn: Any, *args: Any, **kwargs: Any) -> Any:
                return target(shard_txn(txn, shard), *args, **kwargs)

            return routed
        return target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}({self._target.name!r}, "
                f"shard={self.shard_index})")


class ShardQueueView(_ShardView):
    """A :class:`~repro.queueing.queue.RecoverableQueue` through the
    facade."""

    _TXN_METHODS = frozenset({"enqueue", "dequeue"})


class ShardTableView(_ShardView):
    """A :class:`~repro.storage.kvstore.KVStore` table through the
    facade (``peek``/``size`` stay non-transactional)."""

    _TXN_METHODS = frozenset(
        {"get", "exists", "put", "delete", "update", "scan", "count"}
    )


class _RegistrationRouter:
    """Registration facade routing by queue name.

    Registrations live on the shard that owns their queue, so a tagged
    operation's registration update rides the same branch — and the
    same single log force — as the queue operation it describes.
    """

    rm_name = "qreg"
    _TXN_METHODS = frozenset({"register", "deregister", "record_op"})

    def __init__(self, repo: "ShardedRepository"):
        self._repo = repo

    def __getattr__(self, attr: str) -> Any:
        # Every RegistrationTable method names its queue first — after
        # the transaction, for the ones that take one.
        repo = self._repo
        if attr in self._TXN_METHODS:
            def routed(txn: Any, queue: str, *args: Any) -> Any:
                shard = repo.shard_of(queue)
                table = repo.shards[shard].registration
                return getattr(table, attr)(shard_txn(txn, shard), queue, *args)
        else:
            def routed(queue: str, *args: Any) -> Any:
                table = repo.shards[repo.shard_of(queue)].registration
                return getattr(table, attr)(queue, *args)
        return routed


class _Combined(Mapping):
    """Read-only name → view mapping over every shard.

    Names are unique across shards (creation goes through the facade),
    so the union is well-defined.
    """

    def __init__(
        self,
        names_by_shard: Callable[[], Iterator[Collection[str]]],
        get: Callable[[str], Any],
    ):
        self._names_by_shard = names_by_shard
        self._get = get

    def __getitem__(self, name: str) -> Any:
        try:
            return self._get(name)
        except NoSuchQueueError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        for names in self._names_by_shard():
            yield from names

    def __len__(self) -> int:
        return sum(len(names) for names in self._names_by_shard())


class ShardRouter:
    """Name → shard routing and per-shard fan-out, for any medium.

    The shared base of :class:`ShardedRepository` (shards are objects
    in this process) and :class:`repro.serve.client.RemoteRepository`
    (shards are processes behind a wire).  A *shard* here is anything
    with ``queues`` (the names it holds), ``create_queue(qname,
    **config)``, ``checkpoint()``, ``close()`` and ``depths()`` — a
    :class:`~repro.queueing.repository.QueueRepository` or a
    :class:`~repro.serve.client.ShardClient`; a subclass lists them in
    ``self.shards`` and says what a queue on one looks like
    (:meth:`_queue_view`).  Which shard a name goes to is decided here.
    """

    #: fan-out runs shard by shard when an injector is attached:
    #: injected faults must fire in a deterministic order
    injector: FaultInjector = NULL_INJECTOR

    def __init__(self, name: str, shard_count: int,
                 placement: PlacementPolicy | None):
        self.name = name
        self.shard_count = shard_count
        self.placement = (
            placement if placement is not None else ConsistentHashPlacement()
        )
        #: name -> shard co-location pins taken at creation time
        #: (volatile; routing consults durable location first)
        self._pins: dict[str, int] = {}
        self.queues: Any = _Combined(
            lambda: (shard.queues for shard in self.shards), self.get_queue
        )

    def _queue_view(self, qname: str, shard: int) -> Any:
        raise NotImplementedError

    # -- placement and location ---------------------------------------

    def _locate_queue(self, qname: str) -> int | None:
        for index, shard in enumerate(self.shards):
            if qname in shard.queues:
                return index
        return None

    def _locate_table(self, tname: str) -> int | None:
        return None

    def shard_of(self, name: str) -> int:
        """The shard owning ``name`` (see :func:`route`)."""
        located = self._locate_queue(name)
        if located is None:
            located = self._locate_table(name)
        return route(name, located, self._pins, self.placement, self.shard_count)

    def _require_queue_shard(self, qname: str) -> int:
        located = self._locate_queue(qname)
        if located is None:
            raise NoSuchQueueError(f"no queue {qname!r} in {self.name!r}")
        return located

    # -- data definition and lookup -----------------------------------

    def create_queue(self, qname: str, **config: Any) -> Any:
        if self._locate_queue(qname) is not None:
            raise QueueExistsError(
                f"queue {qname!r} already exists in {self.name!r}"
            )
        error_queue = config.get("error_queue")
        shard: int | None = None
        if error_queue is not None:
            # Dead-letter moves happen inside one shard transaction, so
            # a queue must share its error queue's shard.
            shard = self._locate_queue(error_queue)
        if shard is None:
            shard = self.shard_of(qname)
        self.shards[shard].create_queue(qname, **config)
        if error_queue is not None:
            self._pins[error_queue] = shard
        return self._queue_view(qname, shard)

    def get_queue(self, qname: str) -> Any:
        return self._queue_view(qname, self._require_queue_shard(qname))

    def queue_names(self) -> list[str]:
        return sorted(self.queues)

    # -- per-shard fan-out --------------------------------------------

    def _fan_out(self, fn: Callable[[int], Any]) -> list[Any]:
        """``[fn(0), fn(1), ...]`` — one thread per shard, since shards
        share nothing; in order when there is one shard or an injector."""
        if self.shard_count == 1 or self.injector is not NULL_INJECTOR:
            return [fn(shard) for shard in range(self.shard_count)]
        with ThreadPoolExecutor(self.shard_count) as pool:
            # every shard finishes before the first failure is re-raised
            return list(pool.map(fn, range(self.shard_count)))

    def checkpoint(self) -> None:
        """Fuzzy-checkpoint every shard.

        No quiescence and no cross-shard barrier needed: each shard's
        checkpoint is consistent with its own log, and that is the only
        pair recovery ever reads together — cross-shard atomicity is
        2PC's job (decision trackers are snapshotted per shard), not
        the checkpoint's.  So shards checkpoint in parallel, like they
        recover, except under fault injection where determinism demands
        a fixed order.
        """
        self._fan_out(lambda index: self.shards[index].checkpoint())

    def close(self) -> None:
        """Stop every shard's background machinery (or the wire to it)."""
        for shard in self.shards:
            shard.close()

    def depths_by_shard(self) -> dict[int, dict[str, int]]:
        """Per-shard queue depths (monitoring/tests)."""
        return {index: shard.depths() for index, shard in enumerate(self.shards)}


class ShardedRepository(ShardRouter):
    """N independent queue repositories behind one repository surface.

    Exposes the :class:`QueueRepository` interface that the queue
    manager, servers and tests program against (``tm``, ``queues``,
    ``registration``, ``get_queue``, ``create_queue``...), backed by
    ``len(disks)`` shards.  Constructing it over non-empty disks *is*
    restart recovery, shard by shard (in parallel unless a fault
    injector demands determinism); unresolved two-phase branches are
    then settled by scanning every shard's log for the coordinator's
    decision — presumed abort if none is found.
    """

    def __init__(
        self,
        name: str,
        disks: list[Disk] | None = None,
        injector: FaultInjector | None = None,
        obs: Observability | None = None,
        placement: PlacementPolicy | None = None,
        checkpoint_interval_bytes: int | None = None,
    ):
        if not disks:
            disks = [MemDisk()]
        super().__init__(name, len(disks), placement)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.obs = obs if obs is not None else get_observability()
        self._views: dict[str, ShardQueueView] = {}
        self.checkpoint_interval_bytes = checkpoint_interval_bytes
        # Wall time for the whole (possibly parallel) recovery pass.
        # Per-shard durations land in recovery_duration_seconds{repo=
        # "<name>.sN"}; this facade series is what shows the win of
        # recovering shards in parallel (wall << sum of per-shard).
        recovery_started = _perf_counter()
        self.shards: list[QueueRepository] = self._fan_out(
            lambda index: QueueRepository(
                shard_name(name, index, self.shard_count), disks[index],
                self.injector, obs=self.obs,
                checkpoint_interval_bytes=checkpoint_interval_bytes,
            )
        )
        self.obs.metrics.histogram(
            "sharded_recovery_wall_seconds",
            "wall-clock time to recover all shards of one facade "
            "(parallel recovery makes this less than the per-shard sum)",
            ("node",),
        ).labels(node=name).observe(_perf_counter() - recovery_started)

        self.coordinators: list[TwoPhaseCoordinator] = []
        if self.shard_count == 1:
            # Pure passthrough: same objects, same log layout, same
            # metric labels as an unsharded QueueRepository — the
            # shard's own bound methods shadow the routed ones, so no
            # view, router or extra call sits on this path.
            shard = self.shards[0]
            self.tm: Any = shard.tm
            self.log = shard.log
            self.locks = shard.locks
            self.disk = shard.disk
            self.eids = shard.eids
            self.registration: Any = shard.registration
            self.queues = shard.queues
            self.tables: Any = shard.tables
            self.create_queue = shard.create_queue
            self.destroy_queue = shard.destroy_queue
            self.get_queue = shard.get_queue
            self.create_table = shard.create_table
            self.get_table = shard.get_table
        else:
            for index, shard in enumerate(self.shards):
                self.coordinators.append(
                    TwoPhaseCoordinator(
                        shard.log,
                        name=coordinator_name(
                            name, index, self.shard_count, boot_epoch(shard)
                        ),
                        injector=self.injector,
                        tracker=shard.decisions,
                        obs=self.obs,
                    )
                )
            self.tm = ShardedTransactionManager(
                [shard.tm for shard in self.shards],
                self.coordinators,
                obs=self.obs,
                node=name,
            )
            self.registration = _RegistrationRouter(self)
            self.tables = _Combined(
                lambda: (shard.tables for shard in self.shards), self.get_table
            )
            self._resolve_in_doubt()

        self.recoveries = [shard.last_recovery for shard in self.shards]
        #: shard 0's report, for single-shard compatibility; sharded
        #: callers should read :attr:`recoveries`
        self.last_recovery = self.recoveries[0]

    def _resolve_in_doubt(self) -> None:
        """Settle prepared-but-undecided 2PC branches left by a crash.

        The coordinator's decision lives on whichever shard coordinated
        that transaction; ask every shard's decision tracker (rebuilt
        from its checkpoint image plus log replay, so it covers records
        segment GC has already reclaimed).  Presumed abort: no decision
        anywhere means abort.
        """
        for shard in self.shards:
            for branch in shard.last_recovery.in_doubt:
                if branch.resolved is not None:
                    continue
                decision = "abort"
                for other in self.shards:
                    found = other.decisions.get(branch.global_id)
                    if found is not None:
                        decision = found
                        break
                branch.resolve(decision)

    # ------------------------------------------------------------------
    # Views and tables
    # ------------------------------------------------------------------

    def _queue_view(self, qname: str, shard: int) -> ShardQueueView:
        view = self._views.get(qname)
        if view is None or view.shard_index != shard:
            view = ShardQueueView(self.shards[shard].queues[qname], shard)
            self._views[qname] = view
        return view

    def _locate_table(self, tname: str) -> int | None:
        for index, shard in enumerate(self.shards):
            if tname in shard.tables:
                return index
        return None

    def _table_view(self, tname: str, shard: int) -> ShardTableView:
        return ShardTableView(self.shards[shard].tables[tname], shard)

    # ------------------------------------------------------------------
    # Data definition and lookup beyond the router's
    # ------------------------------------------------------------------

    def destroy_queue(self, qname: str) -> None:
        self.shards[self._require_queue_shard(qname)].destroy_queue(qname)
        self._views.pop(qname, None)

    def stop_queue(self, qname: str) -> None:
        self.shards[self._require_queue_shard(qname)].stop_queue(qname)

    def start_queue(self, qname: str) -> None:
        self.shards[self._require_queue_shard(qname)].start_queue(qname)

    def create_table(self, tname: str) -> Any:
        located = self._locate_table(tname)
        if located is None:
            located = self.shard_of(tname)
        self.shards[located].create_table(tname)
        return self._table_view(tname, located)

    def get_table(self, tname: str) -> Any:
        located = self._locate_table(tname)
        if located is None:
            raise NoSuchQueueError(f"no table {tname!r} in {self.name!r}")
        return self._table_view(tname, located)

    def alloc_eid(self) -> int:
        """Facade-level allocation draws from shard 0; shard-local
        operations allocate from their own shard (element identity is
        per (queue, eid), so per-shard uniqueness suffices)."""
        return self.shards[0].alloc_eid()

    # ------------------------------------------------------------------
    # Durability plumbing used by TPSystem / chaos
    # ------------------------------------------------------------------

    @property
    def disks(self) -> list[Disk]:
        return [shard.disk for shard in self.shards]

    @property
    def logs(self) -> list[LogManager]:
        return [shard.log for shard in self.shards]

    @property
    def wal_panicked(self) -> bool:
        return any(shard.log.wal.panicked for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardedRepository({self.name!r}, shards={self.shard_count})"
