"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro.core.devices import DisplayWithUserIds, TicketPrinter
from repro.core.system import TPSystem
from repro.queueing.manager import QueueManager
from repro.queueing.placement import PinnedPlacement
from repro.queueing.repository import QueueRepository
from repro.sim.crash import FaultInjector
from repro.sim.trace import TraceRecorder
from repro.storage.disk import MemDisk
from repro.transaction.locks import LockManager
from repro.transaction.log import LogManager
from repro.transaction.manager import TransactionManager


@pytest.fixture
def disk() -> MemDisk:
    return MemDisk()


@pytest.fixture
def log(disk: MemDisk) -> LogManager:
    return LogManager(disk)


@pytest.fixture
def locks() -> LockManager:
    return LockManager(default_timeout=2.0)


@pytest.fixture
def tm(log: LogManager, locks: LockManager) -> TransactionManager:
    return TransactionManager(log, locks)


@pytest.fixture
def repo(disk: MemDisk) -> QueueRepository:
    return QueueRepository("test", disk)


@pytest.fixture
def qm(repo: QueueRepository) -> QueueManager:
    return QueueManager(repo)


@pytest.fixture
def trace() -> TraceRecorder:
    return TraceRecorder()


@pytest.fixture
def injector() -> FaultInjector:
    return FaultInjector()


@pytest.fixture
def system() -> TPSystem:
    return TPSystem()


@pytest.fixture
def display(system: TPSystem) -> DisplayWithUserIds:
    return DisplayWithUserIds(trace=system.trace)


@pytest.fixture
def printer(system: TPSystem) -> TicketPrinter:
    return TicketPrinter(trace=system.trace)


def run_with_server(system: TPSystem, server, client):
    """Run ``client.run()`` with ``server`` serving in a thread."""
    done = threading.Event()
    thread = threading.Thread(
        target=lambda: server.serve_until(done.is_set, 0.02), daemon=True
    )
    thread.start()
    try:
        return client.run()
    finally:
        done.set()
        thread.join(timeout=10)


def pinned_two_shard_system(**kwargs) -> TPSystem:
    """Replies on another node: the request queue (and its error queue)
    on shard 0, client c1's reply queue on shard 1 — every processed
    request is forced through the cross-shard two-phase commit."""
    placement = PinnedPlacement(
        {"req.q": 0, "req.err": 0, "reply.c1": 1}
    )
    return TPSystem(shards=2, placement=placement, **kwargs)


def echo_handler(txn, request):
    """The simplest server handler: echo the request body."""
    return {"echo": request.body}


class ForceRendezvous(FaultInjector):
    """An injector that forms one commit group on demand.

    After :meth:`gather`, the next ``parties`` committers to reach a log
    force's ``group_flush.before`` point wait there for each other, so
    all their records are appended before any flush starts: the first
    to reach ``flush_until`` flushes them all (the leader) and the
    others find their records durable (followers).  Later committers
    pass straight through.
    """

    def __init__(self) -> None:
        super().__init__(record=False)
        self._cond = threading.Condition()
        self._parties = 0
        self._arrived = 0

    def gather(self, parties: int) -> None:
        with self._cond:
            self._parties, self._arrived = parties, 0

    def reach(self, point: str) -> None:
        if point.endswith(".group_flush.before"):
            with self._cond:
                if self._arrived < self._parties:
                    self._arrived += 1
                    self._cond.notify_all()
                    formed = self._cond.wait_for(
                        lambda: self._arrived >= self._parties, timeout=10
                    )
                    assert formed, "the commit group never formed"
        super().reach(point)
