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
