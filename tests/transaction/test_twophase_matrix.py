"""One two-phase-commit matrix, run against both coordinators.

:class:`TwoPhaseCoordinator` (decision log in this process) and
:class:`RemoteTwoPhaseCoordinator` (decision log behind a shard
service) run one ``commit()``.  Everything they are meant to share is
checked here on both; what differs on purpose — a lost ``txn_decide``
reply, the phase-2 retry budget — is in
``tests/serve/test_remote_twophase.py``.

The layout is the same on both sides: a coordinator node (its own
repository and disk, so its log can be made to fail alone) and two
participant shards, each holding queue ``q``.
"""

from __future__ import annotations

import pytest

from repro.comm.wire import unwrap
from repro.queueing.repository import QueueRepository
from repro.serve.client import RemoteShardTM, RemoteTwoPhaseCoordinator
from repro.serve.service import ShardService
from repro.storage.disk import MemDisk
from repro.storage.faults import DiskFault, FaultyDisk
from repro.transaction.twophase import TwoPhaseCoordinator


class DirectClient:
    """A :class:`~repro.serve.client.ShardClient` without the socket:
    every call is the service's own ``handle``."""

    def __init__(self, service: ShardService):
        self.service = service

    def call(self, payload, timeout=None, retries=None):
        return unwrap(self.service.handle(payload))


class World:
    """A coordinator node and two participant shards."""

    def __init__(self, remote: bool):
        self.remote = remote
        self.coordinator_disk = FaultyDisk(MemDisk())
        self.disks = [FaultyDisk(MemDisk()) for _ in range(2)]
        node = QueueRepository("co", self.coordinator_disk)
        self.repos = [
            QueueRepository(f"s{index}", disk)
            for index, disk in enumerate(self.disks)
        ]
        for repo in self.repos:
            repo.create_queue("q")
        self.decisions = node.decisions
        if remote:
            self.clients = [DirectClient(ShardService(repo)) for repo in self.repos]
            self.tms = [
                RemoteShardTM(client, index)
                for index, client in enumerate(self.clients)
            ]
            self.coordinator = RemoteTwoPhaseCoordinator(
                DirectClient(ShardService(node)), "co"
            )
        else:
            self.tms = [repo.tm for repo in self.repos]
            self.coordinator = TwoPhaseCoordinator(
                node.log, name="co", tracker=node.decisions
            )

    def branch_with_an_enqueue(self, shard: int):
        """``(tm, txn)`` for a fresh branch on ``shard`` that has
        enqueued one element into ``q`` (lock held, nothing visible)."""
        txn = self.tms[shard].begin()
        if self.remote:
            txn.id = self.clients[shard].call({"op": "txn_begin"})
            local = self.clients[shard].service.txns[txn.id]
        else:
            local = txn
        self.repos[shard].get_queue("q").enqueue(local, {"from": shard})
        return self.tms[shard], txn

    def branches(self):
        return [self.branch_with_an_enqueue(0), self.branch_with_an_enqueue(1)]

    def depths(self) -> list[int]:
        return [repo.get_queue("q").depth() for repo in self.repos]

    def open_transactions(self) -> list[list[int]]:
        return [repo.tm.active_txns() for repo in self.repos]

    def fail_next(self, disk: FaultyDisk, op: str) -> None:
        disk.add_fault(DiskFault(op=op, hit=disk._counts[(op, None)] + 1))


@pytest.fixture(params=["in-process", "remote"])
def world(request) -> World:
    return World(remote=request.param == "remote")


def test_all_branches_commit(world):
    assert world.coordinator.commit(world.branches()) == "commit"
    assert world.depths() == [1, 1]
    assert world.open_transactions() == [[], []]
    assert list(world.decisions.snapshot().values()) == ["commit"]


def test_a_failing_prepare_vetoes_and_every_branch_is_released(world):
    branches = world.branches()
    world.fail_next(world.disks[1], "append")  # shard 1's prep record
    assert world.coordinator.commit(branches) == "abort"
    assert world.depths() == [0, 0]
    assert world.open_transactions() == [[], []]
    # Nothing is left locked: the same queues take a committed enqueue.
    assert world.coordinator.commit(world.branches()) == "commit"
    assert world.depths() == [1, 1]


def test_a_failed_decision_force_aborts_the_prepared_branches(world):
    branches = world.branches()
    world.fail_next(world.coordinator_disk, "append")
    assert world.coordinator.commit(branches) == "abort"
    assert world.depths() == [0, 0]
    assert world.open_transactions() == [[], []]
    assert "commit" not in world.decisions.snapshot().values()


def test_a_duplicate_decide_is_absorbed(world):
    gid = world.coordinator.new_global_id()
    assert world.coordinator._decide(gid, "commit") == "commit"
    assert world.coordinator._decide(gid, "commit") == "commit"
    assert world.decisions.get(gid) == "commit"
