"""What a wire changes in two-phase commit, and only that.

``tests/transaction/test_twophase_matrix.py`` runs the shared protocol
against both coordinators.  These are the three steps
:class:`RemoteTwoPhaseCoordinator` overrides: a decide whose outcome is
unknown is settled by polling the coordinator shard, a branch on a
shard that is down is left to restart recovery when it should abort,
and phase 2 retries across a shard's recovery window before it gives
up.  Calls go straight into :class:`ShardService` objects through a
client that can lose a reply or be unreachable, so every case is
deterministic and nothing sleeps.
"""

from __future__ import annotations

import pytest

from repro.errors import PartitionedError, RpcTimeout, TwoPhaseInDoubtError
from repro.serve import client as client_module
from repro.serve.client import RemoteTwoPhaseCoordinator
from tests.transaction.test_twophase_matrix import DirectClient, World


class FlakyClient(DirectClient):
    """Fails scripted calls: ``"down"`` never reaches the service,
    ``"lost"`` is executed and its reply dropped."""

    def __init__(self, service, **script: list[str]):
        super().__init__(service)
        self.script = script
        self.seen: list[str] = []

    def call(self, payload, timeout=None, retries=None):
        op = payload["op"]
        self.seen.append(op)
        fate = self.script[op].pop(0) if self.script.get(op) else None
        if fate == "down":
            raise PartitionedError("shard unreachable")
        result = super().call(payload)
        if fate == "lost":
            raise RpcTimeout("reply lost")
        return result


@pytest.fixture
def world(monkeypatch) -> World:
    world = World(remote=True)
    world.sleeps = []
    monkeypatch.setattr(client_module.time, "sleep", world.sleeps.append)
    return world


def flaky_coordinator(world: World, **script) -> FlakyClient:
    flaky = FlakyClient(world.coordinator.client.service, **script)
    world.coordinator.client = flaky
    return flaky


def flaky_shard(world: World, shard: int, **script) -> FlakyClient:
    flaky = FlakyClient(world.clients[shard].service, **script)
    world.tms[shard].client = flaky
    return flaky


class TestUnknownDecide:
    def test_a_lost_reply_is_settled_by_polling_the_coordinator_shard(self, world):
        coordinator = flaky_coordinator(
            world, txn_decide=["lost"], txn_decision=["down"]
        )
        assert world.coordinator.commit(world.branches()) == "commit"
        assert coordinator.seen == ["txn_decide", "txn_decision", "txn_decision"]
        assert world.sleeps == [0.25]
        assert world.depths() == [1, 1]

    def test_a_decide_that_never_arrived_is_presumed_abort(self, world):
        flaky_coordinator(world, txn_decide=["down"])
        assert world.coordinator.commit(world.branches()) == "abort"
        assert world.depths() == [0, 0]
        assert world.open_transactions() == [[], []]

    def test_an_unreachable_coordinator_leaves_the_branches_in_doubt(
        self, world, monkeypatch
    ):
        monkeypatch.setattr(RemoteTwoPhaseCoordinator, "_DECISION_WAIT", -1.0)
        flaky_coordinator(world, txn_decide=["down"], txn_decision=["down"])
        with pytest.raises(TwoPhaseInDoubtError):
            world.coordinator.commit(world.branches())
        # Still prepared, still holding their locks: only the
        # coordinator shard's decision log may settle them.
        assert [len(open_) for open_ in world.open_transactions()] == [1, 1]


class TestAbortOnADownShard:
    def test_it_is_left_to_restart_recovery(self, world):
        flaky_shard(world, 0, txn_abort_prepared=["down"])
        flaky_shard(world, 1, txn_prepare=["down"])
        assert world.coordinator.commit(world.branches()) == "abort"
        assert world.open_transactions()[1] == []  # the reachable one


class TestPhaseTwoBudget:
    def test_it_outlasts_a_shard_restart_with_backoff(self, world):
        shard = flaky_shard(world, 1, txn_commit_prepared=["down"] * 4)
        assert world.coordinator.commit(world.branches()) == "commit"
        assert shard.seen.count("txn_commit_prepared") == 5
        assert world.sleeps == [0.05, 0.1, 0.2, 0.4]
        assert world.depths() == [1, 1]

    def test_it_ends_in_doubt_after_ten_attempts(self, world):
        shard = flaky_shard(world, 1, txn_commit_prepared=["down"] * 10)
        with pytest.raises(TwoPhaseInDoubtError):
            world.coordinator.commit(world.branches())
        assert shard.seen.count("txn_commit_prepared") == 10
        assert world.depths() == [1, 0]  # shard 0 applied the decision
