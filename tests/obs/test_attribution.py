"""Commit-pipeline phase timings, queue age, and recovery-progress
metrics — the latency-attribution side of the observability layer."""

from __future__ import annotations

import threading

from repro.obs import Observability
from repro.queueing.placement import PinnedPlacement
from repro.queueing.repository import QueueRepository
from repro.queueing.sharded import ShardedRepository
from repro.storage.disk import MemDisk

from tests.conftest import ForceRendezvous


def _hist(obs: Observability, name: str, **labels):
    family = obs.metrics.snapshot().get(name)
    assert family is not None, f"metric {name} was never registered"
    for series in family["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            return series
    return None


class TestCommitPhaseTimings:
    def test_wal_append_and_force_are_timed(self):
        obs = Observability()
        repo = QueueRepository("node", MemDisk(), obs=obs)
        table = repo.create_table("t")
        for i in range(3):
            with repo.tm.transaction() as txn:
                table.put(txn, f"k{i}", i)
        append = _hist(obs, "wal_append_seconds", area="node.log")
        force = _hist(obs, "wal_force_seconds", area="node.log")
        assert append["count"] >= 3 and append["sum"] >= 0.0
        assert force["count"] >= 3

    def test_group_commit_roles_are_timed(self):
        obs = Observability()
        injector = ForceRendezvous()
        repo = QueueRepository("node", MemDisk(), injector, obs=obs)
        table = repo.create_table("t")
        injector.gather(2)  # the first two worker commits share a flush
        errors: list[BaseException] = []

        def committer(tid: int) -> None:
            try:
                for i in range(20):
                    with repo.tm.transaction() as txn:
                        table.put(txn, f"k{tid}-{i}", i)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [threading.Thread(target=committer, args=(t,))
                   for t in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        leader = _hist(obs, "wal_group_commit_wait_seconds",
                       area="node.log", role="leader")
        follower = _hist(obs, "wal_group_commit_wait_seconds",
                         area="node.log", role="follower")
        assert leader["count"] > 0
        # the gathered pair guarantees one piggyback
        assert follower is not None and follower["count"] > 0
        # every sync was either led or piggybacked (the +1 is the
        # create_table DDL commit before the workers started)
        assert leader["count"] + follower["count"] == 81

    def test_two_phase_rounds_are_timed(self):
        obs = Observability()
        repo = ShardedRepository(
            "node", [MemDisk(), MemDisk()], obs=obs,
            placement=PinnedPlacement({"a": 0, "b": 1}),
        )
        ta, tb = repo.create_table("a"), repo.create_table("b")
        with repo.tm.transaction() as txn:
            ta.put(txn, "k", 1)
            tb.put(txn, "k", 2)
        prepare = _hist(obs, "twophase_prepare_seconds", area="node.s0.log")
        decide = _hist(obs, "twophase_decide_seconds", area="node.s0.log")
        commit = _hist(obs, "twophase_commit_seconds", node="node")
        assert prepare["count"] == 2  # one per branch
        assert decide["count"] == 1
        assert commit["count"] == 1
        kinds = [e["kind"] for e in obs.flight.events()]
        assert "2pc.decision" in kinds
        assert kinds.count("txn.prepare") == 2

    def test_queue_age_spans_enqueue_to_dequeue(self):
        obs = Observability()
        repo = QueueRepository("node", MemDisk(), obs=obs)
        q = repo.create_queue("req")
        with repo.tm.transaction() as txn:
            q.enqueue(txn, "payload")
        with repo.tm.transaction() as txn:
            q.dequeue(txn)
        age = _hist(obs, "queue_age_seconds", queue="req")
        assert age["count"] == 1
        assert age["sum"] >= 0.0


class TestRecoveryProgressMetrics:
    def test_full_replay_after_restart(self):
        disk = MemDisk()
        repo = QueueRepository("node", disk, obs=Observability())
        table = repo.create_table("t")
        for i in range(5):
            with repo.tm.transaction() as txn:
                table.put(txn, f"k{i}", i)
        repo.close()

        obs = Observability()
        reopened = QueueRepository("node", disk, obs=obs)
        reopened.close()
        report = reopened.last_recovery
        assert report.replayed_records > 0

        snapshot = obs.metrics.snapshot()
        records = snapshot["recovery_replayed_records_total"]["series"][0]
        replayed = snapshot["recovery_replayed_bytes_total"]["series"][0]
        duration = snapshot["recovery_duration_seconds"]["series"][0]
        assert records["value"] == report.replayed_records
        assert replayed["value"] > 0
        assert duration["count"] == 1 and duration["sum"] > 0.0
        mode = _hist(obs, "recovery_mode_total",
                     repo="node", mode="full-replay")
        assert mode["value"] == 1
        (event,) = [e for e in obs.flight.events()
                    if e["kind"] == "recovery.complete"]
        assert event["mode"] == "full-replay"
        assert event["records"] == report.replayed_records

    def test_checkpoint_suffix_classification(self):
        disk = MemDisk()
        obs = Observability()
        repo = QueueRepository("node", disk, obs=obs)
        table = repo.create_table("t")
        for i in range(5):
            with repo.tm.transaction() as txn:
                table.put(txn, f"k{i}", i)
        repo.checkpoint()
        stall = _hist(obs, "checkpoint_stall_seconds", repo="node")
        assert stall["count"] == 1
        repo.close()

        obs2 = Observability()
        reopened = QueueRepository("node", disk, obs=obs2)
        reopened.close()
        assert reopened.last_recovery.checkpoint_loaded
        mode = _hist(obs2, "recovery_mode_total",
                     repo="node", mode="checkpoint-suffix")
        assert mode["value"] == 1

    def test_parallel_shard_recovery_reports_per_shard_and_wall(self):
        disks = [MemDisk(), MemDisk()]
        repo = ShardedRepository(
            "node", disks, obs=Observability(),
            placement=PinnedPlacement({"a": 0, "b": 1}),
        )
        ta, tb = repo.create_table("a"), repo.create_table("b")
        with repo.tm.transaction() as txn:
            ta.put(txn, "k", 1)
            tb.put(txn, "k", 2)
        repo.close()

        obs = Observability()
        reopened = ShardedRepository(
            "node", disks, obs=obs,
            placement=PinnedPlacement({"a": 0, "b": 1}),
        )
        reopened.close()
        for shard in ("node.s0", "node.s1"):
            duration = _hist(obs, "recovery_duration_seconds", repo=shard)
            assert duration["count"] == 1
        wall = _hist(obs, "sharded_recovery_wall_seconds", node="node")
        assert wall["count"] == 1 and wall["sum"] > 0.0
