"""Failover: the durable promotion ledger, epoch fencing, and the
TPSystem-level promote-and-rebuild path."""

from __future__ import annotations

from repro.core.request import Request, make_rid
from repro.core.system import TPSystem
from repro.errors import SimulatedCrash, WalFencedError
from repro.replication import FailoverController
from repro.sim.crash import FaultInjector
from repro.storage.disk import MemDisk

import pytest


class TestFailoverController:
    def test_generations_start_at_zero(self):
        controller = FailoverController()
        assert controller.generation(0) == 0
        assert controller.history == []

    def test_record_promotion_increments_and_persists(self):
        disk = MemDisk()
        controller = FailoverController(disk)
        assert controller.record_promotion(0, lsn=100, reason="t") == 1
        assert controller.record_promotion(0, lsn=200, reason="t") == 2
        assert controller.record_promotion(1, lsn=50, reason="t") == 1
        # A controller restart reads the ledger: no generation amnesia,
        # so a deposed primary can never be re-adopted.
        reloaded = FailoverController(disk)
        assert reloaded.generation(0) == 2
        assert reloaded.generation(1) == 1
        assert [h["lsn"] for h in reloaded.history] == [100, 200, 50]


class TestTPSystemFailOver:
    def test_requires_replicate(self):
        system = TPSystem()
        with pytest.raises(ValueError):
            system.fail_over(0)

    def test_promoted_system_serves_the_old_state(self):
        system = TPSystem(replicate=True)
        table = system.table("t")
        with system.request_repo.tm.transaction() as txn:
            for i in range(5):
                table.put(txn, f"k{i}", i)
        promoted = system.fail_over(0, reason="test.kill")
        table2 = promoted.table("t")
        with promoted.request_repo.tm.transaction() as txn:
            assert [table2.get(txn, f"k{i}") for i in range(5)] == list(
                range(5)
            )
        assert promoted.failover_controller.generation(0) == 1

    def test_zombie_primary_is_fenced(self):
        system = TPSystem(replicate=True)
        table = system.table("t")
        with system.request_repo.tm.transaction() as txn:
            table.put(txn, "a", 1)
        zombie_log = system.request_repo.shards[0].log
        system.fail_over(0, reason="test.kill")
        with pytest.raises(WalFencedError):
            zombie_log.wal.append(b"late write")

    def test_sharded_failover_bumps_only_the_promoted_epoch(self):
        system = TPSystem(
            shard_disks=[MemDisk(), MemDisk()], replicate=True
        )
        table = system.table("t")
        with system.request_repo.tm.transaction() as txn:
            for i in range(4):
                table.put(txn, f"k{i}", i)
        promoted = system.fail_over(1, reason="test.kill")
        assert promoted.failover_controller.generation(1) == 1
        assert promoted.failover_controller.generation(0) == 0
        table2 = promoted.table("t")
        with promoted.request_repo.tm.transaction() as txn:
            assert [table2.get(txn, f"k{i}") for i in range(4)] == list(
                range(4)
            )
        # The new system replicates too: a second failover of the same
        # shard promotes generation 2 from the fresh standby.
        with promoted.request_repo.tm.transaction() as txn:
            table2.put(txn, "late", 99)
        second = promoted.fail_over(1, reason="test.kill")
        assert second.failover_controller.generation(1) == 2
        table3 = second.table("t")
        with second.request_repo.tm.transaction() as txn:
            assert table3.get(txn, "late") == 99

    def test_reopen_carries_standbys_and_controller(self):
        system = TPSystem(replicate=True)
        table = system.table("t")
        with system.request_repo.tm.transaction() as txn:
            table.put(txn, "a", 1)
        controller = system.failover_controller
        standby_disk = system.replicas.standby_disks()[0]
        system.crash()
        for disk in system.shard_disks:
            disk.recover()
        reopened = system.reopen()
        assert reopened.failover_controller is controller
        assert reopened.replicas.standby_disks()[0] is standby_disk
        assert reopened.replicas.lag_bytes() == [0]

    def test_a_crash_in_the_promoted_boot_is_finished_by_reopen(self):
        system = TPSystem(shards=2, replicate=True)
        rids = []
        for client_id in ("c0", "c1", "c2", "c3"):
            clerk = system.clerk(client_id)
            clerk.connect()
            rid = make_rid(client_id, 1)
            clerk.send(Request(rid=rid, body=rid, client_id=client_id,
                               reply_to=clerk.reply_queue), rid)
            rids.append(rid)
        k = system.request_repo.shard_of(system.request_queue)
        image = system.replicas.standby_disks()[k]
        injector = FaultInjector()
        injector.arm(f"wal.reqnode.s{k}.log.group_flush.before")
        with pytest.raises(SimulatedCrash):
            system.fail_over(k, reason="test.kill", injector=injector)
        system.crash()  # the booting node dies with every disk it holds
        recovered = system.reopen()
        assert recovered.request_repo.disks[k] is image
        assert recovered.failover_controller.generation(k) == 1
        server = recovered.server("s", lambda txn, request: request.body)
        assert recovered.drain(server) == len(rids)
        for rid in rids:
            clerk = recovered.clerk(rid.split("#")[0])
            clerk.connect()
            assert clerk.receive(timeout=0).rid == rid
        assert sorted(recovered.trace.rids("request.executed")) == rids
        recovered.checker().assert_ok(require_completion=False)
