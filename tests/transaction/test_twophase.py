"""Two-phase commit tests across two nodes."""

from __future__ import annotations

import pytest

from repro.errors import SimulatedCrash, TwoPhaseCommitError
from repro.sim.crash import FaultInjector
from repro.storage.disk import MemDisk
from repro.storage.kvstore import KVStore
from repro.transaction.locks import LockManager
from repro.transaction.log import LogManager
from repro.transaction.manager import TransactionManager
from repro.transaction.recovery import recover
from repro.transaction.twophase import TwoPhaseCoordinator


def make_node(disk=None, injector=None):
    disk = disk if disk is not None else MemDisk()
    log = LogManager(disk)
    tm = TransactionManager(log, LockManager(default_timeout=2.0), injector)
    store = KVStore("db")
    return disk, log, tm, store


class TestHappyPath:
    def test_commit_across_two_nodes(self):
        _, log_a, tm_a, store_a = make_node()
        _, _, tm_b, store_b = make_node()
        coordinator = TwoPhaseCoordinator(log_a)
        txn_a, txn_b = tm_a.begin(), tm_b.begin()
        store_a.put(txn_a, "k", "A")
        store_b.put(txn_b, "k", "B")
        assert coordinator.commit([(tm_a, txn_a), (tm_b, txn_b)]) == "commit"
        assert store_a.peek("k") == "A"
        assert store_b.peek("k") == "B"

    def test_global_ids_unique(self):
        _, log, tm, _ = make_node()
        coordinator = TwoPhaseCoordinator(log, name="c")
        assert coordinator.new_global_id() != coordinator.new_global_id()

    def test_empty_branches_rejected(self):
        _, log, _, _ = make_node()
        with pytest.raises(TwoPhaseCommitError):
            TwoPhaseCoordinator(log).commit([])

    def test_decision_lookup(self):
        _, log_a, tm_a, store_a = make_node()
        coordinator = TwoPhaseCoordinator(log_a, name="co")
        txn = tm_a.begin()
        store_a.put(txn, "x", 1)
        coordinator.commit([(tm_a, txn)])
        assert coordinator.decision("co:1") == "commit"
        assert coordinator.decision("co:999") == "abort"  # presumed abort


class TestVeto:
    def test_prepare_failure_aborts_all(self):
        _, log_a, tm_a, store_a = make_node()
        _, _, tm_b, store_b = make_node()
        coordinator = TwoPhaseCoordinator(log_a)
        txn_a, txn_b = tm_a.begin(), tm_b.begin()
        store_a.put(txn_a, "k", "A")
        store_b.put(txn_b, "k", "B")
        tm_b.abort(txn_b, "dies before prepare")  # prepare will fail
        assert coordinator.commit([(tm_a, txn_a), (tm_b, txn_b)]) == "abort"
        assert store_a.peek("k") is None
        assert store_b.peek("k") is None


class TestCrashRecovery:
    def test_participant_crash_after_prepare_resolves_commit(self):
        disk_b = MemDisk()
        _, log_a, tm_a, store_a = make_node()
        _, log_b, tm_b, store_b = make_node(disk_b)
        coordinator = TwoPhaseCoordinator(log_a, name="co")
        txn_a, txn_b = tm_a.begin(), tm_b.begin()
        store_a.put(txn_a, "k", "A")
        store_b.put(txn_b, "k", "B")
        # Run phase 1 manually, then "crash" node B before phase 2.
        gid = coordinator.new_global_id()
        tm_a.prepare(txn_a, gid)
        tm_b.prepare(txn_b, gid)
        coordinator.log_decision(gid, "commit")
        tm_a.commit_prepared(txn_a)
        disk_b.crash()
        disk_b.recover()
        # Node B restarts, finds the branch in doubt, asks the coordinator.
        store_b2 = KVStore("db")
        report = recover(LogManager(disk_b), {store_b2.rm_name: store_b2})
        assert len(report.in_doubt) == 1
        branch = report.in_doubt[0]
        branch.resolve(coordinator.decision(branch.global_id))
        assert store_b2.peek("k") == "B"

    def test_participant_crash_before_decision_presumed_abort(self):
        disk_b = MemDisk()
        _, log_a, tm_a, store_a = make_node()
        _, log_b, tm_b, store_b = make_node(disk_b)
        coordinator = TwoPhaseCoordinator(log_a, name="co")
        txn_b = tm_b.begin()
        store_b.put(txn_b, "k", "B")
        gid = coordinator.new_global_id()
        tm_b.prepare(txn_b, gid)
        # Coordinator never logged a decision: presumed abort.
        disk_b.crash()
        disk_b.recover()
        store_b2 = KVStore("db")
        report = recover(LogManager(disk_b), {store_b2.rm_name: store_b2})
        branch = report.in_doubt[0]
        branch.resolve(coordinator.decision(branch.global_id))
        assert store_b2.peek("k") is None

    def test_crash_after_decision_before_branch_commits(self):
        # The decision is durable at the coordinator; both branches are
        # in doubt after a whole-system crash and both resolve commit.
        shared_injector = FaultInjector()
        disk_a, disk_b = MemDisk(), MemDisk()
        _, log_a, tm_a, store_a = make_node(disk_a)
        _, log_b, tm_b, store_b = make_node(disk_b)
        coordinator = TwoPhaseCoordinator(log_a, name="co", injector=shared_injector)
        txn_a, txn_b = tm_a.begin(), tm_b.begin()
        store_a.put(txn_a, "k", "A")
        store_b.put(txn_b, "k", "B")
        shared_injector.arm("2pc.after_decision")
        with pytest.raises(SimulatedCrash):
            coordinator.commit([(tm_a, txn_a), (tm_b, txn_b)])
        for disk in (disk_a, disk_b):
            disk.crash()
            disk.recover()
        # Recover both nodes.
        store_a2, store_b2 = KVStore("db"), KVStore("db")
        log_a2 = LogManager(disk_a)
        report_a = recover(log_a2, {store_a2.rm_name: store_a2})
        report_b = recover(LogManager(disk_b), {store_b2.rm_name: store_b2})
        coordinator2 = TwoPhaseCoordinator(log_a2, name="co")
        for report, store in ((report_a, store_a2), (report_b, store_b2)):
            for branch in report.in_doubt:
                branch.resolve(coordinator2.decision(branch.global_id))
        assert store_a2.peek("k") == "A"
        assert store_b2.peek("k") == "B"

    def test_crash_after_prepare_before_decision_aborts_everywhere(self):
        shared_injector = FaultInjector()
        disk_a, disk_b = MemDisk(), MemDisk()
        _, log_a, tm_a, store_a = make_node(disk_a)
        _, log_b, tm_b, store_b = make_node(disk_b)
        coordinator = TwoPhaseCoordinator(log_a, name="co", injector=shared_injector)
        txn_a, txn_b = tm_a.begin(), tm_b.begin()
        store_a.put(txn_a, "k", "A")
        store_b.put(txn_b, "k", "B")
        shared_injector.arm("2pc.after_prepare")
        with pytest.raises(SimulatedCrash):
            coordinator.commit([(tm_a, txn_a), (tm_b, txn_b)])
        for disk in (disk_a, disk_b):
            disk.crash()
            disk.recover()
        store_a2, store_b2 = KVStore("db"), KVStore("db")
        log_a2 = LogManager(disk_a)
        report_a = recover(log_a2, {store_a2.rm_name: store_a2})
        report_b = recover(LogManager(disk_b), {store_b2.rm_name: store_b2})
        coordinator2 = TwoPhaseCoordinator(log_a2, name="co")
        for report, store in ((report_a, store_a2), (report_b, store_b2)):
            for branch in report.in_doubt:
                branch.resolve(coordinator2.decision(branch.global_id))
        assert store_a2.peek("k") is None
        assert store_b2.peek("k") is None
