"""Crash safety of group commit: a crash between the batch append and
the batch flush must never surface a committed-but-lost transaction,
and recovery replays exactly the flushed prefix.  Groups form from
plain concurrent committers sharing the log's force."""

from __future__ import annotations

import threading

import pytest

from repro.errors import DiskCrashedError, SimulatedCrash
from repro.queueing.repository import QueueRepository
from repro.sim.crash import FaultInjector
from repro.storage.disk import MemDisk
from repro.storage.kvstore import KVStore
from repro.transaction.locks import LockManager
from repro.transaction.log import LogManager
from repro.transaction.manager import TransactionManager


def fresh(disk, injector=None):
    log = LogManager(disk, injector=injector)
    tm = TransactionManager(log, LockManager(default_timeout=2.0), injector)
    return log, tm


class TestCrashAroundGroupFlush:
    def test_crash_before_flush_loses_the_commit(self):
        # The cmt record is appended but the group flush never ran: the
        # transaction must roll back at recovery — and its commit()
        # never returned, so nothing was promised.
        disk = MemDisk()
        injector = FaultInjector()
        injector.on_crash.append(lambda _point: disk.crash())
        injector.arm("wal.log.group_flush.before")
        log, tm = fresh(disk, injector)
        store = KVStore("t")
        txn = tm.begin()
        store.put(txn, "k", "v")
        with pytest.raises(SimulatedCrash):
            tm.commit(txn)
        disk.recover()
        store2 = KVStore("t")
        log2 = LogManager(disk)
        from repro.transaction.recovery import recover

        report = recover(log2, {store2.rm_name: store2})
        assert report.committed == set()
        assert store2.peek("k") is None

    def test_crash_after_flush_keeps_the_commit(self):
        disk = MemDisk()
        injector = FaultInjector()
        injector.on_crash.append(lambda _point: disk.crash())
        injector.arm("wal.log.group_flush.after")
        log, tm = fresh(disk, injector)
        store = KVStore("t")
        txn = tm.begin()
        store.put(txn, "k", "v")
        with pytest.raises(SimulatedCrash):
            tm.commit(txn)
        disk.recover()
        store2 = KVStore("t")
        from repro.transaction.recovery import recover

        report = recover(LogManager(disk), {store2.rm_name: store2})
        assert report.committed == {txn.id}
        assert store2.peek("k") == "v"

    def test_mid_batch_crash_never_loses_an_acknowledged_commit(self):
        # 8 committers share group flushes; the disk dies at the 5th
        # group flush.  Every transaction whose commit() RETURNED must
        # survive recovery; every one whose commit() raised must not be
        # half-visible as committed-without-effects or vice versa.
        disk = MemDisk()
        injector = FaultInjector(record=False)
        injector.on_crash.append(lambda _point: disk.crash())
        injector.arm("wal.repo.log.group_flush.before", hit=5)
        repo = QueueRepository("repo", disk, injector)
        store = repo.create_table("t")
        acked: list[str] = []
        acked_lock = threading.Lock()

        def committer(tid: int) -> None:
            for i in range(40):
                key = f"k{tid}-{i}"
                try:
                    with repo.tm.transaction() as txn:
                        store.put(txn, key, tid)
                except (SimulatedCrash, DiskCrashedError):
                    return
                with acked_lock:
                    acked.append(key)

        threads = [
            threading.Thread(target=committer, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert disk.crashed, "the armed group flush was never reached"
        disk.recover()
        repo2 = QueueRepository("repo", disk)
        store2 = repo2.get_table("t")
        missing = [k for k in acked if store2.peek(k) is None]
        assert not missing, f"acknowledged commits lost: {missing}"

    def test_recovery_replays_exactly_the_flushed_prefix(self):
        # Whatever the log's durable prefix says committed is exactly
        # what recovery reports — no more, no less.
        disk = MemDisk()
        injector = FaultInjector(record=False)
        injector.on_crash.append(lambda _point: disk.crash())
        injector.arm("wal.repo.log.group_flush.before", hit=7)
        repo = QueueRepository("repo", disk, injector)
        store = repo.create_table("t")

        def committer(tid: int) -> None:
            for i in range(30):
                try:
                    with repo.tm.transaction() as txn:
                        store.put(txn, f"k{tid}-{i}", i)
                except (SimulatedCrash, DiskCrashedError):
                    return

        threads = [
            threading.Thread(target=committer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert disk.crashed
        disk.recover()
        log2 = LogManager(disk, area="repo.log")
        durable_commits = {
            r.txn_id for r in log2.records() if r.kind == "cmt"
        }
        repo2 = QueueRepository("repo", disk)
        assert repo2.last_recovery.committed == durable_commits


class TestPrepareForcedThroughGroupCommit:
    def test_prepare_is_durable_before_returning(self):
        disk = MemDisk()
        log, tm = fresh(disk)
        store = KVStore("t")
        txn = tm.begin()
        store.put(txn, "k", 1)
        tm.prepare(txn, "gid-1")
        disk.crash()
        disk.recover()
        store2 = KVStore("t")
        from repro.transaction.recovery import recover

        report = recover(LogManager(disk), {store2.rm_name: store2})
        assert [b.global_id for b in report.in_doubt] == ["gid-1"]
