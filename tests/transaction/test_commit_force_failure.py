"""A failed commit force must never yield an acknowledged-but-lost
transaction — including mid-group-commit.

The policy under test (see :mod:`repro.storage.wal`): the first failed
flush *panics* the log.  The committer gets the storage error (its
transaction is hard-aborted: volatile effects undone, locks released),
and every later append/flush raises :class:`~repro.errors.WalPanicError`
until restart — so a subsequent successful flush can never quietly
promote a commit record whose transaction was already reported failed.
After restart, recovery replays exactly the durable prefix: a commit
whose force failed either raised to its caller XOR is replayed, never
neither and never "acknowledged then lost".
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    DiskIOError,
    StorageError,
    TransactionAborted,
    WalPanicError,
)
from repro.queueing.repository import QueueRepository
from repro.storage.disk import MemDisk
from repro.storage.faults import DiskFault, FaultyDisk
from repro.storage.kvstore import KVStore
from repro.storage.wal import WriteAheadLog
from repro.transaction.locks import LockManager
from repro.transaction.log import LogManager
from repro.transaction.manager import TransactionManager
from repro.transaction.recovery import recover

from tests.conftest import ForceRendezvous


def _fresh(disk, injector=None):
    log = LogManager(disk, injector=injector)
    tm = TransactionManager(log, LockManager(default_timeout=0.2))
    return log, tm


def _restart(faulty):
    """Panic restart: the node is gone, so the disk's unflushed buffers
    are discarded (their durability was unknowable) and the device is
    brought back without its remaining fault plan."""
    faulty.heal()
    faulty.crash()
    faulty.recover()


class TestSingleCommitForceFailure:
    def test_committer_sees_the_error_and_nothing_is_acknowledged(self):
        faulty = FaultyDisk(MemDisk(), faults=[DiskFault(op="flush", hit=1)])
        log, tm = _fresh(faulty)
        store = KVStore("t")
        txn = tm.begin()
        store.put(txn, "k", "v")
        with pytest.raises(DiskIOError):
            tm.commit(txn)
        # Hard abort: volatile effects undone, the log is panicked.
        assert store.peek("k") is None
        assert log.wal.panicked
        assert tm.aborts == 1 and tm.commits == 0

    def test_recovery_does_not_replay_the_failed_commit(self):
        faulty = FaultyDisk(MemDisk(), faults=[DiskFault(op="flush", hit=1)])
        log, tm = _fresh(faulty)
        store = KVStore("t")
        txn = tm.begin()
        store.put(txn, "k", "v")
        with pytest.raises(DiskIOError):
            tm.commit(txn)
        _restart(faulty)
        store2 = KVStore("t")
        report = recover(LogManager(faulty), {store2.rm_name: store2})
        assert txn.id not in report.committed
        assert store2.peek("k") is None

    def test_hard_abort_releases_locks(self):
        faulty = FaultyDisk(MemDisk(), faults=[DiskFault(op="flush", hit=1)])
        log, tm = _fresh(faulty)
        store = KVStore("t")
        txn = tm.begin()
        store.put(txn, "k", "v")
        with pytest.raises(DiskIOError):
            tm.commit(txn)
        # The key's X lock is free again: another transaction acquires
        # it immediately instead of waiting out the (short) lock
        # timeout.  (The panicked log refuses redo records, so we probe
        # the lock directly rather than through a KVStore write.)
        from repro.transaction.locks import LockMode

        txn2 = tm.begin()
        txn2.lock("t/k", LockMode.X)  # would time out if still held
        tm.abort(txn2)

    def test_panic_blocks_later_promotion_of_the_commit_record(self):
        # The injected flush failure is transient (duration=1): a naive
        # retry of the flush WOULD succeed and make the commit record
        # durable after its transaction was reported failed.  The panic
        # forbids exactly that.
        faulty = FaultyDisk(MemDisk(), faults=[DiskFault(op="flush", hit=1)])
        wal = WriteAheadLog(faulty, area="log")
        wal.append(b"commit-record")
        with pytest.raises(DiskIOError):
            wal.flush()
        with pytest.raises(WalPanicError):
            wal.flush()  # the transient fault is gone, but no retry
        with pytest.raises(WalPanicError):
            wal.append(b"more")
        assert wal.panic_cause is not None
        _restart(faulty)
        assert WriteAheadLog(faulty, area="log").records() == []

    def test_next_transaction_fails_fast_on_the_panicked_log(self):
        faulty = FaultyDisk(MemDisk(), faults=[DiskFault(op="flush", hit=1)])
        log, tm = _fresh(faulty)
        store = KVStore("t")
        with pytest.raises(DiskIOError):
            with tm.transaction() as txn:
                store.put(txn, "a", 1)
        with pytest.raises(StorageError):
            with tm.transaction() as txn:
                store.put(txn, "b", 2)
        assert store.peek("a") is None and store.peek("b") is None


class TestGroupCommitForceFailure:
    def test_mid_group_flush_failure_never_loses_an_acknowledged_commit(self):
        # Concurrent committers share group flushes; one flush raises.
        # The leader gets the DiskIOError, parked followers get
        # WalPanicError — nobody's commit() returns without a durable
        # record, so recovery must cover exactly the acknowledged set.
        faulty = FaultyDisk(
            MemDisk(), faults=[DiskFault(op="flush", hit=10, area="repo.log.000001")]
        )
        repo = QueueRepository("repo", faulty)
        store = repo.create_table("t")
        acked: list[str] = []
        errors: list[Exception] = []
        acked_lock = threading.Lock()

        def committer(tid: int) -> None:
            for i in range(30):
                key = f"k{tid}-{i}"
                try:
                    with repo.tm.transaction() as txn:
                        store.put(txn, key, tid)
                except (StorageError, TransactionAborted) as exc:
                    with acked_lock:
                        errors.append(exc)
                    return
                with acked_lock:
                    acked.append(key)

        threads = [threading.Thread(target=committer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert repo.log.wal.panicked, "the armed flush fault never fired"
        assert errors, "no committer observed the flush failure"

        _restart(faulty)
        repo2 = QueueRepository("repo", faulty)
        store2 = repo2.get_table("t")
        missing = [k for k in acked if store2.peek(k) is None]
        assert not missing, f"acknowledged commits lost: {missing}"

    def test_followers_of_a_failed_group_are_not_acknowledged(self):
        # Two committers, one group flush, which fails: *both* commit()
        # calls must raise, and neither transaction may survive.
        faulty = FaultyDisk(
            MemDisk(), faults=[DiskFault(op="flush", hit=1, area="log.000001")]
        )
        injector = ForceRendezvous()
        log, tm = _fresh(faulty, injector)
        injector.gather(2)
        store = KVStore("t")
        outcomes: dict[int, str] = {}
        barrier = threading.Barrier(2)

        def committer(tid: int) -> None:
            barrier.wait()
            try:
                with tm.transaction() as txn:
                    store.put(txn, f"k{tid}", tid)
                outcomes[tid] = "acked"
            except StorageError:
                outcomes[tid] = "failed"

        threads = [threading.Thread(target=committer, args=(t,))
                   for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert outcomes == {0: "failed", 1: "failed"}
        _restart(faulty)
        store2 = KVStore("t")
        report = recover(LogManager(faulty), {store2.rm_name: store2})
        assert report.committed == set()
        assert store2.peek("k0") is None and store2.peek("k1") is None
