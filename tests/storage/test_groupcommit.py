"""Group commit is the log's own force: every forced record goes through
``LogManager._force`` → ``WriteAheadLog.flush_until``, whose flush runs
under the WAL lock.  Committers whose records were appended before a
flush began share it: one disk flush, one leader, the rest piggyback —
and a failed flush acknowledges none of them."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import DiskIOError, StorageError, WalPanicError
from repro.obs import Observability
from repro.sim.crash import FaultInjector
from repro.storage.disk import MemDisk
from repro.transaction.log import LogManager

from tests.conftest import ForceRendezvous


class BlockingDisk(MemDisk):
    """A MemDisk whose flushes block until ``release`` is set, then
    fail if ``fail`` is set."""

    def __init__(self) -> None:
        super().__init__()
        self.flushing = threading.Event()
        self.release = threading.Event()
        self.fail = False

    def flush(self, area: str) -> None:
        self.flushing.set()
        assert self.release.wait(timeout=10), "flush never released"
        if self.fail:
            raise DiskIOError(f"injected flush failure on {area!r}")
        super().flush(area)


def _value(obs: Observability, name: str, **labels) -> float:
    for series in obs.metrics.snapshot()[name]["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            return series.get("value", series.get("count"))
    return 0


class _Group:
    """Two committers on one log, held together at the force so both
    commit records are appended before the first flush starts."""

    def __init__(self, disk: MemDisk) -> None:
        self.disk = disk
        self.obs = Observability()
        injector = ForceRendezvous()
        self.log = LogManager(disk, obs=self.obs, injector=injector)
        injector.gather(2)
        self.acked: list[int] = []
        self.errors: dict[int, BaseException] = {}
        self.threads = [
            threading.Thread(target=self._commit, args=(txn_id,))
            for txn_id in (1, 2)
        ]
        for thread in self.threads:
            thread.start()

    def _commit(self, txn_id: int) -> None:
        self.log.log_update(txn_id, "t", {"k": txn_id})
        try:
            self.log.log_commit(txn_id)
        except StorageError as exc:
            self.errors[txn_id] = exc
            return
        self.acked.append(txn_id)

    def join(self) -> None:
        for thread in self.threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), "a committer never returned"


class TestSingleThreaded:
    def test_append_sync_makes_record_durable(self):
        disk = MemDisk()
        LogManager(disk).log_auto("rm", {"v": 1})
        disk.crash()
        disk.recover()
        records = LogManager(disk).records()
        assert [(r.kind, r.data) for r in records] == [("auto", {"v": 1})]

    def test_sync_is_noop_when_already_durable(self):
        disk = MemDisk()
        obs = Observability()
        injector = FaultInjector()
        log = LogManager(disk, obs=obs, injector=injector)
        lsn = log.wal.append(b"rec")
        log.wal.flush()
        flushes = disk.flush_count
        log._force(lsn)  # piggybacks on the earlier flush
        assert disk.flush_count == flushes
        assert injector.history == []  # no crash point for a durable record
        assert _value(obs, "wal_group_commit_piggybacked_total") == 1
        assert _value(obs, "wal_group_commit_forced_total") == 0

    def test_sequential_syncs_flush_each(self):
        # Without concurrency every forced record flushes once.
        disk = MemDisk()
        log = LogManager(disk)
        for i in range(5):
            log.log_auto("rm", {"i": i})
        assert disk.flush_count == 5

    def test_crash_points_bracket_each_flush(self):
        injector = FaultInjector()
        log = LogManager(MemDisk(), injector=injector)
        log.log_auto("rm", {})
        log.log_commit(1)
        assert injector.history == [
            "wal.log.group_flush.before", "wal.log.group_flush.after",
            "wal.log.group_flush.before", "wal.log.group_flush.after",
        ]


class TestBatching:
    def test_concurrent_commits_share_flushes(self):
        group = _Group(BlockingDisk())
        # The leader is inside the flush, holding the WAL lock; the
        # follower waits behind it, unacknowledged.
        assert group.disk.flushing.wait(timeout=10)
        assert group.acked == []
        group.disk.release.set()
        group.join()
        assert sorted(group.acked) == [1, 2] and not group.errors
        assert group.disk.flush_count == 1
        obs = group.obs
        assert _value(obs, "wal_group_commit_forced_total") == 1
        assert _value(obs, "wal_group_commit_piggybacked_total") == 1
        wait = "wal_group_commit_wait_seconds"
        assert _value(obs, wait, role="leader") == 1
        assert _value(obs, wait, role="follower") == 1
        group.disk.crash()
        group.disk.recover()
        assert LogManager(group.disk).committed_txns() == {1, 2}

    def test_metrics_recorded(self):
        obs = Observability()
        log = LogManager(MemDisk(), obs=obs)
        lsn = log.log_auto("rm", {})
        log._force(lsn)  # already durable -> piggybacked
        snap = obs.metrics.snapshot()
        assert snap["wal_group_commit_forced_total"]["series"][0]["value"] == 1
        assert snap["wal_group_commit_piggybacked_total"]["series"][0]["value"] == 1
        # The mean group is (forced + piggybacked) / forced, so neither a
        # group counter nor a batch-size histogram is kept.
        assert "wal_group_commits_total" not in snap
        assert "wal_group_commit_batch_size" not in snap

    def test_every_force_leads_or_piggybacks_under_stress(self):
        # More committers than cores, switching threads as often as the
        # interpreter allows: each force is counted exactly once, each
        # disk flush has exactly one leader, and every acknowledged
        # commit survives a crash.
        disk = MemDisk()
        obs = Observability()
        log = LogManager(disk, obs=obs)
        acked: list[int] = []
        threads_n, commits_n = 8, 50

        def committer(tid: int) -> None:
            for i in range(commits_n):
                txn_id = tid * commits_n + i + 1
                log.log_update(txn_id, "t", {"i": i})
                log.log_commit(txn_id)
                acked.append(txn_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=committer, args=(t,))
                       for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        forced = _value(obs, "wal_group_commit_forced_total")
        piggybacked = _value(obs, "wal_group_commit_piggybacked_total")
        assert forced + piggybacked == threads_n * commits_n
        assert disk.flush_count == forced
        disk.crash()
        disk.recover()
        assert LogManager(disk).committed_txns() == set(acked)
        assert len(acked) == threads_n * commits_n


class TestErrors:
    def test_flush_failure_propagates_to_all_committers(self):
        group = _Group(BlockingDisk())
        assert group.disk.flushing.wait(timeout=10)
        group.disk.fail = True
        group.disk.release.set()
        group.join()
        # The leader sees the I/O error, the follower queued behind the
        # lock sees the panic: neither commit is acknowledged.
        assert group.acked == []
        assert sorted(type(e).__name__ for e in group.errors.values()) == [
            "DiskIOError", "WalPanicError"
        ]
        assert group.log.wal.panicked
        with pytest.raises(WalPanicError):
            group.log.log_auto("rm", {})
        disk = group.disk
        disk.fail = False
        disk.crash()
        disk.recover()
        assert LogManager(disk).committed_txns() == set()
