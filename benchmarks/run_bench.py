#!/usr/bin/env python
"""Commit-throughput benchmarks: group commit and repository sharding.

**groupcommit** (default): committer threads x M transactions each
against one repository (a KV table sharing the node's log, as in
Figure 5's server transaction), on both the in-memory disk and the
file-backed disk, at 1 thread and at N threads.  Group commit is the
log's own force (``WriteAheadLog.flush_until`` flushes under the log
lock, so committers queued behind a flush find their records durable).
Writes ``BENCH_groupcommit.json`` with txn/s, the disk's flush count,
and the forced (leader) and piggybacked (follower) commit forces; the
mean group is ``(forced + piggybacked) / forced``.

**checkpoint** (``--checkpoint-bytes N``): the same committer workload
on one file-backed repository, with the byte-triggered fuzzy
checkpointer off (the seed's full-log-replay restart) and on at an
``N``-byte interval.  After the workload the node is closed and
reopened cold, timing restart recovery.  Writes
``BENCH_checkpoint.json`` with live WAL bytes, checkpoints taken,
restart latency, and records replayed — the bounded-time-recovery
acceptance numbers.

**sharding** (``--shards N``): the same committer workload against a
:class:`~repro.queueing.sharded.ShardedRepository` over 1, 2, ... N
file-backed shard disks, each thread pinned to one shard's table
(single-shard transactions: one log force, no 2PC — the routed commit
counters prove it), plus one cross-shard cell at N shards where every
transaction spans two shards and is promoted to two-phase commit.
Writes ``BENCH_sharding.json`` with txn/s per shard count.

**profile** (``--profile``): the in-memory committer workload with
observability disabled (the null-object fast path) and enabled, timing
the instrumentation overhead.  Writes ``BENCH_obs_overhead.json`` with
txn/s for both cells, the overhead percentage, and the enabled run's
per-phase latency attribution; the full metrics snapshot goes to
``--metrics-out`` so ``python -m repro.obs.report`` can render it.

**hotpath** (``--dequeue-mode``): the contended-consumer dequeue
workload — one file-backed queue prefilled to a steady depth, N
consumer threads each running dequeue-and-requeue transactions — at
the base depth and at 10x the base depth, in ``skip_locked`` and/or
``strict`` mode.  This is the Section 10 claim as a benchmark shape:
skip-locked throughput should be depth-insensitive while strict FIFO
collapses under contention.  Writes ``BENCH_hotpath.json`` with txn/s,
lock conflicts, skipped-locked counts, and WAL appends per commit.

**detlane** (``--cc``): the concurrency-control contention sweep —
N consumer threads each running auto-commit dequeue-then-requeue
against a strict-FIFO hot queue (with probability ``hot_fraction``)
or their private queue, on a file-backed repository, once under 2PL and
once routed through the deterministic plan-queue lane.  At high
contention the 2PL cells collapse into ``ElementLockedError`` retry
storms and one fsync per commit, while
the lane serializes intents without conflicts and coalesces each plan
batch into a single commit force.  Writes ``BENCH_detlane.json``; the
``--check`` gate asserts the lane overtakes 2PL at the
highest-contention cell (the crossover documented in
docs/performance.md).

**codec** (``--codec``): microbenchmark of the storage codec — per-
record ``encode``/``decode`` versus the batched ``encode_into`` reused
buffer and the ``memoryview``-based ``decode_from`` used by batched
WAL appends and recovery replay.  Writes ``BENCH_codec.json``.

**failover** (``--replicate``): the committer workload unreplicated,
with a warm standby attached (WAL log shipping rides along with every
commit force — the shipping-overhead number), and with a mid-workload
failover to the standby.  The failover cell times promotion plus the
promoted image's recovery boot (the RTO), verifies every acknowledged
pre-failover commit survived on the promoted node, and its txn/s
includes the outage window (steady-state vs during-failover
throughput).  Writes ``BENCH_failover.json``.

**netdeploy** (``--deployment tcp``): the saturation benchmark for the
TCP deployment — shard processes spawned by the supervisor, an asyncio
:class:`~repro.gateway.Gateway` terminating N closed-loop client
sessions, and a fixed pool of server threads draining the request
queue.  Swept over session counts (underload and overload) with
queue-depth backpressure on and off.  Overload with backpressure off
lets the request queue absorb the whole session population, so queue
wait — and the reply tail — grows with N; with backpressure on the
gateway refuses (``Busy``) past the depth watermark and the accepted
requests keep a bounded tail.  Writes ``BENCH_netdeploy.json`` with
txn/s, accepted-submit p50/p95/p99 reply latency, end-to-end p99
(including Busy retries), and refusal counts; the ``--check`` gate
asserts backpressure-on beats backpressure-off on p99 at the
overloaded cell.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # group commit
    PYTHONPATH=src python benchmarks/run_bench.py --shards 4 # sharding
    PYTHONPATH=src python benchmarks/run_bench.py --checkpoint-bytes 65536
    PYTHONPATH=src python benchmarks/run_bench.py --profile  # obs overhead
    PYTHONPATH=src python benchmarks/run_bench.py --dequeue-mode both
    PYTHONPATH=src python benchmarks/run_bench.py --cc       # det lane sweep
    PYTHONPATH=src python benchmarks/run_bench.py --codec    # codec micro
    PYTHONPATH=src python benchmarks/run_bench.py --replicate # failover/RTO
    PYTHONPATH=src python benchmarks/run_bench.py --deployment tcp # netdeploy
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --check BENCH_groupcommit.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time

from repro.errors import ElementLockedError, QueueEmpty
from repro.obs import Observability
from repro.queueing.manager import QueueManager
from repro.queueing.placement import PinnedPlacement
from repro.queueing.queue import DequeueMode
from repro.queueing.repository import QueueRepository
from repro.queueing.sharded import ShardedRepository
from repro.replication import ReplicaSet
from repro.storage.disk import FileDisk, MemDisk
from repro.transaction.deterministic import DeterministicLane

SCHEMA_VERSION = 1


def _counter_total(snapshot: dict, name: str) -> int:
    """Sum of a counter family across its label series (0 if absent)."""
    family = snapshot.get(name)
    if not family:
        return 0
    return int(sum(s.get("value", 0) for s in family.get("series", ())))


def run_scenario(
    disk_kind: str,
    threads_n: int,
    txns_n: int,
    obs: Observability | None = None,
) -> dict:
    """One benchmark cell; returns its JSON-ready result row."""
    obs = obs if obs is not None else Observability()
    if disk_kind == "mem":
        disk = MemDisk()
        tmpdir = None
    elif disk_kind == "file":
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-")
        disk = FileDisk(tmpdir.name)
    else:
        raise ValueError(f"unknown disk kind {disk_kind!r}")
    try:
        repo = QueueRepository("bench", disk, obs=obs)
        table = repo.create_table("accounts")
        flushes_before = disk.flush_count
        snapshot = obs.metrics.snapshot()
        forced_before = _counter_total(snapshot, "wal_group_commit_forced_total")
        piggybacked_before = _counter_total(
            snapshot, "wal_group_commit_piggybacked_total"
        )
        errors: list[BaseException] = []

        def committer(tid: int) -> None:
            try:
                for i in range(txns_n):
                    with repo.tm.transaction() as txn:
                        table.put(txn, f"k{tid}-{i}", i)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=committer, args=(t,))
            for t in range(threads_n)
        ]
        started = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]

        commits = threads_n * txns_n
        flushes = disk.flush_count - flushes_before
        snapshot = obs.metrics.snapshot()
        forced = _counter_total(
            snapshot, "wal_group_commit_forced_total") - forced_before
        piggybacked = _counter_total(
            snapshot, "wal_group_commit_piggybacked_total") - piggybacked_before
        return {
            "disk": disk_kind,
            "threads": threads_n,
            "txns_per_thread": txns_n,
            "commits": commits,
            "flushes": flushes,
            "flushes_per_commit": flushes / commits if commits else 0.0,
            "forced": forced,
            "piggybacked": piggybacked,
            "mean_group": (forced + piggybacked) / forced if forced else 0.0,
            "txn_per_sec": commits / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed,
        }
    finally:
        if isinstance(disk, FileDisk):
            disk.close()
        if tmpdir is not None:
            tmpdir.cleanup()


def run_sharded_scenario(
    shard_count: int,
    threads_n: int,
    txns_n: int,
    workload: str,
) -> dict:
    """One sharding-benchmark cell on file-backed shard disks.

    ``workload="single"`` pins thread *t* to a table on shard
    ``t % shard_count`` — every transaction stays on one shard and
    commits with a single log force.  ``workload="cross"`` makes every
    transaction also write the next thread's table, so (for more than
    one shard) each commit spans two shards and promotes to 2PC.
    """
    obs = Observability()
    tmpdirs = [
        tempfile.TemporaryDirectory(prefix="repro-bench-")
        for _ in range(shard_count)
    ]
    disks = [FileDisk(d.name) for d in tmpdirs]
    try:
        placement = PinnedPlacement(
            {f"t{t}": t % shard_count for t in range(threads_n)}
        )
        repo = ShardedRepository("bench", disks, obs=obs, placement=placement)
        tables = [repo.create_table(f"t{t}") for t in range(threads_n)]
        tm = repo.tm
        commits_before = tm.commits
        single_before = getattr(tm, "single_shard_commits", 0)
        cross_before = getattr(tm, "cross_shard_commits", 0)
        flushes_before = sum(disk.flush_count for disk in disks)
        errors: list[BaseException] = []

        def committer(tid: int) -> None:
            table = tables[tid]
            other = tables[(tid + 1) % threads_n]
            try:
                for i in range(txns_n):
                    with tm.transaction() as txn:
                        table.put(txn, f"k{tid}-{i}", i)
                        if workload == "cross":
                            other.put(txn, f"x{tid}-{i}", i)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=committer, args=(t,))
            for t in range(threads_n)
        ]
        started = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]

        commits = threads_n * txns_n
        flushes = sum(disk.flush_count for disk in disks) - flushes_before
        if shard_count == 1:
            # Passthrough repository: a plain TransactionManager, every
            # commit trivially single-shard.
            single, cross = tm.commits - commits_before, 0
        else:
            single = tm.single_shard_commits - single_before
            cross = tm.cross_shard_commits - cross_before
        return {
            "shards": shard_count,
            "workload": workload,
            "threads": threads_n,
            "txns_per_thread": txns_n,
            "commits": commits,
            "single_shard_commits": single,
            "cross_shard_commits": cross,
            "flushes": flushes,
            "flushes_per_commit": flushes / commits if commits else 0.0,
            "txn_per_sec": commits / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed,
        }
    finally:
        for disk in disks:
            disk.close()
        for tmpdir in tmpdirs:
            tmpdir.cleanup()


def run_checkpoint_scenario(
    interval_bytes: int | None,
    threads_n: int,
    txns_n: int,
) -> dict:
    """One checkpoint-benchmark cell on a file-backed disk.

    Runs the committer workload (with the background checkpointer when
    ``interval_bytes`` is set), then closes the node and times a cold
    reopen — the restart-latency number the checkpoint exists to bound.
    """
    obs = Observability()
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-")
    pad = "x" * 64  # give each commit some log weight
    try:
        disk = FileDisk(tmpdir.name)
        repo = QueueRepository(
            "bench", disk, obs=obs, checkpoint_interval_bytes=interval_bytes
        )
        table = repo.create_table("accounts")
        errors: list[BaseException] = []

        def committer(tid: int) -> None:
            try:
                for i in range(txns_n):
                    with repo.tm.transaction() as txn:
                        table.put(txn, f"k{tid}-{i}", f"{i}:{pad}")
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=committer, args=(t,))
            for t in range(threads_n)
        ]
        started = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]

        # The background checkpointer polls every 20 ms, and a short
        # workload can end before its first poll: one synchronous poll
        # takes the checkpoint the byte trigger asks for.
        if repo.checkpointer is not None:
            repo.checkpointer.poll()
        repo.close()
        commits = threads_n * txns_n
        live_wal = repo.log.wal.live_bytes()
        checkpoints = (
            repo.checkpointer.checkpoints_taken
            if repo.checkpointer is not None else 0
        )
        disk.close()

        # Cold restart: recovery reads the checkpoint (if any) and
        # replays only the log suffix above its recovery LSN.
        disk = FileDisk(tmpdir.name)
        restart_started = time.perf_counter()
        reopened = QueueRepository(
            "bench", disk, obs=Observability(),
            checkpoint_interval_bytes=interval_bytes,
        )
        restart_seconds = time.perf_counter() - restart_started
        reopened.close()
        report = reopened.last_recovery
        disk.close()
        return {
            "checkpointing": interval_bytes is not None,
            "interval_bytes": interval_bytes or 0,
            "threads": threads_n,
            "txns_per_thread": txns_n,
            "commits": commits,
            "checkpoints": checkpoints,
            "live_wal_bytes": live_wal,
            "restart_seconds": restart_seconds,
            "replayed_records": report.replayed_records,
            "recovery_lsn": report.recovery_lsn,
            "txn_per_sec": commits / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed,
        }
    finally:
        tmpdir.cleanup()


def run_failover_scenario(phase: str, threads_n: int, txns_n: int) -> dict:
    """One replication-benchmark cell on file-backed disks.

    ``phase="baseline"`` runs the committer workload unreplicated;
    ``phase="replicated"`` attaches a warm standby (log shipping rides
    along with every commit force) to measure the shipping overhead;
    ``phase="failover"`` runs half the workload, fails over to the
    standby — timing promotion plus the promoted image's recovery boot,
    which is the RTO — verifies that every pre-failover commit survived
    on the promoted node, and finishes the workload there.  The
    failover cell's txn/s includes the RTO outage window, so comparing
    it against the replicated cell is the steady-state vs
    during-failover throughput number.
    """
    obs = Observability()
    tmp_primary = tempfile.TemporaryDirectory(prefix="repro-bench-")
    tmp_standby = tempfile.TemporaryDirectory(prefix="repro-bench-")
    pad = "x" * 64
    disks: list[FileDisk] = []
    try:
        disk = FileDisk(tmp_primary.name)
        disks.append(disk)
        repo = ShardedRepository("bench", [disk], obs=obs)
        table = repo.create_table("accounts")
        replicas = None
        if phase != "baseline":
            standby_disk = FileDisk(tmp_standby.name)
            disks.append(standby_disk)
            replicas = ReplicaSet(repo, standby_disks=[standby_disk], obs=obs)

        def run_burst(repo, table, count, offset) -> float:
            errors: list[BaseException] = []

            def committer(tid: int) -> None:
                try:
                    for i in range(offset, offset + count):
                        with repo.tm.transaction() as txn:
                            table.put(txn, f"k{tid}-{i}", f"{i}:{pad}")
                except BaseException as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            workers = [
                threading.Thread(target=committer, args=(t,))
                for t in range(threads_n)
            ]
            started = time.perf_counter()
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            if errors:
                raise errors[0]
            return time.perf_counter() - started

        failovers = 0
        rto_seconds = 0.0
        commits_before_failover = 0
        recovered = 0
        if phase == "failover":
            first = txns_n // 2
            elapsed = run_burst(repo, table, first, 0)
            commits_before_failover = threads_n * first
            started = time.perf_counter()
            promoted = replicas.fail_over(0, reason="bench.kill")
            reopened = ShardedRepository("bench", [promoted], obs=Observability())
            rto_seconds = time.perf_counter() - started
            failovers = 1
            new_table = reopened.create_table("accounts")
            with reopened.tm.transaction() as txn:
                for tid in range(threads_n):
                    for i in range(first):
                        if new_table.get(txn, f"k{tid}-{i}") is not None:
                            recovered += 1
            elapsed += rto_seconds
            elapsed += run_burst(reopened, new_table, txns_n - first, first)
            commits = threads_n * txns_n
        else:
            elapsed = run_burst(repo, table, txns_n, 0)
            commits = threads_n * txns_n
            if replicas is not None:
                replicas.pump()
                replicas.detach()

        shipped = _counter_total(
            obs.metrics.snapshot(), "replication_shipped_bytes_total"
        )
        lag = sum(replicas.lag_bytes()) if replicas is not None else 0
        return {
            "phase": phase,
            "threads": threads_n,
            "txns_per_thread": txns_n,
            "commits": commits,
            "shipped_bytes": shipped,
            "lag_bytes": lag,
            "failovers": failovers,
            "rto_seconds": rto_seconds,
            "commits_before_failover": commits_before_failover,
            "recovered_commits": recovered,
            "txn_per_sec": commits / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed,
        }
    finally:
        for d in disks:
            d.close()
        tmp_primary.cleanup()
        tmp_standby.cleanup()


def run_failover(args: argparse.Namespace) -> dict:
    threads_n = args.threads
    txns_n = args.txns
    if args.quick:
        threads_n = min(threads_n, 4)
        txns_n = min(txns_n, 40)
    scenarios = []
    for phase in ("baseline", "replicated", "failover"):
        print(f"running failover/{phase} "
              f"({threads_n} threads x {txns_n} txns)...", flush=True)
        row = run_failover_scenario(phase, threads_n, txns_n)
        print(f"  {row['txn_per_sec']:.0f} txn/s, "
              f"{row['shipped_bytes']} bytes shipped, lag {row['lag_bytes']}"
              + (f", RTO {row['rto_seconds'] * 1000:.1f} ms, "
                 f"{row['recovered_commits']}/{row['commits_before_failover']} "
                 "pre-failover commits recovered"
                 if row["failovers"] else ""))
        scenarios.append(row)
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "failover",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


def run_hotpath_scenario(
    mode: str,
    prefill: int,
    threads_n: int,
    txns_n: int,
    metrics_out: str | None = None,
) -> dict:
    """One contended-consumer cell on a file-backed disk.

    The queue is prefilled to ``prefill`` committed elements; each of
    ``threads_n`` consumers then runs ``txns_n`` dequeue-and-requeue
    transactions, so the committed depth stays ~constant for the whole
    timed window (the degradation claim needs a steady depth, not a
    drain).  In STRICT mode an uncommitted head raises
    ``ElementLockedError``; the consumer aborts and retries, and the
    retry count is reported as ``lock_conflicts``.
    """
    obs = Observability()
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-")
    try:
        disk = FileDisk(tmpdir.name)
        repo = QueueRepository("bench", disk, obs=obs)
        queue = repo.create_queue("work", mode=DequeueMode(mode))
        filled = 0
        while filled < prefill:
            batch = min(100, prefill - filled)
            with repo.tm.transaction() as txn:
                for offset in range(batch):
                    queue.enqueue(txn, {"n": filled + offset})
            filled += batch

        flushes_before = disk.flush_count
        appends_before = _counter_total(
            obs.metrics.snapshot(), "wal_appends_total"
        )
        conflicts = [0] * threads_n
        errors: list[BaseException] = []

        def consumer(tid: int) -> None:
            done = 0
            try:
                while done < txns_n:
                    try:
                        with repo.tm.transaction() as txn:
                            element = queue.dequeue(txn)
                            queue.enqueue(
                                txn, element.body, priority=element.priority
                            )
                        done += 1
                    except (ElementLockedError, QueueEmpty):
                        conflicts[tid] += 1
                        time.sleep(0)  # yield to the lock holder
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=consumer, args=(t,))
            for t in range(threads_n)
        ]
        started = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]

        commits = threads_n * txns_n
        flushes = disk.flush_count - flushes_before
        appends = _counter_total(
            obs.metrics.snapshot(), "wal_appends_total"
        ) - appends_before
        if metrics_out is not None:
            from repro.obs.export import write_metrics_json

            write_metrics_json(obs.metrics, metrics_out)
            print(f"  wrote metrics snapshot to {metrics_out}")
        return {
            "mode": mode,
            "prefill": prefill,
            "threads": threads_n,
            "txns_per_thread": txns_n,
            "commits": commits,
            "lock_conflicts": sum(conflicts),
            "skipped_locked": queue.skipped_locked,
            "flushes": flushes,
            "flushes_per_commit": flushes / commits if commits else 0.0,
            "wal_appends": appends,
            "appends_per_commit": appends / commits if commits else 0.0,
            "txn_per_sec": commits / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed,
        }
    finally:
        tmpdir.cleanup()


def run_hotpath(args: argparse.Namespace) -> dict:
    threads_n = args.threads
    txns_n = args.txns
    prefill = args.prefill
    if args.quick:
        threads_n = min(threads_n, 4)
        txns_n = min(txns_n, 30)
        prefill = min(prefill, 20)
    modes = (
        ("skip_locked", "strict")
        if args.dequeue_mode == "both" else (args.dequeue_mode,)
    )
    scenarios = []
    for mode in modes:
        # STRICT spends most of its time in abort/retry spins; a
        # smaller per-thread quota keeps the cell's wall time sane
        # without changing its (normalized) txn/s.
        mode_txns = txns_n if mode == "skip_locked" else max(10, txns_n // 4)
        for depth in (prefill, prefill * 10):
            print(f"running hotpath/{mode} depth={depth} "
                  f"({threads_n} threads x {mode_txns} txns)...", flush=True)
            # Snapshot the deep skip-locked cell: that is the hot path
            # whose attribution docs/performance.md tracks.
            snapshot_cell = mode == "skip_locked" and depth == prefill * 10
            row = run_hotpath_scenario(
                mode, depth, threads_n, mode_txns,
                metrics_out=args.metrics_out if snapshot_cell else None,
            )
            print(f"  {row['txn_per_sec']:.0f} txn/s, "
                  f"{row['lock_conflicts']} conflicts, "
                  f"{row['skipped_locked']} skipped-locked, "
                  f"{row['appends_per_commit']:.2f} appends/commit")
            scenarios.append(row)
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "hotpath",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


def run_detlane_scenario(
    cc: str,
    threads_n: int,
    txns_n: int,
    hot_fraction: float,
) -> dict:
    """One cell of the concurrency-control contention sweep.

    Every thread loops: pick the shared strict-FIFO ``hot`` queue with
    probability ``hot_fraction`` (else its private queue), then run an
    auto-commit dequeue followed by an auto-commit requeue of the same
    body.  Under 2PL each operation is its own transaction fighting for
    the queue head; under the deterministic lane both are planned
    intents executed serially in shared batches.  ``ops`` counts
    completed dequeue+requeue pairs; a strict-mode head conflict or an
    empty poll counts as one ``conflict`` retry.
    """
    obs = Observability()
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-")
    try:
        disk = FileDisk(tmpdir.name)
        repo = ShardedRepository("bench", [disk], obs=obs)
        lane = DeterministicLane(repo, obs=obs) if cc != "2pl" else None
        qm = QueueManager(repo, obs=obs, lane=lane)
        qnames = ["hot"] + [f"own{t}" for t in range(threads_n)]
        for qname in qnames:
            repo.create_queue(qname, mode=DequeueMode.STRICT)
        handles = {}
        for t in range(threads_n):
            for qname in ("hot", f"own{t}"):
                handles[(qname, t)], _, _ = qm.register(qname, f"w{t}")
        prefill = {"hot": 4 * threads_n + 8}
        for t in range(threads_n):
            prefill[f"own{t}"] = 4
        for qname, depth in prefill.items():
            with repo.tm.transaction() as txn:
                queue = repo.get_queue(qname)
                for n in range(depth):
                    queue.enqueue(txn, {"q": qname, "n": n})

        flushes_before = disk.flush_count
        conflicts = [0] * threads_n
        errors: list[BaseException] = []

        def worker(tid: int) -> None:
            rng = random.Random(7919 * tid + 13)
            hot = handles[("hot", tid)]
            own = handles[(f"own{tid}", tid)]
            done = 0
            try:
                while done < txns_n:
                    handle = hot if rng.random() < hot_fraction else own
                    try:
                        element = qm.dequeue(handle)
                        qm.enqueue(handle, element.body)
                        done += 1
                    except (ElementLockedError, QueueEmpty):
                        conflicts[tid] += 1
                        time.sleep(0)  # yield to the pending dequeuer
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=worker, args=(t,))
            for t in range(threads_n)
        ]
        started = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]

        ops = threads_n * txns_n
        flushes = disk.flush_count - flushes_before
        snapshot = obs.metrics.snapshot()
        batch_family = snapshot.get("det_plan_batch_size") or {}
        batch_series = (batch_family.get("series") or [{}])[0]
        det_batches = int(batch_series.get("count", 0))
        batch_sum = float(batch_series.get("sum", 0.0))
        return {
            "cc": cc,
            "threads": threads_n,
            "hot_fraction": hot_fraction,
            "txns_per_thread": txns_n,
            "ops": ops,
            "conflicts": sum(conflicts),
            "det_batches": det_batches,
            "det_batch_mean": (
                batch_sum / det_batches if det_batches else 0.0
            ),
            "flushes": flushes,
            "ops_per_sec": ops / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed,
        }
    finally:
        tmpdir.cleanup()


def run_detlane(args: argparse.Namespace) -> dict:
    """The ``--cc`` contention sweep: thread count x hot-queue skew,
    each cell once per concurrency-control lane."""
    txns_n = max(10, args.txns // 8)
    threads_grid = (2, 8)
    hot_grid = (0.0, 0.9)
    if args.quick:
        txns_n = min(txns_n, 10)
        threads_grid = (2,)
        hot_grid = (0.9,)
    scenarios = []
    for threads_n in threads_grid:
        for hot_fraction in hot_grid:
            for cc in ("2pl", "deterministic"):
                print(f"running detlane/{cc} threads={threads_n} "
                      f"hot={hot_fraction} ({txns_n} pairs/thread)...",
                      flush=True)
                row = run_detlane_scenario(
                    cc, threads_n, txns_n, hot_fraction
                )
                print(f"  {row['ops_per_sec']:.0f} ops/s, "
                      f"{row['conflicts']} conflicts, "
                      f"{row['det_batches']} plan batches "
                      f"(mean {row['det_batch_mean']:.1f}), "
                      f"{row['flushes']} flushes")
                scenarios.append(row)
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "detlane",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


def run_codec(args: argparse.Namespace) -> dict:
    """The codec microbenchmark (``--codec``).

    Encodes/decodes a realistic WAL-record population four ways:
    per-record ``encode``/``decode`` (one fresh buffer and one byte
    copy per record — the seed's path) versus the batched
    ``encode_into`` reused buffer and the zero-copy ``decode_from``
    over a single ``memoryview`` (the batched-append path).
    """
    from repro.storage import codec

    records_n = 200 if args.quick else 2000
    reps = 5 if args.quick else 20
    records = [
        {
            "k": "upd",
            "t": i,
            "rm": "q:requests",
            "d": {
                "op": "enq",
                "el": {
                    "eid": i,
                    "body": {"payload": "x" * 64, "n": i},
                    "priority": i % 3,
                    "enqueue_seq": i,
                    "headers": {"rid": f"r{i}", "client": "bench"},
                    "abort_count": 0,
                },
            },
        }
        for i in range(records_n)
    ]

    def cell(op: str, variant: str, run) -> dict:
        # One warm-up rep (buffer growth, cache warming), then timed.
        run()
        started = time.perf_counter()
        total_bytes = 0
        for _ in range(reps):
            total_bytes += run()
        elapsed = time.perf_counter() - started
        done = reps * records_n
        row = {
            "op": op,
            "variant": variant,
            "records": done,
            "bytes": total_bytes,
            "records_per_sec": done / elapsed if elapsed > 0 else 0.0,
            "mb_per_sec": (
                total_bytes / elapsed / 1e6 if elapsed > 0 else 0.0
            ),
            "elapsed_s": elapsed,
        }
        print(f"  {op}/{variant}: {row['records_per_sec']:.0f} records/s "
              f"({row['mb_per_sec']:.1f} MB/s)")
        return row

    print(f"running codec microbenchmark ({records_n} records x {reps} "
          "reps)...", flush=True)

    payloads = [codec.encode(r) for r in records]
    batch = bytearray()
    for record in records:
        codec.encode_into(batch, record)
    batch_view = memoryview(bytes(batch))

    def encode_single() -> int:
        return sum(len(codec.encode(r)) for r in records)

    reused = bytearray()

    def encode_batched() -> int:
        del reused[:]
        for record in records:
            codec.encode_into(reused, record)
        return len(reused)

    def decode_single() -> int:
        total = 0
        for payload in payloads:
            codec.decode(payload)
            total += len(payload)
        return total

    def decode_memoryview() -> int:
        pos = 0
        while pos < len(batch_view):
            _, pos = codec.decode_from(batch_view, pos)
        return len(batch_view)

    scenarios = [
        cell("encode", "single", encode_single),
        cell("encode", "batched", encode_batched),
        cell("decode", "single", decode_single),
        cell("decode", "memoryview", decode_memoryview),
    ]
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "codec",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


def run_checkpoint(args: argparse.Namespace) -> dict:
    threads_n = args.threads
    txns_n = args.txns
    if args.quick:
        threads_n = min(threads_n, 4)
        txns_n = min(txns_n, 40)
    scenarios = []
    for interval in (None, args.checkpoint_bytes):
        label = "off" if interval is None else f"every {interval} bytes"
        print(f"running checkpoint/{label} "
              f"({threads_n} threads x {txns_n} txns)...", flush=True)
        row = run_checkpoint_scenario(interval, threads_n, txns_n)
        print(f"  {row['txn_per_sec']:.0f} txn/s, "
              f"{row['checkpoints']} checkpoints, "
              f"{row['live_wal_bytes']} live WAL bytes, "
              f"restart {row['restart_seconds'] * 1000:.1f} ms "
              f"({row['replayed_records']} records replayed)")
        scenarios.append(row)
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "checkpoint",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


def run_sharding(args: argparse.Namespace) -> dict:
    threads_n = args.threads
    txns_n = args.txns
    if args.quick:
        threads_n = min(threads_n, 4)
        txns_n = min(txns_n, 40)
    counts = []
    count = 1
    while count < args.shards:
        counts.append(count)
        count *= 2
    counts.append(args.shards)
    scenarios = []
    for shard_count in counts:
        print(f"running sharding/single x{shard_count} "
              f"({threads_n} threads x {txns_n} txns)...", flush=True)
        row = run_sharded_scenario(shard_count, threads_n, txns_n, "single")
        print(f"  {row['txn_per_sec']:.0f} txn/s, "
              f"{row['cross_shard_commits']} cross-shard commits")
        scenarios.append(row)
    print(f"running sharding/cross x{args.shards}...", flush=True)
    row = run_sharded_scenario(args.shards, threads_n, txns_n, "cross")
    print(f"  {row['txn_per_sec']:.0f} txn/s, "
          f"{row['cross_shard_commits']} cross-shard commits")
    scenarios.append(row)
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "sharding",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


def run_profile(args: argparse.Namespace) -> dict:
    """The observability-overhead benchmark (``--profile``).

    Runs the same in-memory committer workload twice — observability
    disabled (the null-object fast path) and enabled — and reports the
    txn/s delta plus the enabled run's per-phase latency attribution.
    The enabled run's full metrics snapshot is written next to the
    result so ``python -m repro.obs.report`` can render it.
    """
    from repro.obs.export import write_metrics_json
    from repro.obs.report import PIPELINE_PHASES, _merge, _series

    threads_n = args.threads
    txns_n = args.txns
    if args.quick:
        threads_n = min(threads_n, 4)
        txns_n = min(txns_n, 40)

    print(f"running profile/disabled ({threads_n} threads x {txns_n} "
          "txns)...", flush=True)
    row_off = run_scenario("mem", threads_n, txns_n,
                           obs=Observability.disabled())
    row_off["obs_enabled"] = False
    print(f"  {row_off['txn_per_sec']:.0f} txn/s")

    print(f"running profile/enabled ({threads_n} threads x {txns_n} "
          "txns)...", flush=True)
    obs = Observability()
    row_on = run_scenario("mem", threads_n, txns_n, obs=obs)
    row_on["obs_enabled"] = True
    print(f"  {row_on['txn_per_sec']:.0f} txn/s")

    snapshot = obs.metrics.snapshot()
    attribution = {}
    for label, metric, match, lane in PIPELINE_PHASES:
        merged = _merge(_series(snapshot, metric, match))
        if merged["count"]:
            attribution[label] = {
                "lane": lane,
                "count": int(merged["count"]),
                "total_s": merged["sum"],
                "p95_s": merged["p95"],
            }
    write_metrics_json(obs.metrics, args.metrics_out)
    print(f"wrote metrics snapshot to {args.metrics_out}")

    off_tps, on_tps = row_off["txn_per_sec"], row_on["txn_per_sec"]
    overhead_pct = (
        100.0 * (off_tps - on_tps) / off_tps if off_tps > 0 else 0.0
    )
    print(f"  instrumentation overhead: {overhead_pct:.1f}% txn/s")
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "obs_overhead",
        "quick": bool(args.quick),
        "overhead_pct": overhead_pct,
        "metrics_snapshot": args.metrics_out,
        "attribution": attribution,
        "scenarios": [row_off, row_on],
    }


def run(args: argparse.Namespace) -> dict:
    threads_n = args.threads
    txns_n = args.txns
    if args.quick:
        threads_n = min(threads_n, 4)
        txns_n = min(txns_n, 40)
    scenarios = []
    for disk_kind in ("mem", "file"):
        for threads in (1, threads_n):
            print(f"running {disk_kind} "
                  f"({threads} threads x {txns_n} txns)...", flush=True)
            row = run_scenario(disk_kind, threads, txns_n)
            print(f"  {row['txn_per_sec']:.0f} txn/s, "
                  f"{row['flushes']} flushes / {row['commits']} commits, "
                  f"mean group {row['mean_group']:.2f}")
            scenarios.append(row)
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "groupcommit",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


def _percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` in milliseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(pct * (len(ordered) - 1)))))
    return ordered[rank] * 1000.0


def run_netdeploy_scenario(
    backpressure: bool,
    sessions_n: int,
    requests_n: int,
    depth_limit: int,
    servers_n: int,
    service_time: float = 0.002,
) -> dict:
    """One netdeploy cell: a fresh 2-shard TCP deployment, ``sessions_n``
    closed-loop async sessions through one gateway, ``servers_n`` server
    threads draining the request queue with ``service_time`` of work per
    request.  The server pool is the bottleneck, so the steady-state
    queue depth is the session population — unless backpressure caps it
    at ``depth_limit``."""
    import asyncio
    import shutil

    from repro.core.system import TPSystem
    from repro.errors import Busy
    from repro.gateway import Gateway

    data_dir = tempfile.mkdtemp(prefix="repro-bench-netdeploy-")
    system = TPSystem(deployment="tcp", shards=2, data_dir=data_dir)
    stop = threading.Event()

    def handler(_txn, request):
        time.sleep(service_time)
        return request.body

    def serve_loop(server) -> None:
        while not stop.is_set():
            try:
                if not server.process_one():
                    time.sleep(0.001)
            except Exception:
                if stop.is_set():
                    return
                time.sleep(0.001)

    servers = [
        system.server(f"bench-s{i}", handler) for i in range(servers_n)
    ]
    threads = [
        threading.Thread(target=serve_loop, args=(server,), daemon=True)
        for server in servers
    ]

    #: per-session (accepted-submit latencies, end-to-end latencies, busy)
    async def client(gateway, cid: str) -> tuple[list, list, int]:
        loop = asyncio.get_event_loop()
        session = await gateway.session(cid)
        service, e2e, busy = [], [], 0
        for n in range(requests_n):
            first_attempt = loop.time()
            while True:
                try:
                    await session.submit({"n": n})
                    break
                except Busy:
                    busy += 1
                    await asyncio.sleep(0.005)
            accepted = loop.time()
            await session.receive(timeout=60)
            now = loop.time()
            service.append(now - accepted)
            e2e.append(now - first_attempt)
        return service, e2e, busy

    async def scenario() -> list:
        gateway = Gateway(
            [("127.0.0.1", s.port) for s in system.supervisor.shards],
            request_queue=system.request_queue,
            depth_limit=depth_limit,
            backpressure=backpressure,
            max_inflight=max(64, 4 * sessions_n),
        )
        await gateway.start()
        try:
            return await asyncio.gather(
                *(client(gateway, f"c{i}") for i in range(sessions_n))
            )
        finally:
            await gateway.close()

    try:
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        results = asyncio.run(scenario())
        elapsed = time.perf_counter() - started
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        system.close()
        shutil.rmtree(data_dir, ignore_errors=True)

    service = [s for per_session in results for s in per_session[0]]
    e2e = [s for per_session in results for s in per_session[1]]
    busy = sum(per_session[2] for per_session in results)
    completed = len(service)
    return {
        "backpressure": backpressure,
        "sessions": sessions_n,
        "requests_per_session": requests_n,
        "depth_limit": depth_limit,
        "servers": servers_n,
        "completed": completed,
        "busy_refusals": busy,
        "txn_per_sec": completed / elapsed if elapsed else 0.0,
        "p50_ms": _percentile(service, 0.50),
        "p95_ms": _percentile(service, 0.95),
        "p99_ms": _percentile(service, 0.99),
        "e2e_p99_ms": _percentile(e2e, 0.99),
        "elapsed_s": elapsed,
    }


def run_netdeploy(args: argparse.Namespace) -> dict:
    requests_n = 5 if args.quick else 15
    sweep = (2, 6) if args.quick else (4, 24)
    depth_limit = 2 if args.quick else 6
    scenarios = []
    for sessions_n in sweep:
        for backpressure in (False, True):
            label = "on" if backpressure else "off"
            print(f"running netdeploy/sessions={sessions_n} "
                  f"backpressure={label} "
                  f"({requests_n} requests/session)...", flush=True)
            row = run_netdeploy_scenario(
                backpressure, sessions_n, requests_n, depth_limit,
                servers_n=1,
            )
            print(f"  {row['txn_per_sec']:.0f} txn/s, "
                  f"p99 {row['p99_ms']:.1f} ms, "
                  f"{row['busy_refusals']} refusals")
            scenarios.append(row)
    return {
        "version": SCHEMA_VERSION,
        "benchmark": "netdeploy",
        "quick": bool(args.quick),
        "scenarios": scenarios,
    }


# -- schema check (CI smoke) -------------------------------------------------

_GROUPCOMMIT_FIELDS = {
    "disk": str,
    "threads": int,
    "txns_per_thread": int,
    "commits": int,
    "flushes": int,
    "flushes_per_commit": (int, float),
    "forced": int,
    "piggybacked": int,
    "mean_group": (int, float),
    "txn_per_sec": (int, float),
    "elapsed_s": (int, float),
}

_SHARDING_FIELDS = {
    "shards": int,
    "workload": str,
    "threads": int,
    "txns_per_thread": int,
    "commits": int,
    "single_shard_commits": int,
    "cross_shard_commits": int,
    "flushes": int,
    "flushes_per_commit": (int, float),
    "txn_per_sec": (int, float),
    "elapsed_s": (int, float),
}

_CHECKPOINT_FIELDS = {
    "checkpointing": bool,
    "interval_bytes": int,
    "threads": int,
    "txns_per_thread": int,
    "commits": int,
    "checkpoints": int,
    "live_wal_bytes": int,
    "restart_seconds": (int, float),
    "replayed_records": int,
    "recovery_lsn": int,
    "txn_per_sec": (int, float),
    "elapsed_s": (int, float),
}

_OBS_OVERHEAD_FIELDS = {
    **_GROUPCOMMIT_FIELDS,
    "obs_enabled": bool,
}

_HOTPATH_FIELDS = {
    "mode": str,
    "prefill": int,
    "threads": int,
    "txns_per_thread": int,
    "commits": int,
    "lock_conflicts": int,
    "skipped_locked": int,
    "flushes": int,
    "flushes_per_commit": (int, float),
    "wal_appends": int,
    "appends_per_commit": (int, float),
    "txn_per_sec": (int, float),
    "elapsed_s": (int, float),
}

_FAILOVER_FIELDS = {
    "phase": str,
    "threads": int,
    "txns_per_thread": int,
    "commits": int,
    "shipped_bytes": int,
    "lag_bytes": int,
    "failovers": int,
    "rto_seconds": (int, float),
    "commits_before_failover": int,
    "recovered_commits": int,
    "txn_per_sec": (int, float),
    "elapsed_s": (int, float),
}

_CODEC_FIELDS = {
    "op": str,
    "variant": str,
    "records": int,
    "bytes": int,
    "records_per_sec": (int, float),
    "mb_per_sec": (int, float),
    "elapsed_s": (int, float),
}

_DETLANE_FIELDS = {
    "cc": str,
    "threads": int,
    "hot_fraction": (int, float),
    "txns_per_thread": int,
    "ops": int,
    "conflicts": int,
    "det_batches": int,
    "det_batch_mean": (int, float),
    "flushes": int,
    "ops_per_sec": (int, float),
    "elapsed_s": (int, float),
}

_NETDEPLOY_FIELDS = {
    "backpressure": bool,
    "sessions": int,
    "requests_per_session": int,
    "depth_limit": int,
    "servers": int,
    "completed": int,
    "busy_refusals": int,
    "txn_per_sec": (int, float),
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "p99_ms": (int, float),
    "e2e_p99_ms": (int, float),
    "elapsed_s": (int, float),
}

#: per-benchmark scenario schemas; ``validate`` accepts any known one
_SCHEMAS = {
    "groupcommit": _GROUPCOMMIT_FIELDS,
    "sharding": _SHARDING_FIELDS,
    "checkpoint": _CHECKPOINT_FIELDS,
    "obs_overhead": _OBS_OVERHEAD_FIELDS,
    "hotpath": _HOTPATH_FIELDS,
    "codec": _CODEC_FIELDS,
    "failover": _FAILOVER_FIELDS,
    "detlane": _DETLANE_FIELDS,
    "netdeploy": _NETDEPLOY_FIELDS,
}


def _check_groupcommit_row(index: int, row: dict) -> list[str]:
    # Every commit forces its record exactly once, either leading a
    # flush or piggybacking on one; a lone committer always leads.
    errors: list[str] = []
    forced, piggybacked = row.get("forced"), row.get("piggybacked")
    if not isinstance(forced, int) or not isinstance(piggybacked, int):
        return errors
    if forced + piggybacked != row.get("commits"):
        errors.append(
            f"scenarios[{index}]: {forced} forced + {piggybacked} "
            f"piggybacked forces for {row.get('commits')} commits"
        )
    if row.get("threads") == 1 and piggybacked:
        errors.append(
            f"scenarios[{index}]: a single committer piggybacked "
            f"{piggybacked} times"
        )
    return errors


def _check_sharding_row(index: int, row: dict) -> list[str]:
    # The acceptance invariant: pinned single-shard work must never pay
    # for 2PC, and the cross workload (on >1 shard) always promotes.
    errors: list[str] = []
    if row.get("workload") == "single" and row.get("cross_shard_commits"):
        errors.append(
            f"scenarios[{index}]: single-shard workload reported "
            f"{row['cross_shard_commits']} cross-shard (2PC) commits"
        )
    if (
        row.get("workload") == "cross"
        and isinstance(row.get("shards"), int)
        and row["shards"] > 1
        and row.get("cross_shard_commits") != row.get("commits")
    ):
        errors.append(
            f"scenarios[{index}]: cross workload should promote every "
            "commit to 2PC"
        )
    return errors


def _check_checkpoint_row(index: int, row: dict) -> list[str]:
    # The acceptance invariant: a checkpointing run must actually have
    # checkpointed and must restart from a non-zero recovery LSN with a
    # replay proportional to the interval, not to the whole history.
    errors: list[str] = []
    if row.get("checkpointing"):
        if not row.get("checkpoints"):
            errors.append(
                f"scenarios[{index}]: checkpointing run took no checkpoints"
            )
        if not row.get("recovery_lsn"):
            errors.append(
                f"scenarios[{index}]: checkpointing restart replayed from "
                "LSN 0 (full-log replay)"
            )
        commits = row.get("commits")
        replayed = row.get("replayed_records")
        if (
            isinstance(commits, int) and isinstance(replayed, int)
            and commits > 0 and replayed >= 2 * commits
        ):
            errors.append(
                f"scenarios[{index}]: replayed {replayed} records — "
                "recovery is not bounded by the checkpoint"
            )
    else:
        if row.get("checkpoints") or row.get("recovery_lsn"):
            errors.append(
                f"scenarios[{index}]: baseline run reports checkpoint state"
            )
    return errors


def _check_obs_overhead_row(index: int, row: dict) -> list[str]:
    # Structure only: the overhead percentage itself is a measurement,
    # and CI machines are too noisy for a hard numeric gate here.
    return []


def _check_hotpath_row(index: int, row: dict) -> list[str]:
    errors: list[str] = []
    if row.get("mode") not in ("skip_locked", "strict"):
        errors.append(f"scenarios[{index}].mode must be skip_locked|strict")
    if row.get("mode") == "skip_locked" and row.get("lock_conflicts"):
        errors.append(
            f"scenarios[{index}]: skip-locked consumers reported "
            f"{row['lock_conflicts']} lock conflicts"
        )
    return errors


def _check_failover_row(index: int, row: dict) -> list[str]:
    # The acceptance invariants are deterministic (not perf numbers),
    # so they gate quick runs too: the baseline must not ship, a
    # replicated run must ship and end drained, and a failover must
    # recover every commit acknowledged before the kill — the
    # no-acknowledged-request-lost half of the promotion guarantee.
    errors: list[str] = []
    phase = row.get("phase")
    if phase not in ("baseline", "replicated", "failover"):
        errors.append(
            f"scenarios[{index}].phase must be baseline|replicated|failover"
        )
    if phase == "baseline":
        if row.get("shipped_bytes") or row.get("failovers"):
            errors.append(
                f"scenarios[{index}]: baseline run reports replication state"
            )
    elif phase == "replicated":
        if not row.get("shipped_bytes"):
            errors.append(
                f"scenarios[{index}]: replicated run shipped no WAL bytes"
            )
        if row.get("lag_bytes"):
            errors.append(
                f"scenarios[{index}]: standby still lags "
                f"{row['lag_bytes']} bytes after the workload drained"
            )
    elif phase == "failover":
        if row.get("failovers") != 1:
            errors.append(f"scenarios[{index}]: expected exactly one failover")
        if not row.get("rto_seconds"):
            errors.append(f"scenarios[{index}]: failover reports zero RTO")
        if row.get("recovered_commits") != row.get("commits_before_failover"):
            errors.append(
                f"scenarios[{index}]: promoted node recovered "
                f"{row.get('recovered_commits')} of "
                f"{row.get('commits_before_failover')} acknowledged commits"
            )
    return errors


def _check_codec_row(index: int, row: dict) -> list[str]:
    errors: list[str] = []
    if row.get("op") not in ("encode", "decode"):
        errors.append(f"scenarios[{index}].op must be encode|decode")
    return errors


def _check_codec_doc(doc: dict, scenarios: list) -> list[str]:
    """Cross-row check for a full codec run: the batched encode path
    (reused buffer, no per-record copy) must beat per-record
    ``encode`` — the claim the batched WAL append rests on.  Decode is
    not gated: per-index ``memoryview`` access is slower in pure
    Python, which is exactly why the WAL read path materializes
    per-record ``bytes`` after the one batch-CRC pass."""
    if doc.get("quick"):
        return []
    rates = {
        (row.get("op"), row.get("variant")): row.get("records_per_sec", 0)
        for row in scenarios if isinstance(row, dict)
    }
    single = rates.get(("encode", "single"))
    batched = rates.get(("encode", "batched"))
    if single is None or batched is None:
        return ["codec run missing encode single/batched scenarios"]
    if batched <= single:
        return [
            f"batched encode ({batched:.0f} rec/s) does not beat "
            f"per-record encode ({single:.0f} rec/s)"
        ]
    return []


def _check_hotpath_doc(doc: dict, scenarios: list) -> list[str]:
    """Cross-row acceptance checks for a full (non-quick) hotpath run:
    skip-locked throughput must be depth-insensitive (<= 20% drop at
    10x depth) while strict FIFO visibly collapses — the Section 10
    claim the benchmark exists to reproduce.  Quick (CI-smoke) runs are
    too noisy for numeric gates and only get the structural checks."""
    if doc.get("quick"):
        return []
    errors: list[str] = []
    by_mode: dict[str, list[dict]] = {}
    for row in scenarios:
        if isinstance(row, dict) and isinstance(row.get("prefill"), int):
            by_mode.setdefault(row.get("mode"), []).append(row)
    skip_rows = sorted(by_mode.get("skip_locked", ()),
                       key=lambda r: r["prefill"])
    if len(skip_rows) >= 2:
        shallow, deep = skip_rows[0], skip_rows[-1]
        if shallow["txn_per_sec"] > 0:
            drop = 1.0 - deep["txn_per_sec"] / shallow["txn_per_sec"]
            if drop > 0.20:
                errors.append(
                    f"skip_locked degrades {100 * drop:.0f}% from depth "
                    f"{shallow['prefill']} to {deep['prefill']} (> 20%)"
                )
    strict_rows = sorted(by_mode.get("strict", ()),
                         key=lambda r: r["prefill"])
    if skip_rows and strict_rows:
        deep_skip, deep_strict = skip_rows[-1], strict_rows[-1]
        if deep_strict["txn_per_sec"] >= 0.5 * deep_skip["txn_per_sec"]:
            errors.append(
                "strict mode did not collapse: "
                f"{deep_strict['txn_per_sec']:.0f} txn/s vs skip-locked "
                f"{deep_skip['txn_per_sec']:.0f} at depth "
                f"{deep_strict['prefill']}"
            )
    return errors


def _check_detlane_row(index: int, row: dict) -> list[str]:
    # Structural sanity: the lane must actually have run (planned at
    # least one batch) on deterministic rows and must never run on 2PL
    # rows — otherwise the sweep compared a lane against itself.
    errors: list[str] = []
    cc = row.get("cc")
    if cc not in ("2pl", "deterministic"):
        errors.append(f"scenarios[{index}].cc must be 2pl or "
                      f"deterministic, got {cc!r}")
    elif cc == "deterministic" and not row.get("det_batches"):
        errors.append(
            f"scenarios[{index}]: deterministic run planned no batches "
            "(lane routing did not engage)"
        )
    elif cc == "2pl" and row.get("det_batches"):
        errors.append(
            f"scenarios[{index}]: 2PL run reported "
            f"{row['det_batches']} deterministic plan batches"
        )
    return errors


def _check_detlane_doc(doc: dict, scenarios: list) -> list[str]:
    """Cross-row acceptance check for a full detlane run: at the
    highest-contention cell (max threads, max hot-queue fraction) the
    deterministic lane must out-run 2PL — the QueCC-style claim the
    sweep exists to reproduce.  Quick (CI-smoke) runs are too noisy
    for numeric gates and only get the structural row checks."""
    if doc.get("quick"):
        return []
    cells: dict[tuple, dict[str, float]] = {}
    for row in scenarios:
        if not isinstance(row, dict):
            continue
        key = (row.get("threads"), row.get("hot_fraction"))
        cells.setdefault(key, {})[row.get("cc")] = row.get("ops_per_sec", 0)
    keyed = [k for k in cells
             if isinstance(k[0], int) and isinstance(k[1], (int, float))]
    if not keyed:
        return ["detlane run has no (threads, hot_fraction) cells"]
    hottest = max(keyed)
    pair = cells[hottest]
    if "2pl" not in pair or "deterministic" not in pair:
        return [f"cell {hottest} missing a 2pl or deterministic row"]
    if pair["deterministic"] <= pair["2pl"]:
        return [
            f"deterministic lane ({pair['deterministic']:.0f} ops/s) does "
            f"not beat 2PL ({pair['2pl']:.0f} ops/s) at threads="
            f"{hottest[0]} hot_fraction={hottest[1]}"
        ]
    return []


def _check_netdeploy_row(index: int, row: dict) -> list[str]:
    # Structural invariants that hold at any scale: every requested
    # submission completes (Busy refusals delay, never drop), and a
    # backpressure-off run must not report refusals.
    errors: list[str] = []
    expected = row.get("sessions", 0) * row.get("requests_per_session", 0)
    if row.get("completed") != expected:
        errors.append(
            f"scenarios[{index}]: completed {row.get('completed')} of "
            f"{expected} submissions"
        )
    if not row.get("backpressure") and row.get("busy_refusals"):
        errors.append(
            f"scenarios[{index}]: backpressure-off run reported "
            f"{row['busy_refusals']} Busy refusals"
        )
    return errors


def _check_netdeploy_doc(doc: dict, scenarios: list) -> list[str]:
    """Cross-row acceptance gate for a full netdeploy run: at the
    most-overloaded cell (max sessions) backpressure must have engaged
    (refusals > 0) and must beat the backpressure-off run on p99 reply
    latency — bounded queue depth is the whole point of the watermark.
    Quick (CI-smoke) runs are too noisy for the numeric half and only
    get the structural row checks."""
    if doc.get("quick"):
        return []
    cells: dict[int, dict[bool, dict]] = {}
    for row in scenarios:
        if isinstance(row, dict) and isinstance(row.get("sessions"), int):
            cells.setdefault(row["sessions"], {})[
                bool(row.get("backpressure"))] = row
    if not cells:
        return ["netdeploy run has no session cells"]
    overloaded = cells[max(cells)]
    if True not in overloaded or False not in overloaded:
        return [f"cell sessions={max(cells)} missing a backpressure "
                "on or off row"]
    on, off = overloaded[True], overloaded[False]
    errors: list[str] = []
    if not on.get("busy_refusals"):
        errors.append(
            f"backpressure never engaged at sessions={max(cells)} "
            "(no Busy refusals)"
        )
    if on.get("p99_ms", 0) >= off.get("p99_ms", 0):
        errors.append(
            f"backpressure-on p99 ({on.get('p99_ms'):.1f} ms) does not "
            f"beat backpressure-off ({off.get('p99_ms'):.1f} ms) at "
            f"sessions={max(cells)}"
        )
    return errors


_ROW_CHECKS = {
    "groupcommit": _check_groupcommit_row,
    "sharding": _check_sharding_row,
    "checkpoint": _check_checkpoint_row,
    "obs_overhead": _check_obs_overhead_row,
    "hotpath": _check_hotpath_row,
    "codec": _check_codec_row,
    "failover": _check_failover_row,
    "detlane": _check_detlane_row,
    "netdeploy": _check_netdeploy_row,
}


def validate(doc: object) -> list[str]:
    """Schema errors in a benchmark JSON document (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("version") != SCHEMA_VERSION:
        errors.append(f"version must be {SCHEMA_VERSION}")
    benchmark = doc.get("benchmark")
    fields = _SCHEMAS.get(benchmark)
    if fields is None:
        return errors + [
            f"benchmark must be one of {sorted(_SCHEMAS)}, got {benchmark!r}"
        ]
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        return errors + ["scenarios must be a non-empty list"]
    row_check = _ROW_CHECKS[benchmark]
    for index, row in enumerate(scenarios):
        if not isinstance(row, dict):
            errors.append(f"scenarios[{index}] is not an object")
            continue
        for field, kind in fields.items():
            if field not in row:
                errors.append(f"scenarios[{index}] missing {field!r}")
            elif not isinstance(row[field], kind) or isinstance(row[field], bool) != (kind is bool):
                errors.append(
                    f"scenarios[{index}].{field} has type "
                    f"{type(row[field]).__name__}"
                )
        errors.extend(row_check(index, row))
    if benchmark == "obs_overhead":
        if not isinstance(doc.get("overhead_pct"), (int, float)):
            errors.append("overhead_pct missing or not a number")
        if not isinstance(doc.get("attribution"), dict):
            errors.append("attribution missing or not an object")
        flags = [row.get("obs_enabled") for row in scenarios
                 if isinstance(row, dict)]
        if flags.count(False) != 1 or flags.count(True) != 1:
            errors.append("obs_overhead needs exactly one disabled and "
                          "one enabled scenario")
    if benchmark == "hotpath":
        errors.extend(_check_hotpath_doc(doc, scenarios))
    if benchmark == "codec":
        errors.extend(_check_codec_doc(doc, scenarios))
    if benchmark == "detlane":
        errors.extend(_check_detlane_doc(doc, scenarios))
    if benchmark == "netdeploy":
        errors.extend(_check_netdeploy_doc(doc, scenarios))
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--txns", type=int, default=200,
                        help="transactions per thread")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="run the sharding benchmark over 1..N "
                             "file-backed repository shards instead of "
                             "the group-commit benchmark")
    parser.add_argument("--checkpoint-bytes", type=int, default=0, metavar="N",
                        help="run the checkpoint benchmark (restart latency "
                             "and live WAL bytes, checkpointing off vs on "
                             "at an N-byte interval) instead of the "
                             "group-commit benchmark")
    parser.add_argument("--profile", action="store_true",
                        help="run the observability-overhead benchmark "
                             "(obs disabled vs enabled) and write a "
                             "metrics snapshot for repro.obs.report")
    parser.add_argument("--dequeue-mode", default=None,
                        choices=("skip_locked", "strict", "both"),
                        help="run the contended-consumer dequeue (hotpath) "
                             "benchmark in the given mode(s) instead of the "
                             "group-commit benchmark")
    parser.add_argument("--prefill", type=int, default=100,
                        help="hotpath base queue depth; cells run at this "
                             "depth and at 10x it (default 100)")
    parser.add_argument("--codec", action="store_true",
                        help="run the codec microbenchmark (per-record vs "
                             "batched encode/decode)")
    parser.add_argument("--replicate", action="store_true",
                        help="run the replication/failover benchmark "
                             "(shipping overhead, RTO, steady vs "
                             "during-failover throughput)")
    parser.add_argument("--cc", action="store_true",
                        help="run the concurrency-control contention "
                             "sweep (2PL vs deterministic lane over "
                             "threads x hot-queue skew)")
    parser.add_argument("--deployment", default=None, choices=("tcp",),
                        help="run the netdeploy saturation benchmark "
                             "(asyncio gateway over real shard processes, "
                             "session sweep with queue-depth backpressure "
                             "on and off)")
    parser.add_argument("--metrics-out", default="BENCH_obs_metrics.json",
                        help="metrics-snapshot file for --profile "
                             "(default BENCH_obs_metrics.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke testing")
    parser.add_argument("--out", default=None,
                        help="result file (default BENCH_<benchmark>.json)")
    parser.add_argument("--check", metavar="PATH",
                        help="validate an existing result file and exit")
    args = parser.parse_args(argv)
    modes = (args.shards, args.checkpoint_bytes, args.profile,
             args.dequeue_mode, args.codec, args.replicate, args.cc,
             args.deployment)
    if sum(map(bool, modes)) > 1:
        parser.error("--shards, --checkpoint-bytes, --profile, "
                     "--dequeue-mode, --codec, --replicate, --cc and "
                     "--deployment are mutually exclusive")
    if args.out is None:
        if args.shards:
            args.out = "BENCH_sharding.json"
        elif args.checkpoint_bytes:
            args.out = "BENCH_checkpoint.json"
        elif args.profile:
            args.out = "BENCH_obs_overhead.json"
        elif args.dequeue_mode:
            args.out = "BENCH_hotpath.json"
            if args.metrics_out == parser.get_default("metrics_out"):
                args.metrics_out = "BENCH_hotpath_metrics.json"
        elif args.codec:
            args.out = "BENCH_codec.json"
        elif args.replicate:
            args.out = "BENCH_failover.json"
        elif args.cc:
            args.out = "BENCH_detlane.json"
        elif args.deployment:
            args.out = "BENCH_netdeploy.json"
        else:
            args.out = "BENCH_groupcommit.json"

    if args.check:
        with open(args.check) as f:
            doc = json.load(f)
        errors = validate(doc)
        if errors:
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            return 1
        print(f"{args.check}: schema ok ({len(doc['scenarios'])} scenarios)")
        return 0

    if args.shards:
        doc = run_sharding(args)
    elif args.checkpoint_bytes:
        doc = run_checkpoint(args)
    elif args.profile:
        doc = run_profile(args)
    elif args.dequeue_mode:
        doc = run_hotpath(args)
    elif args.codec:
        doc = run_codec(args)
    elif args.replicate:
        doc = run_failover(args)
    elif args.cc:
        doc = run_detlane(args)
    elif args.deployment:
        doc = run_netdeploy(args)
    else:
        doc = run(args)
    errors = validate(doc)
    if errors:  # pragma: no cover - a bug in this script
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
