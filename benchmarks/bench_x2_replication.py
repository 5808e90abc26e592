"""X2 — extension: replicated queues (Section 10).

"queues are a good candidate for being stored as a replicated database
that guarantees one-copy serializability, **despite the cost of such
strong synchronization**."

A queue is replicated the way any database is, from its log:
``TPSystem(replicate=True)`` ships every shard's WAL to a warm standby
(:mod:`repro.replication`).  Measured against an unreplicated
``TPSystem()`` on the same Send → server transaction → Receive round
trips: the cost, as disk counters — every byte the primary forces is
forced again on the standby — and the benefit — the primary's disk dies
with requests queued, and ``fail_over`` answers each of them exactly
once.  Wall time is reported by pytest-benchmark and asserted nowhere:
on a memory disk the replicated/unreplicated ratio swings run to run.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.core.request import Request, make_rid
from repro.core.system import TPSystem

ROUNDS = 150
PENDING = 5


def _send(clerk, seq: int) -> str:
    rid = make_rid(clerk.client_id, seq)
    clerk.send(
        Request(rid=rid, body=seq, client_id=clerk.client_id,
                reply_to=clerk.reply_queue),
        rid,
    )
    return rid


def make_round_trip(system: TPSystem):
    server = system.server("s", lambda txn, request: request.body)
    clerk = system.clerk("c1")
    clerk.connect()
    seq = itertools.count(1)

    def round_trip():
        _send(clerk, next(seq))
        server.process_one()
        return clerk.receive(timeout=2)

    return round_trip


def test_x2_single_queue_baseline(benchmark):
    reply = benchmark(make_round_trip(TPSystem()))
    assert reply.ok
    benchmark.extra_info["variant"] = "unreplicated TPSystem()"


def test_x2_replicated_queue(benchmark):
    system = TPSystem(replicate=True)
    reply = benchmark(make_round_trip(system))
    assert reply.ok
    assert system.replicas.lag_bytes() == [0]  # shipped with each force
    benchmark.extra_info["variant"] = "TPSystem(replicate=True): WAL shipped to a standby"


def forces(system: TPSystem) -> dict[str, int]:
    """Flushes and forced log bytes over ``ROUNDS`` round trips, on the
    primary and, when there is one, on its standby."""
    round_trip = make_round_trip(system)
    primary = system.request_disk
    wal = system.request_repo.shards[0].log.wal
    standby = system.replicas.standbys[0] if system.replicas else None
    flushes, forced = primary.flush_count, wal.flushed_lsn
    if standby is not None:
        standby_flushes, shipped = standby.disk.flush_count, standby.next_lsn
    for _ in range(ROUNDS):
        round_trip()
    counts = {
        "primary_flushes": primary.flush_count - flushes,
        "primary_forced_bytes": wal.flushed_lsn - forced,
    }
    if standby is not None:
        counts["standby_flushes"] = standby.disk.flush_count - standby_flushes
        counts["shipped_bytes"] = standby.next_lsn - shipped
    return counts


def survivors() -> Counter:
    """Queue ``PENDING`` requests, crash the primary's disk, fail over,
    and serve them on the promoted standby: executions per rid."""
    system = TPSystem(replicate=True)
    clerk = system.clerk("c1")
    clerk.connect()
    rids = [_send(clerk, seq) for seq in range(1, PENDING + 1)]
    system.crash_shard(0)
    promoted = system.fail_over(0, reason="x2.kill")
    promoted.drain(promoted.server("s", lambda txn, request: request.body))
    clerk = promoted.clerk("c1")
    clerk.connect()
    assert [clerk.receive(timeout=0).rid for _ in rids] == rids
    promoted.checker().assert_ok(require_completion=False)
    return Counter(promoted.trace.rids("request.executed"))


def test_x2_shape_replication_cost_and_benefit(benchmark):
    def compare():
        return forces(TPSystem()), forces(TPSystem(replicate=True)), survivors()

    single, replicated, executed = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    # The cost of "such strong synchronization": shipping adds no force
    # on the primary, and every byte the primary forces is shipped and
    # forced again on the standby, at least once per primary force.
    assert replicated["primary_flushes"] == single["primary_flushes"]
    assert replicated["primary_forced_bytes"] == single["primary_forced_bytes"]
    assert replicated["shipped_bytes"] == replicated["primary_forced_bytes"]
    assert replicated["standby_flushes"] >= replicated["primary_flushes"]
    # And its payoff: every queued request survives the primary and is
    # answered exactly once.
    assert len(executed) == PENDING and set(executed.values()) == {1}
    both = replicated["primary_flushes"] + replicated["standby_flushes"]
    benchmark.extra_info["flushes_per_round_trip_single"] = round(
        single["primary_flushes"] / ROUNDS, 2)
    benchmark.extra_info["flushes_per_round_trip_replicated"] = round(both / ROUNDS, 2)
    benchmark.extra_info["forced_bytes_per_round_trip"] = round(
        single["primary_forced_bytes"] / ROUNDS, 1)
    benchmark.extra_info["shipped_bytes_per_round_trip"] = round(
        replicated["shipped_bytes"] / ROUNDS, 1)
    benchmark.extra_info["requests_surviving_primary_loss"] = f"{len(executed)}/{PENDING}"
