"""Per-shard primary/backup replication by WAL log shipping.

The paper's Section 10 observes that queues are "a good candidate for
being stored as a replicated database".  A queue repository is
replicated the way any database is, from its log: the primary executes
transactions normally and ships its write-ahead-log byte stream to a
warm :class:`StandbyShard`; on primary death a
:class:`FailoverController` promotes the standby in bounded time (the
RTO measured by ``python benchmarks/run_bench.py --replicate``) and
*fences* the old primary so a zombie's late writes are rejected.
Steady-state cost is one extra (standby) flush per primary flush — not
per transaction — and no extra 2PC (X2,
``benchmarks/bench_x2_replication.py``, counts it).
``TPSystem(replicate=True)`` attaches a standby to every shard, and
``TPSystem.fail_over`` is the one promotion path.

The shipping unit is the segmented WAL's record stream (PR 5): LSNs
are dense byte offsets excluding segment headers, so the standby
mirrors the stream byte-for-byte into its own segments and the
promoted repository recovers from it exactly as it would from the
primary's own disk.  The checkpoint blob is mirrored alongside, which
bounds promotion replay to the tail above the shipped checkpoint.
"""

from repro.replication.failover import FailoverController, ReplicaSet
from repro.replication.shipper import LogShipper
from repro.replication.standby import StandbyShard

__all__ = [
    "FailoverController",
    "LogShipper",
    "ReplicaSet",
    "StandbyShard",
]
