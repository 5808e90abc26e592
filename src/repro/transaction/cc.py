"""Pluggable concurrency-control strategies.

The transaction manager (:mod:`repro.transaction.manager`) owns
transaction *logic* — ids, WAL logging, the recovery contract, 2PC
branch bookkeeping — while everything about how concurrent
transactions are isolated from one another lives behind the
:class:`ConcurrencyControl` interface defined here.  Two strategies
exist:

* :class:`TwoPhaseLockingCC` wraps the strict-2PL
  :class:`~repro.transaction.locks.LockManager` (the seed behavior,
  unchanged) and owns the lock-contention metrics
  (``lock_wait_seconds``, ``lock_deadlocks_total``,
  ``lock_timeouts_total``), fed through the lock manager's accounting
  sink.  Owning the metrics here — not in the lock table — means a
  node that never locks reports zeros instead of misleading stale
  series.
* :class:`DeterministicCC` is the no-op strategy used by the
  deterministic execution lane
  (:mod:`repro.transaction.deterministic`): plan-queue ordering makes
  conflicts impossible by construction, so every acquisition is
  granted instantly and end-of-transaction release has nothing to do.

A transaction carries its strategy (``txn.cc`` — per-transaction, so
lanes coexist on one transaction manager and one WAL); the manager
acquires, releases, and enumerates held resources only through it.
"""

from __future__ import annotations

from repro.obs import Observability, get_observability
from repro.transaction.locks import LockManager, LockMode

#: the ``cc`` policy names a system, a shard process or a chaos
#: campaign is configured with: strict 2PL for everything, or the
#: queue-shaped transaction class on the deterministic lane
CC_POLICIES = ("2pl", "deterministic")


def check_cc_policy(cc: str) -> str:
    if cc not in CC_POLICIES:
        raise ValueError(
            f"unknown concurrency-control policy {cc!r}; "
            f"expected one of {CC_POLICIES}"
        )
    return cc


class ConcurrencyControl:
    """Strategy interface between transactions and isolation machinery.

    Owners are opaque hashable values (transaction ids), matching the
    lock manager's vocabulary so the 2PL strategy is a thin wrapper.
    """

    #: lane tag used by per-lane metrics (``txn_lane_total{lane=...}``)
    lane = "unknown"

    def acquire(
        self,
        owner: object,
        resource: str,
        mode: LockMode,
        timeout: float | None = None,
    ) -> None:
        """Grant ``mode`` on ``resource`` to ``owner``, blocking or
        raising per the strategy's conflict rules."""
        raise NotImplementedError

    def would_block(self, owner: object, resource: str, mode: LockMode) -> bool:
        """True if :meth:`acquire` would have to wait right now."""
        raise NotImplementedError

    def try_acquire(self, owner: object, resource: str, mode: LockMode) -> bool:
        """Non-blocking acquire; returns False instead of waiting."""
        raise NotImplementedError

    def release_all(self, owner: object) -> None:
        """End-of-transaction release (strict 2PL releases only here)."""
        raise NotImplementedError

    def transfer(self, from_owner: object, to_owner: object) -> list[str]:
        """Re-own ``from_owner``'s resources to ``to_owner`` (Section
        6's lock inheritance).  Returns the transferred names."""
        raise NotImplementedError

    def held_by(self, owner: object) -> set[str]:
        raise NotImplementedError

    def holders(self, resource: str) -> dict:
        raise NotImplementedError

    def wait_stats(self) -> dict[str, float]:
        """Contention accounting for benchmarks and reports (all zeros
        when the strategy cannot block)."""
        raise NotImplementedError


class TwoPhaseLockingCC(ConcurrencyControl):
    """Strict two-phase locking — the seed strategy, extracted.

    Wraps a :class:`LockManager` and installs itself as the manager's
    accounting sink, so wait/deadlock/timeout metrics belong to the
    strategy rather than to the lock table itself.
    """

    lane = "2pl"

    def __init__(
        self,
        locks: LockManager | None = None,
        obs: Observability | None = None,
    ):
        self.locks = locks if locks is not None else LockManager()
        obs = obs if obs is not None else get_observability()
        metrics = obs.metrics
        self._m_wait = metrics.histogram(
            "lock_wait_seconds", "time spent waiting for a lock grant"
        )
        self._m_deadlocks = metrics.counter(
            "lock_deadlocks_total", "lock requests aborted by deadlock detection"
        )
        self._m_timeouts = metrics.counter(
            "lock_timeouts_total", "lock requests that timed out"
        )
        self.locks.sink = self

    # -- accounting sink (called by the lock manager) --------------------------

    def on_wait(self, seconds: float) -> None:
        self._m_wait.observe(seconds)

    def on_deadlock(self) -> None:
        self._m_deadlocks.inc()

    def on_timeout(self) -> None:
        self._m_timeouts.inc()

    # -- strategy interface ----------------------------------------------------

    def acquire(self, owner, resource, mode, timeout=None):
        self.locks.acquire(owner, resource, mode, timeout=timeout)

    def would_block(self, owner, resource, mode):
        return self.locks.would_block(owner, resource, mode)

    def try_acquire(self, owner, resource, mode):
        return self.locks.try_acquire(owner, resource, mode)

    def release_all(self, owner):
        self.locks.release_all(owner)

    def transfer(self, from_owner, to_owner):
        return self.locks.transfer(from_owner, to_owner)

    def held_by(self, owner):
        return self.locks.held_by(owner)

    def holders(self, resource):
        return self.locks.holders(resource)

    def wait_stats(self):
        return self.locks.stats.snapshot()


class DeterministicCC(ConcurrencyControl):
    """No-lock strategy for plan-ordered deterministic execution.

    The planner serializes conflicting work *before* it reaches an
    executor, so acquisition always succeeds instantly, nothing ever
    waits or deadlocks, and release is a no-op.  Wait accounting is
    structurally zero — there is nothing to wait for.
    """

    lane = "deterministic"

    def acquire(self, owner, resource, mode, timeout=None):
        return None

    def would_block(self, owner, resource, mode):
        return False

    def try_acquire(self, owner, resource, mode):
        return True

    def release_all(self, owner):
        return None

    def transfer(self, from_owner, to_owner):
        return []

    def held_by(self, owner):
        return set()

    def holders(self, resource):
        return {}

    def wait_stats(self):
        return {
            "acquisitions": 0,
            "waits": 0,
            "wait_time": 0.0,
            "deadlocks": 0,
            "timeouts": 0,
        }
