"""Deterministic-lane / 2PL observable equivalence.

The deterministic execution lane reorders nothing the client can see:
for the auto-routed transaction class (auto-commit enqueues and
non-waiting dequeues through the queue manager), a lane-routed system
must stay in lockstep with a plain 2PL system — same element ids, same
bodies, same ``QueueEmpty`` / ``ElementLockedError`` outcomes — for
any operation script, including explicit-transaction 2PL traffic
interleaved on the same queue and crash/restarts, in both dequeue
modes.  The final drain order after a restart must be byte-identical.

This mirrors ``test_ready_index.py``: one scripted workload, two
systems, per-op lockstep asserts, then a drain comparison.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ElementLockedError, QueueEmpty
from repro.queueing.manager import QueueManager
from repro.queueing.queue import DequeueMode
from repro.queueing.repository import QueueRepository
from repro.storage.disk import MemDisk
from repro.transaction.deterministic import DeterministicLane


class _Sys:
    """One repository + queue manager under the scripted workload."""

    def __init__(self, name: str, mode: str, cc: str):
        self.disk = MemDisk()
        self.name = name
        self.mode = mode
        self.cc = cc
        self.open_txns: list = []
        self.tags = 0
        self._open(fresh=True)

    def _open(self, fresh: bool) -> None:
        self.repo = QueueRepository(self.name, self.disk)
        lane = (
            DeterministicLane(self.repo) if self.cc != "2pl" else None
        )
        self.qm = QueueManager(self.repo, lane=lane)
        if fresh:
            self.repo.create_queue("q", mode=DequeueMode(self.mode))
        self.handle, _, _ = self.qm.register("q", "client")

    def crash(self) -> None:
        self.open_txns.clear()
        self.disk.crash()
        self.disk.recover()
        self._open(fresh=False)

    def enqueue(self, priority: int, body: str):
        # txn=None: the auto-routed class (lane-routed when cc != 2pl).
        self.tags += 1
        return self.qm.enqueue(
            self.handle, body, tag=f"t{self.tags}", priority=priority
        )

    def dequeue(self):
        """Non-waiting auto-commit dequeue — the auto-routed class."""
        try:
            element = self.qm.dequeue(self.handle)
        except QueueEmpty:
            return ("empty",)
        except ElementLockedError:
            return ("locked",)
        return ("ok", element.eid, element.body)

    def dequeue_txn(self, outcome: str):
        """Explicit-transaction dequeue: stays on the 2PL path in both
        systems, interleaving held elements with lane traffic."""
        txn = self.repo.tm.begin()
        try:
            element = self.qm.dequeue(self.handle, txn=txn)
        except QueueEmpty:
            self.repo.tm.abort(txn)
            return ("empty",)
        except ElementLockedError:
            self.repo.tm.abort(txn)
            return ("locked",)
        if outcome == "commit":
            self.repo.tm.commit(txn)
        elif outcome == "abort":
            self.repo.tm.abort(txn)
        else:  # hold: leaves the element DEQ_PENDING
            self.open_txns.append(txn)
        return ("ok", element.eid, element.body)

    def close(self, index: int, commit: bool):
        if not self.open_txns:
            return ("none",)
        txn = self.open_txns.pop(index % len(self.open_txns))
        try:
            if commit:
                self.repo.tm.commit(txn)
            else:
                self.repo.tm.abort(txn)
        except Exception as exc:
            return ("err", type(exc).__name__)
        return ("closed", commit)

    def drain(self) -> list[tuple]:
        for txn in self.open_txns:
            try:
                self.repo.tm.abort(txn)
            except Exception:
                pass
        self.open_txns.clear()
        order = []
        while True:
            outcome = self.dequeue()
            if outcome[0] != "ok":
                return order
            order.append(outcome[1:])


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("enq"), st.integers(0, 3),
            st.sampled_from(["a", "b", "c"]),
        ),
        st.tuples(st.just("deq")),
        st.tuples(
            st.just("deq_txn"),
            st.sampled_from(["commit", "abort", "hold"]),
        ),
        st.tuples(st.just("close"), st.integers(0, 5), st.booleans()),
        st.tuples(st.just("crash")),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops, mode=st.sampled_from(["skip_locked", "strict"]))
def test_deterministic_lane_matches_2pl(ops, mode):
    det = _Sys("d", mode, cc="deterministic")
    ref = _Sys("r", mode, cc="2pl")
    for op in ops:
        if op[0] == "enq":
            _, priority, body = op
            assert det.enqueue(priority, body) == ref.enqueue(priority, body)
        elif op[0] == "deq":
            assert det.dequeue() == ref.dequeue()
        elif op[0] == "deq_txn":
            assert det.dequeue_txn(op[1]) == ref.dequeue_txn(op[1])
        elif op[0] == "close":
            _, index, commit = op
            assert det.close(index, commit) == ref.close(index, commit)
        else:
            det.crash()
            ref.crash()
    # Remaining delivery order is identical after a restart recovers
    # both systems from their WALs.
    det.crash()
    ref.crash()
    assert det.drain() == ref.drain()


def test_lane_reports_deterministic_transactions():
    """The routed class really runs on the deterministic lane (not a
    silently degraded 2PL path)."""
    from repro.obs import Observability

    obs = Observability()
    repo = QueueRepository("m", MemDisk(), obs=obs)
    qm = QueueManager(repo, obs=obs, lane=DeterministicLane(repo, obs=obs))
    repo.create_queue("q")
    handle, _, _ = qm.register("q", "client")
    qm.enqueue(handle, "x", tag="t1")
    element = qm.dequeue(handle)
    assert element.body == "x"
    lanes = {
        s["labels"]["lane"]: s["value"]
        for s in obs.metrics.snapshot()["txn_lane_total"]["series"]
    }
    assert lanes.get("deterministic", 0) == 2
