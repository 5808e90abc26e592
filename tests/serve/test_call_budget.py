"""The wire-call budget of the tcp deployment, counted on live shards.

Figure 5's server transaction is two queue operations, and over the
wire it is two calls: the dequeue opens the branch (``"txn": "new"``)
and the reply's enqueue carries the commit (``"commit": true``).  These
tests run :class:`ShardService` behind real :class:`TcpListener`
sockets in this process — so the driver-side stubs are the deployed
ones, every frame crosses a socket, and the shard's branch table can
be looked at — and count ``transport.calls``.  One test per rule the
two shapes must keep (see :mod:`repro.comm.remote`,
:mod:`repro.serve.client`).
"""

from __future__ import annotations

import pytest

from repro.comm.transport import NO_RESPONSE, TcpListener
from repro.core.clerk import Clerk
from repro.core.request import Request
from repro.core.server import Server
from repro.errors import (
    CommError,
    InvalidTransactionState,
    NotRegisteredError,
    QueueEmpty,
    TransactionAborted,
)
from repro.queueing.manager import QueueHandle
from repro.queueing.placement import PinnedPlacement
from repro.queueing.repository import QueueRepository
from repro.serve.client import RemoteRepository, RemoteShardedQueueManager
from repro.serve.service import ShardService
from repro.storage.disk import MemDisk
from repro.transaction.ids import TxnStatus


class Shard:
    """One shard of the deployment, served from this process."""

    def __init__(self, index: int):
        self.index = index
        self.disk = MemDisk()
        #: payloads in arrival order, as the service saw them
        self.seen: list[dict] = []
        #: predicate naming calls whose response is dropped (once each)
        self.drop = lambda payload: False
        self.listener: TcpListener | None = None
        self.boot()

    def boot(self, port: int = 0) -> None:
        """Recover the repository from the disk and serve it — the
        first boot, or a restart on the port the driver knows."""
        repo = QueueRepository(f"reqnode.s{self.index}", self.disk)
        self.service = ShardService(repo, epoch=1)
        self.listener = TcpListener(self._handle, port=port)

    def _handle(self, payload):
        self.seen.append(payload)
        response = self.service.handle(payload)
        if self.drop(payload):
            self.drop = lambda payload: False
            return NO_RESPONSE
        return response

    def restart(self) -> None:
        port = self.listener.port
        self.listener.close()
        self.boot(port)


class Deployment:
    def __init__(self, placement: dict[str, int], shards: int, **transport):
        self.shards = [Shard(i) for i in range(shards)]
        self.repo = RemoteRepository(
            "reqnode",
            [("127.0.0.1", shard.listener.port) for shard in self.shards],
            placement=PinnedPlacement(placement),
            **transport,
        )
        self.qm = RemoteShardedQueueManager(self.repo)
        for qname in placement:
            self.repo.create_queue(qname)

    @property
    def calls(self) -> int:
        return sum(client.transport.calls for client in self.repo.clients)

    def open_branches(self) -> list[dict]:
        return [shard.service.txns for shard in self.shards]

    def clerk(self, client_id: str = "c1") -> Clerk:
        clerk = Clerk(client_id, self.qm, "req.q", f"reply.{client_id}")
        clerk.connect()
        return clerk

    def server(self, handler=lambda txn, request: request.body) -> Server:
        return Server("s1", self.qm, "req.q", handler)

    def close(self) -> None:
        self.repo.close()
        for shard in self.shards:
            shard.listener.close()


def send(clerk: Clerk, seq: int, body="work") -> None:
    rid = f"{clerk.client_id}#{seq}"
    clerk.send(
        Request(rid=rid, body=body, client_id=clerk.client_id,
                reply_to=clerk.reply_queue),
        rid,
    )


@pytest.fixture
def one_shard():
    deployment = Deployment({"req.q": 0, "reply.c1": 0}, shards=1)
    try:
        yield deployment
    finally:
        deployment.close()


@pytest.fixture
def two_shards():
    deployment = Deployment({"req.q": 0, "reply.c1": 1}, shards=2)
    try:
        yield deployment
    finally:
        deployment.close()


def warmed_up(deployment: Deployment) -> tuple[Clerk, Server]:
    """A clerk and a server past their first touches (the server
    registers with a reply queue on the first reply it sends there)."""
    clerk, server = deployment.clerk(), deployment.server()
    send(clerk, 1)
    assert server.process_one() is True
    clerk.receive(timeout=5)
    return clerk, server


class TestCallBudget:
    def test_a_request_is_four_calls(self, one_shard):
        clerk, server = warmed_up(one_shard)
        before = one_shard.calls
        send(clerk, 2, {"n": 2})
        assert server.process_one() is True
        assert clerk.receive(timeout=5).body == {"n": 2}
        assert one_shard.calls - before == 4
        assert one_shard.open_branches() == [{}]
        assert server.stats.processed == 2
        ops = [(p["op"], p.get("txn"), p.get("commit"))
               for p in one_shard.shards[0].seen[-4:]]
        assert ops[0] == ("enqueue", None, None)          # Send
        assert ops[1] == ("dequeue", "new", None)         # opens the branch
        assert ops[2][0] == "enqueue" and ops[2][2] is True  # carries the commit
        assert isinstance(ops[2][1], int)
        assert ops[3] == ("dequeue", None, None)          # Receive

    def test_an_empty_poll_is_one_call(self, one_shard):
        _clerk, server = warmed_up(one_shard)
        before = one_shard.calls
        assert server.process_one() is False
        assert one_shard.calls - before == 1
        # the shard aborted and forgot the branch the poll had opened
        assert one_shard.open_branches() == [{}]
        assert one_shard.shards[0].service.repo.tm.aborts == 1

    def test_a_cross_shard_transaction_is_seven_calls(self, two_shards):
        clerk, server = warmed_up(two_shards)
        before = two_shards.calls
        marks = [len(shard.seen) for shard in two_shards.shards]
        send(clerk, 2, {"n": 2})
        assert server.process_one() is True
        assert two_shards.calls - before == 1 + 7
        assert clerk.receive(timeout=5).body == {"n": 2}
        assert two_shards.open_branches() == [{}, {}]
        assert two_shards.repo.tm.cross_shard_commits == 2
        # Two branches: both open lazily, neither rides its commit on
        # an operation; the two-phase path ends them.
        request_side = two_shards.shards[0].seen[marks[0]:]
        reply_side = two_shards.shards[1].seen[marks[1]:]
        assert [p["op"] for p in request_side] == [
            "enqueue", "dequeue", "txn_prepare", "txn_decide",
            "txn_commit_prepared",
        ]
        assert [p["op"] for p in reply_side[:3]] == [
            "enqueue", "txn_prepare", "txn_commit_prepared",
        ]
        assert request_side[1]["txn"] == "new"
        assert reply_side[0]["txn"] == "new"
        assert "commit" not in reply_side[0]


class TestFinalEnqueue:
    """``enqueue(..., final=True)`` in a one-branch transaction."""

    def _dequeued(self, deployment):
        """A routed transaction that has dequeued request c1#2, plus
        the reply queue's handle."""
        clerk, _server = warmed_up(deployment)
        send(clerk, 2)
        qm = deployment.qm
        h_in, _, _ = qm.register("req.q", "t", stable=False)
        h_out, _, _ = qm.register("reply.c1", "t", stable=False)
        txn = deployment.repo.tm.begin()
        qm.dequeue(h_in, txn=txn)
        return txn, h_out

    def test_it_is_an_outcome_call_sent_at_most_once(self):
        deployment = Deployment(
            {"req.q": 0, "reply.c1": 0}, shards=1, max_retries=3)
        try:
            txn, h_out = self._dequeued(deployment)
            shard, transport = deployment.shards[0], deployment.repo.clients[0].transport
            transport.wait_timeout = 0.3
            shard.drop = lambda payload: payload.get("commit") is True
            with pytest.raises(CommError):
                deployment.qm.enqueue(h_out, "reply", txn=txn, final=True)
            assert transport.retries == 0
            # Unknown outcome, same contract as a lost txn_commit reply:
            # here it did commit, and the caller's abort changes nothing.
            txn.abort()
            assert deployment.open_branches() == [{}]
            assert deployment.qm.depth("req.q") == 0
            assert deployment.qm.depth("reply.c1") == 1
        finally:
            deployment.close()

    def test_a_failed_enqueue_commits_nothing(self, one_shard):
        txn, _h_out = self._dequeued(one_shard)
        stranger = QueueHandle("reqnode", "reply.c1", "nobody")
        with pytest.raises(NotRegisteredError):
            one_shard.qm.enqueue(stranger, "reply", txn=txn, final=True)
        (branch,) = txn.branches.values()
        assert branch.status is TxnStatus.ACTIVE
        assert list(one_shard.open_branches()[0]) == [branch.id]
        txn.abort()  # the caller's abort ends it; the request is back
        assert one_shard.open_branches() == [{}]
        assert one_shard.qm.depth("req.q") == 1
        assert one_shard.qm.depth("reply.c1") == 0

    def test_a_lost_branch_is_mirrored_as_aborted(self, one_shard):
        txn, h_out = self._dequeued(one_shard)
        one_shard.shards[0].restart()  # the branch dies with the incarnation
        with pytest.raises(TransactionAborted):
            one_shard.qm.enqueue(h_out, "reply", txn=txn, final=True)
        (branch,) = txn.branches.values()
        assert branch.status is TxnStatus.ABORTED
        before = one_shard.calls
        txn.abort()  # nothing left to tell the shard
        assert one_shard.calls == before
        assert one_shard.qm.depth("req.q") == 1  # recovery requeued it

    def test_commit_after_it_is_local_and_fires_the_hooks(self, one_shard):
        txn, h_out = self._dequeued(one_shard)
        fired = []
        txn.on_commit(lambda: fired.append("commit"))
        one_shard.qm.enqueue(h_out, "reply", txn=txn, final=True)
        assert one_shard.open_branches() == [{}]  # committed on the shard
        before = one_shard.calls
        txn.commit()
        assert one_shard.calls == before
        assert fired == ["commit"]
        assert txn.status is TxnStatus.COMMITTED
        assert one_shard.repo.tm.single_shard_commits == 2  # warm-up's + this

    def test_an_operation_after_it_never_reaches_the_wire(self, one_shard):
        txn, h_out = self._dequeued(one_shard)
        one_shard.qm.enqueue(h_out, "reply", txn=txn, final=True)
        before = one_shard.calls
        with pytest.raises(InvalidTransactionState):
            one_shard.qm.enqueue(h_out, "one more", txn=txn)
        with pytest.raises(InvalidTransactionState):
            one_shard.qm.dequeue(h_out, txn=txn)
        assert one_shard.calls == before


class TestUnopenedBranch:
    def test_its_outcomes_are_local(self, one_shard):
        tm = one_shard.repo.tm.shard_tm(0)
        before = one_shard.calls
        for outcome in (
            lambda branch: tm.commit(branch),
            lambda branch: tm.abort(branch),
            lambda branch: (tm.prepare(branch, "g:1"), tm.commit_prepared(branch)),
            lambda branch: (tm.prepare(branch, "g:2"), tm.abort_prepared(branch)),
        ):
            branch = tm.begin()
            assert branch.id is None
            outcome(branch)
            assert branch.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED)
        assert one_shard.calls == before

    def test_a_failed_opener_leaves_it_unopened(self, one_shard):
        h_in, _, _ = one_shard.qm.register("req.q", "t", stable=False)
        txn = one_shard.repo.tm.begin()
        with pytest.raises(QueueEmpty):
            one_shard.qm.dequeue(h_in, txn=txn)
        (branch,) = txn.branches.values()
        assert branch.id is None and branch.status is TxnStatus.ACTIVE
        assert one_shard.open_branches() == [{}]
        # the transaction can go on: its next operation opens the branch
        clerk = one_shard.clerk()
        send(clerk, 1)
        assert one_shard.qm.dequeue(h_in, txn=txn).body["rid"] == "c1#1"
        assert list(one_shard.open_branches()[0]) == [branch.id]
        txn.abort()


class TestRetriedOpener:
    def test_the_first_attempts_element_is_delayed_never_lost(self):
        """The reply to an opening dequeue is lost after the shard ran
        it; the transport retries and the retry opens a second branch.
        The first branch has no name on the driver side: its element
        stays locked until the shard restarts, whose recovery aborts
        the branch and puts the element back."""
        deployment = Deployment({"req.q": 0, "reply.c1": 0}, shards=1)
        try:
            clerk, server = warmed_up(deployment)
            shard, transport = deployment.shards[0], deployment.repo.clients[0].transport
            transport.wait_timeout = 0.3
            send(clerk, 2, "first")
            shard.drop = lambda payload: payload.get("txn") == "new"
            # one request queued: attempt 1 takes it (reply dropped),
            # the retry finds the queue empty
            assert server.process_one() is False
            assert transport.retries == 1
            assert len(deployment.open_branches()[0]) == 1  # the orphan
            assert deployment.qm.depth("req.q") == 0  # held by the orphan branch
            shard.restart()
            assert deployment.qm.depth("req.q") == 1
            assert server.process_one() is True
            assert clerk.receive(timeout=5).body == "first"
            assert deployment.open_branches() == [{}]
        finally:
            deployment.close()
