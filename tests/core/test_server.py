"""Server tests (Figure 5 bottom): transactional processing, failure
replies, aborts, error-queue interplay, threading, 2PC variant."""

from __future__ import annotations

import threading

import pytest

from repro.core.request import REPLY_FAILED, Reply, Request
from repro.core.server import Server
from repro.core.system import TPSystem
from repro.errors import PartitionedError, RpcTimeout
from repro.queueing.manager import QueueManager
from repro.queueing.repository import QueueRepository
from repro.storage.disk import MemDisk
from repro.transaction.log import KIND_PREPARE

from tests.conftest import pinned_two_shard_system


def send(system: TPSystem, client_id: str, seq: int, body="work"):
    clerk = system.clerk(client_id)
    if not clerk.connected:
        clerk.connect()
    request = Request(
        rid=f"{client_id}#{seq}",
        body=body,
        client_id=client_id,
        reply_to=system.reply_queue_name(client_id),
    )
    clerk.send(request, request.rid)
    return clerk


class TestProcessOne:
    def test_returns_false_on_empty_queue(self, system):
        server = system.server("s", lambda txn, r: "x")
        assert server.process_one() is False
        assert server.stats.empty_polls == 1

    def test_processes_and_replies(self, system):
        clerk = send(system, "c1", 1, {"n": 5})
        server = system.server("s", lambda txn, r: {"n2": r.body["n"] * 2})
        assert server.process_one() is True
        reply = clerk.receive(timeout=2)
        assert reply.body == {"n2": 10}
        assert reply.ok
        assert server.stats.processed == 1

    def test_handler_exception_aborts_and_requeues(self, system):
        send(system, "c1", 1)

        def failing(txn, request):
            raise RuntimeError("transient")

        server = system.server("s", failing)
        with pytest.raises(RuntimeError):
            server.process_one()
        assert system.request_repo.get_queue(system.request_queue).depth() == 1
        assert server.stats.aborts == 1
        assert system.trace.count("request.attempt_aborted", rid="c1#1") == 1

    def test_failed_reply_still_commits(self, system):
        # "unsuccessfully attempting to execute the request, and then
        # returning a reply that indicates that fact"
        clerk = send(system, "c1", 1)

        def refuse(txn, request):
            return Reply(rid=request.rid, body={"why": "no"}, status=REPLY_FAILED)

        server = system.server("s", refuse)
        server.process_one()
        reply = clerk.receive(timeout=2)
        assert not reply.ok
        assert server.stats.failed_replies == 1
        assert system.trace.count("request.executed", rid="c1#1") == 1

    def test_database_and_queues_atomic(self, system):
        table = system.table("data")
        send(system, "c1", 1)

        def write_then_die(txn, request):
            table.put(txn, "k", "poisoned write")
            raise RuntimeError("die after write")

        server = system.server("s", write_then_die)
        with pytest.raises(RuntimeError):
            server.process_one()
        assert table.peek("k") is None  # undone with the dequeue

    def test_poison_request_lands_in_error_queue_with_failure_reply(self):
        system = TPSystem(max_aborts=2)
        clerk = send(system, "c1", 1)

        def always_fails(txn, request):
            raise RuntimeError("poison")

        server = system.server("s", always_fails)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                server.process_one()
        assert system.request_repo.get_queue(system.error_queue).depth() == 1
        # The error-reply server converts it into a failure reply.
        system.error_reply_server().process_one()
        reply = clerk.receive(timeout=2)
        assert not reply.ok
        assert "error" in reply.body
        # Exactly-once bookkeeping still holds.
        system.trace.record("reply.processed", reply.rid)  # simulate client
        system.checker().assert_ok()


class TestSelectorRouting:
    def test_server_selector_restricts(self, system):
        send(system, "c1", 1, {"kind": "a"})
        send(system, "c2", 1, {"kind": "b"})
        server_b = system.server(
            "sb", lambda txn, r: "b done", selector=lambda e: e.body["body"]["kind"] == "b"
        )
        assert server_b.process_one() is True
        assert server_b.process_one() is False  # only the "b" request
        assert system.request_repo.get_queue(system.request_queue).depth() == 1


class TestThreaded:
    def test_start_stop(self, system):
        clerk = send(system, "c1", 1)
        server = system.server("s", lambda txn, r: "threaded")
        server.start()
        try:
            reply = clerk.receive(timeout=5)
            assert reply.body == "threaded"
        finally:
            server.stop()

    def test_comm_errors_are_counted_and_the_loop_goes_on(self, system):
        """A queue manager out of reach (a shard down for longer than
        the transport retries) must not end the serve loop."""
        server = system.server("s", lambda txn, r: "ok")
        process_one = server.process_one
        outage = iter([RpcTimeout("no response"), PartitionedError("down")])

        def flaky(**kwargs):
            for error in outage:
                raise error
            return process_one(**kwargs)

        server.process_one = flaky
        clerk = send(system, "c1", 1)
        processed = server.serve_until(
            lambda: server.stats.processed >= 1, poll_timeout=0.01)
        assert processed == 1
        assert server.stats.comm_errors == 2
        assert server.last_fatal is None
        assert clerk.receive(timeout=2).body == "ok"

    def test_double_start_rejected(self, system):
        server = system.server("s", lambda txn, r: "x")
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_load_sharing_multiple_servers_one_queue(self, system):
        # Section 1: "many processes can dequeue requests from a single
        # queue ... automatically shares the workload".
        for seq in range(1, 11):
            send(system, "c1", seq, seq)
        processed = {"s1": 0, "s2": 0, "s3": 0}
        servers = [
            system.server(name, lambda txn, r: r.body) for name in processed
        ]
        stop = threading.Event()
        threads = [
            threading.Thread(target=s.serve_until, args=(stop.is_set, 0.02), daemon=True)
            for s in servers
        ]
        for t in threads:
            t.start()
        clerk = system.clerk("c1")
        clerk.connect()
        got = []
        for _ in range(10):
            got.append(clerk.receive(timeout=10).body)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert sorted(got) == list(range(1, 11))
        total = sum(s.stats.processed for s in servers)
        assert total == 10


class TestDistributed2PC:
    """Replies on another node: the reply queue is pinned to a second
    shard, so Figure 5's one transaction commits by two-phase commit."""

    def test_request_and_reply_on_different_nodes(self):
        system = pinned_two_shard_system()
        clerk = send(system, "c1", 1, "cross-node")
        server = system.server("s", lambda txn, r: {"did": r.body})
        assert server.process_one() is True
        reply = clerk.receive(timeout=2)
        assert reply.body == {"did": "cross-node"}
        assert system.request_repo.tm.cross_shard_commits == 1
        # Both logs saw their side of the global transaction.
        for shard in system.request_repo.shards:
            assert any(r.kind == KIND_PREPARE for r in shard.log.records())

    def test_2pc_abort_on_handler_failure(self):
        system = pinned_two_shard_system()
        send(system, "c1", 1)

        def failing(txn, request):
            raise RuntimeError("fail across nodes")

        server = system.server("s", failing)
        with pytest.raises(RuntimeError):
            server.process_one()
        assert system.request_repo.get_queue(system.request_queue).depth() == 1

    def test_2pc_database_writes_land_on_request_node(self):
        # Regression: the handler's table writes must ride the REQUEST
        # node's branch — logged there, replayed there after a crash.
        system = pinned_two_shard_system()
        system.placement.pin("books", 0)
        table = system.table("books")
        clerk = send(system, "c1", 1, {"amount": 9})

        def handler(txn, request):
            table.put(txn, "total", request.body["amount"])
            # dequeue + table write share shard 0's branch; the reply
            # enqueue will open the second one
            assert sorted(txn.branches) == [0]
            return "booked"

        system.server("s", handler).process_one()
        system.crash()
        system2 = system.reopen()
        assert "books" in system2.request_repo.shards[0].tables
        assert system2.table("books").peek("total") == 9
        clerk2 = system2.clerk("c1")
        clerk2.connect()
        assert clerk2.receive(timeout=2).body == "booked"

    def test_2pc_survives_whole_system_crash(self):
        system = pinned_two_shard_system()
        clerk = send(system, "c1", 1, "durable")
        server = system.server("s", lambda txn, r: "saved")
        server.process_one()
        system.crash()
        system2 = system.reopen()
        clerk2 = system2.clerk("c1")
        clerk2.connect()
        reply = clerk2.receive(timeout=2)
        assert reply.body == "saved"

    def test_two_repositories_are_refused(self):
        # One transaction covers the dequeue and the reply, so a server
        # has one queue manager: there is nowhere to name a second.
        system = TPSystem()
        other = QueueManager(QueueRepository("repnode", MemDisk()))
        with pytest.raises(TypeError, match="reply_qm"):
            Server("s", system.request_qm, system.request_queue,
                   lambda txn, r: "x", reply_qm=other)
