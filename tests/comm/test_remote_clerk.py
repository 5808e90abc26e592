"""The clerk over RPC (Section 5's remote-QM deployment), including
duplicate suppression of retried tagged enqueues."""

from __future__ import annotations

import threading

import pytest

from repro.comm.network import SimNetwork
from repro.comm.remote import (
    QueueManagerService,
    RemoteQueueManager,
    op_enqueue,
)
from repro.comm.transport import InProcListener, InProcTransport
from repro.core.clerk import Clerk
from repro.core.devices import TicketPrinter
from repro.core.guarantees import GuaranteeChecker
from repro.core.system import TPSystem
from repro.errors import ReproError

from tests.conftest import echo_handler


def remote_setup(loss_rate=0.0, dup_rate=0.0, seed=0):
    system = TPSystem()
    network = SimNetwork(seed=seed, loss_rate=loss_rate, dup_rate=dup_rate)
    service = QueueManagerService(system.request_qm)
    InProcListener(network, "qm-node", service.handle)
    channel = InProcTransport(network, "client-node", "qm-node", max_retries=200)
    remote_qm = RemoteQueueManager(channel)
    return system, network, channel, remote_qm


def remote_clerk(system, remote_qm, client_id="c1"):
    reply_queue = system.ensure_reply_queue(client_id)
    return Clerk(
        client_id,
        remote_qm,
        system.request_queue,
        reply_queue,
        trace=system.trace,
    )


class TestRemoteClerk:
    def test_full_protocol_over_rpc(self):
        system, network, channel, remote_qm = remote_setup()
        clerk = remote_clerk(system, remote_qm)
        device = TicketPrinter(trace=system.trace)
        from repro.core.client import Client

        client = Client("c1", clerk, device, ["over", "rpc"], trace=system.trace,
                        receive_timeout=5)
        server = system.server("s", echo_handler)
        done = threading.Event()
        thread = threading.Thread(
            target=lambda: server.serve_until(done.is_set, 0.02), daemon=True
        )
        thread.start()
        try:
            replies = client.run()
        finally:
            done.set()
            thread.join(timeout=10)
        assert [r.body["echo"] for r in replies] == ["over", "rpc"]
        assert network.stats.sent > 0
        GuaranteeChecker(system.trace).assert_ok()

    def test_protocol_survives_lossy_rpc(self):
        system, network, channel, remote_qm = remote_setup(loss_rate=0.3, seed=9)
        clerk = remote_clerk(system, remote_qm)
        device = TicketPrinter(trace=system.trace)
        from repro.core.client import Client

        client = Client("c1", clerk, device, ["lossy"], trace=system.trace,
                        receive_timeout=10)
        server = system.server("s", echo_handler)
        done = threading.Event()
        thread = threading.Thread(
            target=lambda: server.serve_until(done.is_set, 0.02), daemon=True
        )
        thread.start()
        try:
            client.run()
        finally:
            done.set()
            thread.join(timeout=10)
        assert channel.retries > 0  # loss actually happened and was retried
        GuaranteeChecker(system.trace).assert_ok()
        assert device.tickets_for("c1#1") == [1]

    def test_duplicated_rpc_delivery_does_not_duplicate_request(self):
        # Every message delivered twice: the tagged-enqueue dedup must
        # keep the queue at one element per Send.
        system, network, channel, remote_qm = remote_setup(dup_rate=1.0, seed=3)
        clerk = remote_clerk(system, remote_qm)
        clerk.connect()
        from repro.core.request import Request

        request = Request(rid="c1#1", body="once", client_id="c1",
                          reply_to=system.reply_queue_name("c1"))
        clerk.send(request, "c1#1")
        assert system.request_repo.get_queue(system.request_queue).depth() == 1

    def test_retried_tagged_enqueue_returns_original_eid(self):
        system, _, _, remote_qm = remote_setup()
        handle, _, _ = remote_qm.register(system.request_queue, "c1")
        eid1 = remote_qm.enqueue(handle, "payload", tag="rid-1",
                                 headers={"rid": "rid-1"})
        # The "retry" (response lost, call repeated verbatim):
        eid2 = remote_qm.enqueue(handle, "payload", tag="rid-1",
                                 headers={"rid": "rid-1"})
        assert eid1 == eid2
        assert system.request_repo.get_queue(system.request_queue).depth() == 1


class TestAutoCommitOnly:
    def test_base_stub_refuses_a_transaction(self):
        # One stub class now serves the sharded tcp deployment too; the
        # clerk-facing base must still refuse a txn, client side, before
        # anything crosses the wire.
        system, network, channel, remote_qm = remote_setup()
        queue = system.request_queue
        handle, _, _ = remote_qm.register(queue, "c1")
        txn = system.request_repo.tm.begin()
        sent = network.stats.sent
        for call in (
            lambda: remote_qm.enqueue(handle, "x", txn=txn),
            lambda: remote_qm.dequeue(handle, txn=txn),
            lambda: remote_qm.register(queue, "c2", txn=txn),
            lambda: remote_qm.deregister(handle, txn=txn),
        ):
            with pytest.raises(ReproError, match="auto-commit"):
                call()
        assert network.stats.sent == sent
        assert system.request_qm.depth(queue) == 0

    def test_base_service_refuses_a_branch_id(self):
        system, network, channel, remote_qm = remote_setup()
        handle, _, _ = remote_qm.register(system.request_queue, "c1")
        response = QueueManagerService(system.request_qm).handle(
            op_enqueue(handle, "x", txn=3)
        )
        assert response["err"] == "ReproError"
        assert system.request_qm.depth(system.request_queue) == 0


class TestTaggedEnqueueDedupLocal:
    def test_distinct_tags_not_deduplicated(self, system):
        qm = system.request_qm
        handle, _, _ = qm.register(system.request_queue, "c1")
        qm.enqueue(handle, "a", tag="t1")
        qm.enqueue(handle, "b", tag="t2")
        assert qm.depth(system.request_queue) == 2

    def test_untagged_enqueues_never_deduplicated(self, system):
        qm = system.request_qm
        handle, _, _ = qm.register(system.request_queue, "c1")
        qm.enqueue(handle, "a")
        qm.enqueue(handle, "a")
        assert qm.depth(system.request_queue) == 2

    def test_unstable_registrants_not_deduplicated(self, system):
        qm = system.request_qm
        handle, _, _ = qm.register(system.request_queue, "srv", stable=False)
        qm.enqueue(handle, "a", tag="t1")
        qm.enqueue(handle, "a", tag="t1")
        assert qm.depth(system.request_queue) == 2

    def test_dedup_survives_crash(self, system):
        qm = system.request_qm
        handle, _, _ = qm.register(system.request_queue, "c1")
        eid1 = qm.enqueue(handle, "once", tag="rid-9")
        system.crash()
        system2 = system.reopen()
        qm2 = system2.request_qm
        handle2, _, _ = qm2.register(system2.request_queue, "c1")
        eid2 = qm2.enqueue(handle2, "once", tag="rid-9")
        assert eid2 == eid1
        assert qm2.depth(system2.request_queue) == 1
