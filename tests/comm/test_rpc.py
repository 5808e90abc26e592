"""RPC / one-way transport tests (Section 5's Send variants): the
correlation, retry and backoff engine of :class:`CorrelatedChannel`
over the simulated network, where loss and duplication are seeded."""

from __future__ import annotations

import pytest

from repro.comm.network import SimNetwork
from repro.comm import transport as transport_module
from repro.comm.transport import InProcListener, InProcTransport, OneWayTransport
from repro.errors import RpcTimeout


def echo_server(net: SimNetwork, name: str = "server") -> InProcListener:
    return InProcListener(net, name, lambda payload: payload)


def run_posted(net: SimNetwork, name: str) -> InProcListener:
    """The queue manager's node for one-way Sends: runs what arrives."""
    return InProcListener(net, name, lambda deliver: deliver())


class TestRpcChannel:
    def test_call_round_trip(self):
        net = SimNetwork()
        InProcListener(net, "server", lambda payload: payload["a"] + payload["b"])
        channel = InProcTransport(net, "client", "server")
        assert channel.request({"a": 40, "b": 2}) == 42
        # one request + one response
        assert net.stats.sent == 2

    def test_call_retries_on_loss(self):
        net = SimNetwork(seed=11, loss_rate=0.4)
        echo_server(net)
        channel = InProcTransport(net, "client", "server", max_retries=50)
        results = [channel.request("ok") for _ in range(20)]
        assert results == ["ok"] * 20
        assert channel.retries > 0  # some loss actually happened

    def test_call_times_out_on_total_loss(self):
        net = SimNetwork(seed=1, loss_rate=1.0)
        echo_server(net)
        channel = InProcTransport(net, "client", "server", max_retries=3)
        with pytest.raises(RpcTimeout):
            channel.request("never")

    def test_post_is_one_message(self):
        net = SimNetwork()
        effects = []
        server = InProcListener(net, "server", effects.append)
        OneWayTransport(net, "client", "server").post(1)
        assert effects == [1]
        assert net.stats.sent == 1
        assert server.handled == 1

    def test_post_loss_is_silent(self):
        net = SimNetwork(seed=1, loss_rate=1.0)
        effects = []
        InProcListener(net, "server", effects.append)
        OneWayTransport(net, "client", "server").post(1)  # dropped, no raise
        assert effects == []


class TestCallCorrelation:
    def test_concurrent_calls_each_get_their_own_result(self):
        # Many threads share one channel over a duplicating network:
        # the per-call id must route every (possibly duplicated)
        # response to exactly its own caller.
        import threading

        net = SimNetwork(seed=5, dup_rate=0.3)
        echo_server(net)
        channel = InProcTransport(net, "client", "server", seed=5)
        results: dict[tuple[int, int], object] = {}
        mutex = threading.Lock()

        def caller(tid: int) -> None:
            for i in range(25):
                value = channel.request(("r", tid, i))
                with mutex:
                    results[(tid, i)] = value

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 8 * 25
        for (tid, i), value in results.items():
            assert value == ("r", tid, i)

    def test_duplicated_responses_are_discarded(self):
        net = SimNetwork(seed=2, dup_rate=1.0)  # every message doubled
        echo_server(net)
        channel = InProcTransport(net, "client", "server")
        assert [channel.request(i) for i in range(10)] == list(range(10))


class TestRetryBackoff:
    def _delays_for(self, seed: int, monkeypatch) -> list[float]:
        slept: list[float] = []
        monkeypatch.setattr(
            transport_module._time, "sleep", lambda d: slept.append(round(d, 9))
        )
        net = SimNetwork(seed=1, loss_rate=1.0)
        echo_server(net)
        channel = InProcTransport(
            net, "client", "server", max_retries=6,
            backoff_base=0.001, backoff_max=1.0, seed=seed,
        )
        with pytest.raises(RpcTimeout):
            channel.request("never")
        return slept

    def test_backoff_is_seed_deterministic(self, monkeypatch):
        assert self._delays_for(3, monkeypatch) == self._delays_for(3, monkeypatch)
        assert self._delays_for(3, monkeypatch) != self._delays_for(4, monkeypatch)

    def test_backoff_grows_and_respects_the_cap(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(transport_module._time, "sleep", lambda d: slept.append(d))
        net = SimNetwork(seed=1, loss_rate=1.0)
        echo_server(net)
        channel = InProcTransport(
            net, "client", "server", max_retries=8,
            backoff_base=0.001, backoff_factor=2.0, backoff_max=0.004, seed=0,
        )
        with pytest.raises(RpcTimeout):
            channel.request("never")
        assert len(slept) == 8
        # Jitter is in [0.5, 1.0), so the cap bounds every sleep and the
        # later (capped) delays still exceed the first un-capped one.
        assert all(d <= 0.004 for d in slept)
        assert max(slept) > min(slept)

    def test_zero_base_never_sleeps(self, monkeypatch):
        monkeypatch.setattr(
            transport_module._time, "sleep",
            lambda d: (_ for _ in ()).throw(AssertionError("slept")),
        )
        net = SimNetwork(seed=1, loss_rate=1.0)
        echo_server(net)
        channel = InProcTransport(net, "client", "server", max_retries=3,
                                  backoff_base=0.0)
        with pytest.raises(RpcTimeout):
            channel.request("never")


class TestOneWayTransportWithClerk:
    def test_oneway_send_through_transport(self):
        from repro.core.request import Request
        from repro.core.system import TPSystem

        system = TPSystem()
        net = SimNetwork()  # lossless
        run_posted(net, "qm-node")
        transport = OneWayTransport(net, "client-node", "qm-node")
        clerk = system.clerk("c1")
        clerk.transport = transport
        clerk.connect()
        request = Request(
            rid="c1#1", body="via one-way", client_id="c1",
            reply_to=system.reply_queue_name("c1"),
        )
        clerk.send_oneway(request, "c1#1")
        assert system.request_repo.get_queue(system.request_queue).depth() == 1

    def test_oneway_send_lost_then_resynchronized(self):
        # Section 5: "If the Enqueue fails, the client will time out
        # waiting for its Receive ... and can determine what happened
        # when it reconnects."
        from repro.core.request import Request
        from repro.core.system import TPSystem
        from repro.errors import QueueEmpty

        system = TPSystem()
        net = SimNetwork(seed=1, loss_rate=1.0)  # everything lost
        run_posted(net, "qm-node")
        transport = OneWayTransport(net, "client-node", "qm-node")
        clerk = system.clerk("c1")
        clerk.transport = transport
        clerk.connect()
        request = Request(
            rid="c1#1", body="lost", client_id="c1",
            reply_to=system.reply_queue_name("c1"),
        )
        clerk.send_oneway(request, "c1#1")
        with pytest.raises(QueueEmpty):
            clerk.receive(timeout=0.1)  # reply never comes
        # Reconnect: the registration shows the Send never happened.
        clerk2 = system.clerk("c1")
        s_rid, r_rid, _ = clerk2.connect()
        assert s_rid is None  # safe to resend
