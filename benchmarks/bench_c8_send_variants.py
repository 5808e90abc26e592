"""C8 — Section 5's Send variants, compared by message count.

"This saves a message from the QM to the client in the common case
that the reply arrives within the client's timeout period.
Alternatively, we can merge Send and Receive into a single Transceive
operation."

Measured over a lossless simulated network: messages per completed
request for (a) RPC Send + RPC Receive, (b) one-way Send + RPC Receive,
(c) Transceive.  Predicted shape: one-way saves exactly one message per
request; under loss, one-way still converges via reconnection.
"""

from __future__ import annotations

from repro.comm.network import SimNetwork
from repro.comm.transport import InProcListener, InProcTransport, OneWayTransport
from repro.core.request import Request
from repro.core.system import TPSystem

REQUESTS = 20


def _qm_node(network):
    """The queue manager's endpoint: runs the clerk operation a message
    names (here the operation itself, as the simulated network carries
    Python objects)."""
    return InProcListener(network, "qm", lambda operation: operation())


def _system_with_network(loss_rate=0.0, seed=0):
    system = TPSystem()
    network = SimNetwork(seed=seed, loss_rate=loss_rate)
    _qm_node(network)
    channel = InProcTransport(network, "client", "qm", max_retries=100)
    server = system.server("s", lambda txn, r: {"echo": r.body})
    clerk = system.clerk("c1")
    clerk.connect()
    return system, network, channel, server, clerk


def _request(system, seq):
    return Request(
        rid=f"c1#{seq}", body=seq, client_id="c1",
        reply_to=system.reply_queue_name("c1"),
    )


def rpc_send_rpc_receive() -> int:
    system, network, channel, server, clerk = _system_with_network()
    for seq in range(1, REQUESTS + 1):
        request = _request(system, seq)
        channel.request(lambda: clerk.send(request, request.rid))
        server.process_one()
        channel.request(lambda: clerk.receive(timeout=2))
    return network.stats.sent


def oneway_send_rpc_receive() -> int:
    system, network, channel, server, clerk = _system_with_network()
    oneway = OneWayTransport(network, "client", "qm")
    for seq in range(1, REQUESTS + 1):
        request = _request(system, seq)
        oneway.post(lambda: clerk.send(request, request.rid))   # 1 message
        server.process_one()
        channel.request(lambda: clerk.receive(timeout=2))       # 2 messages
    return network.stats.sent


def transceive() -> int:
    """Merged Send+Receive: one request message whose response IS the
    reply — 2 messages per request."""
    system, network, channel, server, clerk = _system_with_network()

    def serve_and_receive(request):
        clerk.send(request, request.rid)
        server.process_one()
        return clerk.receive(timeout=2)

    for seq in range(1, REQUESTS + 1):
        request = _request(system, seq)
        channel.request(lambda: serve_and_receive(request))
    return network.stats.sent


def test_c8_rpc_send(benchmark):
    messages = benchmark.pedantic(rpc_send_rpc_receive, rounds=3, iterations=1)
    benchmark.extra_info["variant"] = "RPC Send + RPC Receive"
    benchmark.extra_info["messages_per_request"] = messages / REQUESTS


def test_c8_oneway_send(benchmark):
    messages = benchmark.pedantic(oneway_send_rpc_receive, rounds=3, iterations=1)
    benchmark.extra_info["variant"] = "one-way Send + RPC Receive"
    benchmark.extra_info["messages_per_request"] = messages / REQUESTS


def test_c8_transceive(benchmark):
    messages = benchmark.pedantic(transceive, rounds=3, iterations=1)
    benchmark.extra_info["variant"] = "Transceive (merged Send+Receive)"
    benchmark.extra_info["messages_per_request"] = messages / REQUESTS


def test_c8_shape_message_savings(benchmark):
    def compare():
        return rpc_send_rpc_receive(), oneway_send_rpc_receive(), transceive()

    rpc_msgs, oneway_msgs, transceive_msgs = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    # One-way send saves exactly one message per request; Transceive
    # saves another.
    assert rpc_msgs - oneway_msgs == REQUESTS
    assert transceive_msgs < oneway_msgs
    assert transceive_msgs == 2 * REQUESTS
    benchmark.extra_info["rpc_messages"] = rpc_msgs
    benchmark.extra_info["oneway_messages"] = oneway_msgs
    benchmark.extra_info["transceive_messages"] = transceive_msgs
    benchmark.extra_info["saved_per_request"] = (rpc_msgs - oneway_msgs) / REQUESTS


def test_c8_oneway_loss_recovered_at_reconnect(benchmark):
    """Under loss, the one-way Send may vanish; the client detects it
    at reconnect (registration shows no Send) and resends — the paper's
    stated recovery path."""

    def lossy_run():
        system = TPSystem()
        network = SimNetwork(seed=5, loss_rate=0.5)
        _qm_node(network)
        clerk = system.clerk("c1")
        clerk.transport = OneWayTransport(network, "client", "qm")
        clerk.connect()
        resends = 0
        request = _request(system, 1)
        while True:
            clerk.send_oneway(request, "c1#1")
            # did it arrive?
            if system.request_repo.get_queue(system.request_queue).depth() > 0:
                break
            # timeout waiting for reply; reconnect shows Send was lost
            fresh = system.clerk("c1")
            s_rid, _, _ = fresh.connect()
            assert s_rid is None  # safe to resend
            clerk = fresh
            clerk.transport = OneWayTransport(network, "client", "qm")
            resends += 1
        return resends

    resends = benchmark.pedantic(lossy_run, rounds=1, iterations=1)
    benchmark.extra_info["resends_until_captured"] = resends
