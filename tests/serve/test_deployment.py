"""The TCP deployment end to end: shards as real OS processes, the
clerk/server protocol over actual sockets, and the conservation claim —
every accepted request executed exactly once — across a real SIGKILL
plus supervisor restart.

These tests spawn subprocesses (``repro.serve.shardd``) and are the
closest thing in the suite to the paper's deployment picture: the
front-end world talks to queue managers it can only reach through a
network that loses connections when a process dies.
"""

import shutil
import tempfile
import time

import pytest

from repro.core.devices import DisplayWithUserIds
from repro.core.request import Request, make_rid
from repro.core.system import TPSystem
from repro.sim.crash import FaultInjector
from repro.storage.disk import MemDisk


@pytest.fixture
def tcp_system():
    data_dir = tempfile.mkdtemp(prefix="repro-test-tcp-")
    system = TPSystem(deployment="tcp", shards=2, data_dir=data_dir)
    try:
        yield system
    finally:
        system.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def send(system, clerk, client_id, seq, body):
    request = Request(
        rid=make_rid(client_id, seq),
        body=body,
        client_id=client_id,
        reply_to=system.reply_queue_name(client_id),
    )
    clerk.send(request, request.rid)


class TestTcpDeployment:
    def test_round_trip_over_real_sockets(self, tcp_system):
        clerk = tcp_system.clerk("c1")
        clerk.connect()
        send(tcp_system, clerk, "c1", 1, {"work": 1})
        server = tcp_system.server("s1", lambda txn, r: {"done": r.body})
        assert server.process_one() is True
        device = DisplayWithUserIds(trace=tcp_system.trace)
        reply = clerk.receive(ckpt=device.state(), timeout=10)
        assert reply.body == {"done": {"work": 1}}
        device.process(reply.rid, reply.body)
        tcp_system.checker().assert_ok()

    def test_invalid_mode_combinations_rejected(self):
        with pytest.raises(ValueError):
            TPSystem(deployment="bogus")
        with pytest.raises(ValueError):
            TPSystem(deployment="tcp", replicate=True)

    @pytest.mark.parametrize("name, value", [
        ("request_disk", MemDisk()),
        ("shard_disks", [MemDisk(), MemDisk()]),
        ("checkpoint_interval_bytes", 4096),
        ("replicate", True),
        ("injector", FaultInjector()),
    ])
    def test_in_process_only_arguments_rejected_over_tcp(self, name, value):
        # Refused up front, by name, before any process is spawned —
        # not silently dropped.
        with pytest.raises(ValueError, match=name):
            TPSystem(deployment="tcp", **{name: value})

    @pytest.mark.parametrize("deployment", ["inproc", "tcp"])
    def test_group_commit_is_not_a_setting(self, deployment):
        # Group commit is the log's own force, in every deployment.
        with pytest.raises(TypeError, match="group_commit"):
            TPSystem(deployment=deployment, **{"group_commit": object()})

    def test_kill_shard_requires_tcp(self):
        system = TPSystem()
        with pytest.raises(ValueError):
            system.kill_shard(0)

    def test_sigkill_and_restart_conserves_every_request(self, tcp_system):
        """The acceptance bar: a mixed workload across two clients, the
        request-queue shard SIGKILLed mid-workload and restarted by the
        supervisor, and afterwards every accepted request has exactly
        one execution and exactly one reply."""
        clerks = {}
        for cid in ("c1", "c2"):
            clerks[cid] = tcp_system.clerk(cid)
            clerks[cid].connect()
        # Phase 1: accept work on both clients, process some of it.
        for seq in (1, 2, 3):
            send(tcp_system, clerks["c1"], "c1", seq, {"c": "c1", "n": seq})
        for seq in (1, 2):
            send(tcp_system, clerks["c2"], "c2", seq, {"c": "c2", "n": seq})
        server = tcp_system.server("s1", lambda txn, r: {"echo": r.body})
        for _ in range(2):
            assert server.process_one() is True

        # SIGKILL the shard that owns the request queue — the worst one
        # to lose — then let the supervisor restart it (log recovery).
        victim = tcp_system.request_repo.shard_of(tcp_system.request_queue)
        shard = tcp_system.supervisor.shards[victim]
        epoch_before = shard.epoch
        assert shard.alive
        tcp_system.kill_shard(victim)
        assert not shard.alive
        tcp_system.restart_shard(victim)
        assert shard.alive
        assert shard.epoch == epoch_before + 1

        # Phase 2: the surviving backlog is intact; drain it.
        processed = 2
        while server.process_one():
            processed += 1
        assert processed == 5

        # Every client gets every reply, exactly once each.
        device = DisplayWithUserIds(trace=tcp_system.trace)
        got = {"c1": set(), "c2": set()}
        for cid, clerk in clerks.items():
            for _ in range(3 if cid == "c1" else 2):
                reply = clerk.receive(ckpt=device.state(), timeout=10)
                device.process(reply.rid, reply.body)
                got[cid].add(reply.body["echo"]["n"])
        assert got == {"c1": {1, 2, 3}, "c2": {1, 2}}
        assert tcp_system.request_qm.depth(tcp_system.request_queue) == 0
        tcp_system.checker().assert_ok()

    def test_server_thread_outlives_a_shard_outage(self, tcp_system):
        """With the request shard down for longer than the transport
        retries, the server's opening dequeue raises a CommError; the
        serve loop must count it and go on, and serve again once the
        shard is back."""
        for client in tcp_system.request_repo.clients:
            client.transport.max_retries = 1  # a long outage, without the wait
        clerk = tcp_system.clerk("c1")
        clerk.connect()
        server = tcp_system.server("s1", lambda txn, r: {"echo": r.body})
        victim = tcp_system.request_repo.shard_of(tcp_system.request_queue)
        server.start(poll_timeout=0.05)
        try:
            tcp_system.kill_shard(victim)
            deadline = time.monotonic() + 20.0
            while server.stats.comm_errors < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.stats.comm_errors >= 2
            assert server.last_fatal is None
            tcp_system.restart_shard(victim)
            send(tcp_system, clerk, "c1", 1, {"n": 1})
            reply = clerk.receive(timeout=20)
            assert reply.body == {"echo": {"n": 1}}
        finally:
            server.stop()

    def test_restart_recovers_durable_backlog(self, tcp_system):
        """Requests accepted before a SIGKILL survive it: Send's promise
        ("the client knows that the request was stably stored") holds
        across a real process death."""
        clerk = tcp_system.clerk("c1")
        clerk.connect()
        for seq in (1, 2, 3):
            send(tcp_system, clerk, "c1", seq, {"n": seq})
        victim = tcp_system.request_repo.shard_of(tcp_system.request_queue)
        tcp_system.kill_shard(victim)
        tcp_system.restart_shard(victim)
        assert tcp_system.request_qm.depth(tcp_system.request_queue) == 3

    def test_poison_request_moves_to_error_queue(self, tcp_system):
        """max_aborts dequeue-aborts move the element to the error queue
        over the wire exactly as in-proc (Section 5's termination)."""
        clerk = tcp_system.clerk("c1")
        clerk.connect()
        send(tcp_system, clerk, "c1", 1, {"poison": True})

        def handler(_txn, request):
            raise RuntimeError("handler rejects this request")

        server = tcp_system.server("s1", handler)
        for _ in range(3):  # max_aborts=3
            with pytest.raises(RuntimeError):
                server.process_one()
        assert tcp_system.request_qm.depth(tcp_system.request_queue) == 0
        assert tcp_system.request_qm.depth(tcp_system.error_queue) == 1

    def test_resync_after_client_restart(self, tcp_system):
        """Figure 2 over real sockets: a client that reconnects learns
        its last sent rid from the stable registration and does not
        double-send."""
        clerk = tcp_system.clerk("c1")
        clerk.connect()
        send(tcp_system, clerk, "c1", 1, {"n": 1})
        # A new clerk instance for the same client id (process restart).
        reborn = tcp_system.clerk("c1")
        s_rid, _r_rid, _ckpt = reborn.connect()
        assert s_rid == make_rid("c1", 1)
        assert tcp_system.request_qm.depth(tcp_system.request_queue) == 1
