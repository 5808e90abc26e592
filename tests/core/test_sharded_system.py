"""TPSystem over N repository shards: wiring, aggregation, restart."""

from __future__ import annotations

import threading

import pytest

from repro.core.devices import TicketPrinter
from repro.core.system import TPSystem
from repro.queueing.placement import PinnedPlacement
from repro.queueing.sharded import ShardedRepository
from repro.transaction.manager import TransactionManager
from repro.transaction.routing import ShardedTransactionManager

from tests.conftest import (
    echo_handler,
    pinned_two_shard_system,
    run_with_server,
)


class TestWiring:
    def test_default_system_is_single_shard_passthrough(self):
        system = TPSystem()
        assert isinstance(system.request_repo, ShardedRepository)
        assert system.request_repo.shard_count == 1
        assert isinstance(system.request_repo.tm, TransactionManager)

    def test_sharded_system_uses_routed_transactions(self):
        system = TPSystem(shards=4)
        assert system.request_repo.shard_count == 4
        assert isinstance(system.request_repo.tm, ShardedTransactionManager)
        assert len(system.request_repo.disks) == 4


class TestEndToEnd:
    def test_worklist_round_trip_over_four_shards(self):
        system = TPSystem(shards=4)
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["a", "b", "c"], printer)
        server = system.server("s", echo_handler)
        replies = run_with_server(system, server, client)
        assert [r.body for r in replies] == [
            {"echo": "a"}, {"echo": "b"}, {"echo": "c"},
        ]
        system.checker().assert_ok()

    def test_request_processing_promotes_to_2pc_when_queues_split(self):
        system = pinned_two_shard_system()
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["x", "y"], printer)
        server = system.server("s", echo_handler)
        run_with_server(system, server, client)
        tm = system.request_repo.tm
        # Dequeue-on-A + reply-enqueue-on-B: each processed request is
        # one cross-shard transaction; the client's sends stay local.
        assert tm.cross_shard_commits == 2
        assert tm.single_shard_commits > 0
        system.checker().assert_ok()

    def test_colocated_queues_never_promote(self):
        placement = PinnedPlacement(
            {"req.q": 0, "req.err": 0, "reply.c1": 0}
        )
        system = TPSystem(shards=2, placement=placement)
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["x", "y"], printer)
        server = system.server("s", echo_handler)
        run_with_server(system, server, client)
        assert system.request_repo.tm.cross_shard_commits == 0
        system.checker().assert_ok()

    def test_multiple_clients_spread_over_shards(self):
        system = TPSystem(shards=3)
        printers = {
            cid: TicketPrinter(trace=system.trace) for cid in ("a", "b", "c")
        }
        clients = [
            system.client(cid, [f"{cid}{i}" for i in range(2)], dev)
            for cid, dev in printers.items()
        ]
        server = system.server("s", echo_handler)
        stop = threading.Event()
        server_thread = threading.Thread(
            target=lambda: server.serve_until(stop.is_set, 0.02), daemon=True
        )
        server_thread.start()
        threads = [threading.Thread(target=c.run, daemon=True) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        stop.set()
        server_thread.join(timeout=5)
        assert all(c.finished for c in clients)
        system.checker().assert_ok()


class TestAggregation:
    def test_queue_depths_span_all_shards(self):
        system = pinned_two_shard_system()
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["w"], printer)
        client.resynchronize()
        client.send_only(1)
        depths = system.queue_depths()
        assert depths["req.q"] == 1
        assert depths["req.err"] == 0
        assert "reply.c1" in depths
        by_shard = system.queue_depths(by_shard=True)
        assert by_shard["s0:req.q"] == 1
        assert by_shard["s1:reply.c1"] == 0

    def test_drain_accepts_multiple_servers(self):
        system = TPSystem(shards=2)
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["a", "b", "c"], printer)
        client.resynchronize()
        for seq in (1, 2, 3):
            client.send_only(seq)
        servers = [system.server(f"s{i}", echo_handler) for i in (1, 2)]
        assert system.drain(servers) == 3
        assert system.queue_depths()["req.q"] == 0

    def test_dashboard_renders_with_shard_metrics(self):
        from repro.obs import Observability

        system = pinned_two_shard_system(obs=Observability())
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["w"], printer)
        server = system.server("s", echo_handler)
        run_with_server(system, server, client)
        dashboard = system.metrics_dashboard()
        assert "sharded_txn_commits_total" in dashboard
        assert "reqnode.s0" in dashboard


class TestRestart:
    def test_crash_reopen_preserves_all_shards(self):
        system = pinned_two_shard_system()
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["persist"], printer)
        client.resynchronize()
        client.send_only(1)
        system.crash()
        system2 = system.reopen()
        assert system2.request_repo.shard_count == 2
        assert len(system2.request_repo.recoveries) == 2
        assert system2.request_repo.get_queue("req.q").depth() == 1
        # Placement carries over: the reply queue reopens on shard 1.
        assert system2.queue_depths(by_shard=True)["s1:reply.c1"] == 0

    def test_full_cycle_across_restart(self):
        from repro.core.client import UserCheckpoint

        system = pinned_two_shard_system()
        printer = TicketPrinter(trace=system.trace)
        user_log = UserCheckpoint()
        client = system.client(
            "c1", ["before", "after"], printer, user_log=user_log
        )
        client.resynchronize()
        client.send_only(1)
        system.server("s", echo_handler).process_one()
        system.crash()
        system2 = system.reopen()
        client2 = system2.client(
            "c1", ["before", "after"], printer,
            receive_timeout=5, user_log=user_log,
        )
        server2 = system2.server("s2", echo_handler)
        run_with_server(system2, server2, client2)
        assert [rid for _t, rid in printer.printed] == ["c1#1", "c1#2"]
        system2.checker().assert_ok()

    def test_undecided_branch_after_a_restart_resolves_to_abort(self):
        # A coordinator's sequence numbers restart with the process, so
        # the second incarnation's first global id would repeat the
        # first's (":1", durably decided COMMIT) if it did not carry
        # the shard's durable epoch — and a branch left undecided by a
        # crash would then be answered "commit" from the old record: a
        # dequeue without its reply.  (The deleted two-repository
        # layout's coordinator had exactly that bug.)
        from repro.core.client import UserCheckpoint
        from repro.errors import SimulatedCrash
        from repro.sim.crash import FaultInjector

        work = ["first", "second"]
        system = pinned_two_shard_system()
        printer = TicketPrinter(trace=system.trace)
        user_log = UserCheckpoint()
        client = system.client("c1", work, printer, user_log=user_log)
        client.resynchronize()
        client.send_only(1)
        system.server("s", echo_handler).process_one()
        reply = client.clerk.receive(ckpt=printer.state(), timeout=1)
        printer.process(reply.rid, reply.body)
        assert system.request_repo.shards[0].decisions.get(
            "reqnode.s0.e1:1") == "commit"
        system.crash()

        # Second incarnation: request 2 crashes with shard 0's branch
        # prepared, shard 1's not, and no decision logged.
        injector = FaultInjector()
        injector.arm("2pc.before_prepare", hit=2)
        system2 = system.reopen(injector=injector)
        client2 = system2.client("c1", work, printer, user_log=user_log)
        assert client2.resynchronize() == 2
        client2.send_only(2)
        with pytest.raises(SimulatedCrash):
            system2.server("s", echo_handler).process_one()
        system2.crash()

        system3 = system2.reopen()
        (branch,) = system3.request_repo.recoveries[0].in_doubt
        assert branch.global_id == "reqnode.s0.e2:1"
        assert branch.resolved == "abort"
        assert not system3.request_repo.recoveries[1].in_doubt
        depths = system3.queue_depths()
        assert depths["req.q"] == 1 and depths["reply.c1"] == 0
        client3 = system3.client(
            "c1", work, printer, receive_timeout=5, user_log=user_log
        )
        run_with_server(system3, system3.server("s3", echo_handler), client3)
        assert [rid for _t, rid in printer.printed] == ["c1#1", "c1#2"]
        system3.checker().assert_ok()

    def test_crash_single_shard_spares_the_rest(self):
        system = pinned_two_shard_system()
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["w1", "w2"], printer)
        client.resynchronize()
        client.send_only(1)
        # Shard 1 (reply queues) dies; the request queue on shard 0
        # keeps accepting work.
        system.crash_shard(1)
        client.send_only(2)
        assert system.queue_depths(by_shard=True)["s0:req.q"] == 2
        system2 = system.reopen()
        assert system2.request_repo.get_queue("req.q").depth() == 2
