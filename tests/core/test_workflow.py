"""Fork/join workflow tests (Section 6 concurrent extension)."""

from __future__ import annotations

import pytest

from repro.core.devices import DisplayWithUserIds
from repro.core.system import TPSystem
from repro.core.workflow import ForkJoinCoordinator


def make_coordinator(system, branches=("branch.a", "branch.b")):
    def fork(txn, request):
        return [(qname, {"branch": qname, "payload": request.body}) for qname in branches]

    def join(txn, request, replies):
        return {"parts": sorted(r["from"] for r in replies)}

    return ForkJoinCoordinator(system, "fj", list(branches), fork, join)


def branch_handler(txn, request):
    return {"from": request.body["branch"]}


def send(system, client_id="c1", body="job"):
    display = DisplayWithUserIds(trace=system.trace)
    client = system.client(client_id, [body], display)
    client.resynchronize()
    client.send_only(1)
    return client, display


class TestForkJoin:
    def test_fork_creates_branch_requests(self, system):
        coordinator = make_coordinator(system)
        send(system)
        coordinator.fork_server().process_one()
        assert system.request_repo.get_queue("branch.a").depth() == 1
        assert system.request_repo.get_queue("branch.b").depth() == 1
        assert not coordinator.joined("c1#1")

    def test_join_fires_after_all_branches(self, system):
        coordinator = make_coordinator(system)
        client, display = send(system)
        coordinator.fork_server().process_one()
        sa = coordinator.branch_server("branch.a", branch_handler)
        sb = coordinator.branch_server("branch.b", branch_handler)
        sa.process_one()
        assert not coordinator.joined("c1#1")
        sb.process_one()
        assert coordinator.joined("c1#1")
        reply = client.clerk.receive(ckpt=None, timeout=2)
        assert reply.body == {"parts": ["branch.a", "branch.b"]}
        display.process(reply.rid, reply.body)
        client.clerk.disconnect()
        system.checker().assert_ok()

    def test_join_exactly_once_despite_restart(self, system):
        coordinator = make_coordinator(system)
        client, display = send(system)
        coordinator.fork_server().process_one()
        coordinator.branch_server("branch.a", branch_handler).process_one()
        coordinator.branch_server("branch.b", branch_handler).process_one()
        assert coordinator.joined("c1#1")
        # A recovering coordinator re-arms; the join must not re-fire.
        coordinator2 = make_coordinator(system)
        assert coordinator2.joined("c1#1")
        reply_q = system.request_repo.get_queue(system.reply_queue_name("c1"))
        assert reply_q.depth() == 1  # exactly one client reply

    def test_coordinator_recovery_after_crash_completes_join(self):
        system = TPSystem()
        coordinator = make_coordinator(system)
        client, display = send(system)
        coordinator.fork_server().process_one()
        coordinator.branch_server("branch.a", branch_handler).process_one()
        # Crash before branch b runs.
        system.crash()
        system2 = system.reopen()
        coordinator2 = ForkJoinCoordinator(
            system2,
            "fj",
            ["branch.a", "branch.b"],
            lambda txn, r: [],
            lambda txn, r, replies: {"parts": sorted(x["from"] for x in replies)},
        )
        coordinator2.branch_server("branch.b", branch_handler).process_one()
        assert coordinator2.joined("c1#1")
        clerk = system2.clerk("c1")
        clerk.connect()
        reply = clerk.receive(ckpt=None, timeout=2)
        assert reply.body == {"parts": ["branch.a", "branch.b"]}

    def test_branch_failure_retries_then_join(self, system):
        coordinator = make_coordinator(system)
        client, display = send(system)
        coordinator.fork_server().process_one()
        attempts = []

        def flaky(txn, request):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("branch hiccup")
            return branch_handler(txn, request)

        sa = coordinator.branch_server("branch.a", flaky)
        with pytest.raises(RuntimeError):
            sa.process_one()
        sa.process_one()
        coordinator.branch_server("branch.b", branch_handler).process_one()
        assert coordinator.joined("c1#1")

    def test_empty_branches_rejected(self, system):
        with pytest.raises(ValueError):
            ForkJoinCoordinator(system, "x", [], lambda t, r: [], lambda t, r, x: None)
