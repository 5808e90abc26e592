"""Crash-at-every-step over the *combined* hardest server path:
request and reply queues on separate nodes (the reply queue pinned to a
second shard: distributed 2PC, Section 8), every force on both nodes'
logs going through the log's group commit.

Every instrumented point — clerk, queue managers on both nodes, both
transaction managers, the 2PC coordinator, and both group-flush points
— is crashed once.  After each crash the whole system restarts — boot
resolves any in-doubt 2PC branches against the coordinator shard's
durable decision (presumed abort) — a fresh client incarnation
resynchronizes, and the paper's guarantees plus exactly-once device
effects are asserted.
"""

from __future__ import annotations

import threading

from repro.core.client import UserCheckpoint
from repro.core.devices import TicketPrinter
from repro.core.guarantees import GuaranteeChecker
from repro.core.system import TPSystem
from repro.sim.harness import crash_every_step
from repro.sim.trace import TraceRecorder

from tests.conftest import pinned_two_shard_system

WORK = ["a", "b"]


def _handler_for(system: TPSystem):
    table = system.table("ledger")

    def handler(txn, request):
        # A database write on the request node's branch plus the reply
        # enqueue on the reply node's branch: the full 2PC shape.
        table.put(txn, f"done:{request.rid}", request.body)
        return {"echo": request.body}

    return handler


def _resolved_at_boot(system: TPSystem) -> int:
    """In-doubt 2PC branches the restart found and settled."""
    branches = [
        branch
        for recovery in system.request_repo.recoveries
        for branch in recovery.in_doubt
    ]
    assert all(branch.resolved is not None for branch in branches)
    return len(branches)


def _finish(system: TPSystem, device, user_log) -> None:
    client = system.client("c1", WORK, device, receive_timeout=5,
                           user_log=user_log)
    server = system.server("recovery-server", _handler_for(system))
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


class TestCombined2PCGroupCommitSweep:
    def test_guarantees_hold_at_every_crash_point(self):
        resolved_total = [0]

        def scenario(injector):
            trace = TraceRecorder()
            system = pinned_two_shard_system(
                injector=injector,
                trace=trace,
            )
            system.placement.pin("ledger", 0)  # beside the request queue
            device = TicketPrinter(trace=trace, injector=injector)
            user_log = UserCheckpoint()
            scenario.state = {"system": system, "device": device, "log": user_log}
            client = system.client("c1", WORK, device, receive_timeout=None,
                                   user_log=user_log)
            server = system.server("s1", _handler_for(system))
            seq = client.resynchronize()
            while seq <= len(WORK):
                client.send_only(seq)
                server.process_one()
                reply = client.clerk.receive(ckpt=device.state(), timeout=1)
                device.process(reply.rid, reply.body)
                seq += 1
            user_log.mark_done()
            client.clerk.disconnect()
            return scenario.state

        def recover(state):
            system2 = state["system"].reopen()
            resolved_total[0] += _resolved_at_boot(system2)
            _finish(system2, state["device"], state["log"])
            return system2

        def check(state, system2, plan):
            try:
                GuaranteeChecker(system2.trace).assert_ok()
                device = state["device"]
                table = system2.table("ledger")
                for seq, body in enumerate(WORK, start=1):
                    rid = f"c1#{seq}"
                    count = len(device.tickets_for(rid))
                    assert count == 1, f"rid {rid} printed {count} tickets"
                    # The request-node database write committed with the
                    # reply — atomically across both nodes.
                    assert table.peek(f"done:{rid}") == body
            except AssertionError as exc:
                raise AssertionError(f"crash at {plan}: {exc}") from exc
            return True

        results = crash_every_step(scenario, recover, check)
        crashed = sum(1 for r in results if r.crashed)
        # The combined path has strictly more instrumented points than
        # the single-node sweep: prepare/decision/branch-commit for the
        # 2PC and the group-flush points on both nodes' logs.
        assert crashed >= 50
        points = {r.plan.point for r in results if r.crashed}
        assert any(p.startswith("tm.prepare.") for p in points)
        assert any(p.startswith("2pc.") for p in points)
        assert any("group_flush" in p for p in points)
        # At least some crash positions must actually have left a branch
        # in doubt (otherwise the resolution path went untested).
        assert resolved_total[0] > 0
        assert all(r.check_result for r in results)
