"""F6 — Figure 6: multi-transaction requests.

Times the three-transaction funds transfer (debit / credit /
clearinghouse-log) end to end, and the crash-recovery continuation of a
half-finished pipeline; compares against the same transfer as a single
transaction and as a distributed transaction under two-phase commit —
the design space Section 6 lays out."""

from __future__ import annotations

from repro.apps.banking import BankApp
from repro.core.devices import DisplayWithUserIds
from repro.core.system import TPSystem
from repro.queueing.placement import PinnedPlacement


def _setup(reply_on_another_node=False):
    if reply_on_another_node:
        # The pinned two-shard layout: queue node (request queue plus
        # the bank's tables) on shard 0, c1's reply queue on shard 1.
        system = TPSystem(shards=2, placement=PinnedPlacement({
            "req.q": 0, "req.err": 0, "accounts": 0, "accounts.audit": 0,
            "reply.c1": 1,
        }))
    else:
        system = TPSystem()
    bank = BankApp(system)
    bank.open_accounts({"alice": 10_000_000, "bob": 10_000_000})
    return system, bank


def test_f6_three_transaction_transfer(benchmark):
    system, bank = _setup()
    pipeline = bank.transfer_pipeline()
    servers = pipeline.servers()
    display = DisplayWithUserIds(trace=system.trace)
    client = system.client("c1", [], display)
    client.resynchronize()
    counter = {"seq": 0}

    def transfer():
        counter["seq"] += 1
        client.work.append({"from": "alice", "to": "bob", "amount": 1})
        client.send_only(counter["seq"])
        for server in servers:
            server.process_one()
        reply = client.clerk.receive(ckpt=None, timeout=2)
        display.process(reply.rid, reply.body)

    benchmark(transfer)
    assert bank.total_money() == 20_000_000
    benchmark.extra_info["design"] = "3 transactions via queues (Figure 6)"


def test_f6_single_transaction_transfer(benchmark):
    system, bank = _setup()
    server = system.server("s", bank.transfer_handler)
    display = DisplayWithUserIds(trace=system.trace)
    client = system.client("c1", [], display)
    client.resynchronize()

    counter = {"seq": 0}

    def transfer():
        counter["seq"] += 1
        client.work.append({"from": "alice", "to": "bob", "amount": 1})
        client.send_only(counter["seq"])
        server.process_one()
        reply = client.clerk.receive(ckpt=None, timeout=2)
        display.process(reply.rid, reply.body)

    benchmark(transfer)
    assert bank.total_money() == 20_000_000
    benchmark.extra_info["design"] = "1 transaction (Figure 5 baseline)"


def test_f6_two_phase_commit_transfer(benchmark):
    """The alternative Section 6 positions queues against: a
    distributed transaction spanning the request node and a separate
    reply node under 2PC."""
    system, bank = _setup(reply_on_another_node=True)
    server = system.server("s", bank.transfer_handler)
    display = DisplayWithUserIds(trace=system.trace)
    client = system.client("c1", [], display)
    client.resynchronize()

    counter = {"seq": 0}

    def transfer():
        counter["seq"] += 1
        client.work.append({"from": "alice", "to": "bob", "amount": 1})
        client.send_only(counter["seq"])
        server.process_one()
        reply = client.clerk.receive(ckpt=None, timeout=2)
        display.process(reply.rid, reply.body)

    benchmark(transfer)
    assert system.request_repo.tm.cross_shard_commits == counter["seq"]
    benchmark.extra_info["design"] = "1 transaction across 2 nodes (2PC)"


def test_f6_crash_mid_pipeline_recovery(benchmark):
    """Cost and correctness of recovering a transfer that crashed after
    its first transaction committed."""

    def crash_and_recover():
        system = TPSystem()
        bank = BankApp(system)
        bank.open_accounts({"alice": 100, "bob": 50})
        pipeline = bank.transfer_pipeline()
        display = DisplayWithUserIds(trace=system.trace)
        client = system.client("c1", bank.transfer_work([("alice", "bob", 30)]), display)
        client.resynchronize()
        client.send_only(1)
        pipeline.stage_server(0).process_one()  # debit committed
        system.crash()
        system2 = system.reopen()
        bank2 = BankApp(system2)
        executed = bank2.transfer_pipeline().drain()
        assert executed == 2  # credit + log only: exactly-once per stage
        assert bank2.balance("alice") == 70
        assert bank2.balance("bob") == 80
        assert bank2.total_money() == 150
        return executed

    benchmark.pedantic(crash_and_recover, rounds=3, iterations=1)
    benchmark.extra_info["measure"] = "crash after stage 0 -> recover -> finish"
