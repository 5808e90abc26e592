"""TPSystem wiring tests: configuration knobs, restart plumbing,
file-backed persistence."""

from __future__ import annotations


from repro.core.devices import DisplayWithUserIds
from repro.core.system import TPSystem
from repro.queueing.queue import DequeueMode
from repro.storage.disk import FileDisk

from tests.conftest import echo_handler, pinned_two_shard_system


class TestConfiguration:
    def test_default_queues_created(self):
        system = TPSystem()
        assert system.request_queue in system.request_repo.queues
        assert system.error_queue in system.request_repo.queues

    def test_queue_mode_propagates(self):
        system = TPSystem(queue_mode=DequeueMode.STRICT)
        queue = system.request_repo.get_queue(system.request_queue)
        assert queue.config.mode is DequeueMode.STRICT

    def test_max_aborts_propagates(self):
        system = TPSystem(max_aborts=7)
        queue = system.request_repo.get_queue(system.request_queue)
        assert queue.config.max_aborts == 7

    def test_count_crash_attempts_propagates(self):
        system = TPSystem(count_crash_attempts=True)
        queue = system.request_repo.get_queue(system.request_queue)
        assert queue.config.count_crash_attempts is True

    def test_custom_queue_names(self):
        system = TPSystem(request_queue="in.q", error_queue="dead.q")
        assert "in.q" in system.request_repo.queues
        assert "dead.q" in system.request_repo.queues

    def test_reply_queue_naming(self):
        system = TPSystem()
        assert system.reply_queue_name("c9") == "reply.c9"
        name = system.ensure_reply_queue("c9")
        assert name in system.request_repo.queues
        # idempotent
        assert system.ensure_reply_queue("c9") == name

    def test_single_node_shares_repo(self):
        # One repository holds requests and replies; there is no
        # second pair of names for it.
        system = TPSystem()
        clerk = system.clerk("c1")
        assert clerk.qm is system.request_qm
        assert not hasattr(system, "reply_repo") and not hasattr(system, "reply_qm")

    def test_separate_reply_node(self):
        # "Replies on another node" is a placement, not a second
        # repository: the reply queue lives on another shard.
        system = pinned_two_shard_system()
        system.ensure_reply_queue("c1")
        assert system.request_repo.shard_of(system.request_queue) == 0
        assert system.request_repo.shard_of("reply.c1") == 1
        assert system.queue_depths(by_shard=True)["s1:reply.c1"] == 0

    def test_table_factory(self):
        system = TPSystem()
        table = system.table("t")
        assert system.table("t") is table


class TestReopen:
    def test_reopen_preserves_configuration(self):
        system = TPSystem(max_aborts=5, queue_mode=DequeueMode.STRICT)
        system2 = system.reopen()
        queue = system2.request_repo.get_queue(system2.request_queue)
        assert queue.config.max_aborts == 5
        assert queue.config.mode is DequeueMode.STRICT

    def test_reopen_separate_node(self):
        system = pinned_two_shard_system()
        system.ensure_reply_queue("c1")
        system.crash()
        system2 = system.reopen()
        assert system2.request_repo.shard_count == 2
        assert "reply.c1" in system2.request_repo.queues
        assert system2.request_repo.shard_of("reply.c1") == 1

    def test_drain_helper(self):
        system = TPSystem()
        display = DisplayWithUserIds(trace=system.trace)
        client = system.client("c1", ["x", "y"], display)
        client.resynchronize()
        client.send_only(1)
        server = system.server("s", echo_handler)
        assert system.drain(server) == 1


class TestFileBackedPersistence:
    def test_full_protocol_on_real_files(self, tmp_path):
        """End-to-end on FileDisk: the state survives a complete
        teardown and is recovered from actual files."""
        from repro.core.devices import TicketPrinter

        root = str(tmp_path / "node")
        disk = FileDisk(root)
        system = TPSystem(request_disk=disk)
        printer = TicketPrinter(trace=system.trace)
        client = system.client("c1", ["persist"], printer)
        client.resynchronize()
        client.send_only(1)
        disk.close()  # the "process" exits

        # A new "process" opens the same files.
        disk2 = FileDisk(root)
        system2 = TPSystem(request_disk=disk2)
        assert system2.request_repo.get_queue(system2.request_queue).depth() == 1
        server = system2.server("s", echo_handler)
        server.process_one()
        clerk = system2.clerk("c1")
        s_rid, r_rid, _ = clerk.connect()
        assert s_rid == "c1#1"
        reply = clerk.receive(timeout=2)
        assert reply.body == {"echo": "persist"}
        disk2.close()

    def test_checkpoint_on_files(self, tmp_path):
        root = str(tmp_path / "ckpt-node")
        disk = FileDisk(root)
        system = TPSystem(request_disk=disk)
        table = system.table("data")
        with system.request_repo.tm.transaction() as txn:
            table.put(txn, "k", [1, 2, 3])
        system.request_repo.checkpoint()
        disk.close()
        disk2 = FileDisk(root)
        system2 = TPSystem(request_disk=disk2)
        assert system2.request_repo.last_recovery.checkpoint_loaded
        assert system2.table("data").peek("k") == [1, 2, 3]
        disk2.close()
