"""Persistent registration tests (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.errors import NotRegisteredError
from repro.queueing.manager import QueueManager
from repro.queueing.repository import QueueRepository
from repro.storage.codec import encode
from repro.storage.disk import MemDisk


@pytest.fixture
def setup():
    disk = MemDisk()
    repo = QueueRepository("r", disk)
    qm = QueueManager(repo)
    qm.create_queue("q")
    return disk, repo, qm


class TestRegisterDeregister:
    def test_first_register_returns_nils(self, setup):
        _, _, qm = setup
        handle, tag, eid = qm.register("q", "alice")
        assert tag is None and eid is None
        assert handle.queue == "q" and handle.registrant == "alice"

    def test_reregister_returns_last_operation(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        eid = qm.enqueue(h, "payload", tag="my-tag")
        h2, tag2, eid2 = qm.register("q", "alice")
        assert tag2 == "my-tag"
        assert eid2 == eid

    def test_registration_survives_registrant_failure(self, setup):
        # "the failure of a registrant does not implicitly deregister it"
        disk, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.enqueue(h, "x", tag="t1")
        disk.crash()
        disk.recover()
        repo2 = QueueRepository("r", disk)
        qm2 = QueueManager(repo2)
        _, tag, _ = qm2.register("q", "alice")
        assert tag == "t1"

    def test_deregister_destroys_info(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.enqueue(h, "x", tag="t1")
        qm.deregister(h)
        _, tag, eid = qm.register("q", "alice")
        assert tag is None and eid is None

    def test_deregister_unregistered_raises(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.deregister(h)
        with pytest.raises(NotRegisteredError):
            qm.deregister(h)

    def test_deregister_durable(self, setup):
        disk, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.enqueue(h, "x", tag="t")
        qm.deregister(h)
        disk.crash()
        disk.recover()
        qm2 = QueueManager(QueueRepository("r", disk))
        _, tag, _ = qm2.register("q", "alice")
        assert tag is None

    def test_register_is_immediately_durable(self, setup):
        disk, _, qm = setup
        qm.register("q", "alice")
        disk.crash()
        disk.recover()
        repo2 = QueueRepository("r", disk)
        assert repo2.registration.is_registered("q", "alice")

    def test_independent_registrants(self, setup):
        _, _, qm = setup
        ha, _, _ = qm.register("q", "alice")
        hb, _, _ = qm.register("q", "bob")
        qm.enqueue(ha, "from alice", tag="a1")
        qm.enqueue(hb, "from bob", tag="b1")
        _, tag_a, _ = qm.register("q", "alice")
        _, tag_b, _ = qm.register("q", "bob")
        assert tag_a == "a1" and tag_b == "b1"


class TestTags:
    def test_dequeue_tag_recorded(self, setup):
        _, repo, qm = setup
        h, _, _ = qm.register("q", "alice")
        eid = qm.enqueue(h, "payload", tag="send-tag")
        hb, _, _ = qm.register("q", "bob")
        element = qm.dequeue(hb, tag=["rid-1", "ckpt-1"])
        assert element.eid == eid
        _, tag, eid_b = qm.register("q", "bob")
        assert tag == ["rid-1", "ckpt-1"]
        assert eid_b == eid

    def test_stable_false_keeps_no_tags(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "server", stable=False)
        qm.enqueue(h, "x", tag="ignored")
        _, tag, eid = qm.register("q", "server", stable=False)
        assert tag is None and eid is None

    def test_tag_update_atomic_with_operation(self, setup):
        # If the enqueue transaction aborts, the tag must not move.
        _, repo, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.enqueue(h, "first", tag="t1")
        txn = repo.tm.begin()
        qm.enqueue(h, "second", tag="t2", txn=txn)
        repo.tm.abort(txn)
        _, tag, _ = qm.register("q", "alice")
        assert tag == "t1"

    def test_registration_info_has_op_type(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.enqueue(h, "x", tag="t")
        info = qm.registration_info(h)
        assert info.last_op == "enq"
        hb, _, _ = qm.register("q", "bob")
        qm.dequeue(hb, tag="d")
        info_b = qm.registration_info(hb)
        assert info_b.last_op == "deq"

    def test_element_copy_stored(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.enqueue(h, {"data": 42}, tag="t")
        info = qm.registration_info(h)
        assert info.element().body == {"data": 42}
        # stored as the body's codec bytes, exactly once
        assert info.last_element["body"] == encode({"data": 42})

    def test_read_from_registration_copy_after_archive_eviction(self, setup):
        # Section 4.3: Read works even if the element was dequeued by
        # another registrant — served from the stable registration copy.
        _, repo, qm = setup
        qm.create_queue("tiny", archive_limit=1)
        h, _, _ = qm.register("tiny", "alice")
        eid = qm.enqueue(h, "mine", tag="t")
        hb, _, _ = qm.register("tiny", "bob")
        qm.dequeue(hb)
        # Other traffic (a different registrant) evicts the archive entry;
        # alice's registration copy still covers her last operation.
        hc, _, _ = qm.register("tiny", "carol")
        for i in range(3):
            qm.enqueue(hc, f"filler-{i}")
            qm.dequeue(hb)
        element = qm.read(h, eid)
        assert element.body == "mine"


class TestOperationsRequireRegistration:
    def test_enqueue_requires_registration(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.deregister(h)
        with pytest.raises(NotRegisteredError):
            qm.enqueue(h, "x")

    def test_dequeue_requires_registration(self, setup):
        _, _, qm = setup
        h, _, _ = qm.register("q", "alice")
        qm.deregister(h)
        with pytest.raises(NotRegisteredError):
            qm.dequeue(h)
