"""ShardService unit tests: the wire-facing dispatcher over one
repository shard, exercised in-process (no sockets) so every branch of
the transaction table, the 2PC ops, and the restart fallbacks is
reachable deterministically."""

import pytest

from repro.comm.wire import unwrap
from repro.errors import (
    DiskIOError,
    NotRegisteredError,
    QueueEmpty,
    ReproError,
    TransactionAborted,
)
from repro.queueing.element import Element
from repro.queueing.repository import QueueRepository
from repro.serve.service import ShardService
from repro.storage.codec import encode
from repro.storage.disk import MemDisk
from repro.storage.faults import DiskFault, FaultyDisk


def make_service(disk=None, epoch=0):
    repo = QueueRepository("s0", disk if disk is not None else MemDisk())
    return ShardService(repo, epoch=epoch)


def call(service, **payload):
    """Call ``service`` as a stub does: an enqueue's body goes out as
    its codec bytes (the shard never sees the value)."""
    if payload.get("op") == "enqueue":
        payload["body"] = encode(payload["body"])
    return unwrap(service.handle(payload))


def register(service, queue="q", registrant="r1"):
    result = call(service, op="register", queue=queue, registrant=registrant,
                  stable=True)
    return result["handle"]


class TestAdmin:
    def test_hello_reports_identity(self):
        service = make_service(epoch=3)
        call(service, op="create_queue", queue="q")
        hello = call(service, op="hello")
        assert hello["name"] == "s0"
        assert hello["epoch"] == 3
        assert hello["queues"] == ["q"]

    def test_create_queue_absorbs_duplicates(self):
        """A retried create_queue (lost reply) must not error."""
        service = make_service()
        call(service, op="create_queue", queue="q")
        call(service, op="create_queue", queue="q")
        assert call(service, op="queue_names") == ["q"]

    def test_depths(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        call(service, op="enqueue", handle=handle, body={"n": 1})
        assert call(service, op="depths") == {"q": 1}


class TestBranchTable:
    def test_transactional_enqueue_commits(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        call(service, op="enqueue", handle=handle, body={"n": 1}, txn=txn)
        # Not visible until the branch commits.
        assert call(service, op="depth", queue="q") == 0
        call(service, op="txn_commit", txn=txn)
        assert call(service, op="depth", queue="q") == 1

    def test_abort_rolls_back(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        call(service, op="enqueue", handle=handle, body={"n": 1}, txn=txn)
        call(service, op="txn_abort", txn=txn)
        assert call(service, op="depth", queue="q") == 0

    def test_unknown_branch_is_presumed_abort(self):
        """An operation naming a branch the shard does not know (it
        restarted since txn_begin) must fail the caller's transaction,
        not silently auto-commit."""
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        with pytest.raises(TransactionAborted):
            call(service, op="enqueue", handle=handle, body={}, txn=999)

    def test_duplicate_commit_is_idempotent(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        call(service, op="enqueue", handle=handle, body={"n": 1}, txn=txn)
        call(service, op="txn_commit", txn=txn)
        call(service, op="txn_commit", txn=txn)  # retried outcome: no-op
        assert call(service, op="depth", queue="q") == 1

    def test_duplicate_abort_is_idempotent(self):
        service = make_service()
        txn = call(service, op="txn_begin")
        call(service, op="txn_abort", txn=txn)
        call(service, op="txn_abort", txn=txn)


class TestOpeningOperation:
    """``"txn": "new"``: the first operation of a branch opens it."""

    def test_it_answers_with_the_branch_id_and_the_result(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        answer = call(service, op="enqueue", handle=handle, body=1, txn="new")
        assert set(answer) == {"txn", "result"}
        assert list(service.txns) == [answer["txn"]]
        assert call(service, op="depth", queue="q") == 0  # not committed yet
        call(service, op="txn_commit", txn=answer["txn"])
        assert call(service, op="depth", queue="q") == 1

    def test_begin_and_new_share_the_branch_table(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        begun = call(service, op="txn_begin")
        opened = call(service, op="enqueue", handle=handle, body=1, txn="new")
        assert sorted(service.txns) == sorted([begun, opened["txn"]])

    def test_a_failed_opener_is_aborted_and_forgotten(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        with pytest.raises(QueueEmpty):
            call(service, op="dequeue", handle=handle, txn="new")
        stranger = {**handle, "registrant": "nobody"}
        with pytest.raises(NotRegisteredError):
            call(service, op="enqueue", handle=stranger, body=1, txn="new")
        assert service.txns == {}
        assert service.repo.tm.aborts == 2
        assert service.repo.tm._active == {}


class TestCommitOnEnqueue:
    """``"commit": true``: the last operation carries the commit."""

    def test_enqueue_and_commit_under_one_force(self):
        disk = MemDisk()
        service = make_service(disk)
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        call(service, op="enqueue", handle=handle, body=1, txn=txn)
        flushes = disk.flush_count
        call(service, op="enqueue", handle=handle, body=2, txn=txn, commit=True)
        assert disk.flush_count == flushes + 1
        assert service.txns == {}
        assert call(service, op="depth", queue="q") == 2
        call(service, op="txn_commit", txn=txn)  # a duplicate outcome: no-op

    def test_a_failed_enqueue_leaves_the_branch_active(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        stranger = {**handle, "registrant": "nobody"}
        with pytest.raises(NotRegisteredError):
            call(service, op="enqueue", handle=stranger, body=1, txn=txn,
                 commit=True)
        assert list(service.txns) == [txn]
        call(service, op="txn_abort", txn=txn)

    def test_a_commit_that_hard_aborts_finishes_the_branch(self):
        disk = FaultyDisk(MemDisk())
        service = make_service(disk)
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        # (the queue's first enqueue forces an eid reservation of its own)
        call(service, op="enqueue", handle=handle, body=0, txn=txn)
        disk.add_fault(DiskFault(op="flush", hit=disk._counts[("flush", None)] + 1))
        with pytest.raises(DiskIOError):
            call(service, op="enqueue", handle=handle, body=1, txn=txn,
                 commit=True)
        assert service.txns == {}
        call(service, op="txn_abort", txn=txn)  # the caller's abort: a no-op
        with pytest.raises(TransactionAborted):
            call(service, op="txn_commit", txn=txn)

    def test_opening_and_committing_in_one_call(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        answer = call(service, op="enqueue", handle=handle, body=1, txn="new",
                      commit=True)
        assert service.txns == {}
        assert call(service, op="depth", queue="q") == 1
        assert isinstance(answer["txn"], int)


class TestMalformedPayload:
    """A payload the service cannot read is answered like any failed
    call — it must not escape ``handle`` and leave the caller waiting
    out its timeouts."""

    @pytest.mark.parametrize("payload, complaint", [
        (["op", "depth"], "expected a dict"),
        ({"nop": 1}, "missing field 'op'"),
        ({"op": "no_such_op"}, "unknown queue-manager operation"),
        ({"op": ["depth"]}, "unknown queue-manager operation"),
        ({"op": "depth"}, "missing field 'queue'"),
        ({"op": "txn_commit"}, "missing field 'txn'"),
    ])
    def test_it_gets_an_error_envelope(self, payload, complaint):
        response = make_service().handle(payload)
        assert response["err"] == "ReproError"
        assert complaint in response["msg"]
        with pytest.raises(ReproError):
            unwrap(response)


class TestTwoPhase:
    def test_prepare_then_commit_prepared(self):
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        call(service, op="enqueue", handle=handle, body={"n": 1}, txn=txn)
        call(service, op="txn_prepare", txn=txn, gid="g1")
        assert call(service, op="depth", queue="q") == 0
        call(service, op="txn_commit_prepared", txn=txn, gid="g1")
        assert call(service, op="depth", queue="q") == 1
        # The retried outcome call after the branch finished: idempotent.
        call(service, op="txn_commit_prepared", txn=txn, gid="g1")
        assert call(service, op="depth", queue="q") == 1

    def test_abort_of_a_prepared_branch_releases_it(self):
        """A coordinator that lost the ``txn_prepare`` reply still
        thinks the branch active and vetoes with ``txn_abort``: the
        shard must undo the prepared branch, not just forget its id."""
        service = make_service()
        call(service, op="create_queue", queue="q")
        handle = register(service)
        call(service, op="enqueue", handle=handle, body={"n": 1})
        opened = call(service, op="dequeue", handle=handle, txn="new")
        call(service, op="txn_prepare", txn=opened["txn"], gid="g1")
        call(service, op="txn_abort", txn=opened["txn"], reason="2pc veto")
        assert service.txns == {}
        assert call(service, op="depth", queue="q") == 1
        assert service.repo.tm.active_txns() == []
        record = call(service, op="dequeue", handle=handle)
        assert Element.from_record(record).body == {"n": 1}

    def test_decide_is_write_once_idempotent(self):
        service = make_service()
        call(service, op="txn_decide", gid="g1", decision="commit")
        call(service, op="txn_decide", gid="g1", decision="commit")
        assert call(service, op="txn_decision", gid="g1") == "commit"

    def test_unknown_gid_is_presumed_abort(self):
        service = make_service()
        assert call(service, op="txn_decision", gid="never-seen") == "abort"

    def test_decision_survives_restart(self):
        """The decision is force-logged: a successor service over the
        same disk must answer the same way (the coordinator's client
        polls exactly this after a mid-decide crash)."""
        disk = MemDisk()
        service = make_service(disk)
        call(service, op="txn_decide", gid="g9", decision="commit")
        reborn = make_service(disk, epoch=1)
        assert call(reborn, op="txn_decision", gid="g9") == "commit"

    def test_in_doubt_branch_resolved_after_restart(self):
        """Prepare, crash (new service over the same disk), and the
        supervisor's resolution path: the branch surfaces as in doubt,
        txn_resolve applies the decision, the data commits."""
        disk = MemDisk()
        service = make_service(disk)
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        call(service, op="enqueue", handle=handle, body={"n": 1}, txn=txn)
        call(service, op="txn_prepare", txn=txn, gid="g7")

        reborn = make_service(disk, epoch=1)
        in_doubt = call(reborn, op="in_doubt")
        assert [b["gid"] for b in in_doubt] == ["g7"]
        assert call(reborn, op="txn_resolve", gid="g7", decision="commit")
        assert call(reborn, op="depth", queue="q") == 1

    def test_outcome_for_restarted_branch_falls_back_to_gid(self):
        """txn_commit_prepared naming a branch id the restarted shard no
        longer has must resolve by gid instead (the decision was durable
        before phase 2 began, so this is always safe)."""
        disk = MemDisk()
        service = make_service(disk)
        call(service, op="create_queue", queue="q")
        handle = register(service)
        txn = call(service, op="txn_begin")
        call(service, op="enqueue", handle=handle, body={"n": 2}, txn=txn)
        call(service, op="txn_prepare", txn=txn, gid="g8")

        reborn = make_service(disk, epoch=1)
        call(reborn, op="txn_commit_prepared", txn=txn, gid="g8")
        assert call(reborn, op="depth", queue="q") == 1
