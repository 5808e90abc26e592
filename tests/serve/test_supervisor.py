"""The supervisor's distributed half of restart recovery: in-doubt
two-phase branches are settled from the coordinator shard's decision
log — and only from it.  Real ``repro-shardd`` processes, real SIGKILL.
"""

import shutil
import tempfile

import pytest

from repro.comm.remote import (
    handle_from_record,
    op_create_queue,
    op_depth,
    op_enqueue,
    op_register,
)
from repro.comm.transport import TcpTransport
from repro.serve.client import ShardClient
from repro.serve.supervisor import ShardSupervisor

#: as a driver-side coordinator bound to shard 0 mints it
GID = "reqnode.s0.e1:p1:1"


@pytest.fixture
def supervisor():
    data_dir = tempfile.mkdtemp(prefix="repro-test-sup-")
    sup = ShardSupervisor(data_dir, 2)
    try:
        yield sup
    finally:
        sup.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def call(supervisor: ShardSupervisor, index: int, *payloads: dict):
    """Send ``payloads`` to shard ``index``; returns the last result."""
    client = ShardClient(
        TcpTransport("127.0.0.1", supervisor.shards[index].port)
    )
    try:
        for payload in payloads:
            result = client.call(payload)
        return result
    finally:
        client.close()


def prepare_enqueue(supervisor: ShardSupervisor, index: int, qname: str):
    """One branch of the global transaction: an enqueue, prepared."""
    registered = call(
        supervisor, index,
        op_create_queue(qname, {}), op_register(qname, "t", stable=False),
    )
    handle = handle_from_record(registered["handle"])
    branch = call(supervisor, index, {"op": "txn_begin"})
    call(supervisor, index,
         op_enqueue(handle, qname, txn=branch),
         {"op": "txn_prepare", "txn": branch, "gid": GID})


class TestInDoubtResolution:
    def test_branch_waits_for_its_coordinator_shard(self, supervisor):
        """Both shards die holding a prepared branch of one global
        transaction whose COMMIT decision is durable on shard 0.  Shard
        1 comes back first: it must not guess (presumed abort applies
        to a decision log that was *asked*, not to one that is down),
        or the dequeue on one shard loses its reply on the other."""
        prepare_enqueue(supervisor, 0, "q0")
        prepare_enqueue(supervisor, 1, "q1")
        call(supervisor, 0,
             {"op": "txn_decide", "gid": GID, "decision": "commit"})
        supervisor.kill(0)
        supervisor.kill(1)

        supervisor.restart(1)
        assert call(supervisor, 1, {"op": "in_doubt"}) == [
            {"gid": GID, "resolved": None}
        ]

        # The coordinator shard's return settles its own branch and the
        # one that was waiting on it — no second restart of shard 1.
        supervisor.restart(0)
        for index, qname in ((0, "q0"), (1, "q1")):
            assert call(supervisor, index, {"op": "in_doubt"}) == [
                {"gid": GID, "resolved": "commit"}
            ]
            assert call(supervisor, index, op_depth(qname)) == 1


class TestReadyPipes:
    def test_kill_restart_and_close_close_every_ready_pipe(self, supervisor):
        """Each shard reports READY over a pipe to the supervisor: once
        its process is gone the pipe must be closed, or every spawn and
        restart leaks one file descriptor in the driver."""
        spawned = [shard.proc for shard in supervisor.shards]
        supervisor.kill(0)
        supervisor.restart(0)
        spawned.append(supervisor.shards[0].proc)
        supervisor.close()
        assert all(proc.stdout.closed for proc in spawned)
