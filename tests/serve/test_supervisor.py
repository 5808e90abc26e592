"""The shard supervisor: the distributed half of restart recovery
(in-doubt two-phase branches are settled from the coordinator shard's
decision log — and only from it), and the lifecycle of the shard
processes forked from its template.  Real shard processes, real SIGKILL.
"""

import gc
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

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
from repro.errors import ReproError
from repro.serve import supervisor as supervisor_module
from repro.serve.supervisor import ForkedShard, ShardSupervisor

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


def parent_of(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("PPid:"))


def running(pid: int) -> bool:
    """``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/status") as status:
            state = next(line for line in status if line.startswith("State:"))
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state.split()[1] not in ("Z", "X")


def gone(*pids: int) -> bool:
    """Every pid has ended (a killed process takes a moment to go)."""
    deadline = time.monotonic() + 5.0
    while any(running(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def forked(monkeypatch):
    """Every :class:`ForkedShard` the supervisor makes, in order, with
    its parent (the template) while it is still running: the pids of
    processes whose supervisor never reached the caller."""
    made = []

    class Recorded(ForkedShard):
        def __init__(self, pid):
            super().__init__(pid)
            try:
                self.parent = parent_of(pid)
            except FileNotFoundError:
                self.parent = None  # already gone
            made.append(self)

    monkeypatch.setattr(supervisor_module, "ForkedShard", Recorded)
    return made


def wal_segment(data_dir: str, index: int = 0) -> str:
    (name,) = os.listdir(os.path.join(data_dir, f"s{index}"))
    return os.path.join(data_dir, f"s{index}", name)


class TestReadyPipes:
    def test_kill_restart_and_close_close_every_ready_pipe(self, tmp_path):
        """Shards report READY over the template's pipe and are held by
        pidfd: once the supervisor is closed every pipe and pidfd must
        be too, or every spawn and restart leaks file descriptors in
        the driver."""
        before = open_fds()
        supervisor = ShardSupervisor(str(tmp_path), 2)
        for _ in range(3):
            supervisor.kill(0)
            supervisor.restart(0)
        supervisor.kill(1)  # left dead: close() must still clean up
        supervisor.close()
        assert open_fds() == before


class TestTemplate:
    def test_restarts_fork_from_one_template(self, supervisor):
        """Every shard is a child of the same template, which is the
        driver's child; restarts do not start another one."""
        template = parent_of(supervisor.shards[0].pid)
        assert template != os.getpid()
        assert parent_of(template) == os.getpid()
        assert parent_of(supervisor.shards[1].pid) == template
        for _ in range(2):
            before = supervisor.shards[0].pid
            supervisor.kill(0)
            supervisor.restart(0)
            assert supervisor.shards[0].pid != before
            assert parent_of(supervisor.shards[0].pid) == template

    def test_close_ends_the_template_and_every_shard(self, tmp_path):
        supervisor = ShardSupervisor(str(tmp_path), 2)
        pids = [shard.pid for shard in supervisor.shards]
        template = parent_of(pids[0])
        supervisor.close()
        assert gone(template, *pids)
        supervisor.close()  # idempotent

    def test_a_dropped_supervisor_ends_its_processes(self, tmp_path):
        supervisor = ShardSupervisor(str(tmp_path), 2)
        pids = [shard.pid for shard in supervisor.shards]
        template = parent_of(pids[0])
        del supervisor
        gc.collect()
        assert gone(template, *pids)

    def test_a_driver_prints_nothing_and_leaves_nothing(self, tmp_path):
        """The template and its shards never write to the driver's
        stdout (a benchmark's last line is its result), and a driver
        that exits without ``close()`` leaves no process behind."""
        script = (
            "import os, sys\n"
            "from repro.serve.supervisor import ShardSupervisor\n"
            f"supervisor = ShardSupervisor({str(tmp_path)!r}, 1)\n"
            "supervisor.kill(0)\n"
            "supervisor.restart(0)\n"
            "pid = supervisor.shards[0].pid\n"
            "with open(f'/proc/{pid}/status') as status:\n"
            "    ppid = [l.split()[1] for l in status if l.startswith('PPid:')]\n"
            "print(pid, *ppid, file=sys.stderr)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""
        shard, template = map(int, done.stderr.split())
        assert gone(shard, template)


class TestBootFailures:
    def test_ready_timeout_is_enforced(self, tmp_path, monkeypatch, forked):
        """A shard whose boot blocks (its WAL segment is a FIFO nobody
        writes) costs the supervisor READY_TIMEOUT, then it is killed."""
        supervisor = ShardSupervisor(str(tmp_path), 1)
        try:
            supervisor.kill(0)
            segment = wal_segment(str(tmp_path))
            os.remove(segment)
            os.mkfifo(segment)
            monkeypatch.setattr(supervisor_module, "READY_TIMEOUT", 0.5)
            started = time.monotonic()
            with pytest.raises(ReproError, match="did not report READY"):
                supervisor.restart(0)
            assert time.monotonic() - started < 5.0
            assert not supervisor.shards[0].alive
            assert gone(forked[-1].pid)
        finally:
            supervisor.close()

    def test_a_shard_that_dies_in_boot_fails_at_once(self, tmp_path,
                                                     forked):
        """Death before READY is seen on the shard's pidfd, not by
        waiting for READY_TIMEOUT on the pipe the shards share."""
        supervisor = ShardSupervisor(str(tmp_path), 1)
        try:
            supervisor.kill(0)
            segment = wal_segment(str(tmp_path))
            os.remove(segment)
            os.mkfifo(segment)
            booted = len(forked)

            def kill_the_blocked_shard():
                deadline = time.monotonic() + 5.0
                while len(forked) == booted and time.monotonic() < deadline:
                    time.sleep(0.005)
                forked[-1].kill()

            killer = threading.Thread(target=kill_the_blocked_shard,
                                      daemon=True)
            killer.start()
            started = time.monotonic()
            with pytest.raises(ReproError, match="exited before READY"):
                supervisor.restart(0)
            killer.join(timeout=5.0)
            assert not killer.is_alive()
            assert time.monotonic() - started < 5.0
        finally:
            supervisor.close()

    def test_a_failed_boot_stops_what_was_started(self, tmp_path, forked):
        """Shard 1 cannot boot (corrupt WAL): the constructor raises at
        once, and shard 0 and the template, which the caller has no
        object to close, are gone."""
        ShardSupervisor(str(tmp_path), 2).close()
        segment = wal_segment(str(tmp_path), 1)
        with open(segment, "r+b") as wal:
            magic = wal.read(1)[0]
            wal.seek(0)
            wal.write(bytes([magic ^ 1]))  # the segment header's magic
        del forked[:]
        with pytest.raises(ReproError, match="CorruptRecordError") as failed:
            ShardSupervisor(str(tmp_path), 2)
        # ``failed`` keeps the half-built supervisor reachable (through
        # the traceback), so nothing here rests on its collection.
        assert failed.tb is not None
        shard0, shard1 = forked
        assert shard0.parent not in (None, os.getpid())
        assert gone(shard0.parent, shard0.pid, shard1.pid)
