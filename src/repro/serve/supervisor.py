"""Spawn, kill and restart shard processes.

The supervisor turns ``node.kill`` from a simulated fault into a real
``SIGKILL``: the shard process dies mid-write like a power failure,
and :meth:`ShardSupervisor.restart` boots the shard again over the
same data directory — real restart recovery over a real WAL.

Shards are forked from a warm *template*
(:func:`repro.serve.shardd.template`), one per supervisor: a process
that has imported the shard's code once and forks a child per boot.
The child runs the same ``serve()`` as ``repro-shardd`` — it opens its
data directory, replays the WAL, binds its port and prints the READY
line — so a restart costs a fork plus the replay instead of an
interpreter boot and ~60 module imports.  The template never opens a
data directory: every shard's state comes from disk.  Shards are held
by pidfd (:class:`ForkedShard`); they are the template's children,
which the kernel reaps.

After every restart the supervisor runs the distributed half of
recovery that a lone shard cannot: prepared two-phase branches come
back *in doubt*, and their global ids name the coordinator shard whose
log holds (or, by presumed abort, does not hold) the decision.  The
supervisor asks that shard and resolves each branch, releasing its
locks — the process-level analogue of
``ShardedRepository._resolve_in_doubt``.

Ports are assigned by the OS on first boot (``--port 0``) and pinned
on restart (``SO_REUSEADDR``), so client transports simply reconnect
to the same address and their seeded backoff rides out the recovery
window.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field

from repro.comm.transport import TcpTransport
from repro.errors import CommError, ReproError
from repro.queueing.sharded import coordinator_shard
from repro.serve.client import ShardClient
from repro.transaction.cc import check_cc_policy

#: seconds to wait for a shard's READY handshake line
READY_TIMEOUT = 30.0

_READY_RE = re.compile(
    r"^READY name=(?P<name>\S+) port=(?P<port>\d+) "
    r"epoch=(?P<epoch>\d+) pid=(?P<pid>\d+)$"
)
#: the pid a forked shard names in its READY or FAILED line
_SHARD_PID_RE = re.compile(r"^(?:READY|FAILED) .*?\bpid=(?P<pid>\d+)")


class ForkedShard:
    """A shard process held by pidfd.

    It has the part of the :class:`subprocess.Popen` interface that the
    supervisor and its callers use — ``pid``, ``poll()``, ``wait()``,
    ``kill()`` and ``stdout`` (always ``None``) — for a process that is
    not the caller's child.  Its exit status is therefore not
    observable: once it is gone, ``poll()`` and ``wait()`` answer -1."""

    stdout = None

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode: int | None = None
        try:
            self._fd: int | None = os.pidfd_open(pid)
        except ProcessLookupError:  # already gone and reaped
            self._fd = None
            self.returncode = -1

    def fileno(self) -> int | None:
        """The pidfd, readable once the process is gone (None after)."""
        return self._fd

    def poll(self) -> int | None:
        return self._ended(0)

    def wait(self) -> int:
        return self._ended(None)

    def _ended(self, timeout: float | None) -> int | None:
        if self._fd is not None and select.select(
                [self._fd], [], [], timeout)[0]:
            os.close(self._fd)
            self._fd = None
            self.returncode = -1
        return self.returncode

    def kill(self) -> None:
        if self._fd is not None:
            try:
                signal.pidfd_send_signal(self._fd, signal.SIGKILL)
            except ProcessLookupError:
                pass  # already gone, not yet seen by wait()


class _Template:
    """The driver's end of one fork server: requests go down its stdin,
    and its stdout carries the template's ``PID`` answers and the
    forked shards' READY/FAILED lines."""

    def __init__(self) -> None:
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.serve.shardd import template; template()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, bufsize=0,
        )
        self._pending = b""

    def fork(self, argv: list[str]) -> None:
        try:
            self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        except OSError as exc:
            raise ReproError(f"shard template is gone ({exc})") from None

    def read(self, timeout: float, shard: ForkedShard | None) -> list[str]:
        """The complete lines that arrive within ``timeout`` seconds;
        returns early, maybe with none, when ``shard`` dies."""
        out = self.proc.stdout.fileno()
        watched = [out]
        if shard is not None and shard.fileno() is not None:
            watched.append(shard.fileno())
        ready = select.select(watched, [], [], timeout)[0]
        while out in ready:
            chunk = os.read(out, 65536)
            if not chunk:  # the template and every shard it forked
                raise ReproError("shard template exited")
            self._pending += chunk
            ready = select.select([out], [], [], 0)[0]
        *lines, self._pending = self._pending.split(b"\n")
        return [line.decode() for line in lines]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class ShardProcess:
    """One supervised shard process."""

    index: int
    data_dir: str
    port: int = 0
    epoch: int = 0
    pid: int = 0
    proc: ForkedShard | None = field(default=None, repr=False)
    restarts: int = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


def _shut_down(shards: list[ShardProcess], template: _Template) -> None:
    """Kill every shard, then end the template.  Runs once: from
    :meth:`ShardSupervisor.close`, or when the supervisor is collected,
    or at interpreter exit."""
    for shard in shards:
        ShardSupervisor._stop(shard)
    template.close()


class ShardSupervisor:
    """Lifecycle manager for the shard processes of one system."""

    def __init__(
        self,
        root_dir: str,
        shards: int,
        name: str = "reqnode",
        cc: str = "2pl",
        host: str = "127.0.0.1",
    ):
        self.root_dir = root_dir
        self.name = name
        self.cc = check_cc_policy(cc)
        self.host = host
        self.shard_count = shards
        self.shards: list[ShardProcess] = []
        self._mutex = threading.Lock()
        for index in range(shards):
            data_dir = os.path.join(root_dir, f"s{index}")
            os.makedirs(data_dir, exist_ok=True)
            self.shards.append(ShardProcess(index=index, data_dir=data_dir))
        self._template = _Template()
        self._shut_down = weakref.finalize(
            self, _shut_down, self.shards, self._template)
        try:
            for shard in self.shards:
                self._spawn(shard)
        except BaseException:
            self.close()  # the caller never gets the object to close
            raise

    # -- process control -------------------------------------------------

    def _spawn(self, shard: ShardProcess) -> None:
        """Fork the shard from the template and wait for its READY."""
        deadline = time.monotonic() + READY_TIMEOUT
        shard.proc = None
        self._template.fork([
            "--dir", shard.data_dir,
            "--port", str(shard.port),  # 0 on first boot, pinned after
            "--host", self.host,
            "--name", self.name,
            "--shard", str(shard.index),
            "--shards", str(self.shard_count),
            "--cc", self.cc,
        ])
        try:
            match = self._await_boot(shard, deadline)
        except BaseException:
            self._stop(shard)
            raise
        shard.port = int(match.group("port"))
        shard.epoch = int(match.group("epoch"))
        shard.pid = int(match.group("pid"))

    def _await_boot(self, shard: ShardProcess,
                    deadline: float) -> re.Match[str]:
        """Read the template's pipe until the forked shard reports
        READY; raise if it fails, dies or runs out of time first."""
        told: dict[int, str] = {}  # shard pid -> its READY/FAILED line
        while True:
            # A shard's last words precede its death: once it is gone,
            # one more read without waiting collects them.
            died = shard.proc is not None and shard.proc.poll() is not None
            timeout = 0.0 if died else deadline - time.monotonic()
            for line in self._template.read(max(timeout, 0.0), shard.proc):
                if line.startswith("PID "):
                    shard.proc = ForkedShard(int(line[4:]))
                elif match := _SHARD_PID_RE.match(line):
                    told[int(match.group("pid"))] = line
            if shard.proc is not None and shard.proc.pid in told:
                line = told[shard.proc.pid]
                if match := _READY_RE.match(line):
                    return match
                raise ReproError(f"shard {shard.index} did not boot: {line}")
            if died:
                raise ReproError(f"shard {shard.index} exited before READY")
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"shard {shard.index} did not report READY in "
                    f"{READY_TIMEOUT}s"
                )

    def kill(self, index: int) -> None:
        """SIGKILL shard ``index`` — a real crash, mid-write and all."""
        with self._mutex:
            self._stop(self.shards[index])

    @staticmethod
    def _stop(shard: ShardProcess) -> None:
        """SIGKILL the shard's process and wait until it is gone."""
        if shard.proc is not None:
            shard.proc.kill()  # a no-op on a process that already died
            shard.proc.wait()

    def restart(self, index: int) -> None:
        """Boot shard ``index`` again over its data directory (restart
        recovery), then resolve the in-doubt two-phase branches its
        return makes decidable: its own against the other shards'
        decision records, and theirs against its."""
        shard = self.shards[index]
        with self._mutex:
            if shard.proc is not None and shard.proc.poll() is None:
                return  # already running
            shard.restarts += 1
            self._stop(shard)  # closes the pidfd of one that died by itself
            self._spawn(shard)
        self.resolve_in_doubt(index)
        # Branches on the other live shards may have been waiting on
        # this shard's decision log.  Best effort: one that is going
        # down meanwhile runs this sweep again at its own restart.
        for other in self.shards:
            if other.index != index and other.alive:
                try:
                    self.resolve_in_doubt(other.index)
                except CommError:
                    pass

    def close(self) -> None:
        """Kill every shard process and end the template (end of
        test/benchmark).  Idempotent; dropping the supervisor does the
        same when it is collected."""
        self._shut_down()

    # -- distributed in-doubt resolution --------------------------------

    def _client(self, index: int) -> ShardClient:
        return ShardClient(TcpTransport(self.host, self.shards[index].port))

    coordinator_shard = staticmethod(coordinator_shard)

    def resolve_in_doubt(self, index: int) -> int:
        """Settle the in-doubt branches of shard ``index``.

        Presumed abort: the branch commits only if the coordinator
        shard has a durable commit decision.  Only that shard can say
        so — while it is down the branch stays in doubt (locks held)
        rather than being guessed at; its own restart settles it.
        Returns the number of branches resolved."""
        client = self._client(index)
        resolved = 0
        try:
            for branch in client.call({"op": "in_doubt"}):
                if branch["resolved"] is not None:
                    continue
                gid = branch["gid"]
                coordinator = self.coordinator_shard(gid)
                if coordinator != index and not self.shards[coordinator].alive:
                    continue
                asked = (client if coordinator == index
                         else self._client(coordinator))
                try:
                    decision = asked.call({"op": "txn_decision", "gid": gid})
                except CommError:
                    continue  # died under us: same as not alive
                finally:
                    if asked is not client:
                        asked.close()
                client.call(
                    {"op": "txn_resolve", "gid": gid, "decision": decision}
                )
                resolved += 1
        finally:
            client.close()
        return resolved
