"""Spawn, kill and restart shard processes.

The supervisor turns ``node.kill`` from a simulated fault into a real
``SIGKILL``: the shard process dies mid-write like a power failure,
and :meth:`ShardSupervisor.restart` boots ``repro-shardd`` again over
the same data directory — real restart recovery over a real WAL.

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

import os
import re
import subprocess
import sys
import threading
import time
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


@dataclass
class ShardProcess:
    """One supervised shard subprocess."""

    index: int
    data_dir: str
    port: int = 0
    epoch: int = 0
    pid: int = 0
    proc: subprocess.Popen | None = field(default=None, repr=False)
    restarts: int = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


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
        for shard in self.shards:
            self._spawn(shard)

    # -- process control -------------------------------------------------

    def _spawn(self, shard: ShardProcess) -> None:
        argv = [
            sys.executable, "-m", "repro.serve.shardd",
            "--dir", shard.data_dir,
            "--port", str(shard.port),  # 0 on first boot, pinned after
            "--host", self.host,
            "--name", self.name,
            "--shard", str(shard.index),
            "--shards", str(self.shard_count),
            "--cc", self.cc,
        ]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        shard.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        self._wait_ready(shard)

    def _wait_ready(self, shard: ShardProcess) -> None:
        assert shard.proc is not None and shard.proc.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            if time.monotonic() > deadline:
                self._stop(shard)
                raise ReproError(
                    f"shard {shard.index} did not report READY in "
                    f"{READY_TIMEOUT}s"
                )
            line = shard.proc.stdout.readline()
            if not line:
                self._stop(shard)
                raise ReproError(
                    f"shard {shard.index} exited before READY "
                    f"(code {shard.proc.poll()})"
                )
            match = _READY_RE.match(line.strip())
            if match:
                shard.port = int(match.group("port"))
                shard.epoch = int(match.group("epoch"))
                shard.pid = int(match.group("pid"))
                return

    def kill(self, index: int) -> None:
        """SIGKILL shard ``index`` — a real crash, mid-write and all."""
        with self._mutex:
            self._stop(self.shards[index])

    @staticmethod
    def _stop(shard: ShardProcess) -> None:
        """SIGKILL the shard's process and close its READY pipe."""
        if shard.proc is not None:
            shard.proc.kill()  # a no-op on a process that already died
            shard.proc.wait()
            shard.proc.stdout.close()

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
            self._stop(shard)  # a shard that died by itself left its pipe open
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
        """Terminate every shard process (end of test/benchmark)."""
        for shard in self.shards:
            self._stop(shard)

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
