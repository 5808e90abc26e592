"""``repro-shardd`` — host one repository shard over TCP.

Usage::

    repro-shardd --dir /var/lib/repro/s0 --port 7401
    repro-shardd --dir ./s1 --port 0 --name reqnode --shard 1 --shards 2

Booting over a non-empty directory *is* restart recovery: the WAL is
replayed, prepared two-phase branches come back in doubt (resolved by
the supervisor against the other shards' decision records), and a
durable coordinator-epoch record is forced so global transaction ids
minted against this incarnation can never collide with decision
records from before the crash.

The process prints one machine-readable handshake line once it is
serving::

    READY name=<shard-name> port=<port> epoch=<epoch> pid=<pid>

(:class:`~repro.serve.supervisor.ShardSupervisor` waits for this line;
``--port 0`` asks the OS for a free port and the handshake reports the
one assigned.)  It then serves until killed — there is no graceful
shutdown on purpose: the whole point of running shards as processes is
that ``SIGKILL`` exercises the same recovery a power failure would.

:func:`template` is the supervisor's warm fork server: one process
that has imported this module, stays single-threaded, and forks each
shard it is asked for.  The child runs the same :func:`serve` as the
command line — it opens its data directory, replays the WAL and prints
the READY line — so a restart is still restart recovery from disk; it
skips only the interpreter boot and the imports.  The template itself
never opens a data directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from repro.comm.transport import TcpListener
from repro.queueing.manager import QueueManager
from repro.queueing.repository import QueueRepository
from repro.queueing.sharded import boot_epoch, shard_name
from repro.serve.service import ShardService
from repro.storage.disk import FileDisk
from repro.transaction.cc import CC_POLICIES
from repro.transaction.deterministic import DeterministicLane


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-shardd",
        description=(
            "Host one queue-repository shard (WAL, locks, transaction "
            "manager, two-phase-commit branch service) over the framed "
            "TCP wire protocol."
        ),
    )
    parser.add_argument(
        "--dir", required=True,
        help="data directory for this shard's disk (created if missing; "
             "a non-empty directory is recovered on boot)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (default 0: OS-assigned, reported "
             "in the READY handshake line)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--name", default="reqnode",
        help="system (facade) name this shard belongs to (default reqnode)",
    )
    parser.add_argument(
        "--shard", type=int, default=0,
        help="this shard's index within the system (default 0)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="total shard count of the system; with 1 the shard keeps "
             "the bare system name, matching the in-process layout",
    )
    parser.add_argument(
        "--cc", choices=CC_POLICIES, default="2pl",
        help="concurrency-control policy for auto-commit queue "
             "operations: 2pl (default), or deterministic to run "
             "queue-shaped transactions on the deterministic lane",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=256,
        help="server-side admission bound: calls executing concurrently "
             "before the listener stops reading new frames, and so the "
             "most resident worker threads it keeps (default 256)",
    )
    return parser


def serve(args: argparse.Namespace) -> TcpListener:
    """Recover the shard, start serving, print the READY handshake.
    Split from :func:`main` so tests can drive a shard in process."""
    os.makedirs(args.dir, exist_ok=True)
    name = shard_name(args.name, args.shard, args.shards)
    repo = QueueRepository(name, FileDisk(args.dir))
    # The same boot the in-process sharded facade gives each shard.
    epoch = boot_epoch(repo)
    lane = DeterministicLane(repo) if args.cc != "2pl" else None
    qm = QueueManager(repo, lane=lane)
    service = ShardService(repo, epoch=epoch, qm=qm)
    listener = TcpListener(
        service.handle, host=args.host, port=args.port,
        max_inflight=args.max_inflight,
    )
    print(
        f"READY name={name} port={listener.port} "
        f"epoch={epoch} pid={os.getpid()}",
        flush=True,
    )
    return listener


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    serve(args)
    # Serve until killed (SIGKILL is the supported shutdown: restart
    # recovery is the cleanup).
    threading.Event().wait()
    return 0  # pragma: no cover - unreachable


def template() -> None:
    """Fork one shard per line of stdin, until EOF.

    Each line is a JSON list of ``repro-shardd`` arguments.  The
    template answers ``PID <pid>`` on stdout; the child prints its
    READY line on the same pipe, or ``FAILED pid=<pid> <error>`` if it
    cannot boot, and then exits.  ``SIGCHLD`` is ignored, so the kernel
    reaps the shards: their parent never waits for them."""
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    for line in sys.stdin.buffer:
        argv = json.loads(line)
        # A fork copies only the calling thread: any other one would be
        # missing, its locks held forever, in every shard.
        assert threading.active_count() == 1
        pid = os.fork()
        if pid == 0:
            _forked_shard(argv)
        os.write(1, f"PID {pid}\n".encode())


def _forked_shard(argv: list[str]) -> None:
    """The child side of :func:`template`.  It never returns and never
    re-raises: either would run the template's loop in the shard."""
    try:
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, 0)  # the template alone reads the requests
        serve(build_parser().parse_args(argv))
        # After READY the shard writes nothing to the template's pipe.
        os.dup2(devnull, 1)
        os.close(devnull)
        threading.Event().wait()
    except BaseException as exc:
        os.write(1, f"FAILED pid={os.getpid()} {exc!r}\n".encode())
    finally:
        os._exit(1)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
