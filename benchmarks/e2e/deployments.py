"""The five workloads and the code that stands each one up, drives it
closed-loop, crashes it, checks it and tears it down.

A *front* is the way clients reach the system: :class:`ClerkFront`
drives ``Clerk`` objects from threads (one per client, Figure 1's one
outstanding request each); :class:`GatewayFront` drives
``GatewaySession`` coroutines on one event loop.  Both expose the same
few verbs, so the measurement code in :mod:`measure` is written once.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.core.devices import TicketPrinter
from repro.core.guarantees import GuaranteeChecker
from repro.core.request import Request, make_rid, rid_client, rid_sequence
from repro.core.system import TPSystem
from repro.errors import Busy, CommError, QueueEmpty
from repro.gateway import Gateway
from repro.sim.trace import TraceRecorder
from repro.storage.disk import Disk, MemDisk

from inputs import Inputs
from span_tools import Tracer, patch

#: a request with no matching reply inside this many seconds has failed
REPLY_TIMEOUT = 30.0
#: the documented client reaction to ``Busy`` (docs/deployment.md)
BUSY_SLEEP = 0.005
SERVER_POLL = 0.05
GATEWAY_DEPTH_LIMIT = 8


@dataclass(frozen=True)
class Workload:
    name: str
    front: str  # "clerk" | "gateway"
    deployment: str  # "inproc" | "tcp"
    shards: int
    clients: int
    bulk: bool = False
    #: the timed part is five kill/restart cycles, not five time windows
    crash_cycles: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("inproc_echo", "clerk", "inproc", shards=1, clients=2),
        Workload("tcp_echo", "clerk", "tcp", shards=1, clients=2),
        Workload("tcp_bulk", "clerk", "tcp", shards=1, clients=2, bulk=True),
        Workload("gateway_fanin", "gateway", "tcp", shards=2, clients=16),
        Workload("tcp_crash", "clerk", "tcp", shards=1, clients=2,
                 crash_cycles=True),
    )
}


class CheckFailed(Exception):
    """An output check did not hold; the run must not report numbers."""


# ---------------------------------------------------------------------------
# Process and directory hygiene
# ---------------------------------------------------------------------------


class Reaper:
    """Owns what a workload holds outside the interpreter: shard
    processes, their CPU placement, and data directories.  :meth:`reap`
    runs on every exit path (``finally`` in the callers, ``atexit`` in
    ``run.py``): an orphaned shard would steal CPU from the next
    workload.

    Placement: the driver keeps to the first CPU it is allowed and the
    shard processes to the rest.  A GIL-bound driver cannot use a second
    core anyway, and left to the scheduler its threads wander between
    the VM's two vCPUs, where every hand-off wakes a halted vCPU; how
    long the host takes over that changes by the second and moved
    ``inproc_echo`` between ~1 400 and ~2 900 req/s within one run.
    """

    def __init__(self, root: str):
        self.root = root
        self._supervisors: list[Any] = []
        self._dirs: list[str] = []
        self.driver_cpus: set[int] = set()
        self.shard_cpus: set[int] = set()

    def place_driver(self) -> None:
        """Pin the calling (main) thread; threads and processes started
        from it afterwards inherit the placement."""
        if not hasattr(os, "sched_setaffinity"):
            return
        allowed = sorted(os.sched_getaffinity(0))
        self.driver_cpus = {allowed[0]}
        self.shard_cpus = set(allowed[1:]) or self.driver_cpus
        os.sched_setaffinity(0, self.driver_cpus)

    def place_shards(self, supervisor: Any) -> None:
        """Move every thread of every shard process to the shard CPUs
        (a freshly spawned shard inherits the driver's)."""
        if not self.shard_cpus:
            return
        for shard in supervisor.shards:
            for tid in os.listdir(f"/proc/{shard.pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), self.shard_cpus)
                except ProcessLookupError:
                    pass  # a per-call worker thread that has since ended

    def data_dir(self, label: str) -> str:
        os.makedirs(self.root, exist_ok=True)
        path = tempfile.mkdtemp(prefix=f"{label}-", dir=self.root)
        self._dirs.append(path)
        return path

    def watch(self, supervisor: Any) -> None:
        self._supervisors.append(supervisor)
        self.place_shards(supervisor)

    def reap(self) -> None:
        supervisors, self._supervisors = self._supervisors, []
        for supervisor in supervisors:
            for shard in supervisor.shards:
                proc = shard.proc
                if proc is None:
                    continue
                if proc.poll() is None:
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                proc.wait()
                if proc.stdout is not None:
                    proc.stdout.close()
        dirs, self._dirs = self._dirs, []
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Timing disk (traced in-process pass only)
# ---------------------------------------------------------------------------


class TimingDisk(Disk):
    """A ``Disk`` decorator whose ``append`` and ``flush`` are spans."""

    def __init__(self, inner: Disk, tracer: Tracer):
        self.inner = inner
        self._append = tracer.wrap("storage.disk.append", inner.append)
        self._flush = tracer.wrap("storage.disk.flush", inner.flush)

    def append(self, area: str, data: bytes) -> int:
        return self._append(area, data)

    def flush(self, area: str) -> None:
        self._flush(area)

    def read(self, area: str) -> bytes:
        return self.inner.read(area)

    def replace(self, area: str, data: bytes) -> None:
        self.inner.replace(area, data)

    def truncate(self, area: str) -> None:
        self.inner.truncate(area)

    def delete(self, area: str) -> None:
        self.inner.delete(area)

    def areas(self) -> list[str]:
        return self.inner.areas()

    def size(self, area: str) -> int:
        return self.inner.size(area)


# ---------------------------------------------------------------------------
# Fronts
# ---------------------------------------------------------------------------


@dataclass
class RoundTrips:
    """Send and reply times of completed round trips (``perf_counter``)."""

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)

    def extend(self, other: "RoundTrips") -> None:
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)


def _more(done: int, count: int | None, deadline: float | None) -> bool:
    """Whether a closed-loop client should start another round trip."""
    return ((count is None or done < count)
            and (deadline is None or perf_counter() < deadline))


class Front:
    """What the two fronts share: the system, its one server thread,
    request numbering, and the output checks."""

    def __init__(self, workload: Workload, inputs: Inputs, reaper: Reaper,
                 tracer: Tracer | None = None):
        self.workload = workload
        self.inputs = inputs
        self.reaper = reaper
        self.tracer = tracer
        self.system: TPSystem | None = None
        self.server = None
        #: how many clients may hold a queued request while the server
        #: is down (the gateway's depth gate admits no more than its limit)
        self.outstanding = workload.clients
        # One slot per client: each is written by that client's thread only.
        self._sequence = [0] * workload.clients
        self._matched = [0] * workload.clients
        self.failed = 0
        self._pending: list[tuple[str, Any, float] | None] = [None] * workload.clients
        self._processed_before_restart = 0

    # -- set-up and tear-down -------------------------------------------

    def _build_system(self) -> TPSystem:
        if self.workload.deployment == "inproc":
            disk = None
            if self.tracer is not None:
                disk = TimingDisk(MemDisk(), self.tracer)
            return TPSystem(request_disk=disk)
        system = TPSystem(
            deployment="tcp", shards=self.workload.shards,
            data_dir=self.reaper.data_dir(self.workload.name),
        )
        self.reaper.watch(system.supervisor)
        return system

    def _handler(self):
        if self.tracer is None:
            return lambda _txn, request: request.body
        tag = self.tracer.tag

        def echo(_txn, request):
            tag(request.rid)
            return request.body

        return echo

    def _new_server(self) -> None:
        self.server = self.system.server("server", self._handler())
        if self.tracer is not None:
            patch(self.server, "process_one", lambda fn: self.tracer.wrap(
                "core.server.process_one", fn))

    def _trace_system(self) -> None:
        """Proxies over the objects every front shares."""
        tracer, system = self.tracer, self.system
        stub = ("queueing.manager" if self.workload.deployment == "inproc"
                else "serve.client")
        for op in ("enqueue", "dequeue"):
            patch(system.request_qm, op, lambda fn, op=op: tracer.wrap(
                f"{stub}.{op}", fn))
        patch(system.request_repo.tm, "commit", lambda fn: tracer.wrap(
            "transaction.commit", fn))
        for client in getattr(system.request_repo, "clients", ()):
            patch(client, "call", lambda fn: tracer.wrap("serve.rpc", fn))

    def start_server(self) -> None:
        self.server.start(poll_timeout=SERVER_POLL)

    def stop_server(self) -> None:
        self.server.stop()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.system is not None:
            self.system.close()

    # -- crash and restart ----------------------------------------------

    def kill(self) -> None:
        if self.workload.deployment == "inproc":
            self.system.crash()
        else:
            self.system.kill_shard(self._victim())

    def restart(self) -> None:
        if self.workload.deployment == "inproc":
            self._processed_before_restart += self.server.stats.processed
            self.system = self.system.reopen()
            self._new_server()
            self._reconnect()
        else:
            self.system.restart_shard(self._victim())
            self.reaper.place_shards(self.system.supervisor)

    def log_bytes(self) -> int:
        """Bytes the deployment has on its disks (logs, in the main)."""
        if self.workload.deployment == "inproc":
            disk = self.system.request_disk
            return sum(disk.size(area) for area in disk.areas())
        return sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _dirs, names in os.walk(self.system.data_dir)
            for name in names
        )

    def _victim(self) -> int:
        """The shard that owns the request queue: the worst one to lose."""
        return self.system.request_repo.shard_of(self.system.request_queue)

    def _reconnect(self) -> None:
        raise NotImplementedError

    # -- request bookkeeping --------------------------------------------

    def _next(self, index: int) -> tuple[str, Any]:
        self._sequence[index] += 1
        sequence = self._sequence[index]
        bodies = self.inputs.bodies
        return (make_rid(self.inputs.client_ids[index], sequence),
                bodies[sequence % len(bodies)])

    def _settle(self, index: int, rid: str, body: Any) -> float:
        """Match a received reply against the outstanding request;
        returns the request's Send time."""
        sent_rid, sent_body, started = self._pending[index]
        self._pending[index] = None
        if rid != sent_rid or body != sent_body:
            raise CheckFailed(
                f"client {self.inputs.client_ids[index]}: sent {sent_rid}, "
                f"received {rid} with a "
                f"{'matching' if body == sent_body else 'different'} body"
            )
        self._matched[index] += 1
        return started

    @property
    def attempted(self) -> int:
        return sum(self._sequence)

    @property
    def completed(self) -> int:
        return sum(self._matched)

    # -- output checks --------------------------------------------------

    def processed(self) -> int:
        return self._processed_before_restart + self.server.stats.processed

    def check(self) -> None:
        if self.failed or self.completed != self.attempted:
            raise CheckFailed(
                f"{self.attempted} requests sent, {self.completed} replies "
                f"matched, {self.failed} timed out"
            )
        depths = self.system.queue_depths()
        leftover = {name: depth for name, depth in depths.items() if depth}
        if leftover:
            raise CheckFailed(f"queues not empty at the end: {leftover}")
        if self.processed() != self.completed:
            raise CheckFailed(
                f"server committed {self.processed()} requests, clients "
                f"completed {self.completed}"
            )


class ClerkFront(Front):
    """Clients are ``Clerk`` objects, one thread each."""

    def setup(self) -> None:
        self.system = self._build_system()
        self._new_server()
        self.devices = [
            TicketPrinter(trace=self.system.trace)
            for _ in self.inputs.client_ids
        ]
        self._reconnect()
        if self.tracer is not None:
            self._trace_system()

    def _reconnect(self) -> None:
        self.clerks = [self.system.clerk(cid) for cid in self.inputs.client_ids]
        for clerk in self.clerks:
            clerk.connect()
            if self.tracer is not None:
                patch(clerk, "send", lambda fn: self.tracer.wrap(
                    "core.clerk.send", fn, rid_of=lambda args, _eid: args[1]))
                patch(clerk, "receive", lambda fn: self.tracer.wrap(
                    "core.clerk.receive", fn, rid_of=lambda _args, reply: reply.rid))

    def _send(self, index: int) -> None:
        clerk = self.clerks[index]
        rid, body = self._next(index)
        request = Request(rid=rid, body=body, client_id=clerk.client_id,
                          reply_to=clerk.reply_queue)
        self._pending[index] = (rid, body, perf_counter())
        clerk.send(request, rid)

    def _receive(self, index: int, trips: RoundTrips) -> None:
        device = self.devices[index]
        try:
            reply = self.clerks[index].receive(
                ckpt=device.state(), timeout=REPLY_TIMEOUT)
        except QueueEmpty:
            self.failed += 1
            raise CheckFailed(
                f"no reply to {self._pending[index][0]} in {REPLY_TIMEOUT}s")
        received = perf_counter()
        trips.starts.append(self._settle(index, reply.rid, reply.body))
        trips.ends.append(received)
        device.process(reply.rid, reply.body)

    def drive(self, seconds: float | None = None,
              count: int | None = None) -> RoundTrips:
        """Every client runs closed-loop round trips until ``seconds``
        have passed or it has completed ``count`` of them."""
        deadline = None if seconds is None else perf_counter() + seconds
        logs = [RoundTrips() for _ in self.clerks]
        errors: list[BaseException] = []

        def client(index: int) -> None:
            done = 0
            try:
                while _more(done, count, deadline):
                    self._send(index)
                    self._receive(index, logs[index])
                    done += 1
            except BaseException as exc:  # re-raised by the caller below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(index,), name=f"client-{index}")
            for index in range(len(self.clerks))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        merged = RoundTrips()
        for log in logs:
            merged.extend(log)
        return merged

    def step(self, index: int) -> None:
        """One round trip single-stepped: the server is called by hand."""
        self._send(index)
        if not self.server.process_one():
            raise CheckFailed("the server found no request to process")
        self._receive(index, RoundTrips())

    def send_all(self) -> None:
        for index in range(self.outstanding):
            self._send(index)

    def receive_all(self) -> RoundTrips:
        trips = RoundTrips()
        for index in range(self.outstanding):
            self._receive(index, trips)
        return trips

    def check(self) -> None:
        super().check()
        check_guarantees(self.system.trace)


class GatewayFront(Front):
    """Clients are ``GatewaySession`` coroutines on one event loop, run
    from the calling thread for the length of each verb."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outstanding = min(self.workload.clients, GATEWAY_DEPTH_LIMIT)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.gateway: Gateway | None = None
        self.busy = 0

    def setup(self) -> None:
        self.system = self._build_system()
        self._new_server()
        self.loop = asyncio.new_event_loop()
        self.gateway = Gateway(
            [("127.0.0.1", shard.port) for shard in self.system.supervisor.shards],
            request_queue=self.system.request_queue,
            depth_limit=GATEWAY_DEPTH_LIMIT, backpressure=True,
        )
        if self.tracer is not None:
            self._trace_system()
            for pool in self.gateway.pools:
                patch(pool, "call", lambda fn: self.tracer.wrap_async(
                    "gateway.rpc", fn))
        self.loop.run_until_complete(self._open_sessions())

    async def _open_sessions(self) -> None:
        await self.gateway.start()
        self.sessions = [
            await self.gateway.session(cid) for cid in self.inputs.client_ids
        ]
        if self.tracer is not None:
            for session in self.sessions:
                patch(session, "submit", lambda fn: self.tracer.wrap_async(
                    "gateway.submit", fn, rid_of=lambda _args, rid: rid))
                patch(session, "receive", lambda fn: self.tracer.wrap_async(
                    "gateway.receive", fn, rid_of=lambda _args, reply: reply["rid"]))

    def teardown(self) -> None:
        if self.loop is not None:
            if self.gateway is not None:
                self.loop.run_until_complete(self.gateway.close())
            self.loop.close()
        super().teardown()

    def kill(self) -> None:
        super().kill()

        async def notice() -> None:
            for _ in range(5):
                await asyncio.sleep(0)

        # A live gateway's loop would be running through the outage and
        # see its connections drop at once.  This one only runs inside
        # the verbs, so give it the few turns that takes; otherwise the
        # first call after the restart goes out on a dead socket.
        self.loop.run_until_complete(notice())

    async def _send(self, index: int) -> None:
        session = self.sessions[index]
        expected, body = self._next(index)
        self._pending[index] = (expected, body, perf_counter())
        while True:
            try:
                rid = await session.submit(body)
                break
            except Busy:  # refused, not failed: nothing was accepted
                self.busy += 1
                await asyncio.sleep(BUSY_SLEEP)
        if rid != expected:
            raise CheckFailed(f"gateway numbered {expected} as {rid}")

    async def _receive(self, index: int, trips: RoundTrips) -> None:
        session = self.sessions[index]
        for _attempt in range(5):
            try:
                reply = await session.receive(timeout=REPLY_TIMEOUT)
                break
            except CommError:
                # The pooled connection predates a shard restart; the
                # call never reached the new process.  Ask again.
                continue
            except QueueEmpty:
                self.failed += 1
                raise CheckFailed(
                    f"no reply to {self._pending[index][0]} in {REPLY_TIMEOUT}s")
        else:
            raise CheckFailed("gateway could not reach the restarted shard")
        received = perf_counter()
        trips.starts.append(self._settle(index, reply["rid"], reply["body"]))
        trips.ends.append(received)

    def drive(self, seconds: float | None = None,
              count: int | None = None) -> RoundTrips:
        deadline = None if seconds is None else perf_counter() + seconds
        trips = RoundTrips()

        async def client(index: int) -> None:
            done = 0
            while _more(done, count, deadline):
                await self._send(index)
                await self._receive(index, trips)
                done += 1

        async def everyone() -> None:
            await asyncio.gather(*(client(i) for i in range(len(self.sessions))))

        self.loop.run_until_complete(everyone())
        return trips

    def step(self, index: int) -> None:
        self.loop.run_until_complete(self._send(index))
        if not self.server.process_one():
            raise CheckFailed("the server found no request to process")
        self.loop.run_until_complete(self._receive(index, RoundTrips()))

    def send_all(self) -> None:
        async def go() -> None:
            for index in range(self.outstanding):
                await self._send(index)

        self.loop.run_until_complete(go())

    def receive_all(self) -> RoundTrips:
        trips = RoundTrips()

        async def go() -> None:
            await asyncio.gather(
                *(self._receive(i, trips) for i in range(self.outstanding)))

        self.loop.run_until_complete(go())
        return trips


def make_front(workload: Workload, inputs: Inputs, reaper: Reaper,
               tracer: Tracer | None = None) -> Front:
    cls = ClerkFront if workload.front == "clerk" else GatewayFront
    return cls(workload, inputs, reaper, tracer)


# ---------------------------------------------------------------------------
# Guarantee check
# ---------------------------------------------------------------------------

#: requests per client per checker slice
_SLICE = 1000


def check_guarantees(trace: TraceRecorder) -> None:
    """``GuaranteeChecker.assert_ok`` over the whole trace, in slices.

    The checker's request-reply matching is quadratic in requests per
    client (5.7 s for 12 000), so the trace is split by client and
    sequence range into sub-traces that each hold every event of the
    requests they name.  Order *across* slices is covered by
    :meth:`Front._settle`, which insists that each Receive answers the
    Send just made.
    """
    slices: dict[tuple[str, int], TraceRecorder] = {}
    for event in trace:
        if event.rid is None:
            continue
        key = (rid_client(event.rid), rid_sequence(event.rid) // _SLICE)
        part = slices.get(key)
        if part is None:
            part = slices[key] = TraceRecorder()
        part.record(event.kind, event.rid, **event.detail)
    for part in slices.values():
        try:
            GuaranteeChecker(part).assert_ok()
        except AssertionError as exc:
            raise CheckFailed(str(exc)) from exc
