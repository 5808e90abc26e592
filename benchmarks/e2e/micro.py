"""Isolated micro-calls into each layer's public functions.

Every number is the median of individually timed calls after a
warm-up, in µs (``serve.supervisor.spawn_s`` in seconds).  The inputs
are seeded like the workloads' so that a codec or frame timing is for
the same bytes the workloads carry.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Callable

from repro.comm.transport import TcpListener, TcpTransport
from repro.comm.wire import KIND_CALL, FrameReader, encode_frame
from repro.core.request import Request
from repro.core.system import TPSystem
from repro.queueing.element import Element
from repro.queueing.manager import QueueManager
from repro.queueing.repository import QueueRepository
from repro.serve.client import RemoteRepository, RemoteShardedQueueManager
from repro.serve.supervisor import ShardSupervisor
from repro.storage import codec
from repro.storage.disk import FileDisk, MemDisk
from repro.storage.wal import WriteAheadLog

from deployments import Reaper
from inputs import make_inputs

#: timed calls per micro-call, after ``CALLS // 10`` warm-up calls
CALLS = 2000
#: for calls that force a real disk: each costs milliseconds, and the
#: median of 400 is as steady as the sandbox's fsync allows
FORCED_CALLS = 400
SPAWNS = 3
DEEP_QUEUE = 10_000


def _median_us(call: Callable[[], Any], calls: int) -> float:
    for _ in range(max(1, calls // 10)):
        call()
    times = []
    for _ in range(calls):
        started = perf_counter()
        call()
        times.append(perf_counter() - started)
    return 1e6 * statistics.median(times)


def _enqueue_dequeue_us(qm: Any, handle: Any, body: Any,
                        calls: int) -> tuple[float, float]:
    """Auto-commit enqueue then dequeue, timed apart, so the queue's
    depth is the same at every call."""
    enqueues, dequeues = [], []
    for index in range(calls + calls // 10):
        t0 = perf_counter()
        qm.enqueue(handle, body, tag=index)
        t1 = perf_counter()
        qm.dequeue(handle, tag=index)
        t2 = perf_counter()
        if index >= calls // 10:
            enqueues.append(t1 - t0)
            dequeues.append(t2 - t1)
    return 1e6 * statistics.median(enqueues), 1e6 * statistics.median(dequeues)


def _request_body(client: str, sequence: int, body: Any) -> dict[str, Any]:
    rid = f"{client}#{sequence}"
    return Request(rid=rid, body=body, client_id=client,
                   reply_to=f"reply.{client}").to_body()


def _enqueue_call(body: Any) -> dict[str, Any]:
    """The canonical wire call: a clerk's Send of ``body``."""
    return {
        "op": "enqueue",
        "handle": {"repository": "reqnode", "queue": "req.q", "registrant": "c0"},
        "body": _request_body("c0", 1, body), "tag": "c0#1", "txn": None,
        "priority": 0, "headers": {"rid": "c0#1", "reply_to": "reply.c0"},
    }


def _element_record(body: Any) -> dict[str, Any]:
    """The canonical log payload: a queued request element."""
    return Element(
        eid=1, body=_request_body("c0", 1, body), enqueue_seq=1,
        headers={"rid": "c0#1", "reply_to": "reply.c0"},
    ).to_record()


def run_micro(seed: int, reaper: Reaper, scale: float = 1.0) -> dict[str, float]:
    """Every micro-call.  ``scale`` shrinks the call counts (smoke runs)."""
    small = make_inputs("micro", seed, clients=1, shards=1, bulk=False).bodies[0]
    large = make_inputs("micro", seed, clients=1, shards=1, bulk=True).bodies[0]
    calls = max(20, round(CALLS * scale))
    forced = max(20, round(FORCED_CALLS * scale))
    out: dict[str, float] = {}
    out.update(_codec(small, large, calls))
    out.update(_wire(small, large, calls))
    out.update(_wal(reaper, calls, forced))
    out.update(_queueing(small, calls, round(DEEP_QUEUE * scale)))
    out.update(_transaction(small, calls))
    out.update(_transport(small, calls))
    out.update(_serve(small, reaper, calls, forced))
    return out


def _codec(small: Any, large: Any, calls: int) -> dict[str, float]:
    out = {}
    for label, body in (("64", small), ("8k", large)):
        record = _element_record(body)
        data = codec.encode(record)
        out[f"storage.codec.encode_us_{label}"] = _median_us(
            lambda: codec.encode(record), calls)
        out[f"storage.codec.decode_us_{label}"] = _median_us(
            lambda: codec.decode(data), calls)
    view = memoryview(codec.encode(_element_record(large)))
    out["storage.codec.decode_mv_us_8k"] = _median_us(
        lambda: codec.decode_from(view, 0), calls)
    return out


def _wire(small: Any, large: Any, calls: int) -> dict[str, float]:
    out = {}
    for label, body in (("64", small), ("8k", large)):
        call = _enqueue_call(body)
        frame = encode_frame(KIND_CALL, 7, call)
        reader = FrameReader()
        out[f"comm.wire.encode_us_{label}"] = _median_us(
            lambda: encode_frame(KIND_CALL, 7, call), calls)
        out[f"comm.wire.decode_us_{label}"] = _median_us(
            lambda: list(reader.feed(frame)), calls)
    out["comm.wire.frame_bytes_64"] = len(
        encode_frame(KIND_CALL, 7, _enqueue_call(small)))
    return out


def _wal(reaper: Reaper, calls: int, forced_calls: int) -> dict[str, float]:
    record = bytes(200)
    log = WriteAheadLog(MemDisk())
    out = {"storage.wal.append_us": _median_us(
        lambda: log.append_many([record]), calls)}
    disk = FileDisk(reaper.data_dir("micro-wal"))
    try:
        forced = WriteAheadLog(disk)
        out["storage.wal.force_us"] = _median_us(
            lambda: forced.append_flush(record), forced_calls)
    finally:
        disk.close()
        reaper.reap()
    return out


def _queueing(body: Any, calls: int, deep: int) -> dict[str, float]:
    def manager() -> tuple[QueueManager, Any]:
        repo = QueueRepository("micro", MemDisk())
        repo.create_queue("q")
        qm = QueueManager(repo)
        handle, _tag, _eid = qm.register("q", "m", stable=True)
        return qm, handle

    qm, handle = manager()
    enqueue_us, dequeue_us = _enqueue_dequeue_us(qm, handle, body, calls)
    qm, handle = manager()
    for index in range(deep):
        qm.enqueue(handle, body, tag=["deep", index])
    _deep_enqueue_us, deep_dequeue_us = _enqueue_dequeue_us(qm, handle, body, calls)
    return {
        "queueing.enqueue_us": enqueue_us,
        "queueing.dequeue_us": dequeue_us,
        "queueing.dequeue_deep_us": deep_dequeue_us,
    }


def _transaction(body: Any, calls: int) -> dict[str, float]:
    out = {}
    # One shard: begin, one enqueue, commit (one log force).
    system = TPSystem()
    system.request_repo.create_queue("m.q")
    handle, _, _ = system.request_qm.register("m.q", "m", stable=False)
    tm = system.request_repo.tm

    def one_shard() -> None:
        txn = tm.begin()
        system.request_qm.enqueue(handle, body, txn=txn)
        tm.commit(txn)

    out["transaction.commit_us"] = _median_us(one_shard, calls)
    system.close()

    # Two shards: the same, with an enqueue on each, so two-phase commit.
    system = TPSystem(shards=2)
    repo = system.request_repo
    names: dict[int, str] = {}
    index = 0
    while len(names) < 2:
        names.setdefault(repo.shard_of(f"m.q{index}"), f"m.q{index}")
        index += 1
    handles = []
    for name in names.values():
        repo.create_queue(name)
        handles.append(system.request_qm.register(name, "m", stable=False)[0])

    def two_shards() -> None:
        txn = repo.tm.begin()
        for queue_handle in handles:
            system.request_qm.enqueue(queue_handle, body, txn=txn)
        repo.tm.commit(txn)

    out["transaction.twophase_commit_us"] = _median_us(two_shards, calls)
    system.close()
    return out


def _transport(body: Any, calls: int) -> dict[str, float]:
    call = _enqueue_call(body)
    listener = TcpListener(lambda payload: payload)
    transport = TcpTransport(listener.host, listener.port)
    try:
        return {"comm.transport.rtt_us": _median_us(
            lambda: transport.request(call), calls)}
    finally:
        transport.close()
        listener.close()


def _serve(body: Any, reaper: Reaper, calls: int,
           forced_calls: int) -> dict[str, float]:
    out = {}
    spawns = []
    try:
        for _ in range(SPAWNS):
            started = perf_counter()
            supervisor = ShardSupervisor(reaper.data_dir("micro-spawn"), 1)
            spawns.append(perf_counter() - started)
            reaper.watch(supervisor)
            reaper.reap()
        out["serve.supervisor.spawn_s"] = statistics.median(spawns)

        supervisor = ShardSupervisor(reaper.data_dir("micro-serve"), 1)
        reaper.watch(supervisor)
        endpoint = ("127.0.0.1", supervisor.shards[0].port)
        repo = RemoteRepository("reqnode", [endpoint])
        try:
            repo.create_queue("m.q")
            client = repo.clients[0]
            out["serve.call_rtt_us"] = _median_us(
                lambda: client.call({"op": "depth", "queue": "m.q"}), calls)
            qm = RemoteShardedQueueManager(repo)
            handle, _, _ = qm.register("m.q", "m", stable=True)
            out["serve.enqueue_us"], out["serve.dequeue_us"] = (
                _enqueue_dequeue_us(qm, handle, body, forced_calls))
        finally:
            repo.close()
    finally:
        reaper.reap()
    return out
