"""What one run of one workload measures, and how.

* :func:`end_to_end` — the untraced run: one deployment for the timed
  part, then a few more set-ups (each ending in one crash cycle) so that
  ``setup_s`` and ``recovery_s`` are not single draws.
* :func:`traced` — the same timed part with timing proxies installed;
  yields the per-layer self times.
* :func:`count_pass` — 200 single-stepped requests with no timers and no
  second thread; yields the counts that must repeat exactly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from deployments import Front, Reaper, Workload, make_front
from inputs import Inputs
from span_tools import (
    Span,
    Tracer,
    inherit_rids,
    median_us,
    per_request,
    self_times,
)
from stat_tools import Window, split_windows, summarize

WINDOWS = 40
#: ``tcp_crash``: kill/restart cycles, each one window
CYCLES = 5
#: warm-up, as a share of ``--seconds``, run before the first window
WARMUP_SHARE = 0.1
#: set-ups per untraced run, at least; every one after the first is a probe
#: deployment that ends in a crash cycle
SETUPS = 7
#: ... and probes go on until they have taken this long, so that a workload
#: whose set-up and recovery take a millisecond gets a dozen draws of them
PROBE_SECONDS = 2.0
#: round trips a probe deployment completes before its crash (all clients)
PROBE_REQUESTS = 96
#: ``tcp_crash``: round trips per clerk per cycle, per second of ``--seconds``
CYCLE_TRIPS_PER_SECOND = 25
COUNT_REQUESTS = 200


@dataclass
class Crash:
    recovery_s: float  # kill -> first reply received after the restart
    restart_s: float  # kill -> restart returned
    log_bytes: int  # on disk when the kill landed


@dataclass
class TimedPart:
    windows: list[Window]
    #: when the windows ran, as ``perf_counter`` intervals
    intervals: list[tuple[float, float]]
    crashes: list[Crash] = field(default_factory=list)


def crash_cycle(front: Front) -> Crash:
    """Pause the server at an operation boundary, queue one request per
    client, kill, restart, resume, and let the clients Receive.  The
    kill lands between calls on purpose: mid-call kills are the chaos
    engine's business, not that of a number that must repeat."""
    front.stop_server()
    front.send_all()
    log_bytes = front.log_bytes()
    killed = perf_counter()
    front.kill()
    front.restart()
    restarted = perf_counter()
    front.start_server()
    trips = front.receive_all()
    return Crash(min(trips.ends) - killed, restarted - killed, log_bytes)


def steady(front: Front, seconds: float) -> TimedPart:
    """Warm up, then ``WINDOWS`` back-to-back windows in one drive."""
    warmup = WARMUP_SHARE * seconds
    started = perf_counter()
    trips = front.drive(seconds=warmup + seconds)
    begin = started + warmup
    width = seconds / WINDOWS
    return TimedPart(
        split_windows(trips.starts, trips.ends, begin, width, WINDOWS),
        [(begin, begin + seconds)],
    )


def cycles(front: Front, seconds: float) -> TimedPart:
    """``tcp_crash``: each cycle is a fixed number of round trips (cut
    into windows like any other run) followed by a kill and a restart,
    on one log that keeps growing."""
    per_clerk = max(5, round(CYCLE_TRIPS_PER_SECOND * seconds))
    width = seconds / WINDOWS
    front.drive(count=max(1, per_clerk // 5))  # warm-up
    part = TimedPart([], [])
    for _cycle in range(CYCLES):
        started = perf_counter()
        trips = front.drive(count=per_clerk)
        ended = perf_counter()
        # as many whole windows as the cycle's round trips took
        whole = max(1, int((ended - started) / width))
        part.windows.extend(split_windows(
            trips.starts, trips.ends, started,
            min(width, ended - started), whole))
        part.intervals.append((started, ended))
        part.crashes.append(crash_cycle(front))
    return part


@dataclass
class Run:
    """One deployment's life around its timed part."""

    setup_s: float
    part: TimedPart
    counters: dict[str, float]
    attempted: int


def _deployed(workload: Workload, inputs: Inputs, reaper: Reaper,
              timed: Callable[[Front], TimedPart],
              tracer: Tracer | None = None) -> Run:
    """One deployment's life: timed set-up, ``timed(front)`` with the
    server running, output checks, tear-down on every path."""
    front = make_front(workload, inputs, reaper, tracer)
    try:
        started = perf_counter()
        front.setup()
        setup_s = perf_counter() - started
        front.start_server()
        part = timed(front)
        front.stop_server()
        front.check()
        return Run(setup_s, part, _counters(front), front.attempted)
    finally:
        front.teardown()
        reaper.reap()


def _run(workload: Workload, inputs: Inputs, reaper: Reaper, seconds: float,
         tracer: Tracer | None = None) -> Run:
    """The deployment that carries the timed windows (or cycles)."""
    timed = cycles if workload.crash_cycles else steady
    return _deployed(workload, inputs, reaper,
                     lambda front: timed(front, seconds), tracer)


def _probe(front: Front) -> TimedPart:
    """What a probe deployment does between set-up and checks: a fixed
    number of round trips, then one crash.  ``tcp_crash`` takes its
    recovery time from its own cycles, so its probes stop before that."""
    front.drive(count=max(1, PROBE_REQUESTS // front.workload.clients))
    crashes = [] if front.workload.crash_cycles else [crash_cycle(front)]
    return TimedPart([], [], crashes)


def _counters(front: Front) -> dict[str, float]:
    """Ratios read off counters the program already keeps."""
    stats = front.server.stats
    attempts = stats.processed + stats.aborts + stats.empty_polls
    # A one-shard in-process repository hands out its plain transaction
    # manager, which has no routing and so nothing to count.
    tm = front.system.request_repo.tm
    cross = getattr(tm, "cross_shard_commits", 0)
    commits = getattr(tm, "single_shard_commits", 0) + cross
    transports = [
        client.transport
        for client in getattr(front.system.request_repo, "clients", ())
    ]
    gateway = getattr(front, "gateway", None)
    decisions = gateway.admitted + gateway.refused if gateway else 0
    return {
        "core.server.empty_poll_ratio": stats.empty_polls / attempts,
        "core.server.abort_ratio": stats.aborts / attempts,
        "transaction.cross_shard_ratio": cross / commits if commits else 0.0,
        "comm.transport.retries": sum(t.retries for t in transports),
        "comm.transport.reconnects": sum(t.reconnects for t in transports),
        "gateway.busy_ratio": gateway.refused / decisions if decisions else 0.0,
    }


# ---------------------------------------------------------------------------
# Untraced run
# ---------------------------------------------------------------------------


def end_to_end(workload: Workload, inputs: Inputs, reaper: Reaper,
               seconds: float, setups: int = SETUPS,
               probe_seconds: float = PROBE_SECONDS) -> tuple[dict[str, float], Run]:
    """The end-to-end metrics of one untraced run, and its main
    deployment's record for whoever wants the counters."""
    main = _run(workload, inputs, reaper, seconds)
    probes: list[Run] = []
    started = perf_counter()
    while (len(probes) < setups - 1
           or perf_counter() - started < probe_seconds):
        probes.append(_deployed(workload, inputs, reaper, _probe))
    recoveries = [crash.recovery_s
                  for run in (main, *probes) for crash in run.part.crashes]
    metrics = summarize(main.part.windows)
    metrics["setup_s"] = statistics.median(
        run.setup_s for run in (main, *probes))
    # The probes' crash cycles are identical, and the host's noise only
    # ever adds time, so the fastest is the least disturbed.  The cycles
    # of ``tcp_crash`` each replay a longer log: there the mean stands.
    metrics["recovery_s"] = (
        statistics.mean(recoveries) if workload.crash_cycles else min(recoveries))
    # Any request without its reply has already raised CheckFailed.
    metrics["fail_ratio"] = 0.0
    metrics["attempted"] = sum(run.attempted for run in (main, *probes))
    return metrics, main


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

#: The span a client is blocked in while it waits for its reply, and
#: the one the server is blocked in while it waits for a request.
#: Time spent there waiting is not that layer's work.
_CLIENT_WAIT = {
    ("clerk", "inproc"): "queueing.manager.dequeue",
    ("clerk", "tcp"): "serve.rpc",
    ("gateway", "tcp"): "gateway.rpc",
}
_SERVER_WAIT = {"inproc": "queueing.manager.dequeue", "tcp": "serve.rpc"}
_RECEIVES = ("core.clerk.receive", "gateway.receive")
_SENDS = ("core.clerk.send", "gateway.submit")
_SERVER = "core.server.process_one"


def traced(workload: Workload, inputs: Inputs, reaper: Reaper, seconds: float,
           trace_path: str) -> dict[str, float]:
    tracer = Tracer()
    run = _run(workload, inputs, reaper, seconds, tracer)
    part = run.part
    tracer.dump(trace_path)
    spans = [
        s for s in tracer.spans
        if any(begin <= s.start and s.end <= end for begin, end in part.intervals)
    ]
    metrics = layer_table(
        spans, _CLIENT_WAIT[workload.front, workload.deployment],
        _SERVER_WAIT[workload.deployment])
    metrics["core.server.busy_ratio"] = metrics.pop("server_busy_s") / sum(
        end - begin for begin, end in part.intervals)
    metrics["traced_req_per_s"] = summarize(part.windows)["req_per_s"]
    metrics["attempted"] = run.attempted
    return metrics


def layer_table(spans: list[Span], client_wait: str,
                server_wait: str) -> dict[str, float]:
    """Per-request self time of each layer, median over requests, in µs."""
    self_of = self_times(spans)
    duration_of = {span.id: span.duration for span in spans}
    by_id = {span.id: span for span in spans}

    def root_of(span: Span) -> Span:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span

    # A client blocked in Receive is waiting for the server, whatever
    # layer the blocking call belongs to.
    waits = {s.id for s in spans
             if s.name == client_wait and root_of(s).name in _RECEIVES}

    # The server's blocking dequeue waits too, whenever the queue is
    # empty.  From outside, the request it ends up with became visible
    # when its Send returned: what the dequeue spent before that was
    # idling, and is taken off its span.
    sent = {s.rid: s.end for s in spans if s.name in _SENDS and s.ok}
    busy = sum(s.duration for s in spans if s.name == _SERVER and s.ok)
    for span in spans:
        if span.name != server_wait:
            continue
        served = root_of(span)
        arrived = sent.get(served.rid) if served.name == _SERVER else None
        if arrived is not None and span.start < arrived < span.end:
            idle = arrived - span.start
            self_of[span.id] -= idle
            duration_of[span.id] -= idle
            busy -= idle

    def layer(measure: dict[int, float], *names: str,
              only: Callable[[Span], bool] = lambda span: True) -> float:
        totals = per_request(
            spans, measure,
            lambda s: s.name in names and s.id not in waits and only(s))
        return median_us(totals.values())

    table = {
        "core.clerk.self_us": layer(
            self_of, "core.clerk.send", "core.clerk.receive"),
        "core.server.self_us": layer(self_of, _SERVER, only=lambda s: s.ok),
        "queueing.manager.self_us": layer(
            self_of, "queueing.manager.enqueue", "queueing.manager.dequeue"),
        "serve.client.self_us": layer(
            self_of, "serve.client.enqueue", "serve.client.dequeue"),
        "transaction.commit.self_us": layer(self_of, "transaction.commit"),
        "storage.disk.append_us": layer(duration_of, "storage.disk.append"),
        "storage.disk.flush_us": layer(duration_of, "storage.disk.flush"),
        "serve.rpc.wait_us": layer(duration_of, "serve.rpc"),
        "gateway.submit_us": layer(
            duration_of, "gateway.submit", only=lambda s: s.ok),
        "gateway.receive_wait_us": layer(duration_of, "gateway.receive"),
        "gateway.rpc_us": median_us(
            s.duration for s in spans if s.name == "gateway.rpc"),
        "core.reply_wait_us": median_us(per_request(
            spans, self_of, lambda s: s.id in waits).values()),
        "server_busy_s": busy,
    }
    table["trace.accounted_ratio"] = _accounted(spans)
    return table


def _accounted(spans: list[Span]) -> float:
    """Median share of a request's round trip (first Send or submit
    attempt to reply) that lies inside its client-side spans.  Each such
    span's time is split exactly into the self times above plus the
    reply wait, so this is the share of the round trip the table
    explains; the rest is the harness's own time between calls."""
    rids = inherit_rids(spans)
    roots = [s for s in spans if not s.parent and rids[s.id] is not None
             and s.name != _SERVER]
    inside: dict[str, float] = {}
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    for span in roots:
        rid = rids[span.id]
        inside[rid] = inside.get(rid, 0.0) + span.duration
        first[rid] = min(first.get(rid, span.start), span.start)
        last[rid] = max(last.get(rid, span.end), span.end)
    shares = [inside[rid] / (last[rid] - first[rid]) for rid in inside]
    return statistics.median(shares) if shares else 0.0


# ---------------------------------------------------------------------------
# Single-stepped count pass
# ---------------------------------------------------------------------------


def count_pass(workload: Workload, inputs: Inputs, reaper: Reaper) -> dict[str, float]:
    """Exact per-request counts: one client at a time, the server called
    by hand, no timers, so nothing depends on scheduling."""
    front = make_front(workload, inputs, reaper)
    try:
        front.setup()
        gateway_calls = _count_gateway_calls(front)
        # The clerk workloads step one clerk; the gateway steps every
        # session in turn so both reply-queue shards are visited.
        clients = workload.clients if workload.front == "gateway" else 1
        for index in range(clients):  # first touches (lazy registration)
            front.step(index)
        # a whole number of turns, so every session weighs the same
        requests = -(-COUNT_REQUESTS // clients) * clients
        before = _totals(front)
        calls_before = gateway_calls[0]
        for request in range(requests):
            front.step(request % clients)
        after = _totals(front)
        front.check()
    finally:
        front.teardown()
        reaper.reap()
    per_req = {key: (after[key] - before[key]) / requests for key in after}
    body_bytes = statistics.mean(inputs.body_sizes)
    return {
        "storage.disk.appends_per_req": per_req["appends"],
        "storage.disk.flushes_per_req": per_req["flushes"],
        "storage.disk.bytes_per_req": per_req["disk_bytes"],
        "storage.disk.bytes_per_body_byte": per_req["disk_bytes"] / body_bytes,
        "comm.transport.calls_per_req": per_req["calls"],
        "comm.transport.bytes_per_req": per_req["wire_bytes"],
        "gateway.calls_per_req": (gateway_calls[0] - calls_before) / requests,
    }


def _totals(front: Front) -> dict[str, int]:
    repo = front.system.request_repo
    transports = [client.transport for client in getattr(repo, "clients", ())]
    disk = front.system.request_disk  # None in the tcp deployment
    return {
        # The shard processes keep their own disk counters out of reach;
        # from outside only the data directory's growth shows.
        "appends": disk.append_count if disk else 0,
        "flushes": disk.flush_count if disk else 0,
        "disk_bytes": disk.bytes_written if disk else front.log_bytes(),
        "calls": sum(t.calls for t in transports),
        "wire_bytes": sum(t.bytes_sent + t.bytes_received for t in transports),
    }


def _count_gateway_calls(front: Front) -> list[int]:
    """Count the gateway's wire calls through a proxy (its asyncio
    connections keep no counters).  The depth refresher's calls are
    left out: they follow the clock, not the requests."""
    counter = [0]
    gateway = getattr(front, "gateway", None)
    if gateway is None:
        return counter
    for pool in gateway.pools:
        inner = pool.call

        async def counted(payload, timeout=None, inner=inner):
            if payload.get("op") != "depth":
                counter[0] += 1
            return await inner(payload, timeout=timeout)

        pool.call = counted
    return counter


# ---------------------------------------------------------------------------
# The per-layer table
# ---------------------------------------------------------------------------


def per_layer(workload: Workload, inputs: Inputs, reaper: Reaper, seconds: float,
              micro: dict[str, float], trace_path: str,
              base: Run | None = None) -> dict[str, float]:
    """Every per-layer metric of one workload.  ``base`` is an untraced
    run to take counters and the untraced rate from; without one, an
    untraced run of the same length is made first."""
    if base is None:
        base = _run(workload, inputs, reaper, seconds)
    untraced = summarize(base.part.windows)
    table = traced(workload, inputs, reaper, seconds, trace_path)
    traced_rate = table.pop("traced_req_per_s")
    metrics = {**micro, **count_pass(workload, inputs, reaper), **table,
               **base.counters}
    metrics["attempted"] += base.attempted + COUNT_REQUESTS
    metrics["trace.overhead_ratio"] = 1.0 - traced_rate / untraced["req_per_s"]
    metrics["core.rtt_p99_ms"] = untraced["rtt_p99_ms"]
    crashes = base.part.crashes  # tcp_crash only
    spawn_s = micro["serve.supervisor.spawn_s"]
    metrics["serve.supervisor.restart_s"] = (
        statistics.median(c.restart_s for c in crashes) if crashes else 0.0)
    metrics["serve.recovery.ms_per_mib"] = (
        statistics.median(
            1e3 * (c.restart_s - spawn_s) / (c.log_bytes / 2**20) for c in crashes)
        if crashes else 0.0)
    return metrics

