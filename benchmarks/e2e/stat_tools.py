"""Percentiles, windows and spreads — the arithmetic every number in
this benchmark goes through, kept apart so the self-tests can pin it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

#: a tail percentile is reported only while this many samples lie beyond it
TAIL_MIN_BEYOND = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence: the smallest
    sample with at least ``pct`` percent of the samples at or below it."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supported_tail(count: int, want: float = 99.0) -> float:
    """The highest percentile, at most ``want``, that leaves at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples beyond it."""
    if count <= TAIL_MIN_BEYOND:
        raise ValueError(
            f"{count} samples cannot put {TAIL_MIN_BEYOND} beyond any percentile"
        )
    return min(want, 100.0 * (count - TAIL_MIN_BEYOND) / count)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness measure the acceptance rule is stated in."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Window:
    """One measurement window: how long it was and the round-trip
    times (seconds) of the requests that completed inside it."""

    duration: float
    rtts: list[float] = field(default_factory=list)


def split_windows(starts: Sequence[float], ends: Sequence[float],
                  begin: float, width: float, count: int) -> list[Window]:
    """Bucket round trips by completion time into ``count`` consecutive
    windows of ``width`` seconds from ``begin``.  Completions before
    ``begin`` (the warm-up) or after the last window are dropped."""
    windows = [Window(width) for _ in range(count)]
    for start, end in zip(starts, ends):
        index = math.floor((end - begin) / width)
        if 0 <= index < count:
            windows[index].rtts.append(end - start)
    return windows


def summarize(windows: Sequence[Window]) -> dict[str, float]:
    """Rate and latency of a run, from its least disturbed window.

    The sandbox's host slows the VM in bursts of 0.2-1.5 s (a fifth of
    the time when quiet, over half when busy) and never speeds it up, so
    the noise is one-sided: the rate is the highest per-window rate and
    the median latency the lowest per-window median.  Over ten seeds in
    a quiet hour that held a quartile spread of 1-9 % on every workload
    where the median of the windows held 4-16 %.  The tail is taken over
    the pooled samples (a quarter-second window of a ~400 req/s workload
    cannot leave ten beyond its own 99th percentile) and so keeps every
    disturbance: it is reported, not gated.
    """
    # A window in which nothing completed (a stall longer than the window)
    # is the most disturbed kind; it cannot be the one the numbers come from.
    if not any(window.rtts for window in windows):
        raise ValueError("no measurement window completed a request")
    pooled = sorted(rtt for window in windows for rtt in window.rtts)
    tail_pct = supported_tail(len(pooled))
    return {
        "req_per_s": max(len(window.rtts) / window.duration for window in windows),
        "rtt_p50_ms": 1e3 * min(
            percentile(sorted(window.rtts), 50.0)
            for window in windows if window.rtts),
        "rtt_p99_ms": 1e3 * percentile(pooled, tail_pct),
        "rtt_tail_pct": tail_pct,
        "samples": len(pooled),
    }
