"""Spans recorded from outside the program.

The traced pass places timing proxies over public objects (a clerk's
``send``, the server's ``process_one``, the queue manager the system
hands out, ...).  Each call through a proxy becomes one span; the span
open in the calling thread or task is its parent.  Nothing under
``src/`` knows it is being timed.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root
    rid: str | None
    #: False when the call raised or returned False (an empty poll, a
    #: ``Busy`` refusal): time spent, nothing achieved
    ok: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._open: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("open_span", default=None))

    def tag(self, rid: str) -> None:
        """Name the request the open span is working on (the handler
        wrapper calls this: only there does the server learn the rid)."""
        span = self._open.get()
        if span is not None:
            span.rid = rid

    def _begin(self, name: str):
        parent = self._open.get()
        span = Span(next(self._ids), name, 0.0, 0.0,
                    parent.id if parent is not None else 0, None, False)
        token = self._open.set(span)
        span.start = perf_counter()
        return span, token

    def _end(self, span: Span, token) -> None:
        span.end = perf_counter()
        self._open.reset(token)
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable,
             rid_of: Callable[[tuple, Any], str] | None = None) -> Callable:
        """A proxy for the blocking callable ``fn``.  ``rid_of(args,
        result)`` names the request once the call has returned."""

        def proxy(*args, **kwargs):
            span, token = self._begin(name)
            try:
                result = fn(*args, **kwargs)
                span.ok = result is not False
                if rid_of is not None:
                    span.rid = rid_of(args, result)
                return result
            finally:
                self._end(span, token)

        return proxy

    def wrap_async(self, name: str, fn: Callable,
                   rid_of: Callable[[tuple, Any], str] | None = None) -> Callable:
        """:meth:`wrap` for a coroutine function."""

        async def proxy(*args, **kwargs):
            span, token = self._begin(name)
            try:
                result = await fn(*args, **kwargs)
                span.ok = True
                if rid_of is not None:
                    span.rid = rid_of(args, result)
                return result
            finally:
                self._end(span, token)

        return proxy

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(
                    [span.name, span.start, span.end, span.id, span.parent,
                     span.rid, span.ok]))
                out.write("\n")


def patch(target: Any, attribute: str, proxy_of: Callable[[Callable], Callable]) -> None:
    """Shadow ``target.attribute`` with a proxy on the instance, so
    every holder of ``target`` calls through it."""
    setattr(target, attribute, proxy_of(getattr(target, attribute)))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def inherit_rids(spans: Sequence[Span]) -> dict[int, str | None]:
    """Span id -> its own rid, or that of its nearest tagged ancestor."""
    by_id = {span.id: span for span in spans}
    resolved: dict[int, str | None] = {}

    def resolve(span: Span) -> str | None:
        if span.id in resolved:
            return resolved[span.id]
        rid = span.rid
        if rid is None and span.parent in by_id:
            rid = resolve(by_id[span.parent])
        resolved[span.id] = rid
        return rid

    for span in spans:
        resolve(span)
    return resolved


def per_request(spans: Sequence[Span], measure: dict[int, float],
                select: Callable[[Span], bool]) -> dict[str, float]:
    """rid -> sum of ``measure`` over the request's selected spans."""
    rids = inherit_rids(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        rid = rids[span.id]
        if rid is not None and select(span):
            totals[rid] += measure[span.id]
    return totals


def median_us(values: Iterable[float]) -> float:
    """Median in microseconds; 0 when the layer was not on the path."""
    values = list(values)
    return 1e6 * statistics.median(values) if values else 0.0
