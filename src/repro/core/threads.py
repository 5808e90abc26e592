"""Concurrent client threads — Section 5's extension.

"Another extension is to allow concurrency within a client.  This
amounts to identifying a client by both a client-id and a 'thread'-id.
The system now maintains an array of [req-tag, reply-tag] pairs for the
client, one for each thread-id.  The entire array is returned by a
Connect operation.  To support this, the underlying QM needs a
comparable facility in the Register operation."

The reproduction realizes the "comparable facility" compositionally:
each (client, thread) pair registers as the composite registrant
``"<client>/<thread>"``, so the registration table naturally stores the
per-thread tag array, and :func:`connect_all_threads` reassembles it —
the array-valued Connect the paper describes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.client import Client, ReplyProcessor, UserCheckpoint
from repro.core.system import TPSystem


def thread_registrant(client_id: str, thread_id: int) -> str:
    return f"{client_id}/{thread_id}"


@dataclass(frozen=True)
class ThreadTags:
    """One row of the paper's per-thread tag array."""

    thread_id: int
    s_rid: str | None
    r_rid: str | None
    ckpt: Any


def connect_all_threads(
    system: TPSystem, client_id: str, thread_count: int
) -> list[ThreadTags]:
    """The array-valued Connect: the [req-tag, reply-tag] pair of every
    thread of ``client_id``, recovered from persistent registration."""
    rows: list[ThreadTags] = []
    for thread_id in range(thread_count):
        clerk = system.clerk(thread_registrant(client_id, thread_id))
        s_rid, r_rid, ckpt = clerk.connect()
        rows.append(ThreadTags(thread_id, s_rid, r_rid, ckpt))
    return rows


class ThreadedClient:
    """A client running ``thread_count`` concurrent request threads.

    The work list is partitioned round-robin over the threads; each
    thread is an independent Figure 2 client over its own registration
    and private reply queue, so every per-thread guarantee is exactly
    the single-client guarantee, and recovery resynchronizes thread by
    thread.
    """

    def __init__(
        self,
        system: TPSystem,
        client_id: str,
        work: Sequence[Any],
        processors: Sequence[ReplyProcessor],
        user_logs: Sequence[UserCheckpoint] | None = None,
        receive_timeout: float | None = 30.0,
    ):
        if not processors:
            raise ValueError("need at least one thread (processor)")
        self.system = system
        self.client_id = client_id
        self.work = list(work)
        self.thread_count = len(processors)
        self.processors = list(processors)
        self.user_logs = (
            list(user_logs)
            if user_logs is not None
            else [UserCheckpoint() for _ in processors]
        )
        self.receive_timeout = receive_timeout
        self.clients: list[Client] = []

    def _partition(self, thread_id: int) -> list[Any]:
        return self.work[thread_id :: self.thread_count]

    def _client(self, thread_id: int) -> Client:
        return self.system.client(
            thread_registrant(self.client_id, thread_id),
            self._partition(thread_id),
            self.processors[thread_id],
            receive_timeout=self.receive_timeout,
            user_log=self.user_logs[thread_id],
        )

    def run(self) -> list[Any]:
        """Run every thread to completion; returns all replies (one list
        per thread)."""
        self.clients = [self._client(t) for t in range(self.thread_count)]
        results: list[Any] = [None] * self.thread_count
        errors: list[BaseException] = []

        def runner(index: int) -> None:
            try:
                results[index] = self.clients[index].run()
            except BaseException as exc:  # propagate to the caller
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(t,), daemon=True)
            for t in range(self.thread_count)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return results
