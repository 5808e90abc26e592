"""Transport abstraction: correlated request/response over any medium.

Remote procedure call needs a careful little engine — per-call
correlation ids, duplicate-response discard, bounded retries with
seeded exponential backoff.  The correlation half is
:class:`CallTable`, which does no I/O: it hands out call ids, parks
each call's future, routes response frames to it by id, and fails the
calls of a connection that died.  Three drivers put a medium under it:

* :class:`InProcTransport` / :class:`InProcListener` — the simulated
  :class:`~repro.comm.network.SimNetwork` (one message out, one back,
  a fixed RNG draw discipline), carrying *data* payloads so the
  protocol is the one a real wire can speak.  This is the
  deterministic substrate chaos schedules replay on, and what
  benchmark C8 counts Section 5's Send variants on —
  :class:`OneWayTransport` is the one-message, may-be-lost Send.
* :class:`TcpTransport` / :class:`TcpListener` — a real socket speaking
  the CRC'd length-prefixed frames of :mod:`repro.comm.wire`.  One
  connection multiplexes any number of concurrent calls (a reader
  thread routes responses by correlation id); a dead connection is
  reconnected with the same seeded backoff an in-proc retry uses.
* :class:`AsyncShardConnection` (pooled by :class:`AsyncShardPool`) —
  the same socket protocol driven by an asyncio event loop, for the
  gateway.

A **transport**'s contract is one method::

    response_payload = transport.request(payload, timeout=..., retries=...)

raising the :mod:`repro.errors` comm taxonomy (:class:`RpcTimeout`,
:class:`PartitionedError`) on failure.  The transport is at-least-once:
a retried request may execute twice at the server, so payloads must
name idempotent operations — or, as in the paper, tagged queue
operations whose duplicates are absorbed.  Pass ``retries=0`` for
at-most-once calls (transaction control ops).  The asyncio driver's
``await connection.call(payload, timeout=...)`` is always at-most-once:
its caller (the clerk's steps) owns the retry.

A **listener**'s contract is one callable: ``handler(payload) ->
response_payload``.  Handlers are responsible for their own error
envelopes (see :func:`repro.comm.wire.error_payload`); a handler may
return :data:`NO_RESPONSE` to deliberately drop the reply (fault
injection for at-least-once tests).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import logging
import queue
import random
import socket
import threading
import time as _time
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.comm.network import SimNetwork
from repro.comm.wire import (
    KIND_CALL,
    KIND_RESP,
    FrameError,
    FrameReader,
    encode_frame,
    unwrap,
)
from repro.errors import CommError, MessageLost, PartitionedError, RpcTimeout

if TYPE_CHECKING:
    import asyncio

logger = logging.getLogger(__name__)

#: in-process one-way message kind (no call id, no response)
KIND_POST = "post"

#: sentinel a listener handler may return to drop the response on the
#: floor (simulates a lost reply over a live connection)
NO_RESPONSE = object()

#: per-attempt response wait before the call is retried (the retry may
#: re-execute at the server — at-least-once, like the in-proc channel)
DEFAULT_CALL_TIMEOUT = 10.0

#: seconds a socket driver waits for a connection to open
CONNECT_TIMEOUT = 2.0

#: connections per shard in an :class:`AsyncShardPool`: the wire is
#: multiplexed, so the pool overlaps TCP send buffers under load; it
#: does not serialize calls
POOL_SIZE = 2


@runtime_checkable
class Transport(Protocol):
    """Anything that can deliver a request payload and return the
    correlated response payload."""

    def request(self, payload: Any, timeout: float | None = None,
                retries: int | None = None) -> Any:
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol


class CallTable:
    """The correlation core of every driver; it does no I/O.

    It hands out call ids and parks each call's future — a
    :mod:`concurrent.futures` or an :mod:`asyncio` one; the table only
    calls ``done``, ``set_result`` and ``set_exception`` — tagged with
    the generation of the connection its attempt went out on.
    :meth:`feed` routes response frames by id: the first response
    wins, and duplicates and unknown ids are dropped.  :meth:`lost`
    fails only the calls parked on the connection that died, so a
    superseded connection's death leaves its successor's calls alone.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: call id -> (future, generation of its attempt's connection)
        self._parked: dict[int, tuple[Any, int]] = {}

    def new_id(self) -> int:
        return next(self._ids)

    def park(self, call_id: int, future: Any, generation: int) -> Any:
        """Park an attempt of call ``call_id`` sent on connection
        ``generation``; returns the future it waits on.  That is
        ``future``, or an earlier attempt's that is still parked —
        waiting, or holding a response that arrived after that attempt
        gave up, which then answers the retry."""
        with self._lock:
            held = self._parked.get(call_id)
            if held is not None:
                future = held[0]
            self._parked[call_id] = (future, generation)
        return future

    def forget(self, call_id: int) -> None:
        """The call returned or gave up: later responses are unknown ids."""
        with self._lock:
            self._parked.pop(call_id, None)

    def resolve(self, call_id: int, payload: Any) -> None:
        with self._lock:
            held = self._parked.get(call_id)
            if held is not None and not held[0].done():
                held[0].set_result(payload)

    def feed(self, frames: FrameReader, chunk: bytes) -> None:
        """Route the response frames completed by ``chunk``; raises
        :class:`FrameError` when the stream is corrupt."""
        for kind, call_id, payload in frames.feed(chunk):
            if kind == KIND_RESP:
                self.resolve(call_id, payload)

    def lost(self, generation: int, error: CommError) -> None:
        """Connection ``generation`` died: fail the calls waiting on it
        with ``error`` (whether their requests executed is unknown —
        the callers' retry and dedup discipline owns that)."""
        with self._lock:
            for call_id, (future, tag) in list(self._parked.items()):
                if tag == generation and not future.done():
                    future.set_exception(error)
                    del self._parked[call_id]


class CorrelatedChannel:
    """The retry engine of the two synchronous drivers, over a
    :class:`CallTable`.

    Subclasses implement :meth:`_transmit` (park the attempt in
    ``self._table`` and send one call frame).  Media with synchronous
    delivery (the simulated network runs the handler inside ``send``)
    use ``wait_timeout=None``: the response is either present
    immediately after a successful transmit or the message was lost.
    Asynchronous media (sockets) pass a per-attempt wait in seconds.

    ``max_retries`` is the number of additional attempts after the
    first.  Retry ``n`` sleeps ``base * factor**n`` capped at ``max``,
    scaled by jitter in ``[0.5, 1.0)`` from a :class:`random.Random`
    seeded with ``seed``, so a storm of callers against a lossy or
    partitioned network spreads out instead of hammering in lockstep;
    a ``backoff_base`` of ``0.0`` retries immediately.
    """

    #: raise PartitionedError (not RpcTimeout) when no attempt was ever
    #: transmitted — real sockets distinguish "unreachable" from "no
    #: answer"; the in-proc channel raises RpcTimeout either way
    _PARTITION_RAISES = False

    def __init__(
        self,
        max_retries: int = 10,
        backoff_base: float = 0.0005,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.01,
        seed: int = 0,
        wait_timeout: float | None = None,
    ):
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.wait_timeout = wait_timeout
        self._rng = random.Random(seed)
        self._table = CallTable()
        self.calls = 0
        self.retries = 0

    def _transmit(self, call_id: int, payload: Any) -> concurrent.futures.Future:
        """Park one attempt and send its call frame; returns the future
        the attempt waits on.  Raises :class:`MessageLost` or
        :class:`PartitionedError` when the medium rejected the frame."""
        raise NotImplementedError

    def _backoff(self, attempt: int) -> None:
        if self.backoff_base <= 0.0:
            return
        delay = min(self.backoff_max, self.backoff_base * self.backoff_factor ** attempt)
        jitter = 0.5 + self._rng.random() / 2.0  # one atomic C call
        _time.sleep(delay * jitter)

    def request(self, payload: Any, timeout: float | None = None,
                retries: int | None = None) -> Any:
        """Send ``payload``; return the correlated response payload.

        ``timeout`` overrides the per-attempt response wait (async media
        only); ``retries`` overrides the channel's retry budget —
        ``retries=0`` makes the call at-most-once."""
        self.calls += 1
        budget = self.max_retries if retries is None else retries
        wait = self.wait_timeout if timeout is None else timeout
        call_id = self._table.new_id()
        transmitted = False
        last: CommError | None = None
        try:
            for attempt in range(budget + 1):
                if attempt:
                    self.retries += 1
                    self._backoff(attempt - 1)
                try:
                    future = self._transmit(call_id, payload)
                except (MessageLost, PartitionedError) as exc:
                    last = exc
                    continue
                transmitted = True
                if self.wait_timeout is None:
                    # Synchronous medium: delivery (or loss) already
                    # happened inside _transmit — a per-call timeout
                    # has nothing to wait for.
                    if future.done():
                        return future.result()
                    continue
                try:
                    return future.result(wait)
                except (CommError, concurrent.futures.TimeoutError):
                    continue  # its connection died, or no answer in time
            if self._PARTITION_RAISES and not transmitted:
                raise PartitionedError(
                    f"peer unreachable after {budget} retries: {last}"
                ) from last
            raise RpcTimeout(
                f"no response after {budget} retries"
            )
        finally:
            self._table.forget(call_id)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


# ---------------------------------------------------------------------------
# In-process transport over the simulated network
# ---------------------------------------------------------------------------


class InProcTransport(CorrelatedChannel):
    """The wire protocol over :class:`SimNetwork`.

    ``("call", id, payload, reply_to)`` out, ``("resp", id, result)``
    back, one send each: two messages per successful call, which is
    what benchmark C8 counts and what chaos schedules replay against.
    """

    def __init__(self, network: SimNetwork, local: str, remote: str,
                 **engine: Any):
        """``engine``: the retry/backoff parameters of
        :class:`CorrelatedChannel` (delivery is synchronous, so there
        is no ``wait_timeout`` to give)."""
        super().__init__(**engine)
        self.network = network
        self.local = local
        self.remote = remote
        network.register(local, self._on_message)

    def _on_message(self, message: Any) -> None:
        if (isinstance(message, tuple) and len(message) == 3
                and message[0] == KIND_RESP):
            self._table.resolve(message[1], message[2])

    def _transmit(self, call_id: int, payload: Any) -> concurrent.futures.Future:
        # one medium, one connection: generation 0 never dies
        future = self._table.park(call_id, concurrent.futures.Future(), 0)
        self.network.send(
            self.local,
            self.remote,
            (KIND_CALL, call_id, payload, self.local),
            reliable=True,
        )
        return future


class InProcListener:
    """Server side of :class:`InProcTransport`: dispatches each call
    payload to ``handler`` and responds over the network.

    The handler runs in the *sender's* thread (simulated-network
    delivery is synchronous), so injected crashes propagate into the
    caller's stack.  A one-way ``("post", payload)`` message
    (:class:`OneWayTransport`) is handled the same way and answered
    with nothing.
    """

    def __init__(self, network: SimNetwork, name: str,
                 handler: Callable[[Any], Any]):
        self.network = network
        self.name = name
        self.handler = handler
        network.register(name, self._on_message)
        self.handled = 0

    def _on_message(self, message: Any) -> None:
        if not isinstance(message, tuple):
            return
        if len(message) == 2 and message[0] == KIND_POST:
            self.handled += 1
            self.handler(message[1])
            return
        if not (len(message) == 4 and message[0] == KIND_CALL):
            return
        _, call_id, payload, reply_to = message
        self.handled += 1
        result = self.handler(payload)
        if result is NO_RESPONSE:
            return  # fault hook: swallow the reply
        try:
            self.network.send(
                self.name, reply_to, (KIND_RESP, call_id, result), reliable=True
            )
        except (MessageLost, PartitionedError):
            # The response is lost; the caller retries the whole call.
            pass


class OneWayTransport:
    """The clerk's ``post(payload)`` transport for
    :meth:`~repro.core.clerk.Clerk.send_oneway` (Section 5): one
    message to an :class:`InProcListener`, no response, silently lost
    when the network drops it — "the client will time out waiting for
    its Receive ... and can determine what happened when it
    reconnects"."""

    def __init__(self, network: SimNetwork, local: str, remote: str):
        self.network = network
        self.local = local
        self.remote = remote

    def post(self, payload: Any) -> None:
        # not ``reliable``: the network drops a lost message without a word
        self.network.send(self.local, self.remote, (KIND_POST, payload))


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------


def _hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down: unlike ``close``, this wakes a thread
    blocked reading it (or accepting on it)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # no longer connected


class TcpTransport(CorrelatedChannel):
    """One multiplexed TCP connection to a :class:`TcpListener`.

    Thread-safe: any number of threads may :meth:`request` concurrently
    over the single socket; a reader thread feeds the response frames
    to the call table.  A send or connect failure tears the connection
    down and the retry path reconnects under the seeded backoff.
    Reconnect-heavy defaults (higher backoff cap) keep a restart storm
    against a dead shard polite.
    """

    _PARTITION_RAISES = True

    def __init__(self, host: str, port: int,
                 timeout: float = DEFAULT_CALL_TIMEOUT, *,
                 backoff_base: float = 0.02, backoff_max: float = 0.5,
                 **engine: Any):
        """``timeout`` is the per-attempt response wait; ``engine``
        the rest of :class:`CorrelatedChannel`'s retry parameters."""
        super().__init__(backoff_base=backoff_base, backoff_max=backoff_max,
                         wait_timeout=timeout, **engine)
        self.host = host
        self.port = port
        self._io_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._generation = 0
        self._closed = False
        self.reconnects = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- connection management -----------------------------------------

    def _connect_locked(self) -> socket.socket:
        if self._closed:
            raise PartitionedError("transport is closed")
        sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._generation += 1
        thread = threading.Thread(
            target=self._read_loop,
            args=(sock, self._generation),
            daemon=True,
            name=f"tcp-transport-{self.host}:{self.port}",
        )
        thread.start()
        return sock

    def _read_loop(self, sock: socket.socket, generation: int) -> None:
        frames = FrameReader()
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                self.bytes_received += len(chunk)
                self._table.feed(frames, chunk)
        except (OSError, FrameError):
            pass
        finally:
            # However the reader ends, the socket is dead: drop it, then
            # fail the calls parked on it so they retry now instead of
            # waiting out the full per-attempt timeout against it.
            with self._io_lock:
                if self._sock is sock:
                    self._sock = None
            sock.close()
            self._table.lost(generation, PartitionedError(
                f"connection to {self.host}:{self.port} lost"))

    # -- engine hook ----------------------------------------------------

    def _transmit(self, call_id: int, payload: Any) -> concurrent.futures.Future:
        data = encode_frame(KIND_CALL, call_id, payload)
        with self._io_lock:
            sock = self._sock
            if sock is None:
                try:
                    sock = self._connect_locked()
                    if self._generation > 1:
                        self.reconnects += 1
                except OSError as exc:
                    raise PartitionedError(
                        f"cannot connect to {self.host}:{self.port}: {exc}"
                    ) from exc
            # parked before the frame goes out: the answer may beat
            # sendall's return
            future = self._table.park(
                call_id, concurrent.futures.Future(), self._generation)
            try:
                sock.sendall(data)
            except OSError as exc:
                self._sock = None
                _hang_up(sock)  # its reader fails the calls parked on it
                raise PartitionedError(
                    f"send to {self.host}:{self.port} failed: {exc}"
                ) from exc
            # under the lock: callers on any number of threads share it
            self.bytes_sent += len(data)
            return future

    def close(self) -> None:
        with self._io_lock:
            self._closed = True
            sock, self._sock = self._sock, None
        if sock is not None:
            _hang_up(sock)
            sock.close()


class TcpListener:
    """Accepts connections and serves wire-protocol calls.

    One acceptor thread; one reader thread per connection; each call is
    handed to a worker thread of its own so a blocking operation (a
    waiting dequeue) cannot stall other calls multiplexed on the same
    socket.  Workers are resident: a finished worker parks and takes
    the next call (a hand-off costs a fraction of a thread start), and
    a new one is started only when none is parked, so there are never
    more than ``max_inflight`` — the bound on concurrently-executing
    calls.  They are daemon threads, not an executor's: one parked in a
    60 s dequeue must not hold up interpreter exit.
    Responses are written under a per-connection lock, in completion
    order — the correlation id, not arrival order, matches them up.

    ``handler(payload) -> response_payload`` supplies the service; it
    must catch its own application errors and return envelopes (see
    :mod:`repro.comm.wire`).  An exception escaping the handler drops
    the connection (the caller's pending attempts fail at once instead
    of waiting out their timeouts); the worker survives.  Returning
    :data:`NO_RESPONSE` swallows the reply (fault injection for retry
    tests).
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
    ):
        self.handler = handler
        self.handled = 0
        self._closed = False
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        #: bounds concurrently-executing calls per listener — the
        #: server-side half of admission control
        self._inflight = threading.BoundedSemaphore(max_inflight)
        #: calls handed to workers, and ``None`` once per worker at close
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._pool_lock = threading.Lock()
        self._workers = 0
        #: workers parked (or about to park) that no queued call has claimed
        self._parked = 0
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):  # port-pinned restarts must
            # rebind while a predecessor's orphaned connections linger
            # in FIN_WAIT (SO_REUSEADDR only covers TIME_WAIT)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._server.bind((host, port))
        self._server.listen(128)
        self.host, self.port = self._server.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"tcp-listener-{self.port}",
        )
        self._acceptor.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True,
                name=f"tcp-conn-{self.port}",
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        reader = FrameReader()
        wlock = threading.Lock()
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                for kind, call_id, payload in reader.feed(chunk):
                    if kind != KIND_CALL:
                        continue
                    self._inflight.acquire()
                    self._hand_off((conn, wlock, call_id, payload))
        except (OSError, FrameError):
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            conn.close()

    def _hand_off(self, call: tuple) -> None:
        """Queue ``call`` for a worker that is free to take it: each
        queued call claims one parked worker or starts one, so none
        waits behind a worker stuck in a blocking operation."""
        with self._pool_lock:
            if self._closed:
                self._inflight.release()
                return
            start = self._parked == 0
            if start:
                self._workers += 1
            else:
                self._parked -= 1
        if start:
            threading.Thread(
                target=self._work, daemon=True, name=f"tcp-worker-{self.port}",
            ).start()
        self._calls.put(call)

    def _work(self) -> None:
        while True:
            call = self._calls.get()
            if call is None:
                return
            conn, wlock, call_id, payload = call
            try:
                frame = self._run_call(conn, call_id, payload)
                # Free from here on, before the response goes out: the
                # caller's next call can arrive the moment the response
                # does, and must find this worker instead of starting
                # another.
                with self._pool_lock:
                    self._parked += 1
                if frame is not None:
                    try:
                        with wlock:
                            conn.sendall(frame)
                    except OSError:
                        pass  # peer went away; the caller's retry reconnects
            finally:
                self._inflight.release()

    def _run_call(self, conn: socket.socket, call_id: int,
                  payload: Any) -> bytes | None:
        """The response frame of one call, or ``None`` when there is
        none to send."""
        try:
            result = self.handler(payload)
            self.handled += 1
            if result is NO_RESPONSE:
                return None
            return encode_frame(KIND_RESP, call_id, result)
        except Exception:
            logger.exception("tcp listener %s: call failed; dropping the "
                             "connection", self.port)
            _hang_up(conn)
            return None

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            workers, self._workers = self._workers, 0
        for _ in range(workers):
            self._calls.put(None)  # each worker takes one and exits
        # shutdown() wakes a thread blocked in accept(); close() alone
        # would leave it parked on the fd, and once the fd number is
        # reused by a successor listener the stale accept() would steal
        # that listener's connections and serve them with this handler.
        _hang_up(self._server)
        self._acceptor.join(timeout=1.0)
        self._server.close()
        with self._conns_lock:
            conns, self._conns = set(self._conns), set()
        for conn in conns:
            _hang_up(conn)
            conn.close()


# ---------------------------------------------------------------------------
# Asyncio transport
# ---------------------------------------------------------------------------
#
# asyncio is imported where it is used: a shard process imports this
# module for TcpListener and would pay ~40 ms of every boot for it.


class AsyncShardConnection:
    """One multiplexed asyncio connection to one shard service: the
    socket protocol of :class:`TcpTransport`, driven by an event loop.

    Each call parks an :class:`asyncio.Future` in the call table and
    one reader task feeds it the response frames.  A call is
    at-most-once: a connect failure, a send failure or a lost
    connection raises :class:`PartitionedError`, no answer in time
    :class:`RpcTimeout`.
    """

    def __init__(self, host: str, port: int):
        import asyncio

        self.host = host
        self.port = port
        self._table = CallTable()
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._generation = 0
        self._closed = False
        #: one connect at a time: a burst of first calls opens one
        #: socket, not one apiece
        self._connect_lock = asyncio.Lock()
        self.reconnects = 0

    async def _connected(self) -> asyncio.StreamWriter:
        """The live stream writer, connecting first if there is none."""
        import asyncio

        async with self._connect_lock:
            if self._writer is None:
                if self._closed:
                    raise PartitionedError(
                        f"connection to {self.host}:{self.port} closed")
                try:
                    reader, self._writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        timeout=CONNECT_TIMEOUT,
                    )
                except (OSError, asyncio.TimeoutError) as exc:
                    raise PartitionedError(
                        f"cannot connect to shard at {self.host}:{self.port}: {exc}"
                    ) from exc
                self._generation += 1
                self.reconnects += 1
                self._reader_task = asyncio.ensure_future(
                    self._read_loop(reader, self._writer, self._generation))
            return self._writer

    async def _read_loop(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter, generation: int) -> None:
        frames = FrameReader()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                self._table.feed(frames, chunk)
        except (OSError, FrameError):
            pass
        finally:
            self._drop(writer, generation)

    def _drop(self, writer: asyncio.StreamWriter, generation: int) -> None:
        """Connection ``generation`` died: close it, forget it if it is
        still the live one, and fail only the calls parked on it."""
        writer.close()
        if writer is self._writer:
            self._writer = None
        self._table.lost(generation, PartitionedError(
            f"shard connection {self.host}:{self.port} lost"))

    async def call(self, payload: Any, timeout: float | None = None) -> Any:
        """One remote call; returns the unwrapped result (remote errors
        re-raised by class, exactly like the threaded client)."""
        import asyncio

        writer = await self._connected()
        generation = self._generation
        call_id = self._table.new_id()
        future = self._table.park(
            call_id, asyncio.get_running_loop().create_future(), generation)
        budget = DEFAULT_CALL_TIMEOUT if timeout is None else timeout
        try:
            writer.write(encode_frame(KIND_CALL, call_id, payload))
            await writer.drain()
            envelope = await asyncio.wait_for(future, timeout=budget)
        except asyncio.TimeoutError as exc:  # first: an OSError from 3.11 on
            raise RpcTimeout(
                f"no response from {self.host}:{self.port} in {budget}s"
            ) from exc
        except OSError as exc:
            self._drop(writer, generation)
            raise PartitionedError(f"send to shard failed: {exc}") from exc
        finally:
            self._table.forget(call_id)
        return unwrap(envelope)

    async def close(self) -> None:
        self._closed = True
        if self._writer is not None:
            # abort, not close: unsent frames must not wait on a shard
            # that stopped reading; the read loop then sees the end
            self._writer.transport.abort()
        if self._reader_task is not None:
            await self._reader_task


class AsyncShardPool:
    """Round-robin pool of multiplexed connections to one shard."""

    def __init__(self, host: str, port: int):
        self.connections = [
            AsyncShardConnection(host, port) for _ in range(POOL_SIZE)
        ]
        self._rr = itertools.count()

    async def call(self, payload: Any, timeout: float | None = None) -> Any:
        conn = self.connections[next(self._rr) % len(self.connections)]
        return await conn.call(payload, timeout=timeout)

    async def close(self) -> None:
        for conn in self.connections:
            await conn.close()
