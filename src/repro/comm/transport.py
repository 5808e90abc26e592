"""Transport abstraction: correlated request/response over any medium.

Remote procedure call needs a careful little engine — per-call
correlation ids, duplicate-response discard, bounded retries with
seeded exponential backoff.  This module keeps that engine
(:class:`CorrelatedChannel`) behind a ``Transport`` interface so the
*same* retry/correlation semantics run over two media:

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

A **transport**'s contract is one method::

    response_payload = transport.request(payload, timeout=..., retries=...)

raising the :mod:`repro.errors` comm taxonomy (:class:`RpcTimeout`,
:class:`PartitionedError`) on failure.  The transport is at-least-once:
a retried request may execute twice at the server, so payloads must
name idempotent operations — or, as in the paper, tagged queue
operations whose duplicates are absorbed.  Pass ``retries=0`` for
at-most-once calls (transaction control ops).

A **listener**'s contract is one callable: ``handler(payload) ->
response_payload``.  Handlers are responsible for their own error
envelopes (see :func:`repro.comm.wire.error_payload`); a handler may
return :data:`NO_RESPONSE` to deliberately drop the reply (fault
injection for at-least-once tests).
"""

from __future__ import annotations

import logging
import queue
import random
import socket
import threading
import time as _time
from typing import Any, Callable, Protocol, runtime_checkable

from repro.comm.network import SimNetwork
from repro.comm.wire import (
    DEFAULT_MAX_FRAME,
    KIND_CALL,
    KIND_RESP,
    FrameError,
    FrameReader,
    encode_frame,
)
from repro.errors import CommError, MessageLost, PartitionedError, RpcTimeout

logger = logging.getLogger(__name__)

_NO_RESPONSE = object()

#: in-process one-way message kind (no call id, no response)
KIND_POST = "post"

#: sentinel a listener handler may return to drop the response on the
#: floor (simulates a lost reply over a live connection)
NO_RESPONSE = object()


@runtime_checkable
class Transport(Protocol):
    """Anything that can deliver a request payload and return the
    correlated response payload."""

    def request(self, payload: Any, timeout: float | None = None,
                retries: int | None = None) -> Any:
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol


class CorrelatedChannel:
    """The retry/correlation engine shared by every transport.

    Subclasses implement :meth:`_transmit` (send one call frame; raise
    :class:`CommError` if the medium rejected it) and feed responses to
    :meth:`_deliver_response`.  Media with synchronous delivery (the
    simulated network runs the handler inside ``send``) use
    ``wait_timeout=None``: the response is either present immediately
    after a successful transmit or the message was lost.  Asynchronous
    media (sockets) pass a per-attempt wait in seconds.

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
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._next_call_id = 1
        #: call id -> result slot (kept _NO_RESPONSE until the first
        #: response for that id arrives; later duplicates are dropped)
        self._pending: dict[int, Any] = {}
        self.calls = 0
        self.retries = 0

    # -- medium hooks ---------------------------------------------------

    def _transmit(self, call_id: int, payload: Any) -> Any:
        """Send one call frame; returns an opaque attempt token passed
        to :meth:`_attempt_broken` (media that can detect a dead
        connection use it to cut response waits short)."""
        raise NotImplementedError

    def _attempt_broken(self, token: Any) -> bool:
        """True when the medium knows this attempt's response can never
        arrive (connection died) — the engine retries immediately."""
        return False

    def _deliver_response(self, call_id: int, result: Any) -> None:
        with self._cond:
            # Unknown id: a duplicate for a call that already returned,
            # or a response to a previous incarnation of this endpoint.
            if self._pending.get(call_id, None) is _NO_RESPONSE:
                self._pending[call_id] = result
                self._cond.notify_all()

    # -- engine ---------------------------------------------------------

    def _backoff(self, attempt: int) -> None:
        if self.backoff_base <= 0.0:
            return
        delay = min(self.backoff_max, self.backoff_base * self.backoff_factor ** attempt)
        with self._mutex:
            jitter = 0.5 + self._rng.random() / 2.0
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
        with self._mutex:
            call_id = self._next_call_id
            self._next_call_id += 1
            self._pending[call_id] = _NO_RESPONSE
        transmitted = False
        last: CommError | None = None
        try:
            for attempt in range(budget + 1):
                if attempt:
                    self.retries += 1
                    self._backoff(attempt - 1)
                try:
                    token = self._transmit(call_id, payload)
                except (MessageLost, PartitionedError) as exc:
                    last = exc
                    continue
                transmitted = True
                if self.wait_timeout is None:
                    # Synchronous medium: delivery (or loss) already
                    # happened inside _transmit — a per-call timeout
                    # has nothing to wait for.
                    with self._mutex:
                        result = self._pending[call_id]
                    if result is not _NO_RESPONSE:
                        return result
                    continue
                deadline = _time.monotonic() + wait
                with self._cond:
                    while True:
                        result = self._pending[call_id]
                        if result is not _NO_RESPONSE:
                            return result
                        if self._attempt_broken(token):
                            break
                        remaining = deadline - _time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
            if self._PARTITION_RAISES and not transmitted:
                raise PartitionedError(
                    f"peer unreachable after {budget} retries: {last}"
                ) from last
            raise RpcTimeout(
                f"no response after {budget} retries"
            )
        finally:
            with self._mutex:
                self._pending.pop(call_id, None)

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
        if not (isinstance(message, tuple) and len(message) == 3
                and message[0] == KIND_RESP):
            return  # not a correlated response; ignore
        _, call_id, result = message
        self._deliver_response(call_id, result)

    def _transmit(self, call_id: int, payload: Any) -> None:
        self.network.send(
            self.local,
            self.remote,
            (KIND_CALL, call_id, payload, self.local),
            reliable=True,
        )


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

#: per-attempt response wait before the call is retried (the retry may
#: re-execute at the server — at-least-once, like the in-proc channel)
DEFAULT_CALL_TIMEOUT = 10.0


class TcpTransport(CorrelatedChannel):
    """One multiplexed TCP connection to a :class:`TcpListener`.

    Thread-safe: any number of threads may :meth:`request` concurrently
    over the single socket; a reader thread routes each response frame
    to its caller by correlation id.  A send or connect failure tears
    the connection down and the retry path reconnects under the seeded
    backoff.  Reconnect-heavy defaults (higher backoff cap) keep a
    restart storm against a dead shard polite.
    """

    _PARTITION_RAISES = True

    def __init__(
        self,
        host: str,
        port: int,
        max_retries: int = 10,
        backoff_base: float = 0.02,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.5,
        seed: int = 0,
        timeout: float = DEFAULT_CALL_TIMEOUT,
        connect_timeout: float = 2.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        super().__init__(
            max_retries=max_retries,
            backoff_base=backoff_base,
            backoff_factor=backoff_factor,
            backoff_max=backoff_max,
            seed=seed,
            wait_timeout=timeout,
        )
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.max_frame = max_frame
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
            (self.host, self.port), timeout=self.connect_timeout
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

    def _teardown(self, sock: socket.socket) -> None:
        with self._io_lock:
            if self._sock is sock:
                self._sock = None
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _read_loop(self, sock: socket.socket, generation: int) -> None:
        reader = FrameReader(self.max_frame)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                self.bytes_received += len(chunk)
                for kind, call_id, payload in reader.feed(chunk):
                    if kind == KIND_RESP:
                        self._deliver_response(call_id, payload)
        except (OSError, FrameError):
            pass
        finally:
            # However the reader ends, the socket is dead: drop it and
            # wake blocked callers so they retry instead of waiting out
            # the full per-attempt timeout against it.
            self._teardown(sock)
            with self._cond:
                self._cond.notify_all()

    # -- engine hook ----------------------------------------------------

    def _transmit(self, call_id: int, payload: Any) -> int:
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
            try:
                sock.sendall(data)
            except OSError as exc:
                self._sock = None
                try:
                    sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass
                raise PartitionedError(
                    f"send to {self.host}:{self.port} failed: {exc}"
                ) from exc
            # under the lock: callers on any number of threads share it
            self.bytes_sent += len(data)
            return self._generation

    def _attempt_broken(self, token: Any) -> bool:
        # The socket that carried this attempt is gone: its response
        # can never arrive, so the engine should retry now rather than
        # wait out the full per-attempt timeout.
        sock = self._sock
        return sock is None or self._generation != token

    def close(self) -> None:
        with self._io_lock:
            self._closed = True
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass


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
        max_frame: int = DEFAULT_MAX_FRAME,
        max_inflight: int = 256,
    ):
        self.handler = handler
        self.max_frame = max_frame
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
        reader = FrameReader(self.max_frame)
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
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass

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
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
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
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._acceptor.join(timeout=1.0)
        try:
            self._server.close()
        except OSError:  # pragma: no cover - best effort
            pass
        with self._conns_lock:
            conns, self._conns = set(self._conns), set()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass
