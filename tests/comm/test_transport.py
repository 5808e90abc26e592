"""TCP transport behaviour against real sockets: multiplexing,
correlation, retry/reconnect, and mid-call peer death.  The correlation
and peer-death contract runs against both socket drivers, threaded and
asyncio."""

import asyncio
import os
import queue
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import zlib
from concurrent.futures import Future

import pytest

from repro.comm.remote import (
    QueueManagerService,
    handle_from_record,
    op_depth,
    op_dequeue,
    op_register,
)
from repro.comm import transport as transport_module
from repro.comm.transport import (
    NO_RESPONSE,
    AsyncShardConnection,
    CallTable,
    TcpListener,
    TcpTransport,
)
from repro.comm.wire import (
    KIND_CALL,
    KIND_RESP,
    FrameReader,
    encode_frame,
    ok_payload,
    unwrap,
)
from repro.errors import (
    CommError,
    PartitionedError,
    QueueEmpty,
    ReproError,
    RpcTimeout,
)
from repro.queueing.manager import QueueManager
from repro.queueing.repository import QueueRepository
from repro.storage.codec import encode
from repro.storage.disk import MemDisk


def make_transport(port, **kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    return TcpTransport("127.0.0.1", port, **kwargs)


class TestTcpRoundTrip:
    def test_call_round_trip(self):
        listener = TcpListener(lambda payload: ok_payload(payload["x"] * 2))
        transport = make_transport(listener.port)
        try:
            assert unwrap(transport.request({"x": 21})) == 42
        finally:
            transport.close()
            listener.close()

    def test_concurrent_calls_multiplex_one_socket(self):
        """Many threads share one connection; correlation ids route
        each response to exactly its caller."""
        listener = TcpListener(lambda payload: ok_payload(payload["n"]))
        transport = make_transport(listener.port)
        results: dict[int, int] = {}

        def worker(n):
            results[n] = unwrap(transport.request({"n": n}))

        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == {n: n for n in range(16)}
            assert transport.reconnects == 0  # one socket for all of it
        finally:
            transport.close()
            listener.close()

    def test_swallowed_response_is_retried(self):
        """NO_RESPONSE lets a handler drop its reply (a lost response
        in fault-injection terms): at-least-once retry must deliver."""
        calls = []

        def handler(payload):
            calls.append(payload["n"])
            if len(calls) == 1:
                return NO_RESPONSE
            return ok_payload(len(calls))

        listener = TcpListener(handler)
        transport = make_transport(listener.port, timeout=0.2)
        try:
            assert unwrap(transport.request({"n": 1})) == 2
            assert calls == [1, 1]  # executed twice: duplicate delivered
        finally:
            transport.close()
            listener.close()

    def test_reconnects_after_listener_restart(self):
        listener = TcpListener(lambda payload: ok_payload("a"))
        port = listener.port
        transport = make_transport(port, timeout=0.5, backoff_base=0.01)
        try:
            assert unwrap(transport.request(None)) == "a"
            listener.close()
            listener = TcpListener(
                lambda payload: ok_payload("b"), port=port)
            assert unwrap(transport.request(None)) == "b"
            assert transport.reconnects >= 1
        finally:
            transport.close()
            listener.close()


class ThreadedDriver:
    """The threaded TCP driver behind the contract's synchronous face:
    at-most-once (``retries=0``), results unwrapped."""

    def __init__(self, port, timeout=30.0):
        self.transport = make_transport(port, timeout=timeout, max_retries=0)

    def call(self, payload):
        return unwrap(self.transport.request(payload))

    def close(self):
        self.transport.close()


class AsyncioDriver:
    """The asyncio driver behind the same face, on a private event loop
    (which any one thread at a time may run)."""

    def __init__(self, port, timeout=30.0):
        self.loop = asyncio.new_event_loop()
        self.connection = AsyncShardConnection("127.0.0.1", port)
        self.timeout = timeout

    def call(self, payload):
        return self.loop.run_until_complete(
            self.connection.call(payload, timeout=self.timeout))

    def close(self):
        self.loop.run_until_complete(self.connection.close())
        self.loop.close()


def hand_rolled_peer(answer):
    """A listening socket whose connections run ``answer(conn, call_id,
    payload)`` for every call frame they read, until the caller hangs
    up; returns the socket and the list of connections it accepted.
    Stop it with :func:`stop_peer`."""
    server = socket.socket()
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(16)
    accepted = []

    def serve(conn):
        with conn:
            frames = FrameReader()
            try:
                while chunk := conn.recv(65536):
                    for _kind, call_id, payload in frames.feed(chunk):
                        answer(conn, call_id, payload)
            except OSError:
                pass

    def accept():
        while True:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            accepted.append(conn)
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    threading.Thread(target=accept, daemon=True).start()
    return server, accepted


def stop_peer(server):
    server.shutdown(socket.SHUT_RDWR)  # wakes the accept loop
    server.close()


def respond(conn, call_id, value):
    conn.sendall(encode_frame(KIND_RESP, call_id, ok_payload(value)))


class TestPeerDeath:
    """Driver contract: a peer that is unreachable, dies mid-call or
    answers garbage fails the call promptly with a :class:`CommError`.
    This class runs it on the threaded driver, its subclass on the
    asyncio one."""

    driver = ThreadedDriver

    def test_connect_refused_raises_partitioned(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listening on this port now
        driver = self.driver(port)
        try:
            with pytest.raises(PartitionedError):
                driver.call({"op": "x"})
        finally:
            driver.close()

    def test_mid_call_peer_death_fails_fast(self):
        """The peer dies while a call is parked waiting for its reply:
        the caller must fail promptly (broken-attempt wakeup), not wait
        out the whole per-attempt timeout ladder."""
        listener = TcpListener(lambda payload: NO_RESPONSE)  # never replies
        driver = self.driver(listener.port, timeout=30.0)
        result: list = []

        def call():
            try:
                driver.call({"op": "x"})
                result.append("returned")
            except (RpcTimeout, PartitionedError) as exc:
                result.append(exc)

        thread = threading.Thread(target=call)
        try:
            thread.start()
            # Let the request hit the wire, then kill the server.
            time.sleep(0.3)
            listener.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "caller still stuck after peer death"
            assert result and isinstance(result[0], CommError)
        finally:
            driver.close()
            listener.close()

    def test_a_malformed_reply_fails_the_call_promptly(self):
        """A peer answers with a CRC-valid frame whose body is not a
        ``[kind, call_id, payload]`` list: the reader must tear the
        connection down and wake the caller, not die and leave it to
        wait out its timeout against a socket nobody reads."""
        def answer(conn, _call_id, _payload):
            body = encode(7)
            conn.sendall(struct.pack(">2sBBII", b"RQ", 1, 0, len(body),
                                     zlib.crc32(body)) + body)

        server, _ = hand_rolled_peer(answer)
        driver = self.driver(server.getsockname()[1], timeout=30.0)
        started = time.monotonic()
        try:
            with pytest.raises(CommError):
                driver.call({"op": "x"})
            assert time.monotonic() - started < 5.0
        finally:
            driver.close()
            stop_peer(server)


class TestPeerDeathAsyncio(TestPeerDeath):
    driver = AsyncioDriver


class TestCounters:
    def test_bytes_sent_counts_every_frame_under_concurrency(self, monkeypatch):
        """Eight threads share one transport: ``bytes_sent`` is the sum
        of the frames they sent, with no update lost to a race."""
        sent: list[int] = []
        lock = threading.Lock()

        def counting_encode_frame(kind, *args, **kwargs):
            frame = encode_frame(kind, *args, **kwargs)
            if kind == KIND_CALL:  # the listener's responses share the module
                with lock:
                    sent.append(len(frame))
            return frame

        monkeypatch.setattr(transport_module, "encode_frame", counting_encode_frame)
        listener = TcpListener(lambda payload: ok_payload(payload["n"]))
        transport = make_transport(listener.port)

        def caller(index):
            for n in range(500):
                assert unwrap(transport.request({"n": index * 1000 + n})) == index * 1000 + n

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(sent) == 8 * 500
            assert transport.bytes_sent == sum(sent)
        finally:
            sys.setswitchinterval(interval)
            transport.close()
            listener.close()


class TestCorrelation:
    """Driver contract: a response reaches exactly the call whose id it
    carries, once.  This class runs it on the threaded driver, its
    subclass on the asyncio one."""

    driver = ThreadedDriver

    def test_mismatched_correlation_id_is_ignored(self):
        def answer(conn, call_id, _payload):  # a wrong id first
            respond(conn, call_id + 1000, "imposter")
            respond(conn, call_id, "genuine")

        server, _ = hand_rolled_peer(answer)
        driver = self.driver(server.getsockname()[1])
        try:
            assert driver.call({"op": "x"}) == "genuine"
        finally:
            driver.close()
            stop_peer(server)

    def test_only_wrong_ids_means_timeout(self):
        """A peer that never echoes the right id gives the caller
        nothing to correlate: the call must time out, not mis-deliver."""
        server, _ = hand_rolled_peer(
            lambda conn, call_id, _payload: respond(conn, call_id + 7, "wrong"))
        driver = self.driver(server.getsockname()[1], timeout=0.2)
        try:
            with pytest.raises(RpcTimeout):
                driver.call({"op": "x"})
        finally:
            driver.close()
            stop_peer(server)

    def test_a_duplicated_response_is_dropped(self):
        """Every answer arrives twice: each call still gets its own, and
        the duplicate neither fails the connection nor reaches the next
        call."""
        def answer(conn, call_id, payload):
            respond(conn, call_id, payload["n"])
            respond(conn, call_id, payload["n"])

        server, accepted = hand_rolled_peer(answer)
        driver = self.driver(server.getsockname()[1])
        try:
            assert [driver.call({"n": n}) for n in range(5)] == list(range(5))
            assert len(accepted) == 1
        finally:
            driver.close()
            stop_peer(server)


class TestCorrelationAsyncio(TestCorrelation):
    driver = AsyncioDriver

    def test_a_burst_of_first_calls_opens_one_socket(self):
        server, accepted = hand_rolled_peer(
            lambda conn, call_id, payload: respond(conn, call_id, payload["n"]))
        connection = AsyncShardConnection("127.0.0.1", server.getsockname()[1])

        async def burst():
            try:
                return await asyncio.gather(
                    *(connection.call({"n": n}) for n in range(16)))
            finally:
                await connection.close()

        try:
            assert asyncio.run(burst()) == list(range(16))
            assert len(accepted) == 1
            assert connection.reconnects == 1
        finally:
            stop_peer(server)


class TestRetryEngine:
    def test_a_response_between_attempts_answers_the_retry(self):
        """The first attempt times out; its response arrives while the
        retry backs off.  The retry returns it, though the peer never
        answers the retry's own frame."""
        seen = []
        transport = None

        def answer(conn, call_id, _payload):
            seen.append(call_id)
            if len(seen) == 1:
                while transport.retries == 0:  # attempt 1 gave up
                    time.sleep(0.005)
                respond(conn, call_id, "late")

        server, _ = hand_rolled_peer(answer)
        # the retry sleeps 0.5-1.0 s: ample time for the late answer
        transport = make_transport(
            server.getsockname()[1], timeout=0.2, max_retries=1,
            backoff_base=1.0, backoff_max=1.0)
        try:
            assert unwrap(transport.request({"op": "x"})) == "late"
            assert transport.retries == 1
            wait_until(lambda: len(seen) == 2)  # the retry did go out,
            assert seen == [seen[0], seen[0]]  # as the same call
        finally:
            transport.close()
            stop_peer(server)


class ScriptedSocket:
    """A socket for :class:`TcpTransport` whose far end is the test:
    it keeps the call ids sent on it, reads what the test puts in
    ``inbound``, and notices a shutdown only when the test hangs up —
    a reader slow to learn its connection is dead."""

    def __init__(self):
        self.calls = []
        self.inbound = queue.SimpleQueue()
        self.broken = False
        self._frames = FrameReader()

    def sendall(self, data):
        if self.broken:
            raise ConnectionResetError("scripted reset")
        self.calls += [call_id for _k, call_id, _p in self._frames.feed(data)]

    def recv(self, _size):
        return self.inbound.get()

    def settimeout(self, _timeout):
        pass

    def setsockopt(self, *_args):
        pass

    def shutdown(self, _how):
        pass

    def close(self):
        pass


class ScriptedStreams:
    """The (reader, writer) pair of :func:`asyncio.open_connection`
    with the test at the far end, in the same spirit."""

    def __init__(self):
        self.calls = []
        self.broken = False
        self.reader = asyncio.StreamReader()
        self.transport = self  # the driver's close aborts writer.transport
        self._frames = FrameReader()

    def write(self, data):
        self.calls += [call_id for _k, call_id, _p in self._frames.feed(data)]

    async def drain(self):
        if self.broken:
            raise ConnectionResetError("scripted reset")

    def close(self):
        pass

    def abort(self):
        self.reader.feed_eof()


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.005)


class TestSupersededConnection:
    """A failed send replaces a connection while its reader still runs.
    When that reader finally ends, it fails the calls parked on its
    own connection only: the successor's calls survive."""

    def test_threaded(self, monkeypatch):
        links = [ScriptedSocket(), ScriptedSocket()]
        opened = iter(links)
        monkeypatch.setattr(socket, "create_connection",
                            lambda *_args, **_kwargs: next(opened))
        transport = TcpTransport("127.0.0.1", 1, timeout=30.0,
                                 backoff_base=0.0)
        outcomes = {}

        def call(name, retries):
            try:
                outcomes[name] = unwrap(
                    transport.request({"op": name}, retries=retries))
            except CommError as exc:
                outcomes[name] = exc

        first = threading.Thread(target=call, args=("first", 0))
        second = threading.Thread(target=call, args=("second", 1))
        try:
            first.start()
            wait_until(lambda: links[0].calls)
            links[0].broken = True  # the second call's send fails ...
            second.start()
            wait_until(lambda: links[1].calls)  # ... and its retry reconnects
            links[0].inbound.put(b"")  # the stale reader ends now
            first.join(timeout=5.0)
            assert isinstance(outcomes["first"], CommError)
            assert second.is_alive()  # still parked on the successor
            links[1].inbound.put(encode_frame(
                KIND_RESP, links[1].calls[0], ok_payload("survived")))
            second.join(timeout=5.0)
            assert outcomes["second"] == "survived"
        finally:
            for link in links:
                link.inbound.put(b"")
            transport.close()

    def test_asyncio(self, monkeypatch):
        links = []

        async def open_connection(_host, _port):
            links.append(ScriptedStreams())
            return links[-1].reader, links[-1]

        monkeypatch.setattr(asyncio, "open_connection", open_connection)
        connection = AsyncShardConnection("127.0.0.1", 1)

        async def scenario():
            first = asyncio.ensure_future(connection.call({"op": "first"}))
            await asyncio.sleep(0.01)
            links[0].broken = True
            with pytest.raises(PartitionedError):  # fails its connection,
                await connection.call({"op": "second"})
            with pytest.raises(PartitionedError):  # and so its calls
                await first
            third = asyncio.ensure_future(connection.call({"op": "third"}))
            await asyncio.sleep(0.01)
            assert len(links) == 2 and links[1].calls
            links[0].reader.feed_eof()  # the stale read loop ends now
            await asyncio.sleep(0.01)
            assert not third.done()
            links[1].reader.feed_data(encode_frame(
                KIND_RESP, links[1].calls[0], ok_payload("survived")))
            assert await third == "survived"
            await connection.close()

        asyncio.run(scenario())


class TestCallTable:
    """The sans-IO core on its own, with plain futures."""

    def test_the_first_response_wins(self):
        table = CallTable()
        call_id = table.new_id()
        future = table.park(call_id, Future(), 1)
        frames = encode_frame(KIND_RESP, call_id, "first") + encode_frame(
            KIND_RESP, call_id, "duplicate") + encode_frame(
            KIND_RESP, call_id + 1, "unknown id")
        table.feed(FrameReader(), frames)
        assert future.result(0) == "first"

    def test_a_lost_connection_fails_only_its_own_calls(self):
        table = CallTable()
        old, new = table.new_id(), table.new_id()
        on_old = table.park(old, Future(), 1)
        on_new = table.park(new, Future(), 2)
        table.lost(1, PartitionedError("connection 1 lost"))
        with pytest.raises(PartitionedError):
            on_old.result(0)
        assert not on_new.done()

    def test_a_retry_reuses_a_future_that_holds_a_late_response(self):
        table = CallTable()
        call_id = table.new_id()
        first = table.park(call_id, Future(), 1)
        table.resolve(call_id, "late")
        assert table.park(call_id, Future(), 2) is first
        table.forget(call_id)
        fresh = Future()
        assert table.park(call_id, fresh, 2) is fresh


def _workers(listener):
    return [t for t in threading.enumerate()
            if t.name == f"tcp-worker-{listener.port}"]


class TestResidentWorkers:
    """The listener serves calls from parked worker threads: started
    when none is free, reused afterwards, never more than
    ``max_inflight``."""

    def _queue_service(self):
        repo = QueueRepository("s0", MemDisk())
        repo.create_queue("q")
        service = QueueManagerService(QueueManager(repo))
        handle = unwrap(service.handle(op_register("q", "r1")))["handle"]
        return service, handle_from_record(handle)

    def test_a_parked_blocking_dequeue_does_not_delay_its_socket(self):
        service, handle = self._queue_service()
        listener = TcpListener(service.handle)
        transport = make_transport(listener.port)

        def blocked():
            try:
                unwrap(transport.request(
                    op_dequeue(handle, block=True, timeout=5.0), timeout=10.0))
            except (QueueEmpty, CommError):
                pass  # the test ends (and closes the transport) first

        waiter = threading.Thread(target=blocked, daemon=True)
        try:
            waiter.start()
            deadline = time.monotonic() + 5.0
            while not _workers(listener) and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.monotonic()
            for _ in range(20):
                assert unwrap(transport.request(op_depth("q"))) == 0
            assert time.monotonic() - started < 2.0
            assert waiter.is_alive()  # still parked in its dequeue
            assert transport.reconnects == 0  # the same socket throughout
            assert len(_workers(listener)) == 2
        finally:
            transport.close()
            listener.close()

    def test_sequential_calls_reuse_one_worker(self):
        listener = TcpListener(lambda payload: ok_payload(payload["n"]))
        transport = make_transport(listener.port)
        try:
            assert unwrap(transport.request({"n": -1})) == -1
            threads = threading.active_count()
            (worker,) = _workers(listener)
            for n in range(1000):
                assert unwrap(transport.request({"n": n})) == n
            assert threading.active_count() == threads
            assert _workers(listener) == [worker]
            assert listener.handled == 1001
        finally:
            transport.close()
            listener.close()

    def test_concurrent_calls_never_exceed_max_inflight(self):
        running, peak, gate = [0], [0], threading.Lock()

        def handler(payload):
            with gate:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.02)
            with gate:
                running[0] -= 1
            return ok_payload(payload["n"])

        listener = TcpListener(handler, max_inflight=3)
        transport = make_transport(listener.port)
        results: dict[int, int] = {}

        def call(n):
            results[n] = unwrap(transport.request({"n": n}))

        try:
            threads = [threading.Thread(target=call, args=(n,)) for n in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert results == {n: n for n in range(12)}
            assert peak[0] <= 3
            assert 1 <= len(_workers(listener)) <= 3
        finally:
            transport.close()
            listener.close()

    def test_close_lets_the_workers_go(self):
        listener = TcpListener(lambda payload: ok_payload(None))
        transport = make_transport(listener.port)
        try:
            unwrap(transport.request({}))
            (worker,) = _workers(listener)
        finally:
            transport.close()
            listener.close()
        worker.join(timeout=5.0)
        assert not worker.is_alive()

    def test_an_escaping_exception_drops_the_connection_not_the_worker(self):
        """The caller must fail at once (its attempts find the
        connection gone), not wait out timeout x (retries + 1)."""
        def handler(payload):
            if payload.get("boom"):
                raise KeyError("op")
            return ok_payload("fine")

        listener = TcpListener(handler)
        transport = make_transport(listener.port, timeout=30.0, max_retries=1)
        try:
            assert unwrap(transport.request({})) == "fine"
            (worker,) = _workers(listener)
            started = time.monotonic()
            with pytest.raises(CommError):
                transport.request({"boom": 1})
            assert time.monotonic() - started < 5.0
            assert unwrap(transport.request({})) == "fine"  # reconnects
            assert worker.is_alive()
        finally:
            transport.close()
            listener.close()

    def test_a_malformed_payload_is_answered_over_the_wire(self):
        service, _handle = self._queue_service()
        listener = TcpListener(service.handle)
        transport = make_transport(listener.port, timeout=30.0, max_retries=1)
        try:
            started = time.monotonic()
            with pytest.raises(ReproError, match="missing field 'op'"):
                unwrap(transport.request({"nop": 1}))
            assert time.monotonic() - started < 5.0
            assert transport.retries == 0 and transport.reconnects == 0
        finally:
            transport.close()
            listener.close()

    def test_a_worker_parked_in_a_long_dequeue_does_not_hold_up_exit(self):
        script = textwrap.dedent("""
            import threading, time
            from repro.comm.remote import (QueueManagerService, handle_from_record,
                                           op_dequeue, op_register)
            from repro.comm.transport import TcpListener, TcpTransport
            from repro.comm.wire import unwrap
            from repro.queueing.manager import QueueManager
            from repro.queueing.repository import QueueRepository
            from repro.storage.disk import MemDisk

            repo = QueueRepository("s0", MemDisk())
            repo.create_queue("q")
            service = QueueManagerService(QueueManager(repo))
            handle = handle_from_record(
                unwrap(service.handle(op_register("q", "r1")))["handle"])
            listener = TcpListener(service.handle)
            transport = TcpTransport("127.0.0.1", listener.port)
            threading.Thread(
                target=transport.request,
                args=(op_dequeue(handle, block=True, timeout=60.0), 70.0),
                daemon=True,
            ).start()
            while not any(t.name.startswith("tcp-worker") for t in threading.enumerate()):
                time.sleep(0.01)
            time.sleep(0.2)  # the worker is inside its 60 s dequeue now
            print("parked", flush=True)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             env.get("PYTHONPATH", "")])
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=30.0,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "parked"
        assert time.monotonic() - started < 15.0
