"""TCP transport behaviour against real sockets: multiplexing,
correlation, retry/reconnect, and mid-call peer death."""

import os
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import zlib

import pytest

from repro.comm.remote import (
    QueueManagerService,
    handle_from_record,
    op_depth,
    op_dequeue,
    op_register,
)
from repro.comm import transport as transport_module
from repro.comm.transport import NO_RESPONSE, TcpListener, TcpTransport
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


class TestPeerDeath:
    def test_connect_refused_raises_partitioned(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listening on this port now
        transport = make_transport(port, max_retries=1)
        try:
            with pytest.raises(PartitionedError):
                transport.request({"op": "x"})
        finally:
            transport.close()

    def test_mid_call_peer_death_fails_fast(self):
        """The peer dies while a call is parked waiting for its reply:
        the caller must fail promptly (broken-attempt wakeup), not wait
        out the whole per-attempt timeout ladder."""
        listener = TcpListener(lambda payload: NO_RESPONSE)  # never replies
        transport = make_transport(
            listener.port, timeout=30.0, max_retries=0)
        result: list = []

        def call():
            try:
                transport.request({"op": "x"})
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
            transport.close()
            listener.close()


    def test_a_malformed_reply_fails_the_call_promptly(self):
        """A peer answers with a CRC-valid frame whose body is not a
        ``[kind, call_id, payload]`` list: the reader must tear the
        connection down and wake the caller, not die and leave it to
        wait out its timeout against a socket nobody reads."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def serve():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                body = encode(7)
                conn.sendall(struct.pack(">2sBBII", b"RQ", 1, 0, len(body),
                                         zlib.crc32(body)) + body)
                conn.recv(65536)  # until the caller hangs up

        threading.Thread(target=serve, daemon=True).start()
        transport = make_transport(
            server.getsockname()[1], timeout=30.0, max_retries=0)
        started = time.monotonic()
        try:
            with pytest.raises(CommError):
                transport.request({"op": "x"})
            assert time.monotonic() - started < 5.0
        finally:
            transport.close()
            server.close()


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
    def _misdirecting_server(self, wrong_offset=1000):
        """A hand-rolled server that answers every call twice: first
        with a *wrong* correlation id, then with the right one."""
        server = socket.socket()
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def serve():
            conn, _ = server.accept()
            frames = FrameReader()
            try:
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    for _kind, call_id, _payload in frames.feed(chunk):
                        conn.sendall(encode_frame(
                            KIND_RESP, call_id + wrong_offset,
                            ok_payload("imposter")))
                        conn.sendall(encode_frame(
                            KIND_RESP, call_id, ok_payload("genuine")))
            except OSError:
                pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return server

    def test_mismatched_correlation_id_is_ignored(self):
        server = self._misdirecting_server()
        transport = make_transport(server.getsockname()[1])
        try:
            assert unwrap(transport.request({"op": "x"})) == "genuine"
        finally:
            transport.close()
            server.close()

    def test_only_wrong_ids_means_timeout(self):
        """A peer that never echoes the right id gives the caller
        nothing to correlate: the call must time out, not mis-deliver."""
        server = socket.socket()
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def serve():
            conn, _ = server.accept()
            frames = FrameReader()
            try:
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    for _kind, call_id, _payload in frames.feed(chunk):
                        conn.sendall(encode_frame(
                            KIND_RESP, call_id + 7, ok_payload("wrong")))
            except OSError:
                pass

        threading.Thread(target=serve, daemon=True).start()
        transport = make_transport(
            server.getsockname()[1], timeout=0.2, max_retries=1)
        try:
            with pytest.raises(RpcTimeout):
                transport.request({"op": "x"})
        finally:
            transport.close()
            server.close()


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
