"""The asyncio clerk gateway: async sessions over real shard processes,
and the two admission gates (in-flight cap, queue-depth watermark) that
turn overload into :class:`~repro.errors.Busy` pushback instead of
unbounded queue growth."""

import asyncio
import shutil
import tempfile

import pytest

from repro.core.system import TPSystem
from repro.errors import Busy, PartitionedError
from repro.gateway import Gateway


@pytest.fixture
def tcp_system():
    data_dir = tempfile.mkdtemp(prefix="repro-test-gw-")
    system = TPSystem(deployment="tcp", shards=2, data_dir=data_dir)
    try:
        yield system
    finally:
        system.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def endpoints(system):
    return [("127.0.0.1", s.port) for s in system.supervisor.shards]


def run(coro):
    return asyncio.run(coro)


async def process_in_thread(server):
    return await asyncio.get_event_loop().run_in_executor(
        None, server.process_one
    )


class HeldPool:
    """A stand-in shard pool whose calls wait, as the real connection's
    do, in ``asyncio.wait_for`` on an answer the test sets."""

    def __init__(self):
        self.answer: asyncio.Future | None = None
        self.called = asyncio.Event()

    async def call(self, payload, timeout=None):
        self.answer = asyncio.get_running_loop().create_future()
        self.called.set()
        return await asyncio.wait_for(self.answer, timeout=10)

    async def close(self):
        pass


class TestGatewaySessions:
    def test_async_round_trip(self, tcp_system):
        server = tcp_system.server("s1", lambda txn, r: {"done": r.body})

        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
            )
            await gateway.start()
            try:
                session = await gateway.session("g1")
                rid = await session.submit({"work": 1})
                assert rid == "g1#1"
                assert await process_in_thread(server) is True
                reply = await session.receive(timeout=10)
                assert reply["body"] == {"done": {"work": 1}}
                assert reply["rid"] == rid
                await session.close()
            finally:
                await gateway.close()
            assert gateway.admitted == 1
            assert gateway.refused == 0

        run(scenario())

    def test_many_sessions_one_gateway(self, tcp_system):
        """Several concurrent async clients multiplex the same few
        sockets; every session gets exactly its own replies."""
        server = tcp_system.server("s1", lambda txn, r: {"echo": r.body})

        async def client(gateway, cid):
            session = await gateway.session(cid)
            await session.submit({"from": cid})
            while await process_in_thread(server):
                pass
            reply = await session.receive(timeout=10)
            assert reply["body"] == {"echo": {"from": cid}}
            return cid

        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
            )
            await gateway.start()
            try:
                done = await asyncio.gather(
                    *(client(gateway, f"g{i}") for i in range(4))
                )
                assert sorted(done) == [f"g{i}" for i in range(4)]
            finally:
                await gateway.close()

        run(scenario())

    def test_a_receive_after_a_lost_answer_reads_the_reply_back(self, tcp_system):
        """The shard committed the reply's dequeue but its answer was
        lost: the next Receive finds the queue empty and reads the reply
        back through the registration — two extra calls, on that path
        only."""
        server = tcp_system.server("s1", lambda txn, r: {"done": r.body})

        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
            )
            await gateway.start()
            try:
                session = await gateway.session("g1")
                rid = await session.submit({"work": 1})
                assert await process_in_thread(server) is True
                pool = gateway.pools[gateway._shard_of(session.reply_queue)]
                real_call = pool.call
                ops = []

                async def lose_the_first_dequeue_answer(payload, timeout=None):
                    if payload["op"] != "depth":
                        ops.append(payload["op"])
                    answer = await real_call(payload, timeout=timeout)
                    if ops == ["dequeue"]:
                        raise PartitionedError("answer lost")
                    return answer

                pool.call = lose_the_first_dequeue_answer
                with pytest.raises(PartitionedError):
                    await session.receive(timeout=1)
                reply = await session.receive(timeout=1)
                assert reply["rid"] == rid
                assert reply["body"] == {"done": {"work": 1}}
                assert ops == ["dequeue", "dequeue", "registration_info", "read"]
                assert gateway.inflight == 0
            finally:
                await gateway.close()

        run(scenario())


class TestAdmissionControl:
    def test_inflight_cap_pushes_back(self, tcp_system):
        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
                max_inflight=2,
            )
            await gateway.start()
            try:
                session = await gateway.session("g1")
                await session.submit({"n": 1})
                await session.submit({"n": 2})
                with pytest.raises(Busy, match="max_inflight"):
                    await session.submit({"n": 3})
                assert gateway.admitted == 2
                assert gateway.refused == 1
            finally:
                await gateway.close()

        run(scenario())

    def test_depth_watermark_pushes_back(self, tcp_system):
        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
                depth_limit=2,
            )
            await gateway.start()
            try:
                session = await gateway.session("g1")
                await session.submit({"n": 1})
                await session.submit({"n": 2})
                with pytest.raises(Busy, match="depth"):
                    await session.submit({"n": 3})
            finally:
                await gateway.close()
            # The refused request was never accepted: nothing durable.
            assert tcp_system.request_qm.depth(
                tcp_system.request_queue) == 2

        run(scenario())

    def test_backpressure_off_admits_past_watermark(self, tcp_system):
        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
                depth_limit=1,
                backpressure=False,
            )
            await gateway.start()
            try:
                session = await gateway.session("g1")
                for n in range(4):
                    await session.submit({"n": n})
                assert gateway.admitted == 4
            finally:
                await gateway.close()

        run(scenario())

    def test_replies_release_admission_slots(self, tcp_system):
        """A consumed reply frees an in-flight slot and debits the depth
        estimate — sustained throughput under a tight cap."""
        server = tcp_system.server("s1", lambda txn, r: r.body)

        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
                max_inflight=1,
            )
            await gateway.start()
            try:
                session = await gateway.session("g1")
                for n in range(3):
                    await session.submit({"n": n})
                    assert await process_in_thread(server) is True
                    reply = await session.receive(timeout=10)
                    assert reply["body"] == {"n": n}
                assert gateway.inflight == 0
                assert gateway.admitted == 3
                assert gateway.refused == 0
            finally:
                await gateway.close()

        run(scenario())

    def test_depth_estimate_reanchors_behind_external_consumers(
        self, tcp_system
    ):
        """A server draining the queue behind the gateway's back brings
        the estimate down via the periodic refresh, re-opening
        admission without any reply traffic through this gateway."""
        server = tcp_system.server("s1", lambda txn, r: r.body)

        async def scenario():
            gateway = Gateway(
                endpoints(tcp_system),
                request_queue=tcp_system.request_queue,
                depth_limit=2,
                depth_refresh=0.05,
            )
            await gateway.start()
            try:
                session = await gateway.session("g1")
                await session.submit({"n": 1})
                await session.submit({"n": 2})
                with pytest.raises(Busy):
                    await session.submit({"n": 3})
                # Drain externally; the refresher re-anchors the estimate.
                while await process_in_thread(server):
                    pass
                await asyncio.sleep(0.3)
                await session.submit({"n": 3})
                assert gateway.admitted == 3
            finally:
                await gateway.close()

        run(scenario())


class TestClose:
    def test_close_stops_a_refresher_whose_cancel_is_swallowed(self):
        """A depth answer that lands in the loop turn before ``close``
        cancels the refresher: ``asyncio.wait_for`` (before 3.12) returns
        the answer instead of raising, and ``close`` must still end."""

        async def scenario():
            gateway = Gateway([("127.0.0.1", 1)], depth_refresh=0)
            pool = HeldPool()
            gateway.pools = [pool]
            gateway._refresher = asyncio.ensure_future(gateway._refresh_loop())
            await pool.called.wait()
            pool.answer.set_result(7)
            closing = asyncio.ensure_future(gateway.close())
            await asyncio.wait({closing}, timeout=5)
            ended = closing.done()
            if not ended:
                closing.cancel()  # its await of the refresher cancels that
                await asyncio.wait({closing})
            assert ended, "close() waited on a refresher that kept running"

        run(scenario())
