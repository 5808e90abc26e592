"""The asyncio clerk gateway: many front-end sessions, few sockets.

Section 2 calls the queue "the gateway between the non-transaction
world of front-ends and the transactional world of back-ends".  This
module makes that literal: a :class:`Gateway` is an async front end
that terminates many concurrent client sessions in one event loop and
speaks the wire protocol to the shard processes over a small pool of
multiplexed connections.

Two admission-control gates protect the back end (the reproduction's
take on the paper's overload story — a queue absorbs bursts, but an
*unbounded* queue just converts overload into unbounded latency):

* an **in-flight cap**: at most ``max_inflight`` accepted-but-unreplied
  requests per gateway, and
* a **queue-depth watermark**: submissions are refused while the
  request queue's depth estimate is at or above ``depth_limit``.

Both refusals surface as :class:`~repro.errors.Busy` *before* the
request is accepted — the client retries later, and no durable state
exists anywhere, so the exactly-once accounting is untouched (a
``Busy`` request was never accepted).  The depth estimate is O(1) per
request: a local counter (+1 per accepted submit, −1 per received
reply) re-anchored to the true depth by a periodic refresh task.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.comm import remote
from repro.comm.transport import AsyncShardPool
from repro.core.clerk import Clerk, Steps
from repro.core.request import Request, make_rid, rid_sequence
from repro.errors import Busy, CommError, ReproError
from repro.obs import Observability, get_observability
from repro.queueing.placement import ConsistentHashPlacement, PlacementPolicy
from repro.queueing.sharded import route

class Gateway:
    """Async clerk front end over the shard processes."""

    def __init__(
        self,
        endpoints: list[tuple[str, int]],
        request_queue: str = "req.q",
        *,
        name: str = "gateway",
        max_inflight: int = 64,
        depth_limit: int = 512,
        backpressure: bool = True,
        depth_refresh: float = 0.25,
        placement: PlacementPolicy | None = None,
        obs: Observability | None = None,
    ):
        self.name = name
        self.request_queue = request_queue
        self.max_inflight = max_inflight
        self.depth_limit = depth_limit
        self.backpressure = backpressure
        self.depth_refresh = depth_refresh
        self.placement = (
            placement if placement is not None else ConsistentHashPlacement()
        )
        self.pools = [
            AsyncShardPool(host, port) for host, port in endpoints
        ]
        self.inflight = 0
        self.depth_estimate = 0
        self.admitted = 0
        self.refused = 0
        self._locations: dict[str, int] = {}
        self._refresher: asyncio.Task | None = None
        self._closed = False
        self.obs = obs if obs is not None else get_observability()
        metrics = self.obs.metrics
        self._m_requests = metrics.counter(
            "gateway_requests_total",
            "gateway admission outcomes", ("gateway", "outcome"),
        )
        self._m_admitted = self._m_requests.labels(
            gateway=name, outcome="admitted")
        self._m_busy_inflight = self._m_requests.labels(
            gateway=name, outcome="busy_inflight")
        self._m_busy_depth = self._m_requests.labels(
            gateway=name, outcome="busy_depth")
        self._m_inflight = metrics.gauge(
            "gateway_inflight",
            "accepted-but-unreplied requests held by the gateway",
            ("gateway",),
        ).labels(gateway=name)
        self._m_depth = metrics.gauge(
            "gateway_depth_estimate",
            "gateway's O(1) request-queue depth estimate", ("gateway",),
        ).labels(gateway=name)
        self._m_rpc = metrics.histogram(
            "gateway_rpc_seconds",
            "gateway-side wire call latency", ("gateway", "shard"),
        )

    # -- shard routing ---------------------------------------------------

    def _shard_of(self, qname: str) -> int:
        # The repositories' ordering over the locations ``hello`` taught
        # this gateway; it creates no error queue, so it holds no pins.
        return route(qname, self._locations.get(qname), {},
                     self.placement, len(self.pools))

    async def _call(self, qname: str, payload: dict[str, Any],
                    timeout: float | None = None) -> Any:
        shard = self._shard_of(qname)
        loop = asyncio.get_event_loop()
        started = loop.time()
        try:
            return await self.pools[shard].call(payload, timeout=timeout)
        finally:
            self._m_rpc.labels(
                gateway=self.name, shard=str(shard)
            ).observe(loop.time() - started)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Learn the queue layout and start the depth refresher."""
        for shard, pool in enumerate(self.pools):
            hello = await pool.call({"op": "hello"})
            for qname in hello["queues"]:
                self._locations.setdefault(qname, shard)
        self.depth_estimate = await self._true_depth()
        self._m_depth.set(self.depth_estimate)
        self._refresher = asyncio.ensure_future(self._refresh_loop())

    async def _true_depth(self) -> int:
        return await self._call(
            self.request_queue, remote.op_depth(self.request_queue)
        )

    async def _refresh_loop(self) -> None:
        """Periodically re-anchor the depth estimate to the truth (the
        local counter drifts when servers or other gateways consume the
        queue behind this gateway's back).

        The loop also ends on :meth:`close`'s flag, not only on its
        cancel: a cancel that lands just after a depth answer arrived is
        swallowed by ``asyncio.wait_for`` before Python 3.12 (the call
        returns the answer instead of raising), and the loop would then
        run on, leaving ``close`` waiting for it forever."""
        while not self._closed:
            await asyncio.sleep(self.depth_refresh)
            try:
                self.depth_estimate = await self._true_depth()
                self._m_depth.set(self.depth_estimate)
            except (CommError, ReproError):
                continue  # shard restarting: keep the local estimate

    async def close(self) -> None:
        self._closed = True
        if self._refresher is not None:
            self._refresher.cancel()
            try:
                await self._refresher
            except (asyncio.CancelledError, Exception):
                pass
            self._refresher = None
        for pool in self.pools:
            await pool.close()

    # -- admission -------------------------------------------------------

    def _admit(self) -> None:
        if self.inflight >= self.max_inflight:
            self._m_busy_inflight.inc()
            self.refused += 1
            raise Busy(
                f"gateway {self.name!r} at max_inflight={self.max_inflight}"
            )
        if self.backpressure and self.depth_estimate >= self.depth_limit:
            self._m_busy_depth.inc()
            self.refused += 1
            raise Busy(
                f"request queue depth {self.depth_estimate} at/over "
                f"limit {self.depth_limit}"
            )
        self.inflight += 1
        self.admitted += 1
        self._m_admitted.inc()
        self._m_inflight.set(self.inflight)

    def _release(self, consumed_request: bool) -> None:
        self.inflight = max(0, self.inflight - 1)
        self._m_inflight.set(self.inflight)
        if consumed_request:
            self.depth_estimate = max(0, self.depth_estimate - 1)
            self._m_depth.set(self.depth_estimate)

    # -- sessions --------------------------------------------------------

    async def session(self, client_id: str) -> "GatewaySession":
        """Connect one client: ensure its private reply queue, then run
        the clerk's Connect (Figure 5) over the wire."""
        reply_queue = f"reply.{client_id}"
        await self._call(reply_queue, remote.op_create_queue(reply_queue, {}))
        self._locations.setdefault(
            reply_queue, self._shard_of(reply_queue))
        session = GatewaySession(self, Clerk(  # no qm: the session runs the steps
            client_id, None, self.request_queue, reply_queue, obs=self.obs))
        await session.connect()
        return session


class GatewaySession:
    """One client's clerk over the gateway: the :class:`Clerk`'s own
    steps, each queue-manager call a wire call.  The session adds only
    the gateway's admission and depth accounting, and rid numbering,
    which resumes from the last Send rid Connect recovered."""

    def __init__(self, gateway: Gateway, clerk: Clerk):
        self.gateway = gateway
        self.clerk = clerk
        self.client_id = clerk.client_id
        self.reply_queue = clerk.reply_queue

    async def _run(self, steps: Steps) -> Any:
        """Run ``steps`` (the async twin of :meth:`Clerk._run`): each
        queue-manager call is the wire call ``remote.op_<name>`` builds,
        sent to the shard of the queue it names."""
        try:
            name, args, kwargs = next(steps)
            while True:
                target = args[0]  # a queue name (Register) or a handle
                try:
                    answer = await self.gateway._call(
                        target if isinstance(target, str) else target.queue,
                        getattr(remote, f"op_{name}")(*args, **kwargs),
                        timeout=remote.dequeue_wire_timeout(
                            kwargs.get("block", False), kwargs.get("timeout")),
                    )
                except BaseException as exc:
                    name, args, kwargs = steps.throw(exc)
                else:
                    decode = remote.ANSWERS.get(name)
                    if decode is not None:
                        answer = decode(answer)
                    name, args, kwargs = steps.send(answer)
        except StopIteration as done:
            return done.value

    async def connect(self) -> tuple[str | None, str | None, Any]:
        """Figure 2's Connect: ``(s_rid, r_rid, ckpt)``."""
        return await self._run(self.clerk.connect_steps())

    async def submit(self, body: Any, priority: int = 0) -> str:
        """Admission-checked async Send; returns the rid.  Raises
        :class:`~repro.errors.Busy` (nothing accepted, retry later)
        when either admission gate refuses."""
        gateway = self.gateway
        gateway._admit()
        last = self.clerk.last_rid
        rid = make_rid(self.client_id, 1 if last is None else rid_sequence(last) + 1)
        request = Request(
            rid=rid, body=body, client_id=self.client_id,
            reply_to=self.reply_queue,
        )
        try:
            await self._run(self.clerk.send_steps(request, rid, priority))
        except BaseException:
            gateway._release(consumed_request=False)
            raise
        gateway.depth_estimate += 1
        gateway._m_depth.set(gateway.depth_estimate)
        return rid

    async def receive(
        self, ckpt: Any = None, timeout: float | None = 30.0
    ) -> dict[str, Any]:
        """Await the next reply for this client (async Receive, tagged
        ``[last Send rid, ckpt]``).  The received reply releases one
        in-flight slot and debits the depth estimate (a reply implies
        the back end consumed a request).  A reply whose answer an
        earlier attempt lost is read back, as in :meth:`Clerk.receive`."""
        reply = await self._run(self.clerk.receive_steps(ckpt, timeout))
        self.gateway._release(consumed_request=True)
        return reply.to_body()

    async def rereceive(self) -> dict[str, Any]:
        """Read the reply most recently dequeued by this client again."""
        return (await self._run(self.clerk.rereceive_steps())).to_body()

    async def close(self) -> None:
        """Disconnect: deregister from both queues."""
        await self._run(self.clerk.disconnect_steps())
