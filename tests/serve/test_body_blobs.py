"""Element bodies cross the shard as opaque codec bytes.

A body is encoded once, by the wire-op writer on the caller's side, and
decoded once, lazily, where a caller reads ``Element.body``.  The shard
— :class:`ShardService`, the queue manager, the queues, the log,
recovery — only moves the bytes: into the ``enq`` record, the
registration's element copy, the dequeue/read/registration_info
responses.  The first test counts the codec passes over a body value
on the shard; the others check that every reader on the far side still
gets the value that was sent.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.comm.wire import unwrap
from repro.core.request import Request
from repro.gateway import Gateway
from repro.queueing.element import Element
from repro.queueing.repository import QueueRepository
from repro.serve.service import ShardService
from repro.storage import codec
from repro.storage.disk import MemDisk
from repro.transaction import log as log_module
from tests.serve.test_call_budget import Deployment, send

BODY = {"order": 17, "note": "a body the shard must never look inside", "items": [1, 2, 3]}


class CodecPasses:
    """Counts codec passes whose value is :data:`BODY`: encodes of it,
    and decodes that produce it, at any nesting depth."""

    def __init__(self, monkeypatch):
        self.encodes = 0
        self.decodes = 0
        real_encode_into = codec._encode_into
        real_decode_from = codec._decode_from

        def encode_into(out, obj):
            if obj == BODY:
                self.encodes += 1
            real_encode_into(out, obj)

        def decode_from(data, pos, end):
            value, pos = real_decode_from(data, pos, end)
            if value == BODY:
                self.decodes += 1
            return value, pos

        # the codec recurses through its module globals, and the log's
        # record writer holds its own reference to the encoder
        monkeypatch.setattr(codec, "_encode_into", encode_into)
        monkeypatch.setattr(codec, "_decode_from", decode_from)
        monkeypatch.setattr(log_module, "_encode_into", encode_into)


def call(service, **payload):
    return unwrap(service.handle(payload))


def test_the_shard_never_encodes_or_decodes_a_body(monkeypatch):
    blob = codec.encode(BODY)  # what the caller's wire-op writer sends
    disk = MemDisk()
    passes = CodecPasses(monkeypatch)

    service = ShardService(QueueRepository("s0", disk))
    call(service, op="create_queue", queue="q")
    call(service, op="create_queue", queue="reply")
    client = call(service, op="register", queue="q", registrant="c1", stable=True)["handle"]
    server = call(service, op="register", queue="q", registrant="s1", stable=True)["handle"]
    replies = call(service, op="register", queue="reply", registrant="s1",
                   stable=True)["handle"]
    # a tagged Send
    call(service, op="enqueue", handle=client, body=blob, tag="c1#1",
         headers={"rid": "c1#1"})
    # the server's transaction: dequeue opens the branch, the reply's
    # enqueue carries the commit
    opened = call(service, op="dequeue", handle=server, tag="s1#1", txn="new")
    assert opened["result"]["body"] == blob
    call(service, op="enqueue", handle=replies, body=opened["result"]["body"],
         txn=opened["txn"], commit=True)

    # restart: recovery replays the enq/deq/set records
    service = ShardService(QueueRepository("s0", disk), epoch=1)
    eid = opened["result"]["eid"]
    assert call(service, op="read", handle=server, eid=eid)["body"] == blob
    info = call(service, op="registration_info", handle=server)
    assert info["last_element"]["body"] == blob
    assert call(service, op="dequeue", handle=replies)["body"] == blob

    assert (passes.encodes, passes.decodes) == (0, 0)
    # the counter is live: a caller-side read is the one decode
    assert Element.from_record(info["last_element"]).body == BODY
    assert passes.decodes == 1


@pytest.fixture
def deployment():
    deployment = Deployment({"req.q": 0, "reply.c1": 0}, shards=1)
    try:
        yield deployment
    finally:
        deployment.close()


def _echo_once(deployment):
    server = deployment.server(lambda txn, request: {"echo": request.body})
    assert server.process_one() is True


def test_receive_and_rereceive_return_the_decoded_reply(deployment):
    clerk = deployment.clerk()
    send(clerk, 1, body=BODY)
    _echo_once(deployment)
    assert clerk.receive(timeout=5).body == {"echo": BODY}
    assert clerk.rereceive().body == {"echo": BODY}
    # after a shard restart, from the recovered archive
    deployment.shards[0].restart()
    assert clerk.rereceive().body == {"echo": BODY}


def test_a_lost_receive_is_recovered_from_the_registration(deployment):
    """Figure 2's resync path over the wire: the dequeue ran but its
    reply was lost, so the clerk finds its own tag in the registration
    and reads the element back."""
    clerk = deployment.clerk()
    send(clerk, 1, body=BODY)
    _echo_once(deployment)
    deployment.shards[0].drop = lambda payload: payload.get("op") == "dequeue"
    assert clerk.receive(timeout=0.2).body == {"echo": BODY}

    registration = deployment.qm.registration_info(clerk._h_out)
    assert registration.last_op == "deq"
    assert registration.element().body["body"] == {"echo": BODY}


def test_a_reconnected_clerk_resynchronizes_and_rereceives(deployment):
    clerk = deployment.clerk()
    send(clerk, 1, body=BODY)
    _echo_once(deployment)
    clerk.receive(timeout=5)
    deployment.shards[0].restart()

    reborn = deployment.clerk()  # a new incarnation: Connect, then resync
    registration = deployment.qm.registration_info(reborn._h_in)
    assert Request.from_body(registration.element().body).body == BODY
    assert reborn.rereceive().body == {"echo": BODY}


def test_the_gateway_receives_the_decoded_reply(deployment):
    port = deployment.shards[0].listener.port

    async def scenario():
        gateway = Gateway([("127.0.0.1", port)], request_queue="req.q")
        await gateway.start()
        try:
            session = await gateway.session("c1")
            rid = await session.submit(BODY)
            worker = threading.Thread(target=_echo_once, args=(deployment,))
            worker.start()
            reply = await session.receive(timeout=10)
            worker.join()
            assert reply["rid"] == rid
            assert reply["body"] == {"echo": BODY}
        finally:
            await gateway.close()

    asyncio.run(scenario())
