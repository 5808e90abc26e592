"""The queue-operation wire vocabulary has one writer
(:mod:`repro.comm.remote`'s ``op_*`` builders).  These are golden
tests: the literal payloads — key order included, it is part of the
frame bytes — are the ones the tcp stub and the gateway session sent
before the builders existed, so frames stay byte-identical, except that
an enqueue's body is its codec bytes (encoded once, here, for the
frame, the shard's log and every response)."""

from __future__ import annotations

import asyncio

import pytest

from repro.comm import remote
from repro.comm.remote import RemoteQueueManager
from repro.comm.wire import KIND_CALL, encode_frame, ok_payload
from repro.core.request import Reply, Request
from repro.gateway.gateway import Gateway
from repro.queueing.element import Element
from repro.queueing.manager import QueueHandle
from repro.serve.client import RemoteShardedQueueManager
from repro.storage.codec import encode

HANDLE = QueueHandle("reqnode", "req.q", "c0")
HANDLE_RECORD = {"repository": "reqnode", "queue": "req.q", "registrant": "c0"}
#: a clerk's Send of a 64-byte body — benchmarks/e2e's canonical call
SEND_BODY = Request(
    rid="c0#1", body="x" * 64, client_id="c0", reply_to="reply.c0"
).to_body()
SEND_HEADERS = {"rid": "c0#1", "reply_to": "reply.c0"}
SEND = {
    "op": "enqueue", "handle": HANDLE_RECORD, "body": encode(SEND_BODY),
    "tag": "c0#1", "txn": None, "priority": 0, "headers": SEND_HEADERS,
}
RECEIVE = {
    "op": "dequeue", "handle": HANDLE_RECORD, "tag": ["c0#1", None],
    "error_queue": None, "txn": None, "block": True, "timeout": 2.0,
}

GOLDEN = [
    (remote.op_register("req.q", "c0"),
     {"op": "register", "queue": "req.q", "registrant": "c0",
      "stable": True}),
    (remote.op_deregister(HANDLE),
     {"op": "deregister", "handle": HANDLE_RECORD}),
    (remote.op_enqueue(HANDLE, SEND_BODY, "c0#1", headers=SEND_HEADERS),
     SEND),
    (remote.op_enqueue(HANDLE, 1, txn=9, priority=2),
     {"op": "enqueue", "handle": HANDLE_RECORD, "body": encode(1), "tag": None,
      "txn": 9, "priority": 2, "headers": None}),
    (remote.op_dequeue(HANDLE, ["c0#1", None], block=True, timeout=2.0),
     RECEIVE),
    (remote.op_dequeue(HANDLE, error_queue="req.err", txn=9),
     {"op": "dequeue", "handle": HANDLE_RECORD, "tag": None,
      "error_queue": "req.err", "txn": 9, "block": False, "timeout": None}),
    # the two shapes that make a server transaction two calls: the
    # first operation opens the branch, the last one carries the commit
    (remote.op_dequeue(HANDLE, error_queue="req.err", txn="new",
                       block=True, timeout=0.05),
     {"op": "dequeue", "handle": HANDLE_RECORD, "tag": None,
      "error_queue": "req.err", "txn": "new", "block": True,
      "timeout": 0.05}),
    (remote.op_enqueue(HANDLE, 1, txn=9, headers={"rid": "c0#1"}, commit=True),
     {"op": "enqueue", "handle": HANDLE_RECORD, "body": encode(1), "tag": None,
      "txn": 9, "priority": 0, "headers": {"rid": "c0#1"}, "commit": True}),
    (remote.op_registration_info(HANDLE),
     {"op": "registration_info", "handle": HANDLE_RECORD}),
    (remote.op_read(HANDLE, 5),
     {"op": "read", "handle": HANDLE_RECORD, "eid": 5}),
    (remote.op_kill_element(HANDLE, 5),
     {"op": "kill_element", "handle": HANDLE_RECORD, "eid": 5}),
    (remote.op_depth("req.q"), {"op": "depth", "queue": "req.q"}),
    (remote.op_create_queue("reply.c0", {}),
     {"op": "create_queue", "queue": "reply.c0", "config": {}}),
]


def literal(payload):
    """A dict compared with its key order (recursively)."""
    if isinstance(payload, dict):
        return [(key, literal(value)) for key, value in payload.items()]
    return payload


@pytest.mark.parametrize(
    "built, golden", GOLDEN, ids=[golden["op"] for _, golden in GOLDEN]
)
def test_builder_returns_the_literal_payload(built, golden):
    assert literal(built) == literal(golden)


def test_canonical_send_frame_is_byte_identical():
    frame = encode_frame(
        KIND_CALL, 7,
        remote.op_enqueue(HANDLE, SEND_BODY, "c0#1", headers=SEND_HEADERS),
    )
    assert frame == encode_frame(KIND_CALL, 7, SEND)
    # the body travels as its codec bytes: a bytes leaf wrapped around
    # the value's encoding costs 2 bytes over the value inline (286)
    assert len(frame) == 288


def test_only_a_committing_enqueue_has_the_commit_key():
    assert "commit" not in remote.op_enqueue(HANDLE, 1, txn=9)
    assert "commit" not in remote.op_enqueue(HANDLE, 1, txn=9, commit=False)


class _Recorder:
    """Stands in for a transport / shard client / gateway: records what
    it is asked to send and answers just enough to unwrap."""

    def __init__(self):
        self.sent = []

    def answer(self, payload, timeout):
        self.sent.append((literal(payload), timeout))
        if payload["op"] == "register":
            handle = {**HANDLE_RECORD, "queue": payload["queue"]}
            return {"handle": handle, "tag": None, "eid": None}
        if payload["op"] in ("dequeue", "read"):
            reply = Reply(rid="c0#1", body=1).to_body()
            return Element(eid=1, body=reply, enqueue_seq=1).to_record()
        return None

    # Transport
    def request(self, payload, timeout=None, retries=None):
        return ok_payload(self.answer(payload, timeout))

    # ShardClient
    def call(self, payload, timeout=None, retries=None):
        return self.answer(payload, timeout)

    # AsyncShardPool
    async def acall(self, payload, timeout=None):
        return self.answer(payload, timeout)


class _OneShardRepo:
    def __init__(self, client):
        self.clients = [client]

    def shard_of(self, qname):
        return 0


def _drive(qm):
    qm.register("req.q", "c0")
    qm.enqueue(HANDLE, SEND_BODY, "c0#1", headers=SEND_HEADERS)
    qm.dequeue(HANDLE, ["c0#1", None], block=True, timeout=2.0)
    qm.registration_info(HANDLE)
    qm.read(HANDLE, 5)
    qm.kill_element(HANDLE, 5)
    qm.depth("req.q")
    qm.deregister(HANDLE)


def test_both_stubs_send_the_same_frames():
    plain, sharded = _Recorder(), _Recorder()
    _drive(RemoteQueueManager(plain))
    _drive(RemoteShardedQueueManager(_OneShardRepo(sharded)))
    assert plain.sent == sharded.sent
    assert (literal(SEND), None) in plain.sent
    # a blocking dequeue outwaits the server-side block on the wire
    assert (literal(RECEIVE), 7.0) in plain.sent


def test_gateway_session_builds_the_same_frames():
    recorder = _Recorder()
    gateway = Gateway([("127.0.0.1", 1)])  # never connected: pools patched

    async def scenario():
        for pool in gateway.pools:
            pool.call = recorder.acall
        session = await gateway.session("c0")
        await session.submit("x" * 64)
        await session.receive(timeout=2.0)

    asyncio.run(scenario())
    receive = {**RECEIVE, "handle": {**HANDLE_RECORD, "queue": "reply.c0"}}
    # the session is the clerk: Connect registers with both queues, and
    # its Send and Receive frames are the stub's, with no trace header
    # while observability is disabled
    assert recorder.sent == [
        (literal(remote.op_create_queue("reply.c0", {})), None),
        (literal(remote.op_register("req.q", "c0")), None),
        (literal(remote.op_register("reply.c0", "c0")), None),
        (literal(SEND), None),
        (literal(receive), 7.0),
    ]
