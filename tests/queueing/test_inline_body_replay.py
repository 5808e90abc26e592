"""Logs and checkpoints written before element bodies were stored as
codec bytes still recover.

Until checkpoint version 3, an element record (the ``enq`` redo
record, a registration's ``last_element`` copy, a checkpoint's queue
slots and archive) held its body inline, as a codec value; now it holds
the body's codec bytes under ``"fmt": 2``.  ``inline_body_disk.bin`` is
a small repository — a checkpoint plus log records after it — written
by :func:`write_fixture` at the commit before the change, together with
what that code recovered from it.  Recovering it now must give the same
queue contents, bodies and registrations; the next checkpoint writes
only the new shape.

Regenerate (only ever with the code from before the change)::

    PYTHONPATH=src python -m tests.queueing.test_inline_body_replay
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.queueing.element import Element
from repro.queueing.manager import QueueManager
from repro.queueing.repository import QueueRepository
from repro.storage.codec import decode, encode
from repro.storage.disk import MemDisk

FIXTURE = Path(__file__).with_name("inline_body_disk.bin")
NAME = "fx"
#: one of each codec type, an inline ``bytes`` body among them (the
#: shape that a missing format marker would misread as a blob)
BODIES = [
    {"order": 1, "items": [{"sku": "A-1", "qty": 2}], "note": "é" * 70},
    "plain text",
    b"\x00raw bytes body",
    42,
    None,
    [1.5, True, {"k": -7}],
]


def write_fixture(path: Path = FIXTURE) -> None:
    """Run a small workload, checkpoint in the middle of it, and save
    the disk plus what a recovery of that disk holds."""
    disk = MemDisk()
    repo = QueueRepository(NAME, disk)
    repo.create_queue("req.err")
    repo.create_queue("req.q", error_queue="req.err", max_aborts=2)
    qm = QueueManager(repo)
    client, _, _ = qm.register("req.q", "client")
    server, _, _ = qm.register("req.q", "server")
    for index, body in enumerate(BODIES[:3]):
        qm.enqueue(client, body, tag=f"c#{index}", priority=index % 2,
                   headers={"rid": f"c#{index}"})
    qm.dequeue(server, tag="s#0")
    repo.checkpoint()
    for index, body in enumerate(BODIES[3:], start=3):
        qm.enqueue(client, body, tag=f"c#{index}", headers={"rid": f"c#{index}"})
    qm.dequeue(server, tag="s#1")
    txn = repo.tm.begin()
    qm.dequeue(server, txn=txn)
    repo.tm.abort(txn, "bump the abort count")
    areas = {area: disk.durable_read(area) for area in disk.areas()}
    path.write_bytes(encode({"areas": areas, "expected": _state(_recover(areas))}))


def _recover(areas: dict[str, bytes]) -> QueueRepository:
    disk = MemDisk()
    for area, data in areas.items():
        disk.append(area, data)
        disk.flush(area)
    return QueueRepository(NAME, disk)


def _element(element: Element) -> list[Any]:
    return [element.eid, element.body, element.priority, element.enqueue_seq,
            element.abort_count, element.headers]


def _state(repo: QueueRepository) -> dict[str, Any]:
    """Queue contents (live and archived) and registrations, with every
    element in a form that does not depend on its record format."""
    queues = {}
    for name, queue in sorted(repo.queues.items()):
        queues[name] = {
            "live": [_element(e) for e in queue.browse()],
            "archived": [_element(queue.read(eid)) for eid in sorted(queue._archive)],
        }
    registrations = []
    for record in repo.registration.snapshot():
        record = dict(record)
        copy = record.pop("last_element")
        record["last_element"] = None if copy is None else _element(Element.from_record(copy))
        registrations.append(record)
    return {"queues": queues, "registrations": registrations}


def _fixture() -> dict[str, Any]:
    return decode(FIXTURE.read_bytes())


def test_fixture_holds_inline_bodies():
    """The fixture really is the old format: its checkpoint is version
    2 and no element record in it carries the format marker."""
    fixture = _fixture()
    checkpoint = decode(fixture["areas"][f"{NAME}.log.ckpt"])
    assert checkpoint["v"] == 2
    assert b"\x03fmt" not in b"".join(fixture["areas"].values())


def test_old_log_and_checkpoint_recover_identically():
    fixture = _fixture()
    repo = _recover(fixture["areas"])
    assert _state(repo) == fixture["expected"]
    bodies = [e[1] for q in fixture["expected"]["queues"].values()
              for e in q["live"] + q["archived"]]
    assert sorted(map(repr, bodies)) == sorted(map(repr, BODIES))


def test_registration_copies_read_back_through_the_queue_manager():
    repo = _recover(_fixture()["areas"])
    qm = QueueManager(repo)
    handle, tag, eid = qm.register("req.q", "server")
    assert tag == "s#1"
    assert qm.read(handle, eid).body == qm.registration_info(handle).element().body


def test_the_next_checkpoint_writes_only_the_new_shape():
    repo = _recover(_fixture()["areas"])
    expected = _state(repo)
    repo.checkpoint()
    checkpoint = decode(repo.disk.read(f"{NAME}.log.ckpt"))
    assert checkpoint["v"] == 3
    snapshots = checkpoint["rms"]
    records = [r for key, snap in snapshots.items() if key.startswith("q:")
               for r in snap["slots"] + snap["archive"]]
    records += [r["last_element"] for r in snapshots["qreg"] if r["last_element"]]
    assert records and all(r["fmt"] == 2 and type(r["body"]) is bytes for r in records)
    areas = {area: repo.disk.durable_read(area) for area in repo.disk.areas()}
    assert _state(_recover(areas)) == expected


if __name__ == "__main__":
    write_fixture()
    print(f"wrote {FIXTURE}")
