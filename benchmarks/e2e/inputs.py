"""Seeded inputs.  The program under test sees only what this module
generates: client ids (which fix reply-queue placement) and request
bodies (which fix every byte on the wire and in the log).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

from repro.queueing.placement import ConsistentHashPlacement
from repro.storage.codec import encode

#: distinct bodies per run; clients cycle through them
ECHO_POOL = 97
BULK_POOL = 16
BULK_LINE_ITEMS = 64


@dataclass(frozen=True)
class Inputs:
    seed: int
    client_ids: tuple[str, ...]
    bodies: tuple[Any, ...]
    body_sizes: tuple[int, ...]  # codec-encoded size of each body
    sha256: str


def _echo_body(rng: random.Random, index: int) -> dict[str, Any]:
    # ~64 B once codec-encoded
    return {"n": index, "pad": "%050x" % rng.getrandbits(200)}


def _bulk_body(rng: random.Random, index: int) -> dict[str, Any]:
    # an order of 64 line items, ~8 KiB once codec-encoded
    return {
        "order": index,
        "items": [
            {
                "sku": "SKU-%08x" % rng.getrandbits(32),
                "qty": rng.randint(1, 99),
                "price_cents": rng.randint(100, 99_999),
                "note": "%074x" % rng.getrandbits(296),
            }
            for _ in range(BULK_LINE_ITEMS)
        ],
    }


def _client_ids(rng: random.Random, clients: int, shards: int) -> tuple[str, ...]:
    """``clients`` ids whose reply queues land on the shards in equal
    numbers.  The cross-shard share of server transactions follows from
    this placement, so it must not drift with the seed."""
    placement = ConsistentHashPlacement()
    quota = {shard: clients // shards for shard in range(shards)}
    for shard in range(clients % shards):
        quota[shard] += 1
    chosen: list[str] = []
    while len(chosen) < clients:
        cid = "c%06x" % rng.getrandbits(24)
        shard = placement.shard_for(f"reply.{cid}", shards)
        if quota[shard] and cid not in chosen:
            quota[shard] -= 1
            chosen.append(cid)
    return tuple(chosen)


def make_inputs(workload: str, seed: int, *, clients: int, shards: int,
                bulk: bool) -> Inputs:
    rng = random.Random(f"{seed}:{workload}")
    client_ids = _client_ids(rng, clients, shards)
    if bulk:
        bodies = tuple(_bulk_body(rng, i) for i in range(BULK_POOL))
    else:
        bodies = tuple(_echo_body(rng, i) for i in range(ECHO_POOL))
    digest = hashlib.sha256(encode([list(client_ids), list(bodies)])).hexdigest()
    sizes = tuple(len(encode(body)) for body in bodies)
    return Inputs(seed, client_ids, bodies, sizes, digest)
