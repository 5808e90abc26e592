"""Both deployments route a name to the same shard.

:class:`ShardedRepository` (shards in this process) and
:class:`RemoteRepository` (shards behind ``repro-shardd`` listeners,
served here in-process by ``shardd.serve``) share
:class:`~repro.queueing.sharded.ShardRouter`.  The same script of
``create_queue`` calls must leave every name on the same shard in
both, before and after a restart (a re-open over the same disks; the
shard processes booted again over their data directories).
"""

from __future__ import annotations

import pytest

from repro.queueing.placement import ConsistentHashPlacement, PinnedPlacement
from repro.queueing.sharded import ShardedRepository
from repro.serve import shardd
from repro.serve.client import RemoteRepository
from repro.storage.disk import MemDisk

SHARDS = 3
#: (queue, its error queue or None), in creation order
SCRIPT = [
    ("dead", None),
    ("work", "dead"),          # created after the error queue it names
    ("jobs", "jobs.err"),      # created before it
    ("jobs.err", None),
    *[(f"reply.c{i}", None) for i in range(8)],
]
#: never created: routed by pin or policy alone
UNBORN = ["nowhere", "reply.c99", "late.err"]
CREATED = [qname for qname, _ in SCRIPT] + ["late"]
NAMES = CREATED + UNBORN


def run_script(repo) -> None:
    for qname, error_queue in SCRIPT:
        if error_queue is None:
            repo.create_queue(qname)
        else:
            repo.create_queue(qname, error_queue=error_queue)
    repo.create_queue("late", error_queue="late.err")  # pins an unborn name


def layout(repo) -> dict[str, int]:
    return {name: repo.shard_of(name) for name in NAMES}


class InProcess:
    def __init__(self, placement):
        self.placement = placement
        self.disks = [MemDisk() for _ in range(SHARDS)]
        self.boot()

    def boot(self) -> None:
        self.repo = ShardedRepository(
            "reqnode", self.disks, placement=self.placement
        )

    def restart(self) -> None:
        self.repo.close()
        self.boot()

    def close(self) -> None:
        self.repo.close()


class OverTheWire:
    def __init__(self, placement, root):
        self.placement = placement
        self.dirs = [str(root / f"s{index}") for index in range(SHARDS)]
        self.boot()

    def boot(self) -> None:
        self.listeners = [
            shardd.serve(shardd.build_parser().parse_args([
                "--dir", data_dir, "--shard", str(index), "--shards", str(SHARDS),
            ]))
            for index, data_dir in enumerate(self.dirs)
        ]
        self.repo = RemoteRepository(
            "reqnode",
            [("127.0.0.1", listener.port) for listener in self.listeners],
            placement=self.placement,
        )

    def restart(self) -> None:
        self.close()
        self.boot()

    def close(self) -> None:
        self.repo.close()
        for listener in self.listeners:
            listener.close()


PLACEMENTS = {
    "hash": ConsistentHashPlacement,
    "pinned": lambda: PinnedPlacement(
        {"dead": 2, "jobs": 1, "reply.c3": 0, "nowhere": 2}
    ),
}


@pytest.mark.parametrize("policy", sorted(PLACEMENTS))
def test_the_same_script_lands_every_name_on_the_same_shard(policy, tmp_path):
    local = InProcess(PLACEMENTS[policy]())
    wire = OverTheWire(PLACEMENTS[policy](), tmp_path)
    try:
        run_script(local.repo)
        run_script(wire.repo)
        before = layout(local.repo)
        assert layout(wire.repo) == before
        assert wire.repo.queue_names() == local.repo.queue_names()
        assert before["work"] == before["dead"]
        assert before["jobs.err"] == before["jobs"]
        assert before["late.err"] == before["late"]  # by pin: it does not exist

        # Location is durable, pins and caches are not: after a restart
        # every queue is found where it lives, and an unborn name falls
        # back to the policy in both.
        local.restart()
        wire.restart()
        after = layout(local.repo)
        assert layout(wire.repo) == after
        assert [after[name] for name in CREATED] == [before[name] for name in CREATED]
        assert wire.repo.depths_by_shard() == local.repo.depths_by_shard()
    finally:
        local.close()
        wire.close()
