"""Shards as operating-system processes.

The paper's architecture (Figure 4) puts clients, queue servers and
request servers on separate nodes; Gray's *Queues Are Databases*
argues the queue's payoff — load sharing, burst buffering — only
exists across genuinely independent servers.  This package deploys the
reproduction that way:

* :class:`~repro.serve.service.ShardService` — one
  :class:`~repro.queueing.repository.QueueRepository` shard (its WAL,
  locks, transaction manager, checkpointer) behind the wire protocol,
  serving the queue-manager surface *and* the two-phase-commit branch
  operations that :mod:`repro.transaction.routing` drives.
* ``repro.serve.shardd`` — the ``repro-shardd`` console entry point
  hosting one service over a :class:`~repro.comm.transport.TcpListener`.
* :class:`~repro.serve.supervisor.ShardSupervisor` — forks, monitors
  and restarts shard processes from a warm template process;
  ``kill()`` is a real ``SIGKILL`` and the restart runs real restart
  recovery from disk, then resolves in-doubt 2PC branches against the
  surviving shards' decision records.
* :mod:`repro.serve.client` — the driver-side stubs: remote
  transaction managers and coordinators behind the *same*
  :class:`~repro.transaction.routing.ShardedTransactionManager` used
  in process, and a queue-manager facade the unchanged
  :class:`~repro.core.clerk.Clerk` / :class:`~repro.core.server.Server`
  run against.

``TPSystem(deployment="tcp")`` assembles all of it.
"""

from repro.serve.client import (
    RemoteRepository,
    RemoteShardedQueueManager,
    ShardClient,
)
from repro.serve.service import ShardService
from repro.serve.supervisor import ShardProcess, ShardSupervisor

__all__ = [
    "ShardService",
    "ShardSupervisor",
    "ShardProcess",
    "ShardClient",
    "RemoteRepository",
    "RemoteShardedQueueManager",
]
