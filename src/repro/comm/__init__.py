"""Communication substrate: a lossy, partitionable message network,
a transport abstraction over it, and a real TCP wire.

The paper's protocols assume only that the clerk can invoke queue
operations remotely ("we assume that the clerk invokes QM operations
using remote procedure call [Birrell and Nelson 84]") and that
messages may be lost — indeed losing a request or reply in transit is
the opening failure scenario of Section 2.  This package provides:

* :class:`~repro.comm.network.SimNetwork` — named endpoints, seeded
  random message loss, duplication, and partitions, with message
  counters used by benchmark C8 (RPC vs one-way Send vs Transceive).
* :class:`~repro.comm.transport.Transport` — the correlated
  request/response interface.  One sans-IO correlation core,
  :class:`~repro.comm.transport.CallTable`, sits under three drivers:
  :class:`~repro.comm.transport.InProcTransport` (the simulated
  network), :class:`~repro.comm.transport.TcpTransport` (a real socket
  speaking the CRC'd length-prefixed frames of :mod:`repro.comm.wire`,
  from any number of threads) and
  :class:`~repro.comm.transport.AsyncShardConnection` (the same socket
  protocol on an asyncio event loop, at-most-once; the gateway pools
  them in :class:`~repro.comm.transport.AsyncShardPool`).
* :class:`~repro.comm.transport.OneWayTransport` — one-way posts (one
  message, possibly lost) over the simulated network: Section 5's
  unacknowledged Send.
"""

from repro.comm.network import SimNetwork, NetworkStats
from repro.comm.transport import (
    NO_RESPONSE,
    AsyncShardConnection,
    AsyncShardPool,
    CallTable,
    InProcListener,
    InProcTransport,
    OneWayTransport,
    TcpListener,
    TcpTransport,
    Transport,
)
from repro.comm.wire import (
    DEFAULT_MAX_FRAME,
    FrameError,
    FrameReader,
    encode_frame,
    error_payload,
    ok_payload,
    raise_remote,
    unwrap,
)

__all__ = [
    "SimNetwork",
    "NetworkStats",
    "OneWayTransport",
    "Transport",
    "CallTable",
    "InProcTransport",
    "InProcListener",
    "TcpTransport",
    "TcpListener",
    "AsyncShardConnection",
    "AsyncShardPool",
    "NO_RESPONSE",
    "FrameError",
    "FrameReader",
    "encode_frame",
    "DEFAULT_MAX_FRAME",
    "ok_payload",
    "error_payload",
    "raise_remote",
    "unwrap",
]
