"""Asyncio clerk gateway with admission control and backpressure.

See :mod:`repro.gateway.gateway` for the design; ``docs/deployment.md``
for the deployed topology.  The gateway's wire client is
:class:`~repro.comm.transport.AsyncShardPool`, the asyncio driver of
the transport module.
"""

from repro.gateway.gateway import Gateway, GatewaySession

__all__ = [
    "Gateway",
    "GatewaySession",
]
