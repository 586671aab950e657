"""Feature flags and protocol constants for the RDMA machine layer.

The knobs here are the IB-verbs-shaped decisions (the RC retry budget)
— the hardware timing constants live in
:class:`~repro.hardware.config.MachineConfig` like every other fabric's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import LrtsError
from repro.units import KB

#: re-send interval for the UD connection handshake (armed only under
#: fault injection; the fault-free path never starts the timer)
CONNECT_RETRY = 25e-6
#: max outstanding (un-acked) work requests per RC queue pair
SQ_DEPTH = 64
#: per-PE registered staging pool for eager sends / pre-posted recvs
EAGER_POOL_BYTES = 256 * KB


@dataclass(frozen=True)
class RdmaLayerConfig:
    """Layer-level policy for :class:`RdmaMachineLayer`.

    Within a node the layer always copies through double-copy pxshm."""

    #: rendezvous direction, not a field: the receiver pulls (RDMA READ,
    #: MPICH2-over-IB style); the protocol core reads it as it reads
    #: :attr:`UgniLayerConfig.rendezvous`
    rendezvous: ClassVar[str] = "get"
    #: hardware retransmission budget per work request (IB RC default: 7)
    retry_count: int = 7
    #: retransmission timeout after a lost packet
    retransmit_timeout: float = 12e-6

    def __post_init__(self) -> None:
        if self.retry_count < 0:
            raise LrtsError(f"retry_count must be >= 0, got {self.retry_count}")
        if self.retransmit_timeout <= 0:
            raise LrtsError(
                f"retransmit_timeout must be positive, "
                f"got {self.retransmit_timeout}")
