"""Feature flags and protocol constants for the RDMA machine layer.

The knobs here are the IB-verbs-shaped decisions (RC retry budget,
rendezvous direction) — the hardware timing constants live in
:class:`~repro.hardware.config.MachineConfig` like every other fabric's.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Layer-level policy for :class:`RdmaMachineLayer`."""

    #: intra-node path: ``"pxshm"`` (double copy), ``"pxshm_single"``
    #: (sender-side copy only), or ``"fabric"`` (loop through the NIC)
    intranode: str = "pxshm"
    #: rendezvous direction: ``"get"`` (receiver pulls, MPICH2-over-IB
    #: style) or ``"put"`` (RTS/CTS/WRITE, the Slingshot-friendly variant)
    rendezvous: str = "get"
    #: hardware retransmission budget per work request (IB RC default: 7)
    retry_count: int = 7
    #: retransmission timeout after a lost packet
    retransmit_timeout: float = 12e-6

    def __post_init__(self) -> None:
        if self.intranode not in ("pxshm", "pxshm_single", "fabric"):
            raise LrtsError(
                f"intranode must be 'pxshm', 'pxshm_single' or 'fabric', "
                f"got {self.intranode!r}")
        if self.rendezvous not in ("get", "put"):
            raise LrtsError(
                f"rendezvous must be 'get' or 'put', got {self.rendezvous!r}")
        if self.retry_count < 0:
            raise LrtsError(f"retry_count must be >= 0, got {self.retry_count}")
        if self.retransmit_timeout <= 0:
            raise LrtsError(
                f"retransmit_timeout must be positive, "
                f"got {self.retransmit_timeout}")
