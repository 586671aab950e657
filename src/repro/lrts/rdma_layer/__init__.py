"""The RDMA machine layer — a Slingshot/InfiniBand-class third fabric.

Send-path dispatch (see :mod:`repro.lrts.rdma_layer.layer`):

* same node → double-copy pxshm (:mod:`repro.lrts.intranode`);
* ``total <= rdma_inline_max`` → inline RC send (payload in the WQE);
* ``total <= rdma_eager_max`` → eager RC send through registered staging
  pools and pre-posted receive buffers;
* larger → rendezvous over the one-sided memory channel (an RDMA READ
  pull), bounce windows recycled by the pin-down cache;
* persistent channels → pre-negotiated RMA windows + WRITE/notify (the
  shared state machine in :mod:`repro.lrts.protocols`).

Typically paired with ``MachineConfig(topology="dragonfly")``, though the
fabric runs on the torus too — topology and transport are orthogonal.
"""

from repro.lrts.rdma_layer.config import RdmaLayerConfig
from repro.lrts.rdma_layer.layer import RdmaMachineLayer

__all__ = ["RdmaMachineLayer", "RdmaLayerConfig"]
