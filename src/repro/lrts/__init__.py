"""LRTS — the Low-level RunTime System interface (paper §III.B).

The paper factors everything machine-specific out of Converse into a small
interface so a vendor can port Charm++ by implementing just a few calls:

* ``LrtsInit``   → :meth:`~repro.lrts.interface.LrtsLayer.init`
* ``LrtsSyncSend`` → :meth:`~repro.lrts.interface.LrtsLayer.sync_send`
* ``LrtsNetworkEngine`` → implicit: the simulation wakes layers on CQ
  events instead of polling, charging the same per-message costs.
* persistent API (``LrtsCreatePersistent`` / ``LrtsSendPersistentMsg``)
  → :meth:`create_persistent` / :meth:`send_persistent`.

Three implementations ship, the rows of :data:`repro.lrts.factory.LAYERS`:

* :class:`repro.lrts.ugni_layer.UgniMachineLayer` — the contribution:
  SMSG small path, GET-based rendezvous, memory pool, persistent channels,
  pxshm intra-node.
* :class:`repro.lrts.mpi_layer.MpiMachineLayer` — the baseline: Charm++
  over MPI with Iprobe polling, the extra receive-side copy/allocation, and
  blocking large receives.
* :class:`repro.lrts.rdma_layer.RdmaMachineLayer` — a Slingshot/InfiniBand-
  class fabric: RC queue pairs, inline/eager/rendezvous, pin-down cache.

What the uGNI and RDMA layers share is written once, here and not in
either layer package: the rendezvous and persistent-channel state machines
(:mod:`repro.lrts.protocols`, over a four-verb fabric port), pxshm delivery
(:mod:`repro.lrts.intranode`), the GPU paths
(:mod:`repro.lrts.gpu_transport`) and the wire constants
(:mod:`repro.lrts.messages`).
"""
