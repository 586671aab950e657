"""Simulated user-level Generic Network Interface (uGNI).

This is the API surface the paper's machine layer is written against
(paper §II.B), reproduced over the simulated Gemini NIC:

* :class:`~repro.ugni.memreg.RegistrationTable` — ``GNI_MemRegister`` /
  ``GNI_MemDeregister`` with real cost accounting (the expense the memory
  pool optimization removes).
* :class:`~repro.ugni.smsg.SmsgFabric` — per-peer mailbox short messages
  (``GNI_SmsgSendWTag`` / ``GNI_SmsgGetNextWTag``) with credit flow control
  and the per-connection memory footprint that motivates MSGQ.
* :class:`~repro.ugni.msgq.MsgqFabric` — the per-node shared-queue
  alternative: memory scales with nodes, latency is worse.
* :class:`~repro.ugni.rdma.RdmaEngine` — ``GNI_PostFma`` / ``GNI_PostRdma``
  one-sided PUT/GET requiring registered memory on both sides.
* :class:`~repro.ugni.api.GniJob` — the communication domain bundling
  the fabrics above for one job, used by the machine layer and the "pure
  uGNI" reference benchmarks.

No completion queue is modelled and nothing polls.  What the real
progress engine finds with ``GNI_CqGetEvent`` or in a mailbox goes
straight to its fabric's one consumer, set once by its owner:
``smsg.on_rx(msg)`` and ``msgq.on_rx(msg)``, which call ``consume`` for
the receive CPU, and ``rdma.on_complete(desc, t, failed)``, whose
consumer charges ``cq_event_cpu`` itself.  An arrival or completion with
no consumer set is a :class:`~repro.errors.SimulationError`.

CPU-time convention: every call that a real PE would burn cycles in returns
the number of seconds the caller must charge to its PE.  The uGNI layer
never charges PEs itself — it does not know who is calling.
"""

from repro.ugni.memreg import MemHandle, RegistrationTable
from repro.ugni.msgq import MsgqFabric
from repro.ugni.rdma import PostDescriptor, RdmaEngine
from repro.ugni.smsg import SmsgFabric, SmsgMessage
from repro.ugni.types import PostType

__all__ = [
    "MemHandle",
    "MsgqFabric",
    "PostDescriptor",
    "PostType",
    "RdmaEngine",
    "RegistrationTable",
    "SmsgFabric",
    "SmsgMessage",
]
