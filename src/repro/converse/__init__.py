"""Converse: the machine-independent message-driven runtime layer.

Converse sits between the machine layers (LRTS implementations) and
Charm++ (paper Fig. 3).  It owns:

* the per-PE message-driven scheduler (:class:`~repro.converse.scheduler.PE`)
  with virtual-time charging — handlers run as Python functions but account
  simulated CPU seconds split into *useful* work and runtime *overhead*,
  which is exactly the decomposition the paper's Projections profiles
  (Fig. 12) show;
* handler registration and the Cmi send API
  (:class:`~repro.converse.scheduler.ConverseRuntime`);
* spanning-tree collectives shared by all machine layers
  (:mod:`repro.converse.collectives`);
* quiescence detection (:mod:`repro.converse.quiescence`) used by
  task-parallel apps (N-Queens) to detect completion.
"""

from repro.converse.scheduler import PE, ConverseRuntime, Message

__all__ = ["PE", "ConverseRuntime", "Message"]
