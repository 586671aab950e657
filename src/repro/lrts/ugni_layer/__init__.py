"""The uGNI-based Charm++ machine layer — the paper's contribution.

Send-path dispatch (paper §III.C, §IV):

* same node → pxshm single/double copy, or the NIC loopback baseline
  (:mod:`repro.lrts.intranode`, Fig. 8c);
* ``nbytes + envelope <= SMSG max`` → direct SMSG
  (:mod:`repro.lrts.ugni_layer.layer`);
* larger, with a persistent channel set up → one-sided PUT + notify
  (:mod:`repro.lrts.protocols`, Fig. 7a / 8a);
* larger, otherwise → GET-based rendezvous, buffers served from the
  pre-registered memory pool when enabled
  (:mod:`repro.lrts.protocols`, Fig. 5 / 7b / 8b).

Feature flags in :class:`~repro.lrts.ugni_layer.config.UgniLayerConfig`
turn each optimization off to reproduce the "initial design" curves
(Fig. 6) and the ablations.
"""

from repro.lrts.ugni_layer.config import UgniLayerConfig
from repro.lrts.ugni_layer.layer import UgniMachineLayer

__all__ = ["UgniMachineLayer", "UgniLayerConfig"]
