"""Layer-specific names for tests that take the machine layer as an input.

The rendezvous and persistent protocols are one state machine
(:mod:`repro.lrts.protocols`); what a test reads back differs per fabric
only in name — ``pool_live_blocks`` vs the pin-cache ``live`` count,
``post_failures`` vs ``rdma_giveups``.  Tests bind these through a class
attribute ``layer`` and a subclass per fabric, so the uGNI test ids stay
what they were.
"""

from repro.lrts.rdma_layer import RdmaLayerConfig
from repro.lrts.ugni_layer import UgniLayerConfig

#: ``stats()`` key counting one-sided posts abandoned after all retries
GIVEUPS = {"ugni": "post_failures", "rdma": "rdma_giveups"}
#: ``stats()`` key counting retried one-sided posts
RETRIES = {"ugni": "post_retries", "rdma": "rdma_retransmits"}
#: ``stats()`` key counting abandoned control messages
CONTROL_GIVEUPS = {"ugni": "rel_failed", "rdma": "rc_giveups"}
#: retry budget of :func:`giveup_config`
BUDGET = 3


def giveup_config(layer, **kw):
    """Small retry budget + fast backoff so give-up happens quickly."""
    if layer == "ugni":
        return UgniLayerConfig(reliability=True, max_retries=BUDGET,
                               retry_backoff_base=2e-6,
                               retry_backoff_max=8e-6, **kw)
    return RdmaLayerConfig(retry_count=BUDGET, retransmit_timeout=2e-6, **kw)


def live_buffers(lrts):
    """Rendezvous buffers acquired and not yet released."""
    if lrts.name == "ugni":
        return lrts.stats()["pool_live_blocks"]
    return sum(c.live for c in lrts.fabric.pin_caches.values())


def registered_bytes(lrts):
    """Bytes still registered with the NIC on any node."""
    tables = (lrts.gni if lrts.name == "ugni" else lrts.fabric).registrations
    return sum(t.registered_bytes for t in tables.values())
