"""Feature flags for the uGNI machine layer (ablation axes)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: interval for retrying sends blocked on SMSG credits
CREDIT_RETRY_INTERVAL = 1e-6
#: receiver-side dedup keeps at most this many out-of-order sequence
#: numbers per (src, dst) pair; exceeding it (only possible when the
#: sender abandoned a seq, leaving a permanent gap) force-advances the
#: cumulative watermark past the oldest gap
REL_WINDOW_CAP = 256


@dataclass(frozen=True)
class UgniLayerConfig:
    """Which of the paper's optimizations are active.

    The default is the fully-optimized layer of §V; the "initial version"
    measured in Fig. 6 is ``UgniLayerConfig(use_mempool=False,
    intranode="ugni")``.
    """

    #: serve message buffers from the pre-registered pool (§IV.B)
    use_mempool: bool = True
    #: large-message protocol: "get" (paper's choice) or "put" (the variant
    #: §III.C argues costs one extra rendezvous message)
    rendezvous: str = "get"
    #: intra-node transport: "pxshm_single" (§IV.C optimization),
    #: "pxshm_double", or "ugni" (NIC loopback, the unoptimized baseline)
    intranode: str = "pxshm_single"
    #: small-message transport: "smsg" (paper's choice) or "msgq"
    small_path: str = "smsg"
    #: SMP-style node-level pool sharing (paper §VII future work): one pool
    #: per node instead of one per PE
    smp_pools: bool = False
    #: sequence-numbered SMSG retransmission + FMA/BTE post retry
    #: (recovery for injected faults, :mod:`repro.faults`); off by default
    #: — the fault-free path is then bit-identical to a build without it
    reliability: bool = False
    #: send/post attempts before giving up (counted in ``rel_failed`` /
    #: ``post_failures``)
    max_retries: int = 8
    #: retransmit timeout before the first retry; doubles per attempt up
    #: to ``retry_backoff_max``
    retry_backoff_base: float = 25e-6
    retry_backoff_max: float = 400e-6

    def __post_init__(self) -> None:
        if self.rendezvous not in ("get", "put"):
            raise ValueError(f"rendezvous must be 'get' or 'put': {self.rendezvous}")
        if self.intranode not in ("pxshm_single", "pxshm_double", "ugni"):
            raise ValueError(f"bad intranode mode {self.intranode!r}")
        if self.small_path not in ("smsg", "msgq"):
            raise ValueError(f"bad small_path {self.small_path!r}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.retry_backoff_base <= 0:
            raise ValueError(
                f"retry_backoff_base must be positive, got {self.retry_backoff_base}")
        if self.retry_backoff_max < self.retry_backoff_base:
            raise ValueError("retry_backoff_max must be >= retry_backoff_base")

    def replace(self, **kw) -> "UgniLayerConfig":
        return dataclasses.replace(self, **kw)


def initial_design() -> UgniLayerConfig:
    """The pre-optimization layer of paper Fig. 6."""
    return UgniLayerConfig(use_mempool=False, intranode="ugni")
