"""Exception hierarchy for the repro package.

Every layer of the stack raises a subclass of :class:`ReproError` so that
callers can distinguish simulation bugs (plain ``AssertionError`` /
``RuntimeError``) from modelled error conditions (e.g. a uGNI call with an
unregistered buffer, which on real hardware would return
``GNI_RC_INVALID_PARAM``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro stack."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly.

    Examples: scheduling an event in the past, running a finished engine,
    or re-triggering an already-triggered event.
    """


class HardwareError(ReproError):
    """Invalid interaction with the simulated hardware."""


class MemoryError_(HardwareError):
    """Simulated node memory exhaustion or an invalid free.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class TopologyError(HardwareError):
    """Invalid topology coordinates or routing request."""


class UgniError(ReproError):
    """Base class for errors from the simulated uGNI library."""

    #: mirrors the GNI return-code family of the real library
    rc: str = "GNI_RC_ERROR"


class UgniInvalidParam(UgniError):
    """Call with an invalid argument (``GNI_RC_INVALID_PARAM``)."""

    rc = "GNI_RC_INVALID_PARAM"


class UgniNotRegistered(UgniError):
    """FMA/BTE transaction against unregistered memory."""

    rc = "GNI_RC_INVALID_PARAM"


class UgniNoSpace(UgniError):
    """SMSG mailbox out of credits (``GNI_RC_NOT_DONE`` on send)."""

    rc = "GNI_RC_NOT_DONE"


class UgniTransactionError(UgniError):
    """An FMA/BTE transaction or SMSG delivery failed in the fabric
    (``GNI_RC_TRANSACTION_ERROR``).

    Real Gemini surfaces network-level failures — adaptive-routing link
    faults, CRC errors, dead peers — as error completions on the
    initiator's CQ.  The fault-injection subsystem (:mod:`repro.faults`)
    produces the same ``CqEventKind.ERROR`` events; this exception is
    raised when such an event reaches a layer with no recovery machinery
    enabled (see ``UgniLayerConfig.reliability``).
    """

    rc = "GNI_RC_TRANSACTION_ERROR"


class MpiError(ReproError):
    """Errors from the simulated MPI subset (``repro.mpish``)."""


class LrtsError(ReproError):
    """Machine-layer (LRTS) protocol violation."""


class CharmError(ReproError):
    """Errors from the Charm++-style programming layer."""
