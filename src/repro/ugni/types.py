"""Shared uGNI enums and small value types."""

from __future__ import annotations

import enum


class PostType(enum.Enum):
    """Transaction types accepted by GNI_PostFma / GNI_PostRdma."""

    PUT = "put"
    GET = "get"


class CqEventKind(enum.Enum):
    """What a completion-queue entry describes."""

    #: a local FMA/BTE transaction completed (source side)
    POST_DONE = "post_done"
    #: a MSGQ message arrived in the node queue
    MSGQ_ARRIVAL = "msgq_arrival"
    #: the operation failed (``GNI_RC_TRANSACTION_ERROR`` family): a
    #: fault-injected FMA/BTE transaction, or a CQ overrun marker
    #: (``tag="overrun"``).  ``data`` carries the failed descriptor /
    #: overrun entry so recovery code can identify what to retry.
    ERROR = "error"
