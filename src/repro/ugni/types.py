"""Shared uGNI enums and small value types."""

from __future__ import annotations

import enum


class PostType(enum.Enum):
    """Transaction types accepted by GNI_PostFma / GNI_PostRdma."""

    PUT = "put"
    GET = "get"


#: the members as module constants for the per-post paths: reading a
#: member off an Enum class is a descriptor call (~0.2 us on CPython 3.11)
PUT, GET = PostType.PUT, PostType.GET

