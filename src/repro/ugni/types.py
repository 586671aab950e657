"""Shared uGNI enums and small value types."""

from __future__ import annotations

import enum


class PostType(enum.Enum):
    """Transaction types accepted by GNI_PostFma / GNI_PostRdma."""

    PUT = "put"
    GET = "get"

