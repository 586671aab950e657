"""Shared parsing for ``REPRO_*`` environment switches.

Every switch in this codebase documents the same contract: ``=1``
enables, ``=0`` (or unset) disables.  Before this module each reader
spelled the test differently — :mod:`repro.sim._speed` used plain
truthiness, so ``REPRO_PURE_ENGINE=0`` *disabled* the C core, the exact
opposite of the documented behaviour.  All flag reads now route through
:func:`env_flag` and all integer knobs through :func:`env_int`, so the
contract is one function instead of a convention.
"""

from __future__ import annotations

import os
from typing import Optional

#: values (lower-cased, stripped) that mean "off" — everything else,
#: including bare ``=1``/``=yes``/``=true``, means "on"
FALSE_STRINGS = frozenset({"", "0", "false", "no", "off"})


def env_flag(name: str) -> bool:
    """True when environment variable ``name`` is set to a truthy value.

    ``"0"``, ``""``, ``"false"``, ``"no"`` and ``"off"`` (any case) are
    False, and so is an unset variable.
    """
    return os.environ.get(name, "").strip().lower() not in FALSE_STRINGS


def env_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """Integer value of environment variable ``name``, or ``default``.

    An empty or unset variable yields ``default``; anything non-empty
    that does not parse as an integer raises :class:`ValueError` with
    the offending text, so typos fail loudly instead of silently
    falling back.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None
