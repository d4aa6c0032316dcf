"""The capacity fence of class enumeration, the one exponential-cost operation.

The fence has a built-in ceiling. The environment variable
``ULTRATREE_MAX_N`` may lower it (never raise it), so batch runs can cap
work globally. Its value is written in the ASCII digits 0-9 only.
"""

from __future__ import annotations

import os

from .errors import FormatError, TooLarge, UltratreeError
from .rationals import parse_integer

ENV_VAR = "ULTRATREE_MAX_N"

ENUMERATION_FENCE = 10     # weak-similarity class enumeration


def fence_limit(default: int) -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        value = parse_integer(raw)
    except FormatError:
        value = 0  # rejected below, naming the raw text
    if value < 1:
        raise UltratreeError(f"{ENV_VAR} must be an integer >= 1, got {raw!r}")
    return min(default, value)


def require_within(what: str, n: int, default: int) -> None:
    limit = fence_limit(default)
    if n > limit:
        raise TooLarge(what, n, limit)
