"""The capacity fences of class enumeration, the one exponential-cost operation.

Each fence has a built-in ceiling, set by time alone. ``con3`` and
``hol`` fold over forest states, under a second at n = 11;
``closed-balls`` walks the realizable classes only, about 6 s and 20 MB
at n = 11. The theorem suite checks each class's whole space, about nine
times the work at each step of n, and
:func:`~ultratree.explorer.enumerate_dendrograms` builds every class as a
``Dendrogram``; both stop at n = 10. A witness's label is the canonical
key at any n, since the walk and the canonical dendrogram order children
alike. The environment variable ``ULTRATREE_MAX_N`` may lower a fence
(never raise it), so batch runs can cap work globally. Its value is
written in the ASCII digits 0-9 only.
"""

from __future__ import annotations

import os

from .errors import FormatError, TooLarge, UltratreeError
from .rationals import parse_integer

ENV_VAR = "ULTRATREE_MAX_N"

ENUMERATION_FENCE = 10     # weak-similarity class enumeration: the suite, enumerate_dendrograms
FOLD_FENCE = 11            # the fold campaigns: con3, hol, closed-balls (whose time sets it)


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
