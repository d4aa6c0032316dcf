"""Strict exact-rational parsing and formatting.

All distances and labels in this package are `fractions.Fraction` values.
The external text form is "p/q" (or a bare integer); decimal notation is
rejected so that no value ever passes through floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError

# [0-9], not \d: \d also matches other scripts' digits, such as "٣"
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer string into an exact Fraction.

    Decimal notation ("0.5", "1e3") is rejected: exactness is the contract.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise FormatError(
            f"not an exact rational: {text!r} (expected 'p/q' or an integer string)"
        )
    try:
        return Fraction(s)
    except ValueError:  # more digits than the interpreter converts to an int
        raise FormatError(f"rational with {len(s)} characters is too long") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated list of rationals, e.g. "0,1,5/2"."""
    items = [part for part in text.split(",") if part.strip() != ""]
    if not items:
        raise FormatError(f"empty rational list: {text!r}")
    return [parse_rational(part) for part in items]
