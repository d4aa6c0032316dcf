"""The one exactness rule (:func:`exact_rational`), strict parsing and formatting.

Every value a public entry takes as a rational becomes a `fractions.Fraction`
through :func:`exact_rational`. Text is "p/q" (or a bare integer) in the digits
0-9; decimal notation is rejected so that no value passes through floating point.
An integer setting (a CLI flag, ``ULTRATREE_MAX_N``) is read by
:func:`parse_integer` with the same digit rule.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError

# [0-9], not \d: \d also matches other scripts' digits, such as "٣"
_INTEGER_RE = re.compile("[+-]?[0-9]+")
_RATIONAL_RE = re.compile(_INTEGER_RE.pattern + "(?:/[1-9][0-9]*)?")


def exact_rational(value) -> Fraction:
    """The one exactness rule: a Fraction as given (equal inputs can share
    one object), an int that is no bool, or a string :func:`parse_rational`
    accepts, as a Fraction. Anything else, a float or a bool, raises FormatError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise FormatError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer string into an exact Fraction.

    Decimal notation ("0.5", "1e3") is rejected: exactness is the contract.
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise FormatError(f"not an exact rational: {text!r} (expected 'p/q' or an integer string)")
    try:
        return Fraction(s)
    except ValueError:  # more digits than the interpreter converts to an int
        raise FormatError(f"rational with {len(s)} characters is too long") from None


def parse_integer(text: str) -> int:
    """Parse an integer string, an optional sign and the digits 0-9 with no
    spaces, into an int."""
    if not _INTEGER_RE.fullmatch(text):
        raise FormatError(f"not an integer: {text!r} (expected the digits 0-9)")
    return parse_rational(text).numerator


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return str(exact_rational(value))


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated list of rationals, e.g. "0,1,5/2". A blank
    item is refused by its 1-based position; text of blank items alone is
    an empty list, refused as such."""
    items = text.split(",")
    blank = [i for i, part in enumerate(items, 1) if not part.strip()]
    if len(blank) == len(items):
        raise FormatError(f"empty rational list: {text!r}")
    if blank:
        raise FormatError(f"empty item {blank[0]} in rational list: {text!r}")
    return [parse_rational(part) for part in items]
