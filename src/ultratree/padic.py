"""Exact p-adic norms on rationals and two ultrametric samplers.

``padic_valuation`` factors a rational as p^γ · m/n with m, n coprime to p
and reports the norm p^(−γ) exactly (0 for input 0). ``padic_distance``
is the induced ultrametric on the rationals. ``dplus`` is the ultrametric
on non-negative rationals that returns the maximum of two distinct values
and 0 on the diagonal. ``sample_space`` turns a finite list of values
into a validated distance matrix under either metric.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import DuplicateValue, NegativeInput, NotPrime
from .metric import FiniteUltrametricSpace, _Record, validate_ultrametric
from .rationals import format_rational

# Strong-pseudoprime witnesses making Miller-Rabin deterministic for all
# n < 3.3 * 10^24 (covers the full 64-bit range with a wide margin).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> int:
    p = int(p)
    if not is_prime(p):
        raise NotPrime(p)
    return p


class PadicNorm(_Record):
    """The p-adic norm of a rational: either zero or p^(−exponent).

    ``exponent`` is None exactly for input 0. The exponent form is kept so
    that huge |γ| never forces huge numerators until a caller asks for the
    norm as a Fraction.
    """

    __slots__ = ("prime", "exponent")
    prime: int
    exponent: Optional[int]

    def __init__(self, prime, exponent):
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "exponent", exponent)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def norm(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        if self.exponent >= 0:
            return Fraction(1, self.prime**self.exponent)
        return Fraction(self.prime ** (-self.exponent))


def _strip_factor(value: int, p: int) -> tuple[int, int]:
    count = 0
    while value % p == 0:
        value //= p
        count += 1
    return value, count


def _norm(t: Fraction, p: int) -> PadicNorm:
    """p-adic norm of t for a prime p the caller has already checked."""
    if t == 0:
        return PadicNorm(p, None)
    _, up = _strip_factor(abs(t.numerator), p)
    _, down = _strip_factor(t.denominator, p)
    return PadicNorm(p, up - down)


def padic_valuation(t: Fraction, p: int) -> PadicNorm:
    """Norm of t under prime p: p^(−γ) where t = p^γ · m/n, or zero for t = 0."""
    return _norm(Fraction(t), _require_prime(p))


def padic_distance(t: Fraction, w: Fraction, p: int) -> Fraction:
    """The p-adic ultrametric on rationals: norm of the difference."""
    return padic_valuation(Fraction(t) - Fraction(w), p).norm


def dplus(a: Fraction, b: Fraction) -> Fraction:
    """Ultrametric on non-negative rationals: max of distinct values, else 0."""
    a = Fraction(a)
    b = Fraction(b)
    if a < 0:
        raise NegativeInput(a)
    if b < 0:
        raise NegativeInput(b)
    if a == b:
        return Fraction(0)
    return max(a, b)


def dp_metric(p: int) -> Callable[[Fraction, Fraction], Fraction]:
    """A two-argument p-adic distance with the prime fixed (checked once)."""
    p = _require_prime(p)

    def metric(t: Fraction, w: Fraction) -> Fraction:
        return _norm(Fraction(t) - Fraction(w), p).norm

    return metric


def sample_space(
    values: Sequence[Fraction],
    metric: Callable[[Fraction, Fraction], Fraction],
) -> FiniteUltrametricSpace:
    """Distance matrix of a finite sample under a chosen ultrametric.

    Point identifiers are the values themselves in "p/q" form. The result
    goes through full ultrametric validation, so a bad metric cannot leak
    an invalid space downstream.
    """
    vals = [Fraction(v) for v in values]
    seen = set()
    for v in vals:
        if v in seen:
            raise DuplicateValue(v)
        seen.add(v)
    names = [format_rational(v) for v in vals]
    n = len(vals)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = metric(vals[i], vals[j])
            matrix[i][j] = d
            matrix[j][i] = d
    return validate_ultrametric(names, matrix)
