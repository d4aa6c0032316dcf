"""Exact p-adic norms on rationals and two ultrametric samplers.

``padic_valuation`` factors a rational as p^γ · m/n with m, n coprime to p
and reports the norm p^(−γ) exactly (0 for input 0). ``padic_distance``
is the induced ultrametric on the rationals, computed on the ints of the
two values with no Fraction arithmetic. ``dplus`` is the ultrametric on
non-negative rationals that returns the maximum of two distinct values
and 0 on the diagonal. ``sample_space`` turns a finite list of values
into a validated distance matrix under either metric.

Every value and the prime must be exact (a float raises FormatError).
Primality is decided exactly by Miller-Rabin below a fixed bound; a
prime is refused at or above it, where the test could pass a composite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import DuplicateValue, NegativeInput, NotPrime, TooLarge
from .metric import ZERO, FiniteUltrametricSpace, _Record
from .rationals import exact_rational, format_rational

# Strong-pseudoprime witnesses: the first 13 primes. Miller-Rabin with them
# is exact below MR_BOUND, the least odd composite that is a strong
# pseudoprime to all of them (OEIS A014233; the first 12 primes alone
# pass the composite 318665857834031151167461).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981  # 1287836182261 * 2575672364521


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below MR_BOUND)."""
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


def _require_prime(p) -> int:
    """p as an int, if it is an exact prime that :func:`is_prime` decides exactly."""
    p = exact_rational(p)
    if p >= MR_BOUND and p.denominator == 1:  # may be prime, but the test cannot tell
        raise TooLarge(
            f"p-adic prime (primality is exact below {MR_BOUND})", p.numerator, MR_BOUND - 1
        )
    if p.denominator != 1 or not is_prime(p.numerator):
        raise NotPrime(p.numerator if p.denominator == 1 else p)
    return p.numerator


class PadicNorm(_Record):
    """The p-adic norm of a rational: either zero or p^(−exponent).

    ``exponent`` is None exactly for input 0. The exponent form is kept so
    that huge |γ| never forces huge numerators until a caller asks for the
    norm as a Fraction.
    """

    __slots__ = ("prime", "exponent")
    prime: int
    exponent: Optional[int]

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def norm(self) -> Fraction:
        if self.exponent is None:
            return ZERO
        return Fraction(self.prime) ** -self.exponent


def _valuation(value: int, p: int) -> int:
    """The exponent of p in the nonzero int ``value``."""
    count = 0
    while not value % p:
        value //= p
        count += 1
    return count


def padic_valuation(t: Fraction, p: int) -> PadicNorm:
    """Norm of t under prime p: p^(−γ) where t = p^γ · m/n, or zero for t = 0."""
    t = exact_rational(t)
    p = _require_prime(p)
    if t == 0:
        return PadicNorm(p, None)
    return PadicNorm(p, _valuation(t.numerator, p) - _valuation(t.denominator, p))


def padic_distance(t: Fraction, w: Fraction, p: int) -> Fraction:
    """The p-adic ultrametric on rationals: norm of the difference."""
    return dp_metric(p)(t, w)


def dplus(a: Fraction, b: Fraction) -> Fraction:
    """Ultrametric on non-negative rationals: max of distinct values, else 0."""
    a = exact_rational(a)
    b = exact_rational(b)
    if a < 0:
        raise NegativeInput(a)
    if b < 0:
        raise NegativeInput(b)
    if a == b:
        return Fraction(0)
    return max(a, b)


def dp_metric(p: int) -> Callable[[Fraction, Fraction], Fraction]:
    """A two-argument p-adic distance with the prime fixed (checked once).

    For t = a/b and w = c/d in lowest terms, t − w = (ad − cb)/(bd), so
    v_p(t − w) = v_p(ad − cb) − v_p(b) − v_p(d): three valuations of ints
    and no Fraction arithmetic. Each exponent's norm is one shared
    Fraction, so a matrix of these distances holds one object per
    distinct value.
    """
    p = _require_prime(p)
    norms: dict[int, Fraction] = {}

    def metric(t: Fraction, w: Fraction) -> Fraction:
        t = exact_rational(t)
        w = exact_rational(w)
        b, d = t.denominator, w.denominator
        diff = t.numerator * d - w.numerator * b
        if not diff:
            return ZERO
        exponent = _valuation(diff, p) - _valuation(b, p) - _valuation(d, p)
        norm = norms.get(exponent)
        if norm is None:
            norm = norms[exponent] = PadicNorm(p, exponent).norm
        return norm

    return metric


def sample_space(
    values: Sequence[Fraction],
    metric: Callable[[Fraction, Fraction], Fraction],
) -> FiniteUltrametricSpace:
    """Distance matrix of a finite sample under a chosen ultrametric.

    The values must be exact (a float raises FormatError). Point
    identifiers are the values themselves in "p/q" form. The result goes
    through full ultrametric validation, so a bad metric cannot leak an
    invalid space downstream.
    """
    from .hierarchy import validate_ultrametric

    vals = [exact_rational(v) for v in values]
    seen = set()
    for v in vals:
        if v in seen:
            raise DuplicateValue(v)
        seen.add(v)
    names = [format_rational(v) for v in vals]
    n = len(vals)
    matrix = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = metric(vals[i], vals[j])
            matrix[i][j] = d
            matrix[j][i] = d
    return validate_ultrametric(names, matrix)
