from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    center_of_distances,
    distance_set,
    dp_metric,
    dplus,
    padic_distance,
    padic_valuation,
    sample_space,
    validate_ultrametric,
)
import oracles
from ultratree.errors import DuplicateValue, NegativeInput, NotPrime, TooLarge
from ultratree.padic import MR_BOUND, is_prime

F = Fraction

rationals = st.builds(
    F,
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
)


class TestPrimality:
    def test_small(self):
        assert [p for p in range(2, 40) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_edge_cases(self):
        assert not is_prime(0) and not is_prime(1) and not is_prime(-7)

    def test_large(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7

    def test_strong_pseudoprime_to_the_first_twelve_primes(self):
        # the least one (OEIS A014233): the base 41 exposes it
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not is_prime(318665857834031151167461)

    def test_bound_is_the_least_strong_pseudoprime_to_every_witness(self):
        # composite, yet it passes the test: why no p at or above it is taken
        assert 1287836182261 * 2575672364521 == MR_BOUND
        assert is_prime(MR_BOUND)

    @pytest.mark.parametrize("p", [MR_BOUND, MR_BOUND + 2, 2**89 - 1])  # 2**89 - 1 is prime
    def test_no_prime_at_or_above_the_bound(self, p):
        for call in (lambda: dp_metric(p), lambda: padic_valuation(F(3), p),
                     lambda: padic_distance(F(0), F(1), p)):
            with pytest.raises(TooLarge, match=str(MR_BOUND)):
                call()


class TestValuation:
    def test_twelve_base_two(self):
        v = padic_valuation(F(12), 2)
        assert v.exponent == 2 and v.norm == F(1, 4)

    def test_zero_input(self):
        v = padic_valuation(F(0), 5)
        assert v.is_zero and v.norm == 0

    def test_negative_exponent(self):
        v = padic_valuation(F(1, 6), 2)
        assert v.exponent == -1 and v.norm == 2

    def test_composite_base_rejected(self):
        with pytest.raises(NotPrime):
            padic_valuation(F(3), 4)

    def test_exponent_by_repeated_division(self):
        # oracle: divide out the prime one factor at a time
        for value, p in [(F(12), 2), (F(81, 7), 3), (F(5, 50), 5), (F(-40), 2)]:
            num, den = abs(value.numerator), value.denominator
            up = 0
            while num % p == 0:
                num //= p
                up += 1
            down = 0
            while den % p == 0:
                den //= p
                down += 1
            assert padic_valuation(value, p).exponent == up - down


class TestPadicDistance:
    def test_fraction_pair(self):
        # 1/3 - 1/2 = -1/6 carries one inverse factor of 2
        assert padic_distance(F(1, 3), F(1, 2), 2) == 2

    def test_same_point(self):
        assert padic_distance(F(7, 3), F(7, 3), 13) == 0

    @given(rationals, rationals, rationals, st.sampled_from([2, 3, 5]))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, t, w, y, p):
        assert padic_distance(t + y, w + y, p) == padic_distance(t, w, p)

    @given(rationals, rationals, st.sampled_from([2, 3, 5]))
    @settings(max_examples=200, deadline=None)
    def test_strong_triangle(self, t, w, p):
        norm = lambda x: padic_valuation(x, p).norm
        assert norm(t + w) <= max(norm(t), norm(w))

    @given(rationals, rationals, st.sampled_from([2, 3, 5]))
    @settings(max_examples=200, deadline=None)
    def test_multiplicativity(self, t, w, p):
        norm = lambda x: padic_valuation(x, p).norm
        assert norm(t * w) == norm(t) * norm(w)


# samples with negatives and with denominators divisible by the prime
PRIMES = [2, 3, 5, 7, 2**61 - 1]


@st.composite
def padic_rationals(draw, p):
    den = p ** draw(st.integers(0, 3)) * draw(st.integers(1, 12))
    return F(draw(st.integers(-60, 60)), den)


class TestIntPathAgainstFractionOracle:
    @given(st.data(), st.sampled_from(PRIMES))
    @settings(max_examples=150, deadline=None)
    def test_sample_space(self, data, p):
        values = data.draw(st.lists(padic_rationals(p), min_size=1, max_size=9, unique=True))
        assert sample_space(values, dp_metric(p)) == oracles.padic_space(values, p)

    @given(st.data(), st.sampled_from(PRIMES))
    @settings(max_examples=300, deadline=None)
    def test_padic_distance_pair_by_pair(self, data, p):
        t = data.draw(padic_rationals(p))
        w = data.draw(st.one_of(st.just(t), padic_rationals(p)))  # zero differences too
        assert padic_distance(t, w, p) == oracles.padic_distance(t, w, p)

    def test_one_shared_fraction_per_distance(self):
        # `_rank_entries` groups the cells by object identity
        space_values = [F(k, 4) for k in range(-8, 9)]
        metric = dp_metric(2)
        distances = [metric(t, w) for t in space_values for w in space_values]
        assert len({id(d) for d in distances}) == len(set(distances))


class TestDplus:
    def test_distinct_takes_max(self):
        assert dplus(F(3), F(5)) == 5

    def test_equal_is_zero(self):
        assert dplus(F(7, 2), F(7, 2)) == 0

    def test_zero_against_positive(self):
        assert dplus(F(0), F(9, 4)) == F(9, 4)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            dplus(F(-1), F(2))


class TestSampleSpace:
    def test_two_adic_four_points(self):
        space = sample_space([0, 1, 2, 3], dp_metric(2))
        assert space.points == ("0", "1", "2", "3")
        h = F(1, 2)
        assert space.matrix == (
            (0, 1, h, 1),
            (1, 0, 1, h),
            (h, 1, 0, 1),
            (1, h, 1, 0),
        )
        assert center_of_distances(space).values == (0, h, 1)

    def test_dplus_four_points(self):
        space = sample_space([0, 1, 2, 3], dplus)
        assert space.matrix == (
            (0, 1, 2, 3),
            (1, 0, 2, 3),
            (2, 2, 0, 3),
            (3, 3, 3, 0),
        )

    def test_single_value(self):
        space = sample_space([F(5, 3)], dplus)
        assert space.points == ("5/3",) and space.matrix == ((0,),)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateValue):
            sample_space([1, F(2, 2)], dplus)

    def test_dplus_negative_rejected(self):
        with pytest.raises(NegativeInput):
            sample_space([0, -1], dplus)

    def test_distances_are_prime_powers(self):
        space = sample_space([F(1, 3), F(5), F(7, 12), F(9, 2), 0], dp_metric(3))
        for v in distance_set(space).values:
            if v != 0:
                num, den = v.numerator, v.denominator
                assert (num == 1 and _is_power(den, 3)) or (den == 1 and _is_power(num, 3))

    def test_samples_validate(self):
        for p in (2, 3, 5):
            space = sample_space([0, 1, F(1, 2), F(3, 4), 7], dp_metric(p))
            validate_ultrametric(space.points, space.matrix)

    def test_four_point_sample_breaks_center_dichotomy(self):
        space = sample_space([0, 1, 2, 3], dp_metric(2))
        assert len(center_of_distances(space)) >= 3


def _is_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1
