"""Every public entry that takes a rational reads it by the one rule in
``rationals.exact_rational``: a float or a bool is refused, never read
through floating point, and an int means what its Fraction means."""

from fractions import Fraction as F

import pytest

from ultratree import (
    FiniteUltrametricSpace,
    ball,
    dp_metric,
    dplus,
    padic_distance,
    padic_valuation,
    random_labeled_tree,
    sample_space,
    validate_tree,
    validate_ultrametric,
)
from ultratree.errors import FormatError, NotPrime
from ultratree.padic import MR_BOUND

TWO_POINTS = validate_ultrametric(["a", "b"], [[0, 3], [3, 0]])

# entry -> a call that puts its argument where the entry takes a rational;
# 2 is an allowed value everywhere, the prime included
ENTRIES = {
    "validate_tree label": lambda x: validate_tree(["a", "b"], [("a", "b")], {"a": 1, "b": x}),
    "validate_ultrametric entry": lambda x: validate_ultrametric(["a", "b"], [[0, x], [x, 0]]),
    "from_trusted_matrix entry": lambda x: FiniteUltrametricSpace.from_trusted_matrix(
        ["a", "b"], [[0, x], [x, 0]]
    ),
    "random_labeled_tree pool": lambda x: random_labeled_tree(4, [1, x], seed=1),
    "sample_space value": lambda x: sample_space([0, 1, x], dplus),
    "padic_valuation value": lambda x: padic_valuation(x, 3),
    "padic_valuation prime": lambda x: padic_valuation(12, x),
    "padic_distance value": lambda x: padic_distance(x, F(1, 3), 5),
    "padic_distance prime": lambda x: padic_distance(1, 5, x),
    "dplus first": lambda x: dplus(x, 1),
    "dplus second": lambda x: dplus(1, x),
    "dp_metric prime": lambda x: dp_metric(x)(1, 5),
    "dp_metric value": lambda x: dp_metric(5)(F(1, 5), x),
    "ball radius": lambda x: ball(TWO_POINTS, "a", x, "closed"),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("value", [0.1, 2.0, True])
def test_a_float_or_bool_is_refused(entry, value):
    with pytest.raises(FormatError):
        ENTRIES[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_an_int_means_its_fraction(entry):
    assert ENTRIES[entry](2) == ENTRIES[entry](F(2))


def test_padic_distance_is_exact():
    # 0.1 - 0.2 in floating point had 5-adic norm 1; 1/10 - 1/5 = -1/10 has 5
    assert padic_distance(F(1, 10), F(1, 5), 5) == 5
    with pytest.raises(FormatError):
        padic_distance(0.1, 0.2, 5)


def test_a_float_prime_is_refused_not_truncated():
    # int(3.9) made it the prime 3
    with pytest.raises(FormatError):
        dp_metric(3.9)
    # an exact non-integer is no prime, however large
    for p in (F(7, 2), F(2 * MR_BOUND + 1, 2)):
        with pytest.raises(NotPrime):
            dp_metric(p)


def test_a_non_prime_names_itself_as_given():
    # an integral prime is reported as the int, not its Fraction; the text is the same
    with pytest.raises(NotPrime, match=r"^4 is not a prime number$") as info:
        dp_metric(4)
    assert type(info.value.value) is int and info.value.value == 4
    with pytest.raises(NotPrime, match=r"^7/2 is not a prime number$") as info:
        dp_metric(F(7, 2))
    assert type(info.value.value) is F and info.value.value == F(7, 2)


def test_a_string_is_no_sequence_of_entries_or_endpoints():
    # "10" was read as the cells "1" and "0", and "ab" as the edge a-b
    with pytest.raises(FormatError, match=r"row for point 'b'.*'10'"):
        validate_ultrametric(["a", "b"], [[0, 1], "10"])
    with pytest.raises(FormatError, match=r"edge.*'ab'"):
        validate_tree(["a", "b"], ["ab"], {"a": 1, "b": 1})
