import sys
from fractions import Fraction

import pytest

# Set before the package is imported: a test run leaves no bytecode in
# src/, so that a later CLI run from this checkout compiles from source,
# as one from a fresh checkout does.
sys.dont_write_bytecode = True

from ultratree import distance_matrix, validate_tree  # noqa: E402


@pytest.fixture(scope="session")
def path_tree():
    """The 4-vertex labeled path with labels (2, 2, 1, 1)."""
    return validate_tree(
        ["x1", "x2", "x3", "x4"],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4")],
        {"x1": 2, "x2": 2, "x3": 1, "x4": 1},
    )


@pytest.fixture(scope="session")
def path_space(path_tree):
    return distance_matrix(path_tree)


# Frozen expected matrix for the labeled path: six pairwise distances,
# all 2 except d(x3,x4) = 1.
PATH_MATRIX = tuple(
    tuple(Fraction(v) for v in row)
    for row in ((0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 1), (2, 2, 1, 0))
)


@pytest.fixture(scope="session")
def triple_space():
    """Non-equidistant 3-point space: d(x1,x3) = 1, other pairs 2."""
    from ultratree import validate_ultrametric

    return validate_ultrametric(
        ["x1", "x2", "x3"],
        [
            [0, 2, 1],
            [2, 0, 2],
            [1, 2, 0],
        ],
    )
