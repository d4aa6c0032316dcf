"""The error classes: their messages, their fields, and their pickling.

An error that crosses the ``--jobs`` pool is pickled in the worker and
rebuilt from its ``args`` in the parent, so every class must round-trip.
"""

import pickle
from fractions import Fraction

import pytest

from ultratree import errors

F = Fraction

CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.UltratreeError)),
    key=lambda cls: cls.__name__,
)


def sample(cls):
    """An instance of ``cls`` built from its constructor's values alone."""
    if cls.message is None:
        return cls("some detail")
    return cls(*[f"value {k}" for k in range(len(cls.fields))])


# (class name, values, message): the wording every raise site prints
MESSAGES = [
    ("NotConnected", ("v",), "tree is not connected: vertex 'v' is unreachable"),
    ("HasCycle", (("a", "b"),), "graph has a cycle through edge ('a', 'b')"),
    ("MissingLabel", ("v",), "vertex 'v' has no label"),
    ("NegativeLabel", ("v", F(-1, 2)), "vertex 'v' has negative label -1/2"),
    ("DuplicateVertex", ("v",), "vertex 'v' listed more than once"),
    ("UnknownVertex", ("v",), "unknown vertex 'v'"),
    ("DegenerateLabeling", (("a", "b"),),
     "degenerate labeling: both ends of edge ('a', 'b') have label 0"),
    ("NotABall", (["c", "a"],), "vertex set ['a', 'c'] is not an open ball of the tree's space"),
    ("NotSymmetric", (("a", "b"),), "matrix is not symmetric at pair ('a', 'b')"),
    ("DuplicatePoint", ("p",), "point 'p' listed more than once"),
    ("NonzeroDiagonal", ("p",), "diagonal entry for point 'p' is not zero"),
    ("NonpositiveOffDiagonal", (("a", "b"),), "off-diagonal entry for pair ('a', 'b') is not positive"),
    ("StrongTriangleViolation", (("a", "b", "c"),),
     "strong triangle inequality fails on triple ('a', 'b', 'c')"),
    ("UnknownPoint", ("p",), "unknown point 'p'"),
    ("EmptySubset", (), "subset must be non-empty"),
    ("NonpositiveRadius", (F(-1),), "open ball radius must be positive, got -1"),
    ("NonpositiveRadius", (F(-1, 3), "closed"), "closed ball radius must be non-negative, got -1/3"),
    ("NotCompleteMultipartite", ("edge 'a'-'b' inside a part",),
     "graph is not complete multipartite: edge 'a'-'b' inside a part"),
    ("TooSmall", ("needs n >= 3",), "needs n >= 3"),
    ("NotPrime", (4,), "4 is not a prime number"),
    ("NotPrime", (F(1, 2),), "1/2 is not a prime number"),
    ("DuplicateValue", (F(3),), "sample value 3 appears more than once"),
    ("NegativeInput", (F(-2),), "input must be non-negative, got -2"),
    ("TooLarge", ("class enumeration", 11, 10), "class enumeration: n=11 exceeds the capacity fence 10"),
    ("FewerThanTwoBlocks", (1,), "partition must have at least 2 blocks, got 1"),
    ("EmptyPool", (), "label pool is empty"),
    ("EmptyPool", ("label pool needs a positive value for n >= 2",),
     "label pool needs a positive value for n >= 2"),
    ("FormatError", ("bad",), "bad"),
    ("UltratreeError", ("x",), "x"),
]


@pytest.mark.parametrize("name,values,message", MESSAGES)
def test_message(name, values, message):
    exc = getattr(errors, name)(*values)
    assert str(exc) == str(pickle.loads(pickle.dumps(exc))) == message


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_class_round_trips_through_pickle(cls):
    exc = sample(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    for name in cls.fields:
        assert getattr(back, name) == getattr(exc, name)


def test_fields_are_the_values_raised_with():
    exc = errors.TooLarge("class enumeration", 11, 10)
    assert exc.args == ("class enumeration", 11, 10)
    assert (exc.what, exc.n, exc.fence) == ("class enumeration", 11, 10)
    assert errors.NotABall(["b", "a"]).subset == frozenset({"a", "b"})
    assert errors.NonpositiveRadius(F(0)).kind == "open"


def test_repr_shows_the_values():
    assert repr(errors.NotConnected("v")) == "NotConnected('v')"
    assert repr(errors.TooLarge("x", 11, 10)) == "TooLarge('x', 11, 10)"


@pytest.mark.parametrize(
    "name,values",
    [
        ("NotConnected", ()),
        ("NotConnected", ("a", "b")),
        ("TooLarge", ("x", 11)),
        ("EmptySubset", ("x",)),
        ("NotABall", ()),
        ("NonpositiveRadius", ()),
        ("NonpositiveRadius", (1, "open", "x")),
    ],
)
def test_wrong_number_of_values_is_a_type_error(name, values):
    with pytest.raises(TypeError):
        getattr(errors, name)(*values)
