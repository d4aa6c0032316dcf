"""The behaviour of the library's record classes.

Eleven records are frozen values (construction by position or keyword,
equality and hashing by field values between records of one type, a
``Name(field=value, ...)`` repr, no assignment or deletion), and
``CampaignReport`` is a mutable, unhashable one. These tests pin that
behaviour independently of how the classes are written.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ultratree import (
    Ball,
    CampaignReport,
    Dendrogram,
    DiametricalGraph,
    DistanceSet,
    FiniteUltrametricSpace,
    LabeledTree,
    MultipartiteDecomposition,
    PadicNorm,
    SphereCertificate,
    StarCertificate,
    WeakSimilarityWitness,
)

F = Fraction
LEAF = Dendrogram(0)
CHERRY = Dendrogram(1, (LEAF, LEAF))

# name -> (class, field names, values, values of an unequal instance, repr)
FROZEN = {
    "Ball": (
        Ball,
        ("kind", "center", "radius", "members"),
        ("open", "a", F(1), frozenset({"a"})),
        ("closed", "a", F(1), frozenset({"a"})),
        "Ball(kind='open', center='a', radius=Fraction(1, 1), members=frozenset({'a'}))",
    ),
    "SphereCertificate": (
        SphereCertificate,
        ("center", "radius", "subset"),
        ("a", F(1, 2), frozenset({"a"})),
        ("a", F(1, 3), frozenset({"a"})),
        "SphereCertificate(center='a', radius=Fraction(1, 2), subset=frozenset({'a'}))",
    ),
    "DistanceSet": (
        DistanceSet,
        ("values",),
        ((F(0), F(2)),),
        ((F(0), F(3)),),
        "DistanceSet(values=(Fraction(0, 1), Fraction(2, 1)))",
    ),
    "FiniteUltrametricSpace": (
        FiniteUltrametricSpace,
        ("points", "ranks", "values"),
        (("a", "b"), ((0, 1), (1, 0)), (F(0), F(2))),
        (("a", "c"), ((0, 1), (1, 0)), (F(0), F(2))),
        "FiniteUltrametricSpace(points=('a', 'b'), ranks=((0, 1), (1, 0)),"
        " values=(Fraction(0, 1), Fraction(2, 1)))",
    ),
    "DiametricalGraph": (
        DiametricalGraph,
        ("points", "edges"),
        (("a", "b"), (("a", "b"),)),
        (("a", "b"), ()),
        "DiametricalGraph(points=('a', 'b'), edges=(('a', 'b'),))",
    ),
    "MultipartiteDecomposition": (
        MultipartiteDecomposition,
        ("parts",),
        ((("a",), ("b",)),),
        ((("a", "b"),),),
        "MultipartiteDecomposition(parts=(('a',), ('b',)))",
    ),
    "StarCertificate": (
        StarCertificate,
        ("center",),
        ("a",),
        ("b",),
        "StarCertificate(center='a')",
    ),
    "Dendrogram": (
        Dendrogram,
        ("level", "children"),
        (1, (LEAF, LEAF)),
        (2, (LEAF, CHERRY)),
        "Dendrogram(level=1, children=(Dendrogram(level=0, children=()),"
        " Dendrogram(level=0, children=())))",
    ),
    "WeakSimilarityWitness": (
        WeakSimilarityWitness,
        ("point_bijection", "scale_map"),
        ((("a", "x"),), ((F(0), F(0)),)),
        ((("a", "y"),), ((F(0), F(0)),)),
        "WeakSimilarityWitness(point_bijection=(('a', 'x'),),"
        " scale_map=((Fraction(0, 1), Fraction(0, 1)),))",
    ),
    "LabeledTree": (
        LabeledTree,
        ("vertices", "edges", "labels"),
        (("a", "b"), ((0, 1),), (F(1), F(2))),
        (("a", "b"), ((0, 1),), (F(1), F(3))),
        "LabeledTree(vertices=('a', 'b'), edges=((0, 1),),"
        " labels=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    "PadicNorm": (
        PadicNorm,
        ("prime", "exponent"),
        (3, None),
        (3, 2),
        "PadicNorm(prime=3, exponent=None)",
    ),
}

REPORT_FIELDS = ("check", "n", "instances", "verdict", "results", "witnesses")
REPORT_VALUES = ("con3", 4, 10, "CONSISTENT", {"bound": {"verdict": "PASS"}}, [{"label": "L"}])


def frozen_cases():
    return pytest.mark.parametrize("name", sorted(FROZEN))


@frozen_cases()
def test_positional_and_keyword_construction(name):
    cls, fields, values, _, _ = FROZEN[name]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    mixed = cls(values[0], **dict(zip(fields[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert tuple(getattr(record, field) for field in fields) == values
    assert by_position == by_keyword == mixed


@frozen_cases()
def test_construction_refuses_wrong_arguments(name):
    cls, fields, values, _, _ = FROZEN[name]
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@frozen_cases()
def test_equality(name):
    cls, _, values, other, _ = FROZEN[name]
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    assert record != cls(*other)
    assert not record == cls(*other)
    # a plain tuple of the same values is a different thing
    assert record != tuple(values)
    assert not record == tuple(values)
    assert tuple(values) != record


def test_equality_needs_the_same_type():
    values = (F(0),)
    assert DistanceSet(values) != MultipartiteDecomposition(values)
    assert StarCertificate("a") != MultipartiteDecomposition("a")


@frozen_cases()
def test_equal_records_hash_equal(name):
    cls, _, values, _, _ = FROZEN[name]
    assert hash(cls(*values)) == hash(cls(*values))
    assert len({cls(*values), cls(*values)}) == 1


@frozen_cases()
def test_repr(name):
    cls, _, values, _, text = FROZEN[name]
    assert repr(cls(*values)) == text


@frozen_cases()
def test_frozen(name):
    cls, fields, values, other, _ = FROZEN[name]
    record = cls(*values)
    for field, value in zip(fields, other):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert tuple(getattr(record, field) for field in fields) == values


@frozen_cases()
def test_pickle_and_copy_round_trip(name):
    # a record pickles and copies to an equal twin of the same type
    cls, _, values, _, text = FROZEN[name]
    record = cls(*values)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == text


def test_dendrogram_default_children():
    assert Dendrogram(0) == Dendrogram(0, ()) == Dendrogram(level=0)
    assert Dendrogram(0).children == ()


def test_dendrogram_key_memo_leaves_equality_and_hash_alone():
    first = Dendrogram(2, (LEAF, Dendrogram(1, (LEAF, LEAF))))
    second = Dendrogram(2, (LEAF, Dendrogram(1, (LEAF, LEAF))))
    assert first.key() == "(2:L,(1:L,L))"
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert pickle.loads(pickle.dumps(first)).key() == "(2:L,(1:L,L))"


def test_deep_chains_compare_and_hash_by_their_keys():
    # equality and hashing through the fields recursed once per level and
    # raised RecursionError on a chain this deep, while key() worked
    first = second = LEAF
    other = Dendrogram(1, (LEAF, LEAF, LEAF))
    for level in range(1, 3001):
        first = Dendrogram(level, (first, Dendrogram(0)))
        second = Dendrogram(level, (second, Dendrogram(0)))
        other = Dendrogram(level + 1, (other, Dendrogram(0)))
    assert first == second and hash(first) == hash(second)
    assert first != other and first != first.children[0]
    assert len({first, second, other}) == 2
    assert first.__eq__(first.key()) is NotImplemented


def test_space_views_survive_the_frozen_fields():
    space = FiniteUltrametricSpace(("a", "b"), ((0, 1), (1, 0)), (F(0), F(2)))
    assert space.matrix == ((F(0), F(2)), (F(2), F(0)))
    assert space.distance("a", "b") == F(2)
    assert space == FiniteUltrametricSpace(("a", "b"), ((0, 1), (1, 0)), (F(0), F(2)))
    tree = LabeledTree(("a", "b"), ((0, 1),), (F(1), F(2)))
    assert tree.label_of("b") == F(2)


@pytest.mark.parametrize(
    "values, message",
    [
        ((), "must start at 0"),
        ((F(1), F(2)), "must start at 0"),
        ((F(0), F(2), F(1)), "strictly increasing"),
        ((F(0), F(1), F(1)), "strictly increasing"),
    ],
)
def test_distance_set_validation(values, message):
    with pytest.raises(ValueError, match=message):
        DistanceSet(values)


@pytest.mark.parametrize(
    "level, children, message",
    [
        (0, (LEAF,), "leaf cannot have children"),
        (1, (), "at least 2 children"),
        (1, (LEAF,), "at least 2 children"),
        (1, (LEAF, CHERRY), "strictly decrease"),
        (2, (CHERRY, Dendrogram(2, (LEAF, LEAF))), "strictly decrease"),
    ],
)
def test_dendrogram_validation(level, children, message):
    with pytest.raises(ValueError, match=message):
        Dendrogram(level, children)
    with pytest.raises(ValueError, match=message):
        Dendrogram(level=level, children=children)


def test_labeled_tree_validation():
    with pytest.raises(ValueError, match="labels must align with vertices"):
        LabeledTree(("a", "b"), ((0, 1),), (F(1),))
    with pytest.raises(ValueError, match="labels must align with vertices"):
        LabeledTree(vertices=("a",), edges=(), labels=(F(1), F(2)))


class TestCampaignReport:
    def test_positional_and_keyword_construction(self):
        by_position = CampaignReport(*REPORT_VALUES)
        by_keyword = CampaignReport(**dict(zip(REPORT_FIELDS, REPORT_VALUES)))
        for report in (by_position, by_keyword):
            assert tuple(getattr(report, f) for f in REPORT_FIELDS) == REPORT_VALUES
        assert by_position == by_keyword

    def test_defaults_are_fresh_containers(self):
        first = CampaignReport("hol", 5, 0, "CONSISTENT")
        second = CampaignReport(check="hol", n=5, instances=0, verdict="CONSISTENT")
        assert first.results == {} and first.witnesses == []
        first.results["x"] = 1
        first.witnesses.append("w")
        assert second.results == {} and second.witnesses == []

    def test_equality(self):
        report = CampaignReport(*REPORT_VALUES)
        assert report == CampaignReport(*REPORT_VALUES)
        assert not report != CampaignReport(*REPORT_VALUES)
        other = CampaignReport(*REPORT_VALUES[:3], "COUNTEREXAMPLE", *REPORT_VALUES[4:])
        assert report != other
        assert not report == other
        assert report != REPORT_VALUES
        assert not report == REPORT_VALUES

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(CampaignReport(*REPORT_VALUES))

    def test_repr(self):
        assert repr(CampaignReport("x", None, 0, "PASS")) == (
            "CampaignReport(check='x', n=None, instances=0, verdict='PASS',"
            " results={}, witnesses=[])"
        )
        assert repr(CampaignReport(*REPORT_VALUES)) == (
            "CampaignReport(check='con3', n=4, instances=10, verdict='CONSISTENT',"
            " results={'bound': {'verdict': 'PASS'}}, witnesses=[{'label': 'L'}])"
        )

    def test_mutable(self):
        report = CampaignReport(*REPORT_VALUES)
        report.verdict = "FAIL"
        assert report.verdict == "FAIL"
        assert report.to_json_dict()["verdict"] == "FAIL"
