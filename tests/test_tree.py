from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    LabeledTree,
    PathMaxIndex,
    ball_subtree,
    canonical_labeling,
    distance_matrix,
    is_nondegenerate,
    is_ut,
    label_distance,
    random_labeled_tree,
    validate_tree,
    validate_ultrametric,
)
from ultratree.errors import (
    DegenerateLabeling,
    DuplicateVertex,
    FormatError,
    HasCycle,
    MissingLabel,
    NegativeLabel,
    NotABall,
    NotConnected,
    UnknownVertex,
)
from ultratree.rationals import exact_rational
from ultratree.tree import degenerate_edge

from conftest import PATH_MATRIX


def dfs_path_max(tree: LabeledTree, root: int):
    """Oracle: per-root DFS computing the path-maximum label to every vertex."""
    adj = tree.adjacency()
    best = [None] * tree.n
    best[root] = tree.labels[root]
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if best[w] is None:
                best[w] = max(best[u], tree.labels[w])
                stack.append(w)
    return best


class TestValidateTree:
    def test_path_is_valid(self, path_tree):
        assert path_tree.vertices == ("x1", "x2", "x3", "x4")
        assert len(path_tree.edges) == 3
        assert path_tree.labels == (2, 2, 1, 1)

    def test_singleton_with_zero_label(self):
        t = validate_tree(["a"], [], {"a": 0})
        assert t.n == 1 and t.edges == ()

    def test_triangle_has_cycle(self):
        with pytest.raises(HasCycle):
            validate_tree(
                ["a", "b", "c"],
                [("a", "b"), ("b", "c"), ("c", "a")],
                {"a": 1, "b": 1, "c": 1},
            )

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(HasCycle) as err:
            validate_tree(["a", "b"], [("a", "a"), ("a", "b")], {"a": 1, "b": 1})
        assert err.value.edge == ("a", "a")

    def test_duplicate_edge_is_a_cycle(self):
        with pytest.raises(HasCycle):
            validate_tree(["a", "b"], [("a", "b"), ("b", "a")], {"a": 1, "b": 1})

    def test_disconnected_names_vertex(self):
        with pytest.raises(NotConnected) as err:
            validate_tree(
                ["a", "b", "c", "d"],
                [("a", "b"), ("c", "d")],
                {v: 1 for v in "abcd"},
            )
        assert err.value.vertex in ("c", "d")

    def test_missing_label(self):
        with pytest.raises(MissingLabel) as err:
            validate_tree(["a", "b"], [("a", "b")], {"a": 1})
        assert err.value.vertex == "b"

    def test_negative_label(self):
        with pytest.raises(NegativeLabel) as err:
            validate_tree(["a", "b"], [("a", "b")], {"a": 1, "b": "-1/2"})
        assert err.value.vertex == "b"

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            validate_tree(["a", "a"], [], {"a": 1})

    def test_unknown_edge_endpoint(self):
        with pytest.raises(UnknownVertex):
            validate_tree(["a", "b"], [("a", "z")], {"a": 1, "b": 1})

    def test_label_key_naming_no_vertex(self):
        with pytest.raises(UnknownVertex) as err:
            validate_tree(["a", "b"], [("a", "b")], {"a": 1, "b": 1, "zz": "-3"})
        assert err.value.vertex == "zz"

    def test_label_strings_parse_exactly(self):
        t = validate_tree(["a", "b"], [("a", "b")], {"a": "5/2", "b": "3"})
        assert t.labels == (Fraction(5, 2), Fraction(3))

    @pytest.mark.parametrize("value", [0.1, 2.0, True, False])
    def test_float_and_bool_labels_are_refused(self, value):
        # no label passes through floating point: 0.1 would be read as
        # 3602879701896397/36028797018963968 and True as 1
        with pytest.raises(FormatError) as err:
            validate_tree(["a", "b"], [("a", "b")], {"a": 1, "b": value})
        assert str(err.value) == f"label for 'b' must be an exact rational string, got {value!r}"
        with pytest.raises(FormatError, match="label for 'a'"):
            validate_tree(["a", "b"], [("a", "b")], {"a": value, "b": 0.5})

    def test_fraction_labels_are_kept_as_given(self):
        half = Fraction(1, 2)
        t = validate_tree(["a", "b"], [("a", "b")], {"a": half, "b": half})
        assert t.labels[0] is half and t.labels[1] is half

    @pytest.mark.parametrize(
        "value, message",
        [
            (None, "must be an exact rational string, got None"),
            ([1], "must be an exact rational string, got [1]"),
            (b"1", "must be an exact rational string, got b'1'"),
            ({"p": 1}, "must be an exact rational string, got {'p': 1}"),
            (0.5, "must be an exact rational string, got 0.5"),
            (True, "must be an exact rational string, got True"),
        ],
    )
    def test_non_rational_labels_name_their_vertex(self, value, message):
        # each raised a bare TypeError, or passed through floating point
        with pytest.raises(FormatError) as err:
            validate_tree(["a", "b"], [("a", "b")], {"a": 1, "b": value})
        assert str(err.value) == f"label for 'b' {message}"

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("0.5", "not an exact rational: '0.5' (expected 'p/q' or an integer string)"),
            ("\u0663", "not an exact rational: '\u0663' (expected 'p/q' or an integer string)"),
            ("9" * 5000, "rational with 5000 characters is too long"),
        ],
        ids=["decimal", "other-script-digit", "too-long"],
    )
    def test_a_label_string_that_is_no_rational_names_its_vertex(self, text, detail):
        # the parser's message alone named no vertex
        with pytest.raises(FormatError) as err:
            validate_tree(["a", "b"], [("a", "b")], {"a": 1, "b": text})
        assert str(err.value) == f"label for 'b': {detail}"

    @pytest.mark.parametrize(
        "first, second", [(Fraction(1), True), (Fraction(1, 2), 0.5), (2, 2.0)]
    )
    def test_an_equal_exact_label_lets_no_inexact_one_pass(self, first, second):
        # the two are equal keys: a memo keyed by the value alone would hand
        # the second label the first one's Fraction
        with pytest.raises(FormatError, match="label for 'b' must be an exact rational string"):
            validate_tree(["a", "b"], [("a", "b")], {"a": first, "b": second})

    def test_a_bad_label_is_named_before_any_other_fault(self):
        # labels are read first, in the mapping's order, as a tree JSON's are
        with pytest.raises(FormatError, match="label for 'zz'"):
            validate_tree(["a", "a"], [("a", "q")], {"zz": None, "a": 0.5})

    def test_each_distinct_label_is_converted_once_and_shared(self, monkeypatch):
        import ultratree.tree as tree_module

        values = []

        def counting(value):
            values.append(value)
            return exact_rational(value)

        monkeypatch.setattr(tree_module, "exact_rational", counting)
        three = Fraction(3)
        t = validate_tree(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")],
            {"a": "5/2", "b": "5/2", "c": 3, "d": 3, "e": three, "f": Fraction(3)},
        )
        # each distinct value of each type once; equal values share one Fraction
        assert values == ["5/2", 3, three]
        assert t.labels == (Fraction(5, 2), Fraction(5, 2), 3, 3, 3, 3)
        assert all(type(label) is Fraction for label in t.labels)
        assert t.labels[0] is t.labels[1]
        assert t.labels[2] is t.labels[3] is t.labels[4]
        assert t.labels[4] is t.labels[5]


def revalidated(tree: LabeledTree) -> LabeledTree:
    """The tree passed through validate_tree as its own names and labels."""
    return validate_tree(tree.vertices, tree.edge_names(), dict(zip(tree.vertices, tree.labels)))


class TestLibraryTreesSkipValidation:
    """is_ut and random_labeled_tree build trees that are valid by
    construction; they do not pass them through validate_tree again."""

    @pytest.fixture
    def no_validation(self, monkeypatch):
        import ultratree.tree as tree_module

        def refuse(*args, **kwargs):
            raise AssertionError("validate_tree was called")

        monkeypatch.setattr(tree_module, "validate_tree", refuse)

    def assert_well_formed(self, tree: LabeledTree) -> None:
        assert tree == revalidated(tree)
        assert type(tree.vertices) is tuple and type(tree.edges) is tuple
        assert all(type(label) is Fraction for label in tree.labels)
        assert all(type(e) is tuple and e[0] < e[1] for e in tree.edges)

    def test_is_ut_on_every_realizable_class_up_to_seven_points(self, monkeypatch, no_validation):
        from ultratree import dendrogram_to_space, enumerate_dendrograms

        certs = []
        for n in range(1, 8):
            for dendro in enumerate_dendrograms(n):
                cert = is_ut(dendrogram_to_space(dendro))
                if cert is not None:
                    certs.append(cert)
        assert len(certs) == 1 + 1 + 2 + 4 + 10 + 28 + 94
        monkeypatch.undo()
        for cert in certs:
            self.assert_well_formed(cert)

    @given(
        st.integers(1, 60),
        st.lists(st.integers(0, 5) | st.fractions(0, 5), min_size=1, max_size=5).filter(any),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_and_realized_trees(self, n, pool, seed):
        import ultratree.tree as tree_module

        real = tree_module.validate_tree
        tree_module.validate_tree = None  # any call would raise TypeError
        try:
            made = random_labeled_tree(n, pool, seed=seed)
            cert = is_ut(distance_matrix(made))
        finally:
            tree_module.validate_tree = real
        assert cert is not None
        self.assert_well_formed(made)
        self.assert_well_formed(cert)
        assert distance_matrix(cert).ranks == distance_matrix(made).ranks


class TestNondegeneracy:
    def test_path_is_nondegenerate(self, path_tree):
        assert is_nondegenerate(path_tree)
        assert degenerate_edge(path_tree) is None

    def test_zero_zero_edge_with_witness(self):
        t = validate_tree(["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": 0, "b": 0, "c": 1})
        assert not is_nondegenerate(t)
        assert degenerate_edge(t) == ("a", "b")

    def test_star_with_positive_center(self):
        # every edge touches the center, whose label is positive
        t = validate_tree(
            ["c", "l1", "l2", "l3"],
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
            {"c": 1, "l1": 0, "l2": 0, "l3": 0},
        )
        assert is_nondegenerate(t)


class TestLabelDistance:
    def test_path_pairs(self, path_tree):
        idx = PathMaxIndex(path_tree)
        assert label_distance(idx, "x1", "x2") == 2
        assert label_distance(idx, "x3", "x4") == 1
        assert label_distance(idx, "x1", "x4") == 2

    def test_same_vertex_is_zero(self, path_tree):
        idx = PathMaxIndex(path_tree)
        for v in path_tree.vertices:
            assert label_distance(idx, v, v) == 0

    def test_unknown_vertex(self, path_tree):
        idx = PathMaxIndex(path_tree)
        with pytest.raises(UnknownVertex):
            label_distance(idx, "x1", "nope")

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (10, 2), (47, 3), (123, 4), (300, 5)])
    def test_index_agrees_with_dfs_all_pairs(self, n, seed):
        tree = random_labeled_tree(n, [0, 1, 2, 3, "7/2"], seed=seed)
        idx = PathMaxIndex(tree)
        for i in range(n):
            oracle = dfs_path_max(tree, i)
            for j in range(n):
                if i != j:
                    assert idx.path_max(tree.vertices[i], tree.vertices[j]) == oracle[j]

    def test_index_agrees_with_dfs_large_tree_all_pairs(self):
        n = 1000
        tree = random_labeled_tree(n, [0, 1, 2, 3, 4, 5], seed=99)
        idx = PathMaxIndex(tree)
        values = idx._values
        query = idx._path_max_rank
        for i in range(n):
            oracle = dfs_path_max(tree, i)
            for j in range(i + 1, n):
                assert values[query(i, j)] == oracle[j]


class TestDistanceMatrix:
    def test_path_matrix_exact(self, path_space):
        assert path_space.matrix == PATH_MATRIX

    def test_singleton(self):
        t = validate_tree(["a"], [], {"a": 5})
        s = distance_matrix(t)
        assert s.matrix == ((0,),)

    def test_random_tree_matches_dfs_and_validates(self):
        tree = random_labeled_tree(50, [0, 1, 2, "1/3", 4], seed=11)
        space = distance_matrix(tree)
        for i in range(50):
            oracle = dfs_path_max(tree, i)
            for j in range(50):
                expected = 0 if i == j else oracle[j]
                assert space.matrix[i][j] == expected
        validate_ultrametric(space.points, space.matrix)  # full check

    def test_degenerate_labeling_carries_edge(self):
        t = validate_tree(["a", "b"], [("a", "b")], {"a": 0, "b": 0})
        with pytest.raises(DegenerateLabeling) as err:
            distance_matrix(t)
        assert err.value.edge == ("a", "b")


class TestCanonicalLabeling:
    def test_path_labels_already_realized(self, path_tree):
        assert canonical_labeling(path_tree).labels == path_tree.labels

    def test_unrealized_label_drops_to_zero(self):
        # 2-vertex path labeled (3, 2): realized distances are {0, 3}
        t = validate_tree(["a", "b"], [("a", "b")], {"a": 3, "b": 2})
        canon = canonical_labeling(t)
        assert canon.labels == (3, 0)
        assert distance_matrix(canon).matrix == distance_matrix(t).matrix

    def test_singleton_label_drops_to_zero(self):
        t = validate_tree(["a"], [], {"a": 5})
        assert canonical_labeling(t).labels == (0,)

    @given(st.integers(0, 10**9), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_matrix_preserving(self, seed, n):
        tree = random_labeled_tree(n, [0, 1, 2, "5/3", 7], seed=seed)
        once = canonical_labeling(tree)
        assert canonical_labeling(once).labels == once.labels
        assert distance_matrix(once).matrix == distance_matrix(tree).matrix

    @given(st.integers(0, 10**9), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_labels_cover_realized_distances(self, seed, n):
        tree = random_labeled_tree(n, [0, 1, 2, 3], seed=seed)
        space = distance_matrix(tree)
        realized = {v for row in space.matrix for v in row}
        labels = set(canonical_labeling(tree).labels)
        assert labels <= realized | {0}
        assert realized - {0} <= labels


class TestBallSubtree:
    def test_close_pair_ball(self, path_tree):
        sub = ball_subtree(path_tree, ["x3", "x4"])
        assert sub.vertices == ("x3", "x4")
        assert sub.labels == (1, 1)
        assert sub.edge_names() == (("x3", "x4"),)

    def test_whole_space_ball(self, path_tree):
        sub = ball_subtree(path_tree, ["x1", "x2", "x3", "x4"])
        assert sub == path_tree

    def test_singleton_ball(self, path_tree):
        sub = ball_subtree(path_tree, ["x2"])
        assert sub.vertices == ("x2",) and sub.edges == ()

    def test_not_a_ball(self, path_tree):
        with pytest.raises(NotABall):
            ball_subtree(path_tree, ["x1", "x2"])

    @given(st.integers(0, 10**9), st.integers(3, 9))
    @settings(max_examples=40, deadline=None)
    def test_every_open_ball_restricts_the_matrix(self, seed, n):
        from ultratree import enumerate_balls, restrict

        tree = random_labeled_tree(n, [0, 1, 2, 3], seed=seed)
        space = distance_matrix(tree)
        for b in enumerate_balls(space, "open"):
            sub = ball_subtree(tree, b.members)
            expected = restrict(space, b.members)
            assert distance_matrix(sub).matrix == expected.matrix

    @given(st.integers(0, 10**9), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_exactly_the_open_balls_are_accepted(self, seed, n):
        # every non-empty vertex set, against the balls of the matrix oracle
        import itertools

        import oracles

        tree = random_labeled_tree(n, [0, 1, 1, 2, 3], seed=seed)
        space = distance_matrix(tree)
        balls = {members for _, _, members in oracles.enumerate_balls(space, "open")}
        for size in range(1, n + 1):
            for subset in itertools.combinations(tree.vertices, size):
                if frozenset(subset) in balls:
                    assert ball_subtree(tree, subset).vertices == tuple(
                        v for v in tree.vertices if v in subset
                    )
                else:
                    with pytest.raises(NotABall):
                        ball_subtree(tree, subset)


class TestUltrametricLaws:
    @given(st.integers(0, 10**9), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_strong_triangle_symmetry_positivity(self, seed, n):
        tree = random_labeled_tree(n, [0, 1, 2, "1/2", 5], seed=seed)
        space = distance_matrix(tree)
        m = space.matrix
        for i in range(n):
            assert m[i][i] == 0
            for j in range(i + 1, n):
                assert m[i][j] == m[j][i] > 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i][j] <= max(m[i][k], m[k][j])
