from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    DiametricalGraph,
    ball,
    center_of_distances,
    diameter,
    diametrical_graph,
    distance_matrix,
    distance_set,
    enumerate_balls,
    enumerate_centered_spheres,
    is_centered_sphere,
    is_equidistant,
    multipartite_parts,
    pointwise_distance_set,
    random_labeled_tree,
    restrict,
    spanning_star,
    validate_ultrametric,
    weak_similarity,
)
from ultratree.errors import (
    DuplicatePoint,
    EmptySubset,
    NonpositiveOffDiagonal,
    NonpositiveRadius,
    NotCompleteMultipartite,
    NotSymmetric,
    NonzeroDiagonal,
    StrongTriangleViolation,
    TooSmall,
    UnknownPoint,
)

F = Fraction


def equidistant_space(n, k=3):
    names = [f"p{i}" for i in range(n)]
    matrix = [[0 if i == j else F(k) for j in range(n)] for i in range(n)]
    return validate_ultrametric(names, matrix)


def brute_force_strong_triangle(matrix):
    """Oracle: check d(x,y) <= max(d(x,z), d(z,y)) over all ordered triples."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] > max(matrix[i][k], matrix[k][j]):
                    return False
    return True


class TestValidation:
    def test_path_space_is_valid(self, path_space):
        validate_ultrametric(path_space.points, path_space.matrix)

    def test_triangle_violation_named(self):
        with pytest.raises(StrongTriangleViolation) as err:
            validate_ultrametric(
                ["a", "b", "c"],
                [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
            )
        # the unique longest side is (a, c)
        assert set(err.value.triple) == {"a", "b", "c"}
        assert err.value.triple[:2] == ("a", "c")

    def test_asymmetric(self):
        with pytest.raises(NotSymmetric):
            validate_ultrametric(["a", "b"], [[0, 1], [2, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            validate_ultrametric(["a", "b"], [[1, 1], [1, 0]])

    def test_duplicate_point_names(self):
        with pytest.raises(DuplicatePoint) as err:
            validate_ultrametric(["a", "a", "b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        assert err.value.point == "a"

    def test_nonpositive_off_diagonal(self):
        with pytest.raises(NonpositiveOffDiagonal):
            validate_ultrametric(["a", "b"], [[0, 0], [0, 0]])

    def test_isosceles_check_matches_brute_force(self):
        # every valid space passes the oracle; a crafted near-miss fails both
        good = [[0, 2, 2], [2, 0, 1], [2, 1, 0]]
        assert brute_force_strong_triangle(good)
        validate_ultrametric(["a", "b", "c"], good)
        bad = [[0, 2, 3], [2, 0, 1], [3, 1, 0]]
        assert not brute_force_strong_triangle(bad)
        with pytest.raises(StrongTriangleViolation):
            validate_ultrametric(["a", "b", "c"], bad)


class TestDistanceSets:
    def test_path_space(self, path_space):
        assert distance_set(path_space).values == (0, 1, 2)

    def test_singleton(self):
        s = validate_ultrametric(["a"], [[0]])
        assert distance_set(s).values == (0,)

    def test_equidistant(self):
        assert distance_set(equidistant_space(5, 3)).values == (0, 3)

    def test_pointwise(self, path_space):
        assert pointwise_distance_set(path_space, "x3").values == (0, 1, 2)
        assert pointwise_distance_set(path_space, "x1").values == (0, 2)

    def test_pointwise_contains_zero(self, triple_space):
        for p in triple_space.points:
            assert 0 in pointwise_distance_set(triple_space, p)

    def test_pointwise_unknown_point(self, path_space):
        with pytest.raises(UnknownPoint):
            pointwise_distance_set(path_space, "zz")

    def test_greatest_below(self, path_space):
        ds = distance_set(path_space)
        assert ds.greatest_below(F(2)) == 1
        assert ds.greatest_below(F(1, 2)) == 0
        assert ds.greatest_below(F(0)) is None


class TestDiameterAndCenter:
    def test_path_space(self, path_space):
        assert diameter(path_space) == 2
        assert center_of_distances(path_space).values == (0, 2)

    def test_triple_space(self, triple_space):
        assert diameter(triple_space) == 2
        # the row of x2 is {0, 2}, pruning 1 from the intersection
        assert center_of_distances(triple_space).values == (0, 2)

    def test_singleton(self):
        s = validate_ultrametric(["a"], [[0]])
        assert diameter(s) == 0
        assert center_of_distances(s).values == (0,)

    def test_empty_space_is_too_small(self):
        from ultratree import is_ut, space_to_dendrogram

        empty = validate_ultrametric([], [])
        for fn in (center_of_distances, space_to_dendrogram, is_ut):
            with pytest.raises(TooSmall, match=fn.__name__):
                fn(empty)

    def test_center_is_row_intersection(self, path_space):
        rows = [set(row) for row in path_space.matrix]
        expected = set.intersection(*rows)
        assert set(center_of_distances(path_space).values) == expected

    @given(st.integers(0, 10**9), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_diameter_equals_every_row_max(self, seed, n):
        space = distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed))
        d = diameter(space)
        for row in space.matrix:
            assert max(row) == d


class TestBalls:
    def test_open_ball(self, path_space):
        b = ball(path_space, "x3", F(2), "open")
        assert b.members == {"x3", "x4"}

    def test_closed_ball(self, path_space):
        b = ball(path_space, "x3", F(2), "closed")
        assert b.members == set(path_space.points)

    def test_radius_above_diameter(self, path_space):
        assert ball(path_space, "x2", F(100), "open").members == set(path_space.points)

    def test_open_needs_positive_radius(self, path_space):
        with pytest.raises(NonpositiveRadius):
            ball(path_space, "x1", F(0), "open")
        ball(path_space, "x1", F(0), "closed")  # fine: the singleton

    def test_unknown_center(self, path_space):
        with pytest.raises(UnknownPoint):
            ball(path_space, "zz", F(1))

    def test_enumerate_open_balls(self, path_space):
        members = [tuple(sorted(b.members)) for b in enumerate_balls(path_space, "open")]
        assert members == [
            ("x1",),
            ("x2",),
            ("x3",),
            ("x4",),
            ("x3", "x4"),
            ("x1", "x2", "x3", "x4"),
        ]

    def test_enumerate_closed_balls(self, path_space):
        members = {tuple(sorted(b.members)) for b in enumerate_balls(path_space, "closed")}
        assert members == {
            ("x1",),
            ("x2",),
            ("x3",),
            ("x4",),
            ("x3", "x4"),
            ("x1", "x2", "x3", "x4"),
        }

    def test_equidistant_balls(self):
        s = equidistant_space(5)
        members = {tuple(sorted(b.members)) for b in enumerate_balls(s, "open")}
        assert members == {("p0",), ("p1",), ("p2",), ("p3",), ("p4",)} | {
            tuple(sorted(s.points))
        }

    def test_singleton_space(self):
        s = validate_ultrametric(["a"], [[0]])
        assert [b.members for b in enumerate_balls(s, "open")] == [frozenset(["a"])]

    @given(st.integers(0, 10**9), st.integers(2, 9))
    @settings(max_examples=50, deadline=None)
    def test_every_member_is_a_center(self, seed, n):
        space = distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed))
        for b in enumerate_balls(space, "open"):
            for a in b.members:
                assert ball(space, a, b.radius, "open").members == b.members

    @given(st.integers(0, 10**9), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_sweep_is_exhaustive(self, seed, n):
        # oracle: try every center and every midpoint-ish radius directly
        space = distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed))
        values = distance_set(space).values
        probes = list(values) + [a + F(1, 7) for a in values]
        direct = set()
        for c in space.points:
            for r in probes:
                if r > 0:
                    direct.add(ball(space, c, r, "open").members)
        swept = {b.members for b in enumerate_balls(space, "open")}
        assert swept == direct


class TestCenteredSpheres:
    def test_long_pair_is_not_a_sphere(self, path_space):
        assert is_centered_sphere(path_space, ["x1", "x2"]) is None

    def test_whole_space_certificate(self, path_space):
        cert = is_centered_sphere(path_space, path_space.points)
        assert cert is not None
        assert cert.center == "x1" and cert.radius == 2

    def test_every_triple_subset_is_a_sphere(self, triple_space):
        from itertools import combinations

        for size in (1, 2, 3):
            for subset in combinations(triple_space.points, size):
                assert is_centered_sphere(triple_space, subset) is not None

    def test_singletons_always_certify(self, path_space):
        for p in path_space.points:
            cert = is_centered_sphere(path_space, [p])
            assert cert is not None and cert.radius == 0

    def test_empty_subset(self, path_space):
        with pytest.raises(EmptySubset):
            is_centered_sphere(path_space, [])

    def test_enumerate_path_space(self, path_space):
        subsets = {tuple(sorted(c.subset)) for c in enumerate_centered_spheres(path_space)}
        assert subsets == {
            ("x1",),
            ("x2",),
            ("x3",),
            ("x4",),
            ("x3", "x4"),
            ("x1", "x2", "x3"),
            ("x1", "x2", "x4"),
            ("x1", "x2", "x3", "x4"),
        }

    def test_enumerate_triple_space_all_seven(self, triple_space):
        assert len(enumerate_centered_spheres(triple_space)) == 7

    def test_equidistant_spheres_are_singletons_and_whole(self):
        s = equidistant_space(4)
        subsets = {tuple(sorted(c.subset)) for c in enumerate_centered_spheres(s)}
        assert subsets == {("p0",), ("p1",), ("p2",), ("p3",), tuple(sorted(s.points))}

    def test_all_subsets_scan_fence(self):
        from ultratree.errors import TooLarge
        from ultratree.metric import all_subsets_centered_spheres

        with pytest.raises(TooLarge):
            all_subsets_centered_spheres(equidistant_space(21))

    def test_enumeration_agrees_with_subset_scan(self, path_space):
        # oracle: test every one of the 2^n - 1 subsets directly
        from itertools import combinations

        direct = set()
        for size in range(1, path_space.n + 1):
            for subset in combinations(path_space.points, size):
                if is_centered_sphere(path_space, subset) is not None:
                    direct.add(frozenset(subset))
        assert {c.subset for c in enumerate_centered_spheres(path_space)} == direct

    @given(st.integers(0, 10**9), st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_open_balls_are_spheres_on_tree_spaces(self, seed, n):
        space = distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed))
        spheres = {c.subset for c in enumerate_centered_spheres(space)}
        for b in enumerate_balls(space, "open"):
            assert b.members in spheres

    @given(st.integers(0, 10**9), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_ball_sphere_status_matches_restriction(self, seed, n):
        space = distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed))
        for b in enumerate_balls(space, "open"):
            outer = is_centered_sphere(space, b.members) is not None
            inner = is_centered_sphere(restrict(space, b.members), b.members) is not None
            assert outer == inner


class TestDiametricalGraph:
    def test_path_space_edges(self, path_space):
        g = diametrical_graph(path_space)
        assert g.edges == (
            ("x1", "x2"),
            ("x1", "x3"),
            ("x1", "x4"),
            ("x2", "x3"),
            ("x2", "x4"),
        )

    def test_equidistant_is_complete(self):
        g = diametrical_graph(equidistant_space(4))
        assert len(g.edges) == 6

    def test_singleton_graph_is_empty(self):
        g = diametrical_graph(validate_ultrametric(["a"], [[0]]))
        assert g.edges == ()

    def test_path_space_parts(self, path_space):
        parts = multipartite_parts(diametrical_graph(path_space))
        assert parts.parts == (("x1",), ("x2",), ("x3", "x4"))

    def test_complete_graph_parts_are_singletons(self):
        parts = multipartite_parts(diametrical_graph(equidistant_space(4)))
        assert all(len(p) == 1 for p in parts.parts)

    def test_triple_space_parts(self, triple_space):
        parts = multipartite_parts(diametrical_graph(triple_space))
        assert parts.parts == (("x1", "x3"), ("x2",))

    def test_non_multipartite_graph_rejected(self):
        # a 4-path is not complete multipartite
        g = DiametricalGraph(
            ("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"))
        )
        with pytest.raises(NotCompleteMultipartite):
            multipartite_parts(g)

    def test_star_center_least_index(self, path_space):
        star = spanning_star(diametrical_graph(path_space))
        assert star is not None and star.center == "x1"

    def test_no_star_in_balanced_bipartite(self):
        g = DiametricalGraph(
            ("a", "b", "c", "d"),
            (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")),
        )
        assert spanning_star(g) is None

    def test_two_point_star(self):
        g = diametrical_graph(equidistant_space(2))
        star = spanning_star(g)
        assert star is not None and star.center == "p0"


class TestEquidistance:
    def test_constant(self):
        assert is_equidistant(equidistant_space(5, 3)) == 3

    def test_path_space(self, path_space):
        assert is_equidistant(path_space) is None

    def test_triple_space(self, triple_space):
        assert is_equidistant(triple_space) is None

    def test_singleton_too_small(self):
        with pytest.raises(TooSmall):
            is_equidistant(validate_ultrametric(["a"], [[0]]))

    @given(st.integers(0, 10**9), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_equidistant_iff_families_coincide(self, seed, n):
        space = distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed))
        spheres = {c.subset for c in enumerate_centered_spheres(space)}
        balls = {b.members for b in enumerate_balls(space, "open")}
        equi = is_equidistant(space) is not None
        assert equi == (spheres == balls) == (spheres <= balls)


class TestWeakSimilarity:
    def test_scaled_triple(self, triple_space):
        scaled = validate_ultrametric(
            ["y1", "y2", "y3"],
            [[0, 9, 7], [9, 0, 9], [7, 9, 0]],
        )
        witness = weak_similarity(triple_space, scaled)
        assert witness is not None
        assert witness.scale_map == ((0, 0), (7, 1), (9, 2))
        fwd = witness.forward()
        scale = witness.scale()
        for p in triple_space.points:
            for q in triple_space.points:
                assert triple_space.distance(p, q) == scale[scaled.distance(fwd[p], fwd[q])]

    def test_different_distance_counts(self, triple_space):
        assert weak_similarity(triple_space, equidistant_space(3)) is None

    def test_same_counts_different_pattern(self, path_space):
        # chain-type 4-point space also has 3 positive... build one with |D|=3
        chain = validate_ultrametric(
            ["a", "b", "c", "d"],
            [[0, 3, 3, 3], [3, 0, 2, 2], [3, 2, 0, 1], [3, 2, 1, 0]],
        )
        assert weak_similarity(path_space, chain) is None

    def test_reflexive(self, path_space):
        witness = weak_similarity(path_space, path_space)
        assert witness is not None
        assert witness.scale_map == ((0, 0), (1, 1), (2, 2))

    def test_symmetric_by_inversion(self, triple_space):
        scaled = validate_ultrametric(
            ["y1", "y2", "y3"], [[0, 9, 7], [9, 0, 9], [7, 9, 0]]
        )
        fwd = weak_similarity(triple_space, scaled)
        back = weak_similarity(scaled, triple_space)
        assert fwd is not None and back is not None
        inverted = {b: a for a, b in fwd.point_bijection}
        scale = {a: b for b, a in fwd.scale_map}
        for p in scaled.points:
            for q in scaled.points:
                assert scaled.distance(p, q) == scale[
                    triple_space.distance(inverted[p], inverted[q])
                ]

    def test_composition(self, triple_space):
        mid = validate_ultrametric(
            ["y1", "y2", "y3"], [[0, 9, 7], [9, 0, 9], [7, 9, 0]]
        )
        far = validate_ultrametric(
            ["z1", "z2", "z3"], [[0, 100, 50], [100, 0, 100], [50, 100, 0]]
        )
        ab = weak_similarity(triple_space, mid)
        bc = weak_similarity(mid, far)
        assert ab is not None and bc is not None
        composed = {p: bc.forward()[q] for p, q in ab.point_bijection}
        # composed map must itself match distances rank-for-rank
        scale_bc = bc.scale()
        scale_ab = ab.scale()
        for p in triple_space.points:
            for q in triple_space.points:
                assert triple_space.distance(p, q) == scale_ab[
                    scale_bc[far.distance(composed[p], composed[q])]
                ]


class TestRestrict:
    def test_close_pair(self, path_space):
        sub = restrict(path_space, ["x3", "x4"])
        assert sub.points == ("x3", "x4")
        assert sub.matrix == ((0, 1), (1, 0))

    def test_whole_space(self, path_space):
        assert restrict(path_space, path_space.points) == path_space

    def test_singleton(self, path_space):
        sub = restrict(path_space, ["x2"])
        assert sub.matrix == ((0,),)

    def test_empty(self, path_space):
        with pytest.raises(EmptySubset):
            restrict(path_space, [])

    @given(st.integers(0, 10**9), st.integers(3, 9))
    @settings(max_examples=30, deadline=None)
    def test_restriction_stays_ultrametric(self, seed, n):
        space = distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed))
        import random as _random

        rng = _random.Random(seed)
        subset = rng.sample(space.points, rng.randint(1, n))
        sub = restrict(space, subset)
        validate_ultrametric(sub.points, sub.matrix)
