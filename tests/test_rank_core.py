"""The integer-rank core against the Fraction-matrix oracles in oracles.py.

Three angles: every weak-similarity class with n <= 6 (also relabeled,
permuted and pushed through validation), hypothesis over random trees,
p-adic samples and perturbed matrices (same results, same exception
types), and the tree fill, the path-maximum index and the gap fill
against binary lifting, DFS and brute force.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ultratree import (
    Dendrogram,
    PathMaxIndex,
    ball,
    center_of_distances,
    dendrogram_to_space,
    diameter,
    diametrical_graph,
    distance_matrix,
    distance_set,
    dp_metric,
    enumerate_balls,
    enumerate_centered_spheres,
    enumerate_dendrograms,
    is_centered_sphere,
    is_equidistant,
    is_ut,
    multipartite_parts,
    pointwise_distance_set,
    random_labeled_tree,
    restrict,
    sample_space,
    space_to_dendrogram,
    spanning_star,
    validate_tree,
    validate_ultrametric,
    weak_similarity,
)
from ultratree.errors import (
    NonpositiveOffDiagonal,
    StrongTriangleViolation,
    UltratreeError,
)
from ultratree.dendrogram import _canonical_form
from ultratree.metric import FiniteUltrametricSpace, _merge_order, _ranks_from_gaps
from ultratree.tree import LabeledTree

F = Fraction


def assert_analyses_agree(space):
    """Every analysis of the rank core equals the Fraction-matrix oracle."""
    assert space.values == oracle_values(space)
    assert distance_set(space).values == oracles.distance_set(space)
    assert diameter(space) == oracles.diameter(space)
    assert center_of_distances(space).values == oracles.center_of_distances(space)
    for p in space.points:
        assert pointwise_distance_set(space, p).values == oracles.pointwise_distance_set(space, p)
    for kind in ("open", "closed"):
        got = [(b.center, b.radius, b.members) for b in enumerate_balls(space, kind)]
        assert got == oracles.enumerate_balls(space, kind)
    probes = list(space.values) + [v + F(1, 3) for v in space.values]
    for p in space.points:
        for r in probes:
            if r > 0:
                assert ball(space, p, r, "open").members == oracles.ball(space, p, r, "open")
            assert ball(space, p, r, "closed").members == oracles.ball(space, p, r, "closed")
    spheres = enumerate_centered_spheres(space)
    assert [(c.center, c.radius, c.subset) for c in spheres] == (
        oracles.enumerate_centered_spheres(space)
    )
    for members in {b.members for b in enumerate_balls(space, "open")}:
        cert = is_centered_sphere(space, members)
        expected = oracles.is_centered_sphere(space, members)
        assert (None if cert is None else (cert.center, cert.radius, cert.subset)) == expected
        sub = restrict(space, members)
        assert (sub.points, sub.matrix) == oracles.restrict(space, members)
        assert sub.values == oracle_values(sub)
    graph = diametrical_graph(space)
    assert graph.edges == oracles.diametrical_edges(space)
    if space.n >= 2:
        assert multipartite_parts(graph).parts == oracles.multipartite_parts(
            space.points, graph.edges
        )
        assert is_equidistant(space) == oracles.is_equidistant(space)
    star = spanning_star(graph)
    assert (star and star.center) == oracles.spanning_star(space.points, graph.edges)


def oracle_values(space):
    """The sorted distinct distances, read from the Fraction view."""
    return tuple(sorted({v for row in space.matrix for v in row} | {F(0)}))


def relabeled(space, seed):
    """The same class through validation: points permuted and renamed,
    values moved by a strictly increasing non-linear map."""
    rng = random.Random(seed)
    perm = list(range(space.n))
    rng.shuffle(perm)
    names = [f"q{perm[i]}" for i in range(space.n)]
    scale = lambda v: v * v + F(v, 7)  # noqa: E731 - increasing on v >= 0
    matrix = [
        [scale(space.matrix[perm[i]][perm[j]]) for j in range(space.n)]
        for i in range(space.n)
    ]
    return validate_ultrametric(names, matrix)


# --- every class with n <= 6 --------------------------------------------------------

def test_all_classes_up_to_six_points():
    checked = 0
    for n in range(1, 7):
        for pos, dendro in enumerate(enumerate_dendrograms(n)):
            space = dendrogram_to_space(dendro)
            oracles.validate(space.points, space.matrix)
            assert_analyses_agree(space)
            moved = relabeled(space, pos)
            assert_analyses_agree(moved)
            assert space_to_dendrogram(moved).key() == dendro.key()
            assert weak_similarity(space, moved) is not None
            checked += 1
    assert checked == 1 + 1 + 2 + 6 + 20 + 90


def test_weak_similarity_matches_exhaustive_oracle_on_four_points():
    spaces = [dendrogram_to_space(d) for d in enumerate_dendrograms(4)]
    spaces += [relabeled(s, k) for k, s in enumerate(spaces)]
    for a in spaces:
        for b in spaces:
            assert (weak_similarity(a, b) is not None) == oracles.weakly_similar(a, b)


# --- hypothesis: trees, p-adic samples, perturbed matrices ------------------------------

label_pools = st.lists(
    st.fractions(min_value=0, max_value=6, max_denominator=4), min_size=1, max_size=6
).map(lambda pool: pool + [F(1)])  # a positive value keeps the tree non-degenerate


@given(st.integers(1, 14), label_pools, st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_random_tree_spaces_agree(n, pool, seed):
    tree = random_labeled_tree(n, pool, seed=seed)
    space = distance_matrix(tree)
    assert space.matrix == oracles.tree_matrix(tree)
    assert_analyses_agree(space)
    again = validate_ultrametric(space.points, space.matrix)
    assert again == space


@given(
    st.sampled_from([2, 3, 5]),
    st.sets(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=1, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_padic_samples_agree(p, sample):
    space = sample_space(sorted(sample), dp_metric(p))
    oracles.validate(space.points, space.matrix)
    assert_analyses_agree(space)


@st.composite
def perturbed_matrices(draw):
    n = draw(st.integers(1, 9))
    tree = random_labeled_tree(n, [0, 1, 2, 3], seed=draw(st.integers(0, 2**32 - 1)))
    matrix = [list(row) for row in distance_matrix(tree).matrix]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        value = draw(st.fractions(min_value=-1, max_value=5, max_denominator=2))
        matrix[i][j] = value
        if draw(st.booleans()):
            matrix[j][i] = value
    return [f"p{i}" for i in range(n)], matrix


@given(perturbed_matrices())
@settings(max_examples=300, deadline=None)
def test_perturbed_matrices_raise_what_the_triple_scan_raises(case):
    points, matrix = case
    try:
        oracles.validate(points, matrix)
    except StrongTriangleViolation:
        with pytest.raises(StrongTriangleViolation) as err:
            validate_ultrametric(points, matrix)
        # the triple may differ from the scan's first, but is a genuine one
        assert oracles.is_violation_longest_first(points, matrix, err.value.triple)
        return
    except UltratreeError as exc:
        with pytest.raises(type(exc)) as err:
            validate_ultrametric(points, matrix)
        assert str(err.value) == str(exc)
        return
    space = validate_ultrametric(points, matrix)
    assert space.matrix == tuple(tuple(F(v) for v in row) for row in matrix)
    assert_analyses_agree(space)


def test_violation_names_the_one_long_pair():
    # equidistant at 1 except one pair at 3: every violating triangle has
    # that pair as its unique longest side
    n = 8
    matrix = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    matrix[0][7] = matrix[7][0] = 3
    points = [f"p{i}" for i in range(n)]
    with pytest.raises(StrongTriangleViolation) as err:
        validate_ultrametric(points, matrix)
    assert oracles.is_violation_longest_first(points, matrix, err.value.triple)
    assert set(err.value.triple[:2]) == {"p0", "p7"}


# --- the union-find tree fill -------------------------------------------------------

@given(st.integers(1, 40), label_pools, st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_union_find_fill_matches_lifting_and_dfs(n, pool, seed):
    tree = random_labeled_tree(n, pool, seed=seed)
    space = distance_matrix(tree)
    index = PathMaxIndex(tree)
    for i in range(n):
        dfs = oracles.dfs_path_max(tree, i)
        for j in range(n):
            expected = F(0) if i == j else dfs[j]
            assert space.matrix[i][j] == expected
            if i != j:
                assert index.path_max(tree.vertices[i], tree.vertices[j]) == expected
    assert space.values == oracle_values(space)


def test_union_find_fill_on_shapes_with_ties():
    # a star whose leaves share the hub's label, and a path with repeats
    star = validate_tree(
        ["h", "a", "b", "c"],
        [("h", "a"), ("h", "b"), ("h", "c")],
        {"h": 2, "a": 2, "b": 2, "c": 0},
    )
    path = validate_tree(
        list("abcdef"),
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")],
        {"a": 1, "b": 1, "c": 0, "d": 1, "e": 3, "f": 3},
    )
    for tree in (star, path):
        assert distance_matrix(tree).matrix == oracles.tree_matrix(tree)


# --- the range-maximum index and the gap fill ------------------------------------------

def assert_index_agrees(tree, roots=None):
    """PathMaxIndex against binary lifting and per-root DFS, every pair."""
    index = PathMaxIndex(tree)
    lifting = oracles.LiftingPathMaxIndex(tree)
    for i in range(tree.n) if roots is None else roots:
        dfs = oracles.dfs_path_max(tree, i)
        for j in range(tree.n):
            assert index._values[index._path_max_rank(i, j)] == dfs[j]
            assert lifting._values[lifting._path_max_rank(i, j)] == dfs[j]


@given(
    st.integers(1, 60),
    st.lists(st.fractions(min_value=0, max_value=4, max_denominator=2), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_path_max_index_matches_lifting_and_dfs(n, pool, seed):
    # labels drawn afresh on a random shape, so zero-zero edges occur:
    # the index accepts degenerate labelings that distance_matrix refuses
    shape = random_labeled_tree(n, [1], seed=seed)
    rng = random.Random(seed)
    tree = LabeledTree(shape.vertices, shape.edges, tuple(rng.choice(pool) for _ in range(n)))
    assert_index_agrees(tree)


def test_path_max_index_on_extreme_shapes():
    single = validate_tree(["a"], [], {"a": 3})
    pair = validate_tree(["a", "b"], [("a", "b")], {"a": 0, "b": 0})
    star = validate_tree(
        [f"v{i}" for i in range(30)],
        [("v0", f"v{i}") for i in range(1, 30)],
        {f"v{i}": i % 4 for i in range(30)},
    )
    for tree in (single, pair, star):
        assert_index_agrees(tree)
    names = [f"v{i}" for i in range(2000)]
    rng = random.Random(4)
    path = validate_tree(
        names, list(zip(names, names[1:])), {v: rng.randrange(6) for v in names}
    )
    assert_index_agrees(path, roots=[0, 1, 999, 1998, 1999])


@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)), st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1)
    )
))
@settings(max_examples=200, deadline=None)
def test_ranks_from_gaps_is_the_largest_gap_between(case):
    order, gaps = case
    ranks = _ranks_from_gaps(order, gaps)
    n = len(order)
    for i in range(n):
        for j in range(n):
            a, b = sorted((i, j))
            assert ranks[order[i]][order[j]] == (max(gaps[a:b]) if a < b else 0)


def test_dendrogram_to_space_realizes_lca_levels_in_leaf_order():
    for n in range(1, 8):
        for dendro in enumerate_dendrograms(n):
            space = dendrogram_to_space(dendro)
            expected = oracles.dendrogram_lca_levels(dendro)
            assert space.points == tuple(f"x{i + 1}" for i in range(n))
            assert space.matrix == tuple(tuple(map(F, row)) for row in expected)


# --- the depth-first merge order ------------------------------------------------------

def leaf_runs_merge_order(dendro):
    """The leaf count and the gap after each leaf but the last, read off
    the oracle's runs: a gap lies where one child's run ends and the next
    begins, at the level of their parent."""
    n, nodes = oracles._leaf_runs(dendro)
    gaps = [None] * (n - 1)
    for level, _, _, runs in nodes:
        for _, end in runs[:-1]:
            assert gaps[end - 1] is None  # each gap belongs to one node
            gaps[end - 1] = level
    return n, gaps


def assert_merge_order_matches_leaf_runs(dendro):
    leaves, gaps = _merge_order(dendro)
    n, expected = leaf_runs_merge_order(dendro)
    assert all(leaf.is_leaf for leaf in leaves)
    assert (len(leaves), gaps) == (n, expected)
    assert dendro.leaf_count() == n
    assert dendro.levels_used() == {level for level, _, _, _ in oracles._leaf_runs(dendro)[1]}


def test_merge_order_matches_leaf_runs_on_every_class():
    counts = []
    for n in range(1, 10):
        classes = list(enumerate_dendrograms(n))
        for dendro in classes:
            assert_merge_order_matches_leaf_runs(dendro)
        counts.append(len(classes))
    assert counts == [1, 1, 2, 6, 20, 90, 468, 2910, 20644]


@st.composite
def gapped_dendrograms(draw):
    """Dendrograms merged bottom-up from random groups, each parent one to
    three levels above its highest child, children in drawn order."""
    forest = [Dendrogram(0)] * draw(st.integers(1, 12))
    while len(forest) > 1:
        picked = draw(st.permutations(range(len(forest))))[: draw(st.integers(2, len(forest)))]
        children = tuple(forest[i] for i in picked)
        level = max(child.level for child in children) + draw(st.integers(1, 3))
        forest = [t for i, t in enumerate(forest) if i not in picked] + [Dendrogram(level, children)]
    return forest[0]


@given(gapped_dendrograms())
@settings(max_examples=200, deadline=None)
def test_merge_order_realizes_gapped_dendrograms(dendro):
    assert_merge_order_matches_leaf_runs(dendro)
    space = dendrogram_to_space(dendro)
    expected = oracles.dendrogram_lca_levels(dendro)
    assert space.points == tuple(f"x{i + 1}" for i in range(len(expected)))
    assert space.matrix == tuple(tuple(map(F, row)) for row in expected)


@given(st.integers(1, 30), label_pools, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_canonical_leaf_order_is_a_merge_order(n, pool, seed):
    # every ball is one run of the canonical leaf order, and every distance
    # is the largest distance of two neighbours between its points
    space = distance_matrix(random_labeled_tree(n, pool, seed=seed))
    _, order = _canonical_form(space)
    assert sorted(order) == list(range(n))
    place = {space.points[i]: k for k, i in enumerate(order)}
    for kind in ("open", "closed"):
        for _, _, members in oracles.enumerate_balls(space, kind):
            spots = sorted(place[p] for p in members)
            assert spots == list(range(spots[0], spots[0] + len(spots)))
    gaps = [space.ranks[a][b] for a, b in zip(order, order[1:])]
    for i in range(n):
        for j in range(i + 1, n):
            assert space.ranks[order[i]][order[j]] == max(gaps[i:j])


# --- deep chains and unvalidated zero entries -------------------------------------------

def test_deep_chain_round_trips_without_recursion():
    n = 1500
    names = [f"v{i}" for i in range(1, n + 1)]
    tree = validate_tree(
        names,
        list(zip(names, names[1:])),
        {v: i for i, v in enumerate(names, 1)},
    )
    space = distance_matrix(tree)
    dendro = space_to_dendrogram(space)
    assert dendro.leaf_count() == n
    assert dendro.level == n - 1
    assert dendro.levels_used() == frozenset(range(1, n))
    assert dendro.is_canonical()
    node = dendro  # a chain: every internal node has one leaf child
    while not node.is_leaf:
        assert [c.is_leaf for c in node.children].count(True) >= 1
        inner = [c for c in node.children if not c.is_leaf]
        assert len(node.children) == 2 and len(inner) <= 1
        node = inner[0] if inner else node.children[0]
    back = dendrogram_to_space(dendro)
    assert back.n == n
    assert weak_similarity(space, back) is not None
    assert space_to_dendrogram(back).key() == dendro.key()
    cert = is_ut(space)
    assert cert is not None
    again = distance_matrix(cert)
    assert (again.points, again.ranks, again.values) == (space.points, space.ranks, space.values)


def test_zero_diameter_ball_raises_instead_of_hanging():
    space = FiniteUltrametricSpace.from_trusted_matrix(("a", "b"), ((0, 0), (0, 0)))
    with pytest.raises(NonpositiveOffDiagonal) as err:
        is_ut(space)
    assert err.value.pair == ("a", "b")
    with pytest.raises(NonpositiveOffDiagonal):
        space_to_dendrogram(space)


def test_matrix_view_is_derived_from_ranks():
    pair = Dendrogram(1, (Dendrogram(0), Dendrogram(0)))
    space = dendrogram_to_space(Dendrogram(2, (pair, Dendrogram(0))))
    assert space.values == (0, 1, 2)
    assert space.ranks == ((0, 1, 2), (1, 0, 2), (2, 2, 0))
    assert space.matrix == tuple(tuple(space.values[r] for r in row) for row in space.ranks)
    assert space.distance("x1", "x3") == 2
