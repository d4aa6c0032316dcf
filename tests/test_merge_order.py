"""Every space's hierarchy is read off one merge order.

A merge order lists the points so that every distance is the largest
gap between them. A space keeps the one its builder holds: Kruskal's for
a tree metric, the depth-first walk for a dendrogram, Prim's from
validation. Any other space (a trusted matrix, a restriction) lists
Prim's on first use, after validation's diagonal and symmetry checks,
and that pass is also the strong triangle check.
The diameter splits, the center and the diametrical parts read the
order; the Fraction-matrix oracles are checked against them here, and a
CSV verb must run Prim's algorithm once, in validation.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ultratree import (
    Dendrogram,
    FiniteUltrametricSpace,
    dendrogram_to_space,
    distance_matrix,
    dp_metric,
    enumerate_dendrograms,
    dendrogram,
    hierarchy,
    is_ut,
    random_labeled_tree,
    restrict,
    sample_space,
    space_to_dendrogram,
    validate_ultrametric,
    weak_similarity,
)
from test_rank_core import relabeled
from test_weak_similarity import assert_agrees_with_search, assert_witness
from ultratree.cli import main
from ultratree.errors import (
    DuplicatePoint,
    MetricValidationError,
    NonzeroDiagonal,
    NotSymmetric,
    StrongTriangleViolation,
)
from ultratree.dendrogram import _canonical_form
from ultratree.explorer import _space_of_merge_order
from ultratree.formats import matrix_csv_string, parse_matrix_csv, tree_json_string
from ultratree.rationals import format_rational

F = Fraction
label_pools = st.lists(
    st.fractions(min_value=0, max_value=6, max_denominator=4), min_size=1, max_size=6
).map(lambda pool: pool + [F(1)])  # a positive value keeps the tree non-degenerate


def assert_merge_order(space) -> None:
    """The space's merge order lists every point once, and the distance
    of any two is the largest gap between them."""
    order, gaps, values = space._gap_form
    assert sorted(order) == list(range(space.n))
    assert len(gaps) == max(space.n - 1, 0)
    assert values == space.values
    for i in range(space.n):
        for j in range(i + 1, space.n):
            assert space.ranks[order[i]][order[j]] == max(gaps[i:j])


def permuted(space, seed):
    """The same space through validation, its points renamed and shuffled."""
    rng = random.Random(seed)
    perm = list(range(space.n))
    rng.shuffle(perm)
    names = [f"p{perm[i]}" for i in range(space.n)]
    return validate_ultrametric(names, [[space.matrix[a][b] for b in perm] for a in perm])


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- the stored and the computed orders ----------------------------------------------

@given(st.integers(1, 14), label_pools, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_every_builder_gives_a_merge_order(n, pool, seed):
    space = distance_matrix(random_labeled_tree(n, pool, seed=seed))
    assert "_gap_form" in space.__dict__  # Kruskal's, kept
    assert_merge_order(space)
    moved = permuted(space, seed)
    assert "_gap_form" in moved.__dict__  # Prim's, kept by validation
    assert_merge_order(moved)
    trusted = FiniteUltrametricSpace.from_trusted_matrix(moved.points, moved.matrix)
    assert "_gap_form" not in trusted.__dict__  # Prim's, on first use
    assert_merge_order(trusted)
    rng = random.Random(seed)
    sub = restrict(moved, rng.sample(moved.points, rng.randint(1, n)))
    assert_merge_order(sub)


@given(
    st.sampled_from([2, 3, 5]),
    st.sets(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_padic_samples_give_a_merge_order(p, sample):
    assert_merge_order(sample_space(sorted(sample), dp_metric(p)))


def test_every_class_up_to_six_points_gives_a_merge_order():
    for n in range(1, 7):
        for pos, dendro in enumerate(enumerate_dendrograms(n)):
            space = dendrogram_to_space(dendro)
            assert_merge_order(space)
            moved = permuted(space, pos)
            assert_merge_order(moved)
            assert space_to_dendrogram(moved).key() == dendro.key()


# --- is_ut and the canonical form on permuted CSVs against the split walk ---------------

def assert_is_ut_matches_split_walk(space, seed) -> None:
    parsed = parse_matrix_csv(matrix_csv_string(permuted(space, seed)))
    got, expected = is_ut(parsed), oracles.is_ut_split_walk(parsed)
    assert (got and tree_json_string(got)) == (expected and tree_json_string(expected))
    if got is not None:
        assert distance_matrix(got).ranks == parsed.ranks
    table, leaves = _canonical_form(parsed._gap_form)
    assert (table.key(table.nodes[-1]), leaves) == oracles.canonical_form(parsed)


@given(st.integers(1, 16), label_pools, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_is_ut_on_permuted_tree_csvs(n, pool, seed):
    assert_is_ut_matches_split_walk(distance_matrix(random_labeled_tree(n, pool, seed=seed)), seed)


# --- the canonical form past level 9 ----------------------------------------------------
# Children follow level numbers, not key strings, where "(10:" sorts before "(9:".

wide_pools = st.lists(st.integers(1, 60), min_size=11, max_size=30, unique=True)


@given(st.integers(1, 40), wide_pools, st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_canonical_form_with_eleven_to_thirty_levels(n, pool, seed, from_tree):
    # a tree metric, or a merge order of any class, with its gaps drawn from
    # the pool; either way through validation, in a shuffled point order
    if from_tree:
        drawn = distance_matrix(random_labeled_tree(n, pool, seed=seed))
    else:
        drawn = _space_of_merge_order(random.Random(seed).choices(pool, k=n - 1))
    space = permuted(drawn, seed)
    table, leaves = _canonical_form(space._gap_form)
    key = table.key(table.nodes[-1])
    assert (key, leaves) == oracles.canonical_form(space)
    dendro = space_to_dendrogram(space)
    assert dendro.key() == key
    assert dendro.is_canonical()
    copy = relabeled(space, seed)
    assert_witness(space, copy, weak_similarity(space, copy))
    if n <= 16:
        assert assert_agrees_with_search(space, copy) is not None
        other = permuted(_space_of_merge_order(random.Random(~seed).choices(pool, k=n - 1)), seed)
        assert_agrees_with_search(space, other)


def chain_key(top: int) -> str:
    """The key of the chain whose node at each level 1..top has a leaf child."""
    key = "L"
    for level in range(1, top + 1):
        key = f"({level}:{key},L)"
    return key


# merge orders whose root has children at levels 9 and 10: the first class
# of any kind where the orders differ (12 points), and the first realizable
# one (13 points)
SIBLINGS_ACROSS_TEN = {
    "twelve": ([*range(1, 10), 11, 10], f"(11:{chain_key(9)},(10:L,L))"),
    "thirteen": ([*range(1, 10), 11, 10, 11], f"(11:{chain_key(9)},(10:L,L),L)"),
}


@pytest.mark.parametrize("name", list(SIBLINGS_ACROSS_TEN))
def test_sibling_levels_across_ten_follow_level_numbers(name):
    gaps, expected = SIBLINGS_ACROSS_TEN[name]
    space = _space_of_merge_order(gaps)
    assert (is_ut(space) is not None) == (name == "thirteen")
    table = _canonical_form(space._gap_form)[0]
    root = table.nodes[-1]
    assert table.key(root) == space_to_dendrogram(table.space(root)).key() == expected
    for seed in range(3):
        assert space_to_dendrogram(permuted(space, seed)).key() == expected
    dendro = space_to_dendrogram(space)
    assert dendro.is_canonical()
    # the same class with the level-10 child first, as key strings sort: no
    # longer canonical, and weakly similar to the canonical one
    nine, ten, *rest = dendro.children
    swapped = Dendrogram(dendro.level, (ten, nine, *rest))
    assert not swapped.is_canonical()
    moved = dendrogram_to_space(swapped)
    assert space_to_dendrogram(moved) == dendro
    assert_witness(space, moved, weak_similarity(space, moved))


def test_is_ut_on_every_permuted_class_up_to_six_points():
    for n in range(1, 7):
        for pos, dendro in enumerate(enumerate_dendrograms(n)):
            assert_is_ut_matches_split_walk(dendrogram_to_space(dendro), pos)


# --- the CLI readers against the matrix oracles ----------------------------------------

@given(st.integers(1, 14), label_pools, st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_cli_center_and_parts_on_permuted_csvs(tmp_path_factory, n, pool, seed, tree_space):
    if tree_space:
        space = distance_matrix(random_labeled_tree(n, pool, seed=seed))
    else:  # a class that may have no realizing tree
        classes = list(enumerate_dendrograms(min(n, 5)))
        space = dendrogram_to_space(classes[seed % len(classes)])
    space = permuted(space, seed)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text(matrix_csv_string(space), encoding="utf-8")

    code, out, err = run(["center", str(path)])
    center = oracles.center_of_distances(space)
    assert (code, out, err) == (0, "{" + ", ".join(map(format_rational, center)) + "}\n", "")

    code, out, err = run(["diametrical", str(path)])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == f"diameter: {format_rational(oracles.diameter(space))}"
    edges = oracles.diametrical_edges(space)
    assert lines[1].startswith(f"edges ({len(edges)}): ")
    if space.n >= 2:
        parts = oracles.multipartite_parts(space.points, edges)
        assert lines[2] == "parts: " + " | ".join("{" + ",".join(p) + "}" for p in parts)
        star = oracles.spanning_star(space.points, edges)
        assert lines[3] == f"star center: {star or 'none'}"


# --- one Prim pass per CSV verb ----------------------------------------------------------

class TestOnePrimPass:
    @pytest.mark.parametrize(
        "argv",
        [["center"], ["diametrical"], ["diametrical", "--dot", "{dot}"], ["is-ut"], ["check"],
         ["check", "--ut"], ["spheres"], ["spheres", "--subsets"]],
    )
    @pytest.mark.parametrize("tree_space", [True, False])
    def test_csv_verbs_run_prim_once(self, argv, tree_space, tmp_path, monkeypatch):
        if tree_space:
            space = distance_matrix(random_labeled_tree(12, [0, 1, 2, 3, 3], seed=4))
        else:  # a class with no realizing tree: two pairs at two scales
            pair = dendrogram.Dendrogram(1, (dendrogram.Dendrogram(0), dendrogram.Dendrogram(0)))
            space = dendrogram_to_space(dendrogram.Dendrogram(2, (pair, pair)))
        path = tmp_path / "m.csv"
        path.write_text(matrix_csv_string(permuted(space, 1)), encoding="utf-8")
        calls = []
        real = hierarchy._check_strong_triangle

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hierarchy, "_check_strong_triangle", counting)
        verb, *rest = argv
        dot = str(tmp_path / "g.dot")
        code, _, err = run([verb, str(path), *(dot if a == "{dot}" else a for a in rest)])
        # the ut-* checks fail on a space with no realizing tree
        assert (code, err) == (0 if tree_space or "--ut" not in rest else 1, "")
        assert len(calls) == 1

    def test_an_unvalidated_space_runs_prim_once_on_first_use(self, monkeypatch):
        calls = []
        real = hierarchy._check_strong_triangle
        monkeypatch.setattr(
            hierarchy, "_check_strong_triangle", lambda *a: calls.append(a) or real(*a)
        )
        space = distance_matrix(random_labeled_tree(9, [1, 2, 3], seed=2))
        trusted = FiniteUltrametricSpace.from_trusted_matrix(space.points, space.matrix)
        assert calls == []
        for _ in range(2):
            is_ut(trusted)
            space_to_dendrogram(trusted)
        assert len(calls) == 1
        # spaces built from a merge order never run it
        is_ut(space)
        space_to_dendrogram(dendrogram_to_space(space_to_dendrogram(space)))
        assert len(calls) == 1


# --- no certificate for a matrix that is not ultrametric ------------------------------------

def test_unvalidated_violation_raises_instead_of_a_wrong_tree():
    # d(a, c) = 3 is above both other sides: a tree built from this matrix
    # by diameter splits would put b and c at distance 3, not 2
    points, rows = ("a", "b", "c"), ((0, 1, 3), (1, 0, 2), (3, 2, 0))
    with pytest.raises(StrongTriangleViolation) as validated:
        validate_ultrametric(points, rows)
    space = FiniteUltrametricSpace.from_trusted_matrix(points, rows)
    for reader in (is_ut, space_to_dendrogram):
        with pytest.raises(StrongTriangleViolation) as err:
            reader(space)
        assert err.value.triple == validated.value.triple == ("a", "c", "b")


@pytest.mark.parametrize(
    "rows, expected",
    [
        (((5, 1, 2), (1, 0, 2), (2, 2, 0)), NonzeroDiagonal("a")),
        (((0, 1, 2), (1, 0, 2), (2, 3, 0)), NotSymmetric(("b", "c"))),
    ],
)
def test_unvalidated_entry_fault_names_its_culprit(rows, expected):
    # Prim's pass reads the diagonal and one side of each pair only: alone,
    # it reported these as strong-triangle violations with a wrong triple
    space = FiniteUltrametricSpace.from_trusted_matrix(("a", "b", "c"), rows)
    for reader in (is_ut, space_to_dendrogram):
        with pytest.raises(type(expected)) as err:
            reader(space)
        assert str(err.value) == str(expected)


def test_unvalidated_repeated_point_is_refused():
    # is_ut builds its tree straight from the points: a repeated name gave a
    # tree with a repeated vertex, and the canonical form never looked
    space = FiniteUltrametricSpace.from_trusted_matrix(
        ("a", "b", "a"), ((0, 1, 2), (1, 0, 2), (2, 2, 0))
    )
    for reader in (is_ut, space_to_dendrogram):
        with pytest.raises(DuplicatePoint) as err:
            reader(space)
        assert err.value.point == "a"


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(3, 7))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(draw(st.integers(1, 4)))
    return tuple(f"x{i}" for i in range(n)), rows


@given(symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_unvalidated_matrices_raise_as_validation_does(drawn):
    points, rows = drawn
    space = FiniteUltrametricSpace.from_trusted_matrix(points, rows)
    try:
        oracles.validate(points, rows)
    except StrongTriangleViolation:
        with pytest.raises(StrongTriangleViolation) as err:
            is_ut(space)
        assert oracles.is_violation_longest_first(points, rows, err.value.triple)
        with pytest.raises(StrongTriangleViolation):
            space_to_dendrogram(space)
    else:
        cert = is_ut(space)
        expected = oracles.is_ut_split_walk(space)
        assert (cert and tree_json_string(cert)) == (expected and tree_json_string(expected))


@given(symmetric_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_unvalidated_matrices_name_validations_culprit(drawn, data):
    # one entry changed, on the diagonal or off it, on one side of a pair
    points, rows = drawn
    i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    rows[i][j] = F(data.draw(st.integers(0, 5)))
    try:
        validate_ultrametric(points, rows)
    except MetricValidationError as exc:
        expected = exc
    else:
        expected = None
    space = FiniteUltrametricSpace.from_trusted_matrix(points, rows)
    for reader in (is_ut, space_to_dendrogram):
        try:
            reader(space)
        except MetricValidationError as exc:
            assert (type(exc), str(exc)) == (type(expected), str(expected))
        else:
            assert expected is None
