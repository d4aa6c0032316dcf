"""The theorem suite on the rank matrix against the name-keyed oracle.

``explorer.check_theorem_suite`` reads ``space.ranks`` through the index
cores ``metric._ball_sets``, ``_sphere_sets`` and ``_sphere_center``;
``oracles.theorem_suite`` asks the public API once per ball and once per
point. Their reports must agree entry for entry, witnesses included: on
every class with n <= 7, on tree-generated and p-adic spaces, and on
unvalidated rank matrices (not ultrametric, zero distances allowed),
which are the only inputs where checks fail.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ultratree import (
    check_theorem_suite,
    dendrogram_to_space,
    distance_matrix,
    dp_metric,
    enumerate_dendrograms,
    random_labeled_tree,
    restrict,
    sample_space,
)
from ultratree import explorer, metric
from ultratree.metric import FiniteUltrametricSpace, _ball_sets, _sphere_center


def assert_suites_agree(space):
    for hint in (False, True):
        expected = oracles.theorem_suite(space, is_ut_hint=hint).to_json_dict()
        assert check_theorem_suite(space, is_ut_hint=hint).to_json_dict() == expected


def rank_space(rng, n, k):
    """A symmetric rank matrix with a zero diagonal, off-diagonal ranks
    drawn from 0..k-1 and then compressed onto the ranks used; nothing
    makes it ultrametric, or its off-diagonal distances positive."""
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.randint(0, k - 1)
    used = sorted({r for row in rows for r in row} | {0})
    remap = {r: pos for pos, r in enumerate(used)}
    return FiniteUltrametricSpace(
        tuple(f"p{i}" for i in range(n)),
        tuple(tuple(map(remap.__getitem__, row)) for row in rows),
        tuple(Fraction(pos) for pos in range(len(used))),
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_every_class_agrees(n):
    for dendro in enumerate_dendrograms(n):
        assert_suites_agree(dendrogram_to_space(dendro))


@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_tree_spaces_agree(seed, n):
    # repeated, zero and fractional labels
    tree = random_labeled_tree(n, [0, 1, 2, Fraction(5, 2), 3], seed=seed)
    assert_suites_agree(distance_matrix(tree))


@given(
    st.sampled_from([2, 3, 5]),
    st.sets(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_padic_samples_agree(p, sample):
    assert_suites_agree(sample_space(sorted(sample), dp_metric(p)))


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_unvalidated_rank_matrices_agree(seed, n, k):
    assert_suites_agree(rank_space(random.Random(seed), n, k))


def test_unvalidated_rank_matrices_reach_the_failure_paths():
    rng = random.Random(7)
    failing = set()
    for _ in range(300):
        space = rank_space(rng, rng.randint(1, 7), rng.randint(2, 5))
        for hint in (False, True):
            report = check_theorem_suite(space, is_ut_hint=hint)
            assert report.to_json_dict() == oracles.theorem_suite(space, hint).to_json_dict()
            failing |= {
                name
                for name, res in report.results.items()
                if res["verdict"] in ("FAIL", "COUNTEREXAMPLE")
            }
    # all but the two checks a zero diagonal always passes
    assert failing == {
        "ball-center-irrelevance", "ball-relative-spheres", "center-contains-diameter",
        "complete-multipartite", "diameter-row-max", "equidistance-equivalence",
        "singletons-are-spheres", "star-iff-singleton-part",
        "star-implies-center-dichotomy", "ut-center-dichotomy",
        "ut-closed-balls-are-spheres", "ut-no-interior-center-value",
        "ut-open-balls-are-spheres", "ut-spanning-star", "ut-star-equivalence",
        "ut-whole-space-sphere",
    }


def sphere_spaces():
    for n in range(1, 6):
        for dendro in enumerate_dendrograms(n):
            yield dendrogram_to_space(dendro)
    rng = random.Random(3)
    for _ in range(60):
        yield rank_space(rng, rng.randint(2, 6), rng.randint(2, 5))


def test_sphere_center_in_the_space_and_in_the_subspace():
    for space in sphere_spaces():
        everyone = range(space.n)
        for size in range(1, space.n + 1):
            for idxs in combinations(everyone, size):
                names = [space.points[i] for i in idxs]
                for among, host in ((everyone, space), (idxs, restrict(space, names))):
                    found = _sphere_center(space, list(idxs), among)
                    expected = oracles.is_centered_sphere(host, names)
                    if expected is None:
                        assert found is None
                    else:
                        center, rank = found
                        assert (space.points[center], space.values[rank]) == expected[:2]


def test_ball_sets_cut_every_member_row():
    # a ball's cut gives the same set around each of its members, and the
    # sets are exactly the oracle's open and closed balls
    for space in sphere_spaces():
        found = _ball_sets(space)
        for kind in ("open", "closed"):
            oracle = {members for _, _, members in oracles.enumerate_balls(space, kind)}
            assert {frozenset(space.points[i] for i in idxs) for idxs in found} == oracle
        for idxs, (center, cut) in found.items():
            assert center in idxs
            assert {j for j, r in enumerate(space.ranks[center]) if r < cut} == idxs


NAME_KEYED = (
    "ball",
    "is_centered_sphere",
    "restrict",
    "pointwise_distance_set",
    "enumerate_balls",
    "enumerate_centered_spheres",
    # the class's dendrogram: the suite reads only the space's ranks
    "space_to_dendrogram",
    "_canonical_form",
    "_merge_order",
)


def test_suite_makes_no_name_keyed_or_dendrogram_call(monkeypatch):
    spaces = [dendrogram_to_space(d) for d in enumerate_dendrograms(6)]
    expected = [
        [check_theorem_suite(space, hint).to_json_dict() for hint in (False, True)]
        for space in spaces
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the suite called the name-keyed API")

    for module in (metric, explorer):
        for name in NAME_KEYED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for space, reports in zip(spaces, expected):
        assert [
            check_theorem_suite(space, hint).to_json_dict() for hint in (False, True)
        ] == reports
