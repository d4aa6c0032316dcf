"""weak_similarity decides by canonical dendrograms and pairs canonical leaves.

The backtracking search over point bijections that it replaced lives on as
``oracles.weak_similarity_search``; the cases here check both answers
against each other, and every returned witness distance by distance. The
n = 4 comparison with the exhaustive permutation oracle is in
test_rank_core.py.
"""

import itertools
import time
from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

import oracles
from test_rank_core import relabeled
from ultratree import (
    Dendrogram,
    dendrogram_to_space,
    distance_matrix,
    enumerate_dendrograms,
    random_labeled_tree,
    validate_ultrametric,
    weak_similarity,
)

LEAF = Dendrogram(0)
PAIR = Dendrogram(1, (LEAF, LEAF))
# Two 8-point classes whose points have the same multiset of signatures
# (a point's signature is its sorted row of ranks), which the search
# used to prune by.
X = Dendrogram(3, (Dendrogram(2, (PAIR, PAIR)), Dendrogram(2, (LEAF,) * 4)))
Y = Dendrogram(3, (Dendrogram(2, (PAIR, LEAF, LEAF)), Dendrogram(2, (PAIR, LEAF, LEAF))))


def signatures(space):
    return Counter(
        tuple(sorted(row[:i] + row[i + 1:])) for i, row in enumerate(space.ranks)
    )


def assert_witness(first, second, witness):
    """A bijection listed in ``first``'s point order that carries every
    distance of ``first`` through the rank-for-rank scale map."""
    assert [p for p, _ in witness.point_bijection] == list(first.points)
    assert sorted(q for _, q in witness.point_bijection) == sorted(second.points)
    assert witness.scale_map == tuple(zip(second.values, first.values))
    forward, scale = witness.forward(), witness.scale()
    for p in first.points:
        for q in first.points:
            assert first.distance(p, q) == scale[second.distance(forward[p], forward[q])]


def assert_agrees_with_search(first, second):
    witness = weak_similarity(first, second)
    assert (witness is None) == (oracles.weak_similarity_search(first, second) is None)
    if witness is not None:
        assert_witness(first, second, witness)
    return witness


def test_signature_collision_pair():
    x, y = dendrogram_to_space(X), dendrogram_to_space(Y)
    assert signatures(x) == signatures(y)
    assert assert_agrees_with_search(x, y) is None
    assert assert_agrees_with_search(y, x) is None


def test_adversarial_24_point_pair_is_decided_fast():
    # oracles.weak_similarity_search takes about 5 s on this pair
    # (2-core host, CPython 3.11)
    first = dendrogram_to_space(Dendrogram(4, (X, X, X)))
    second = dendrogram_to_space(Dendrogram(4, (X, X, Y)))
    assert signatures(first) == signatures(second)
    start = time.perf_counter()
    assert weak_similarity(first, second) is None
    assert weak_similarity(second, first) is None
    assert time.perf_counter() - start < 1.0
    assert_witness(first, relabeled(first, 1), weak_similarity(first, relabeled(first, 1)))


def test_adversarial_16_point_pairs_agree_with_search():
    # at 16 points the search still answers in milliseconds
    spaces = [
        dendrogram_to_space(Dendrogram(4, pair))
        for pair in ((X, X), (X, Y), (Y, Y))
    ]
    for a, b in itertools.product(spaces, repeat=2):
        assert (assert_agrees_with_search(a, b) is None) == (a is not b)


def test_signature_collisions_at_eight_points():
    groups = defaultdict(list)
    for dendro in enumerate_dendrograms(8):
        space = dendrogram_to_space(dendro)
        groups[len(space.values), frozenset(signatures(space).items())].append(space)
    colliding = [group for group in groups.values() if len(group) > 1]
    assert sorted(map(len, colliding)) == [2] * 8 + [3, 3]  # 14 pairs of classes
    for group in colliding:
        for a, b in itertools.permutations(group, 2):
            assert assert_agrees_with_search(a, b) is None
        for pos, a in enumerate(group):
            assert assert_agrees_with_search(a, relabeled(a, pos)) is not None


def test_witness_for_every_class_up_to_seven_points():
    checked = 0
    for n in range(1, 8):
        for pos, dendro in enumerate(enumerate_dendrograms(n)):
            space = dendrogram_to_space(dendro)
            moved = relabeled(space, pos)
            assert assert_agrees_with_search(space, moved) is not None
            assert assert_agrees_with_search(moved, space) is not None
            checked += 1
    assert checked == 1 + 1 + 2 + 6 + 20 + 90 + 468


def test_witness_is_deterministic():
    # both spaces are rebuilt each call, so nothing cached on them carries over
    def witness():
        first = dendrogram_to_space(Dendrogram(4, (X, Y, Y)))
        return weak_similarity(first, relabeled(first, 3))

    assert witness() == witness()


def test_empty_spaces():
    empty = validate_ultrametric([], [])
    witness = weak_similarity(empty, empty)
    assert witness is not None and witness.point_bijection == ()
    assert weak_similarity(empty, validate_ultrametric(["a"], [[0]])) is None


@given(
    st.integers(1, 40),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(lambda pool: pool + [1]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_random_tree_spaces_agree_with_search(n, pool, seed_a, seed_b, copy):
    first = distance_matrix(random_labeled_tree(n, pool, seed_a))
    if copy:
        second = relabeled(first, seed_b)
    else:
        second = distance_matrix(random_labeled_tree(n, pool, seed_b))
    assert_agrees_with_search(first, second)
