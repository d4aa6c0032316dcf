import gc
import itertools
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ultratree import (
    Dendrogram,
    check_closed_balls,
    check_con3,
    check_hol,
    check_theorem_suite,
    dendrogram_to_space,
    distance_matrix,
    dp_metric,
    enumerate_dendrograms,
    dendrogram,
    explorer,
    is_ut,
    merge_parts,
    random_labeled_tree,
    sample_space,
    space_to_dendrogram,
    suite,
    validate_tree,
    validate_ultrametric,
    weak_similarity,
)
from ultratree.capacity import require_within
from ultratree.errors import EmptyPool, FewerThanTwoBlocks, TooLarge, TooSmall
from ultratree.formats import matrix_csv_string, parse_matrix_csv, tree_json_string
from ultratree.explorer import _Subtrees, _all_subsets_spheres, _enumerate_ids
from ultratree.suite import check_suite_enumerated

F = Fraction


# --- independent oracles ------------------------------------------------------

def oracle_classes_by_matrix_enumeration(n):
    """Enumerate every ultrametric matrix with distance ranks {1..m} used
    surjectively and deduplicate by the backtracking similarity search
    (``oracles.weak_similarity_search``), which shares no code with the
    canonical dendrogram the enumerator relies on."""
    pairs = list(itertools.combinations(range(n), 2))
    reps = []
    for m in range(1, n):
        for assignment in itertools.product(range(1, m + 1), repeat=len(pairs)):
            if set(assignment) != set(range(1, m + 1)):
                continue
            matrix = [[F(0)] * n for _ in range(n)]
            for (i, j), v in zip(pairs, assignment):
                matrix[i][j] = matrix[j][i] = F(v)
            ok = all(
                matrix[i][j] <= max(matrix[i][k], matrix[k][j])
                for i in range(n)
                for j in range(n)
                for k in range(n)
            )
            if not ok:
                continue
            space = validate_ultrametric([f"q{i}" for i in range(n)], matrix)
            if all(oracles.weak_similarity_search(space, rep) is None for rep in reps):
                reps.append(space)
    return reps


def oracle_is_realizable(space):
    """Unpruned tree search: every shape (Prüfer) x every labeling over the
    realized distances plus 0, compared by full path-max matrices."""
    from ultratree.treemetric import _prufer_to_edges

    n = space.n
    values = sorted({v for row in space.matrix for v in row} | {F(0)})
    if n == 1:
        return True
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = _prufer_to_edges(seq, n)
        adj = [[] for _ in range(n)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        for labels in itertools.product(values, repeat=n):
            good = True
            for root in range(n):
                best = [None] * n
                best[root] = labels[root]
                stack = [root]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if best[w] is None:
                            best[w] = max(best[u], labels[w])
                            stack.append(w)
                for j in range(n):
                    if j != root:
                        expect = space.matrix[root][j]
                        if best[j] != expect:
                            good = False
                            break
                if not good:
                    break
            if good:
                return True
    return False


def oracle_is_ut_search(space):
    """Pruned tree search: every shape (Prüfer) with vertex labels drawn
    from the distance values plus 0, pruned by two necessary conditions
    (a vertex label never exceeds its smallest distance; each edge must
    realize its endpoints' distance as the larger label) and by the
    center-dichotomy necessary condition. Returns a certificate or None."""
    from ultratree import center_of_distances, diameter, distance_set, validate_tree
    from ultratree.treemetric import _prufer_to_edges

    n = space.n
    if n == 1:
        return validate_tree(space.points, [], {space.points[0]: 0})
    diam = diameter(space)
    if center_of_distances(space).values != (0, diam):
        return None

    values = list(distance_set(space).values)  # 0 included
    min_dist = [min(space.matrix[i][j] for j in range(n) if j != i) for i in range(n)]
    candidates = [[v for v in values if v <= min_dist[i]] for i in range(n)]
    candidate_sets = [set(c) for c in candidates]

    def labels_match(adj, labels):
        for root in range(n):
            best = [None] * n
            best[root] = labels[root]
            stack = [root]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if best[w] is None:
                        best[w] = max(best[u], labels[w])
                        stack.append(w)
            if any(j != root and best[j] != space.matrix[root][j] for j in range(n)):
                return False
        return True

    for seq in itertools.product(range(n), repeat=n - 2):
        edges = _prufer_to_edges(seq, n)
        adj = [[] for _ in range(n)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        # visit order: each new vertex hangs off an already-labeled one
        order = [(0, -1)]
        seen = [False] * n
        seen[0] = True
        for u, _ in order:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append((w, u))
        labels = [None] * n

        def assign(step):
            if step == len(order):
                return labels_match(adj, labels)
            v, parent = order[step]
            if parent < 0:
                options = candidates[v]
            else:
                need = space.matrix[v][parent]
                if labels[parent] > need:
                    return False
                if labels[parent] == need:
                    options = [c for c in candidates[v] if c <= need]
                else:
                    options = [need] if need in candidate_sets[v] else []
            for c in options:
                labels[v] = c
                if assign(step + 1):
                    return True
            labels[v] = None
            return False

        if assign(0):
            return validate_tree(
                space.points,
                [(space.points[i], space.points[j]) for i, j in edges],
                dict(zip(space.points, labels)),
            )
    return None


def euler_transform(a):
    """b[m] = number of multisets of a-counted objects of total size m."""
    size = len(a) - 1
    c = [0] + [sum(d * a[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, size + 1)]
    b = [1] + [0] * size
    for m in range(1, size + 1):
        b[m] = sum(c[k] * b[m - k] for k in range(1, m + 1)) // m
    return b


def class_counts_by_levels(n):
    """Classes of n-point spaces with exactly k levels, counted, not enumerated.

    A_l(m), the trees with m leaves and root level <= l, has A_l(1) = 1,
    A_0(m) = 0 for m >= 2 and A_l(m) = (Euler transform of A_{l-1})(m):
    a root at level <= l holds a multiset of two or more trees of root
    level <= l - 1, or is one such tree itself. A tree with levels in
    {1..k} occupies some j of them, so binomial inversion counts the
    classes, whose levels are exactly 1..k.
    """
    a = [[0, 1] + [0] * (n - 1)]
    for _ in range(1, n):
        b = euler_transform(a[-1])
        a.append([0, 1] + b[2:])
    return {
        k: sum((-1) ** (k - j) * comb(k, j) * a[j][n] for j in range(k + 1))
        for k in range(n)
    }


# --- enumeration ---------------------------------------------------------------

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 20, 6: 90}


class TwoValueError(Exception):
    """An error that pickles but does not unpickle: its ``args`` hold one
    value, and its constructor takes two."""

    def __init__(self, what, n):
        super().__init__(f"{what} {n} refused")


def refuse_three(share, shares):
    if share == 3:
        raise TwoValueError("item", share)
    return share


def fence_the_second_share(share, shares):
    require_within("test items", 5 + share, default=5)


class TestEnumeration:
    def test_counts_against_oracle(self):
        for n in (1, 2, 3, 4):
            enumerated = list(enumerate_dendrograms(n))
            if n == 1:
                assert len(enumerated) == 1
                continue
            oracle = oracle_classes_by_matrix_enumeration(n)
            assert len(enumerated) == len(oracle)
            # and the classes themselves correspond one-to-one
            for rep in oracle:
                matches = [
                    d
                    for d in enumerated
                    if weak_similarity(dendrogram_to_space(d), rep) is not None
                ]
                assert len(matches) == 1

    def test_counts_regression(self):
        # 20 and 90 were cross-validated by a second, independent
        # level-pool enumeration algorithm during development
        for n, expected in EXPECTED_COUNTS.items():
            assert sum(1 for _ in enumerate_dendrograms(n)) == expected

    @pytest.mark.skipif(
        not os.environ.get("ULTRATREE_SLOW_TESTS"),
        reason="minutes-long oracle; set ULTRATREE_SLOW_TESTS=1 to run",
    )
    def test_counts_against_oracle_n5(self):
        assert len(oracle_classes_by_matrix_enumeration(5)) == EXPECTED_COUNTS[5]

    def test_every_space_validates(self):
        for n in range(1, 7):
            for dendro in enumerate_dendrograms(n):
                space = dendrogram_to_space(dendro)
                validate_ultrametric(space.points, space.matrix)

    def test_canonical_levels(self):
        for n in range(2, 7):
            for dendro in enumerate_dendrograms(n):
                assert dendro.is_canonical()
                k = dendro.level
                assert dendro.levels_used() == frozenset(range(1, k + 1))

    def test_pairwise_not_weakly_similar(self):
        for n in (3, 4, 5):
            spaces = [dendrogram_to_space(d) for d in enumerate_dendrograms(n)]
            for a, b in itertools.combinations(spaces, 2):
                assert weak_similarity(a, b) is None

    def test_roundtrip_canonicalization(self):
        for n in range(1, 7):
            for dendro in enumerate_dendrograms(n):
                back = space_to_dendrogram(dendrogram_to_space(dendro))
                assert back.key() == dendro.key()

    def test_known_classes_present(self):
        keys3 = {d.key() for d in enumerate_dendrograms(3)}
        assert "(1:L,L,L)" in keys3  # equidistant
        assert "(2:(1:L,L),L)" in keys3  # the one-short-side triple
        keys4 = {d.key() for d in enumerate_dendrograms(4)}
        assert "(2:(1:L,L),(1:L,L))" in keys4  # perfect binary
        assert "(3:(2:(1:L,L),L),L)" in keys4  # chain

    def test_counts_against_counting_recurrence(self):
        totals = [1, 1, 2, 6, 20, 90, 468, 2910, 20644, 165874]
        for n in range(1, 11):
            expected = class_counts_by_levels(n)
            assert sum(expected.values()) == totals[n - 1]
            if n <= 9:
                levels = Counter(d.level for d in enumerate_dendrograms(n))
                assert levels == +Counter(expected)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_keys_match_nested_tuple_oracle(self, n):
        keys = [d.key() for d in enumerate_dendrograms(n)]
        assert keys == list(oracles.dendrogram_keys(n))

    def test_fence(self):
        with pytest.raises(TooLarge):
            list(enumerate_dendrograms(11))

    def test_env_var_lowers_fence(self, monkeypatch):
        monkeypatch.setenv("ULTRATREE_MAX_N", "3")
        with pytest.raises(TooLarge):
            list(enumerate_dendrograms(4))
        monkeypatch.setenv("ULTRATREE_MAX_N", "99")  # cannot raise the fence
        with pytest.raises(TooLarge):
            list(enumerate_dendrograms(11))


class TestDendrogramToSpace:
    def test_star_is_equidistant(self):
        star = Dendrogram(1, (Dendrogram(0), Dendrogram(0), Dendrogram(0)))
        space = dendrogram_to_space(star)
        off = {space.matrix[i][j] for i in range(3) for j in range(3) if i != j}
        assert off == {1}

    def test_perfect_binary(self):
        pair = Dendrogram(1, (Dendrogram(0), Dendrogram(0)))
        root = Dendrogram(2, (pair, pair))
        space = dendrogram_to_space(root)
        assert space.matrix == (
            (0, 1, 2, 2),
            (1, 0, 2, 2),
            (2, 2, 0, 1),
            (2, 2, 1, 0),
        )

    def test_chain_realizes_all_levels(self):
        leaf = Dendrogram(0)
        chain = Dendrogram(3, (Dendrogram(2, (Dendrogram(1, (leaf, leaf)), leaf)), leaf))
        space = dendrogram_to_space(chain)
        assert {v for row in space.matrix for v in row} == {0, 1, 2, 3}

    def test_structural_invariants_enforced(self):
        with pytest.raises(ValueError):
            Dendrogram(1, (Dendrogram(0),))  # single child
        with pytest.raises(ValueError):
            Dendrogram(1, (Dendrogram(1, (Dendrogram(0), Dendrogram(0))), Dendrogram(0)))
        with pytest.raises(ValueError):
            Dendrogram(0, (Dendrogram(0), Dendrogram(0)))  # leaf with children


class TestCampaignFold:
    """The campaign checks read off the dendrogram agree with the same
    checks on every class's realized space."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fold_matches_space_oracles(self, n):
        table = _Subtrees()
        for root in _enumerate_ids(n, table):
            dendro = table.dendrogram(root)
            space = dendrogram_to_space(dendro)
            assert oracles.dendrogram_center_size(dendro) == oracles.center_size(space)
            assert oracles.has_leaf_children(dendro) == (is_ut(space) is not None)
            if n <= 7:
                assert _all_subsets_spheres(n, oracles.dendrogram_folds(dendro, {})[2]) == (
                    oracles.all_subsets_spheres(space)
                )
                # leaf i of the depth-first numbering is the point x{i+1}
                spheres = {
                    sum(1 << space.index_of(p) for p in subset)
                    for _, _, subset in oracles.enumerate_centered_spheres(space)
                }
                assert oracles.sphere_masks(dendro) == (n, spheres)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_per_subtree_values_match_the_walks(self, n):
        table = _Subtrees()
        roots = list(_enumerate_ids(n, table))
        assert [table.dendrogram(root).key() for root in roots] == [
            dendro.key() for dendro in enumerate_dendrograms(n)
        ]
        # every interned subtree against the walks over its dendrogram, and
        # the folds the walk-based campaigns read against the same walks; a
        # class root covers all n leaves, and none is interned
        memo: dict = {}
        for nid, node in enumerate(table.nodes):
            dendro = table.dendrogram(node)
            assert table.key(node) == dendro.key()
            assert table.leafy[nid] == oracles.has_leaf_children(dendro)
            assert table.space(node) == dendrogram_to_space(dendro)
            full, size, spheres = oracles.dendrogram_folds(dendro, memo)
            assert 1 + bin(full).count("1") == oracles.dendrogram_center_size(dendro)
            assert size == dendro.leaf_count() < n or n == 1
            assert spheres == len(oracles.sphere_masks(dendro)[1])
        # every root, folded from its children, against the same walks
        for root in roots if n <= 7 else ():
            dendro = table.dendrogram(root)
            assert table.key(root) == dendro.key()
            assert table.fold_leafy(root) == oracles.has_leaf_children(dendro)
            assert table.space(root) == dendrogram_to_space(dendro)
            full, size, spheres = oracles.dendrogram_folds(dendro, memo)
            assert 1 + bin(full).count("1") == oracles.dendrogram_center_size(dendro)
            assert size == dendro.leaf_count() == n
            assert spheres == len(oracles.sphere_masks(dendro)[1])

    @pytest.mark.parametrize("n", range(1, 10))
    def test_children_are_in_canonical_key_order(self, n):
        # the walk builds forests in order instead of sorting them; every
        # node's children come out in the walk's order: by level number,
        # then by their own children, the leaf last
        table = _Subtrees()
        for _ in _enumerate_ids(n, table):
            pass
        nested = [0]  # id -> the subtree as nested tuples, leaf = 0
        cache: dict = {}
        for level, *children in table.nodes[1:]:
            nested.append((level, *map(nested.__getitem__, children)))
            keys = [oracles.walk_order_key(nested[c], cache) for c in children]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_table_keys_survive_the_canonical_form(self, n):
        # the walk's table and the canonical form of the space it realizes
        # give every class one key: both order children by level number
        table = _Subtrees()
        for root in _enumerate_ids(n, table):
            assert table.key(root) == space_to_dendrogram(table.space(root)).key()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_walk_matches_the_sorting_walk(self, n):
        # the same roots, in the same order, and the same subtrees with the
        # same per-subtree values, as the walk that sorted every forest by
        # nested sort keys. That walk interns the roots too, so the two
        # are compared by key: the subtrees are its non-roots, interned in
        # the same order
        table, expected, folds = _Subtrees(), _Subtrees(), {}
        keys = [table.dendrogram(root).key() for root in _enumerate_ids(n, table)]
        expected_roots = list(oracles.enumerate_ids_by_sort_keys(n, expected, folds))
        assert keys == [expected.dendrogram(expected.nodes[r]).key() for r in expected_roots]
        expected_id = {
            expected.dendrogram(node).key(): nid for nid, node in enumerate(expected.nodes)
        }
        ids = [expected_id[table.dendrogram(node).key()] for node in table.nodes]
        assert ids == sorted(ids)
        assert len(ids) == len(expected.nodes) - (len(expected_roots) if n > 1 else 0)
        assert table.leafy == [expected.leafy[nid] for nid in ids]
        # that walk's own folds, against the campaign oracles' folds
        memo: dict = {}
        mine = [oracles.dendrogram_folds(table.dendrogram(node), memo) for node in table.nodes]
        for i, name in enumerate(("full", "size", "spheres")):
            assert [values[i] for values in mine] == [folds[name][nid] for nid in ids], name

    @pytest.mark.skipif(
        not os.environ.get("ULTRATREE_SLOW_TESTS"),
        reason="90 s and 550 MB for the oracle; set ULTRATREE_SLOW_TESTS=1 to run",
    )
    def test_eleven_point_class_count_against_the_sorting_walk(self):
        walked = sum(1 for _ in _enumerate_ids(11, _Subtrees(), 11))
        assert walked == 1484344
        assert sum(1 for _ in oracles.enumerate_ids_by_sort_keys(11, _Subtrees(), {})) == walked

    @pytest.mark.parametrize("n", [2, 7])
    def test_a_finished_walk_leaves_no_garbage_cycle(self, n):
        # the walk's tables, and a campaign's fold memo, are freed as soon
        # as it ends, not at the next cyclic garbage collection
        campaigns = [check_con3, check_closed_balls, check_suite_enumerated]
        gc.collect()
        gc.disable()
        try:
            table = _Subtrees()
            assert sum(1 for _ in _enumerate_ids(n, table)) == len(list(enumerate_dendrograms(n)))
            assert gc.collect() == 0
            for campaign in campaigns + [check_hol] * (n >= 3):
                assert campaign(n).verdict in ("CONSISTENT", "PASS")
                assert gc.collect() == 0, campaign.__name__
        finally:
            gc.enable()

    def test_an_abandoned_walk_leaves_no_garbage_cycle(self):
        gc.collect()
        gc.disable()
        try:
            walk = _enumerate_ids(6, _Subtrees())
            next(walk)
            del walk
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestClassCounts:
    """The closed-form class counts (``oracles.class_counts``), which share
    no code with ``_merge_steps`` or ``_partitions_below``, against every
    count the walk and the fold give."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_walk(self, n):
        table = _Subtrees()
        leafy = [table.fold_leafy(root) for root in _enumerate_ids(n, table)]
        assert (len(leafy), sum(leafy)) == oracles.class_counts(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_fold(self, n):
        # past the fold's own fence of 11; n = 12 takes half a second
        count, _, _ = explorer._best_classes(n, lambda fresh, new: 0, _Subtrees(), 12)
        assert count == oracles.class_counts(n)[0]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_walk_positions(self, n):
        # the realizable walk yields each realizable class at its position
        # in the walk of every class, which numbers the classes 0, 1, ...
        table, every = _Subtrees(), _Subtrees()
        count, _, walk = explorer._best_classes(n, explorer._realizable_step, table)
        expected = [
            (pos, every.key(root))
            for pos, root in enumerate(_enumerate_ids(n, every))
            if every.fold_leafy(root)
        ]
        assert [(pos, table.key(root)) for pos, root in walk] == expected
        _, _, walk = explorer._best_classes(n, lambda fresh, new: 0, _Subtrees())
        assert [pos for pos, _ in walk] == list(range(count))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_closed_balls_checks_every_realizable_class(self, n):
        assert check_closed_balls(n).instances == oracles.class_counts(n)[1]

    @pytest.mark.parametrize("n,classes", [(10, 165874), (11, 1484344)])
    def test_golden_reports(self, n, classes):
        golden = Path(__file__).resolve().parent / "golden" / f"enumerate-con3-{n}.out"
        assert json.loads(golden.read_text())["classes_checked"] == classes
        assert oracles.class_counts(n)[0] == classes


class TestCon3Campaign:
    def test_small_n_values(self):
        for n, expected_max in [(1, 1), (2, 2), (3, 2), (4, 3)]:
            report = check_con3(n)
            res = report.results["center-size-bound"]
            assert report.verdict == "CONSISTENT"
            assert res["max_center_size"] == expected_max
            assert res["bound"] == 1 + (n.bit_length() - 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_report_matches_the_walk(self, n):
        assert check_con3(n) == oracles.check_con3(n)

    def test_witness_at_four_is_perfect_binary(self):
        report = check_con3(4)
        assert report.witnesses[0]["label"] == "(2:(1:L,L),(1:L,L))"

    def test_report_shape(self):
        report = check_con3(3)
        data = report.to_json_dict()
        assert data["schema"] == 1
        assert data["classes_checked"] == 2
        text = json.dumps(data, sort_keys=True)
        assert json.loads(text)["check"] == "con3"

    def test_jobs_do_not_change_output(self):
        # con3 and hol run in one process; the suite, the one campaign that
        # still shards, does not change a byte under a pool
        sequential = check_suite_enumerated(5, jobs=1).to_json_dict()
        parallel = check_suite_enumerated(5, jobs=2).to_json_dict()
        assert sequential == parallel

    def test_builds_only_the_witness(self, monkeypatch):
        # the sizes fold over forest states and the witness is read off the
        # table: no dendrogram is built, the one walk of a merge order is
        # the witness's realization, and no pool is started; only the
        # witness's path is interned
        import multiprocessing

        walks = []
        real_merge_order = explorer._merge_order
        real_subtrees = explorer._Subtrees

        def refused(*args, **kwargs):
            raise AssertionError("check_con3 built a Dendrogram")

        def counting_merge_order(root, *args):
            walks.append(root)
            return real_merge_order(root, *args)

        def no_pool(*args, **kwargs):
            raise AssertionError("check_con3 started a process pool")

        tables = []

        def recorded_table():
            tables.append(real_subtrees())
            return tables[-1]

        monkeypatch.setattr(dendrogram, "Dendrogram", refused)
        monkeypatch.setattr(explorer, "_merge_order", counting_merge_order)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(explorer, "_Subtrees", recorded_table)
        report = check_con3(7)
        monkeypatch.undo()
        assert report == oracles.check_con3(7)
        assert report.instances == 468
        [table] = tables
        assert [table.key(root) for root in walks] == [report.witnesses[0]["label"]]
        # the leaf and the witness's two distinct subtrees below its root
        assert report.witnesses[0]["label"] == "(2:(1:L,L),(1:L,L),(1:L,L,L))"
        assert [table.key(node) for node in table.nodes] == ["L", "(1:L,L,L)", "(1:L,L)"]

    @pytest.mark.parametrize(
        "jobs,cpus,items,workers",
        [(100_000, 2, 50, 2), (100_000, None, 50, None), (3, 8, 2, 2), (4, 8, 50, 4), (2, 1, 50, None)],
    )
    def test_pool_size_is_bounded(self, monkeypatch, jobs, cpus, items, workers):
        # a stand-in pool that records its size and maps in process, so no
        # worker is ever started whatever size is asked for; one share runs
        # in this process, with no pool
        import multiprocessing

        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args):
                return list(itertools.starmap(fn, args))

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(suite.os, "cpu_count", lambda: cpus)
        mapped = suite._parallel_map(lambda share, shares: (share, shares), items, jobs)
        shares = workers or 1
        assert mapped == [(share, shares) for share in range(shares)]
        assert started == ([] if workers is None else [workers])

    def test_worker_error_is_raised_in_the_parent(self, monkeypatch):
        # the error a worker raises crosses the pool as itself, fields and
        # all; one the parent cannot rebuild would hang the pool, so an
        # alarm ends the wait
        def hung(signum, frame):
            raise AssertionError("the pool hung on the worker's error")

        monkeypatch.setattr(suite.os, "cpu_count", lambda: 2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(TooLarge) as err:
                suite._parallel_map(fence_the_second_share, 10, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (err.value.what, err.value.n, err.value.fence) == ("test items", 6, 5)
        assert str(err.value) == "test items: n=6 exceeds the capacity fence 5"

    def test_worker_error_the_parent_cannot_unpickle_is_raised_by_name(self, monkeypatch):
        # unpickling it would kill the pool's result thread, and starmap
        # would wait for ever; an alarm ends the wait
        def hung(signum, frame):
            raise AssertionError("the pool hung on the worker's error")

        monkeypatch.setattr(suite.os, "cpu_count", lambda: 4)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError) as err:
                suite._parallel_map(refuse_three, 10, 4)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(err.value) == "TwoValueError: item 3 refused"

    def test_stream_error_is_raised_before_any_worker_starts(self, monkeypatch):
        # the class count is folded in this process, under the fence
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("the fence was sent to a pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(suite.os, "cpu_count", lambda: 2)
        with pytest.raises(TooLarge):
            check_suite_enumerated(11, jobs=2)

    def test_witness_across_shares_is_the_walks_first_failing_class(self, monkeypatch):
        # classes 3 and 6 fail, one in each of two shares; the witness is
        # class 3's though the share holding class 6 comes first. The
        # workers are forked, so the planted suite reaches them
        classes = list(enumerate_dendrograms(5))
        failing = [dendrogram_to_space(classes[pos]) for pos in (3, 6)]
        real_suite = suite.check_theorem_suite

        def suite_failing_two_classes(space, is_ut_hint=False):
            report = real_suite(space, is_ut_hint)
            if space in failing:
                report.verdict = "FAIL"
                report.results["planted"] = {"verdict": "FAIL"}
            return report

        monkeypatch.setattr(suite, "check_theorem_suite", suite_failing_two_classes)
        monkeypatch.setattr(suite.os, "cpu_count", lambda: 2)
        report = check_suite_enumerated(5, jobs=2)
        assert report.verdict == "FAIL"
        assert report.instances == 20
        assert report.results["theorem-suite"]["failing_classes"] == 2
        [witness] = report.witnesses
        assert witness["label"] == classes[3].key()
        assert witness["matrix_csv"] == matrix_csv_string(failing[0])
        assert report == check_suite_enumerated(5, jobs=1)

    def test_more_shares_than_cores_give_the_one_process_report(self, monkeypatch):
        monkeypatch.setattr(suite.os, "cpu_count", lambda: 4)
        alone = check_suite_enumerated(6, jobs=1)
        for jobs in (2, 3, 4):
            report = check_suite_enumerated(6, jobs=jobs)
            assert vars(report) == vars(alone)


# A child's ru_maxrss starts from the peak of the process it was forked
# from, so each run is started by a small interpreter, not by pytest. It
# prints the run's exit code and peak RSS in KiB: the larger of the run's
# own and that of any worker process the run has waited for.
RSS_STARTER = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_kib(args: list) -> int:
    """The peak RSS of ``python -B *args`` in KiB, with ``src`` on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", RSS_STARTER, sys.executable, "-B", *args],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=900,
    )
    code, rss = map(int, proc.stdout.split())
    assert code == 0
    return rss


@pytest.mark.skipif(
    not os.environ.get("ULTRATREE_SLOW_TESTS"),
    reason="minutes-long campaigns; set ULTRATREE_SLOW_TESTS=1 to run",
)
class TestSuiteMemory:
    """The suite checks its 165 874 classes at n = 10 as its walk yields
    them, in one process or in one share per pool worker, each walking the
    classes itself: it peaks within 10 MB of one process that walks the
    same classes to the end and checks none. Listing the classes for the
    pool, as the suite once did, peaked about 40 MB above it."""

    WALK = (
        "from ultratree.explorer import _Subtrees, _enumerate_ids\n"
        "for _ in _enumerate_ids(10, _Subtrees()):\n"
        "    pass\n"
    )

    @pytest.fixture(scope="class")
    def walk_kib(self):
        return peak_rss_kib(["-c", self.WALK])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_suite_peaks_near_the_walk(self, walk_kib, jobs):
        suite_kib = peak_rss_kib(
            ["-m", "ultratree.cli", "enumerate", "--n", "10", "--check", "suite", "--jobs", jobs]
        )
        assert suite_kib <= walk_kib + 10 * 1024


class TestHolCampaign:
    def test_three_points(self):
        report = check_hol(3)
        assert report.verdict == "CONSISTENT"
        res = report.results["all-subsets-spheres"]
        assert res["satisfying_classes"] == 1
        assert res["weakly_similar_to_reference"] == [True]
        assert report.witnesses[0]["label"] == "(2:(1:L,L),L)"

    def test_equilateral_triple_fails_subset_scan(self):
        from ultratree.metric import all_subsets_centered_spheres

        equilateral = dendrogram_to_space(
            Dendrogram(1, (Dendrogram(0), Dendrogram(0), Dendrogram(0)))
        )
        assert not all_subsets_centered_spheres(equilateral)

    @pytest.mark.parametrize("n", [4, 5])
    def test_no_satisfying_classes_beyond_three(self, n):
        report = check_hol(n)
        assert report.verdict == "CONSISTENT"
        assert report.results["all-subsets-spheres"]["satisfying_classes"] == 0

    @pytest.mark.parametrize("n", range(3, 10))
    def test_report_matches_the_walk(self, n):
        assert check_hol(n) == oracles.check_hol(n)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_most_spheres(self, n):
        # the fold's maximum, pinned here and not used by the campaign: the
        # walk's for n <= 9, and (n + 1)(n + 2)/2 - 3 from n = 3
        _, best, _ = explorer._best_classes(n, explorer._new_spheres, _Subtrees())
        if n <= 9:
            assert n + best == oracles.max_sphere_count(n)
        if n >= 3:
            assert n + best == (n + 1) * (n + 2) // 2 - 3

    def test_nine_points_under_the_enumeration_fence(self):
        report = check_hol(9)
        assert report.instances == 20644
        assert report.verdict == "CONSISTENT"
        assert report.results["all-subsets-spheres"]["satisfying_classes"] == 0

    def test_bounds(self, monkeypatch):
        with pytest.raises(TooSmall):
            check_hol(2)
        with pytest.raises(TooLarge):
            check_hol(12)
        monkeypatch.setenv("ULTRATREE_MAX_N", "8")
        with pytest.raises(TooLarge):
            check_hol(9)

    @pytest.mark.parametrize("n,satisfying", [(3, 1), (7, 0)])
    def test_builds_only_the_witnesses(self, monkeypatch, n, satisfying):
        # the sphere counts fold over the per-subtree table, and the
        # witnesses are read off it: the table builds no dendrogram, and
        # only a satisfying class is compared with the reference
        compared = []
        real_weak_similarity = dendrogram.weak_similarity

        def refused(*args, **kwargs):
            raise AssertionError("the table built a Dendrogram")

        def counting_weak_similarity(first, second):
            compared.append(first)
            return real_weak_similarity(first, second)

        monkeypatch.setattr(explorer._Subtrees, "dendrogram", refused)
        monkeypatch.setattr(dendrogram, "weak_similarity", counting_weak_similarity)
        report = check_hol(n)
        monkeypatch.undo()
        expected = [
            dendro for dendro in enumerate_dendrograms(n)
            if oracles.all_subsets_spheres(dendrogram_to_space(dendro))
        ]
        assert len(expected) == satisfying
        assert [witness["label"] for witness in report.witnesses] == [d.key() for d in expected]
        assert compared == [dendrogram_to_space(d) for d in expected]


class TestClosedBallCampaign:
    def test_enumerated_small(self):
        report = check_closed_balls(4)
        assert report.verdict == "CONSISTENT"
        assert report.results["open-balls-are-spheres"]["verdict"] == "PASS"
        # only the tree-realizable classes take part
        assert report.instances == 4

    def test_sweeps_each_space_once(self, monkeypatch):
        # the closed balls are the open balls: one index-set sweep per
        # realizable class, and no name-keyed enumeration
        from ultratree import rankrows

        calls = []
        real_ball_sets = rankrows._ball_sets

        def counting_ball_sets(space):
            calls.append(space)
            return real_ball_sets(space)

        def refused(*args, **kwargs):
            raise AssertionError("the campaign enumerated balls or spheres by name")

        # the campaign reads the index cores from their module when it runs
        monkeypatch.setattr(rankrows, "_ball_sets", counting_ball_sets)
        for name in ("enumerate_balls", "enumerate_centered_spheres"):
            monkeypatch.setattr(rankrows, name, refused)
        report = check_closed_balls(6)
        assert report.instances == 28
        assert len(calls) == 28
        assert report.verdict == "CONSISTENT"

    @pytest.mark.parametrize("n", [4, 7])
    def test_streams_the_classes_and_builds_no_dendrogram(self, monkeypatch, n):
        # every class is checked as the walk yields it, on a space read
        # off the subtree table; with no failure no Dendrogram is built
        checked = []
        real_ball_family = explorer._ball_family

        def ball_family_checked_in_walk(space):
            checked.append(space)
            return real_ball_family(space)

        def refused(*args, **kwargs):
            raise AssertionError("the campaign built a Dendrogram")

        monkeypatch.setattr(explorer, "_ball_family", ball_family_checked_in_walk)
        monkeypatch.setattr(dendrogram, "Dendrogram", refused)
        realizable = []
        walk = explorer._Subtrees.walk

        def watched_walk(table, roots, state, level, *args):
            for pos, root in walk(table, roots, state, level, *args):
                if level == 1:  # the outermost walk: it yields every class
                    # the class before this one has been checked already
                    assert len(checked) == len(realizable)
                    assert table.fold_leafy(root)
                    realizable.append(root)
                yield pos, root

        monkeypatch.setattr(explorer._Subtrees, "walk", watched_walk)
        report = check_closed_balls(n)
        assert report.verdict == "CONSISTENT"
        assert report.instances == len(checked) == len(realizable)

    def test_a_failure_is_witnessed_for_open_and_closed_balls(self, monkeypatch):
        # a space whose spheres are planted away fails both halves, and its
        # witness is listed once for each, the open one first
        real_sphere_family = explorer._sphere_family
        planted = []

        def sphere_family_missing_one(space):
            if space.n == 4 and not planted:
                planted.append(space)
                return set()
            return real_sphere_family(space)

        monkeypatch.setattr(explorer, "_sphere_family", sphere_family_missing_one)
        report = check_closed_balls(4)
        assert report.verdict == "FAIL"
        assert report.results["open-balls-are-spheres"] == {"verdict": "FAIL", "failures": 1}
        assert report.results["closed-balls-are-spheres"] == {
            "verdict": "COUNTEREXAMPLE",
            "status": "search evidence",
            "failures": 1,
        }
        opened, closed = report.witnesses
        assert opened["note"] == "open ball is not a sphere"
        assert closed["note"] == "closed ball is not a sphere"
        assert opened["label"] == closed["label"]
        table = _Subtrees()
        pos, root = next(
            (pos, root)
            for pos, root in enumerate(_enumerate_ids(4, table))
            if table.fold_leafy(root)
        )
        assert opened["label"] == f"class-{pos}:{table.dendrogram(root).key()}"
        assert opened["matrix_csv"] == closed["matrix_csv"] == matrix_csv_string(planted[0])


class TestTheoremSuite:
    def test_tree_generated_space_passes(self, path_space):
        report = check_theorem_suite(path_space, is_ut_hint=True)
        assert report.verdict == "PASS"
        assert report.results["ut-closed-balls-are-spheres"]["verdict"] == "CONSISTENT"

    def test_padic_sample_universal_checks(self):
        space = sample_space([0, 1, 2, 3], dp_metric(2))
        report = check_theorem_suite(space, is_ut_hint=False)
        assert report.verdict == "PASS"
        # all three star-related statements are false together here
        assert "center-dichotomy=False singleton-part=False star=False" == (
            report.results["star-iff-singleton-part"]["note"]
        )
        assert "ut-center-dichotomy" not in report.results

    def test_center_dichotomy_does_not_imply_a_star(self):
        # two pairs at different scales: center is {0, diam} but the
        # diametrical graph is balanced bipartite, so no spanning star;
        # the three-way equivalence is a tree-generated-space statement
        from ultratree import center_of_distances, diameter, diametrical_graph, spanning_star

        space = dendrogram_to_space(
            Dendrogram(
                3,
                (
                    Dendrogram(1, (Dendrogram(0), Dendrogram(0))),
                    Dendrogram(2, (Dendrogram(0), Dendrogram(0))),
                ),
            )
        )
        assert center_of_distances(space).values == (0, diameter(space))
        assert spanning_star(diametrical_graph(space)) is None
        report = check_theorem_suite(space, is_ut_hint=False)
        assert report.verdict == "PASS"

    def test_star_equivalence_holds_on_all_tree_generated_classes(self):
        # the full three-way equivalence, restricted to realizable classes
        for n in (2, 3, 4, 5):
            for dendro in enumerate_dendrograms(n):
                space = dendrogram_to_space(dendro)
                if is_ut(space) is None:
                    continue
                report = check_theorem_suite(space, is_ut_hint=True)
                assert report.results["ut-star-equivalence"]["verdict"] == "PASS"

    def test_singleton_vacuous(self):
        space = validate_ultrametric(["a"], [[0]])
        report = check_theorem_suite(space, is_ut_hint=True)
        assert report.verdict == "PASS"

    def test_suite_over_enumerated_classes(self):
        report = check_suite_enumerated(4)
        assert report.verdict == "PASS"
        assert report.instances == 6

    def test_suite_hint_is_realizability(self, monkeypatch):
        hints = []
        real_suite = suite.check_theorem_suite

        def recording_suite(space, is_ut_hint=False):
            hints.append((space, is_ut_hint))
            return real_suite(space, is_ut_hint)

        monkeypatch.setattr(suite, "check_theorem_suite", recording_suite)
        assert check_suite_enumerated(6, jobs=1).verdict == "PASS"
        assert len(hints) == 90
        assert [hint for _, hint in hints] == [is_ut(space) is not None for space, _ in hints]
        assert sum(hint for _, hint in hints) == 28

    def test_suite_witness_is_the_first_failing_class(self, monkeypatch):
        # the witness is read off the table and no Dendrogram is built; the
        # other failing class is named by no key
        classes = list(enumerate_dendrograms(5))
        failing = [dendrogram_to_space(classes[pos]) for pos in (7, 3)]
        real_suite = suite.check_theorem_suite

        def suite_failing_two_classes(space, is_ut_hint=False):
            report = real_suite(space, is_ut_hint)
            if space in failing:
                report.verdict = "FAIL"
                report.results["planted"] = {"verdict": "FAIL"}
            return report

        def refused(*args, **kwargs):
            raise AssertionError("the suite built a Dendrogram")

        monkeypatch.setattr(suite, "check_theorem_suite", suite_failing_two_classes)
        monkeypatch.setattr(dendrogram, "Dendrogram", refused)
        report = check_suite_enumerated(5, jobs=1)
        assert report.verdict == "FAIL"
        assert report.results["theorem-suite"]["failing_classes"] == 2
        [witness] = report.witnesses
        assert witness["label"] == classes[3].key()
        assert witness["matrix_csv"] == matrix_csv_string(failing[1])
        assert witness["note"] == "failed planted"

    def test_suite_builds_no_dendrogram_for_a_passing_class(self, monkeypatch):
        # each class reaches the suite as the levels of its merge order
        def refused(*args, **kwargs):
            raise AssertionError("the suite built a Dendrogram")

        monkeypatch.setattr(dendrogram, "Dendrogram", refused)
        report = check_suite_enumerated(6)
        assert report.verdict == "PASS"
        assert report.instances == 90
        assert report.witnesses == []

    def test_search_evidence_does_not_fail_a_row(self, monkeypatch):
        # a counterexample to the closed-ball search is evidence, not a
        # failing check: the class still passes
        real_suite = suite.check_theorem_suite
        flagged = []

        def suite_with_a_counterexample(space, is_ut_hint=False):
            report = real_suite(space, is_ut_hint)
            if is_ut_hint:
                report.results["ut-closed-balls-are-spheres"]["verdict"] = "COUNTEREXAMPLE"
                flagged.append(space)
            return report

        monkeypatch.setattr(suite, "check_theorem_suite", suite_with_a_counterexample)
        report = check_suite_enumerated(5)
        assert len(flagged) == 10
        assert report.verdict == "PASS"
        assert report.results["theorem-suite"] == {"verdict": "PASS", "failing_classes": 0}
        assert report.witnesses == []

    def test_one_process_suite_holds_no_list_of_classes(self):
        # with one worker each class is checked as the walk yields it. At
        # n = 8 (2 910 classes) the suite peaked at 3.16 MB under
        # tracemalloc while it held every class as a Dendrogram, and peaks
        # at 1.46 MB streamed (CPython 3.11, run alone)
        import tracemalloc

        check_suite_enumerated(3)  # imports and first-call caches
        tracemalloc.start()
        try:
            report = check_suite_enumerated(8, jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.instances == 2910
        assert report.verdict == "PASS"
        assert peak <= 1.6 * 10**6


class TestWitnessesFromTheTable:
    # campaign -> (run it, n); each run yields at least one witness
    CAMPAIGNS = {
        "con3": (lambda: check_con3(6), 6),
        "hol": (lambda: check_hol(3), 3),
        "suite": (lambda: check_suite_enumerated(4), 4),
        "closed-balls": (lambda: check_closed_balls(4), 4),
    }

    @pytest.mark.parametrize("name", list(CAMPAIGNS))
    def test_no_campaign_calls_dendrogram_to_space(self, monkeypatch, name):
        # every witness is realized off the subtree table, and it is the
        # class its label names
        real_suite = suite.check_theorem_suite

        def failing_suite(space, is_ut_hint=False):
            report = real_suite(space, is_ut_hint)
            report.verdict = "FAIL"
            report.results["planted"] = {"verdict": "FAIL"}
            return report

        def refused(*args, **kwargs):
            raise AssertionError("a campaign called dendrogram_to_space")

        # the suite and closed-balls fail every class, so that each has a witness
        monkeypatch.setattr(suite, "check_theorem_suite", failing_suite)
        monkeypatch.setattr(explorer, "_sphere_family", lambda space: set())
        monkeypatch.setattr(explorer, "dendrogram_to_space", refused)
        run, n = self.CAMPAIGNS[name]
        report = run()
        assert report.witnesses
        classes = {dendro.key(): dendro for dendro in enumerate_dendrograms(n)}
        for witness in report.witnesses:
            key = witness["label"].partition(":")[2] if name == "closed-balls" else witness["label"]
            assert witness["matrix_csv"] == matrix_csv_string(dendrogram_to_space(classes[key]))

    @staticmethod
    def assert_labels_name_their_csvs(report):
        assert report.witnesses
        for witness in report.witnesses:
            space = parse_matrix_csv(witness["matrix_csv"])
            assert witness["label"] == space_to_dendrogram(space).key()

    @pytest.mark.parametrize("n", range(1, 12))
    def test_con3_label_is_the_canonical_key_of_its_csv(self, n):
        # the label is read off the walk's table, the key off the CSV's
        # merge order: one child order serves both, up to the fold fence
        self.assert_labels_name_their_csvs(check_con3(n))

    def test_hol_label_is_the_canonical_key_of_its_csv(self):
        self.assert_labels_name_their_csvs(check_hol(3))


class TestIsUt:
    def test_path_space_certificate(self, path_space):
        cert = is_ut(path_space)
        assert cert is not None
        assert cert.vertices == path_space.points
        assert distance_matrix(cert).matrix == path_space.matrix

    def test_two_adic_sample_is_not_realizable(self):
        space = sample_space([0, 1, 2, 3], dp_metric(2))
        assert is_ut(space) is None
        assert not oracle_is_realizable(space)

    def test_singleton(self):
        space = validate_ultrametric(["solo"], [[0]])
        cert = is_ut(space)
        assert cert is not None and cert.vertices == ("solo",)

    def test_matches_unpruned_oracle_on_all_four_point_classes(self):
        for dendro in enumerate_dendrograms(4):
            space = dendrogram_to_space(dendro)
            assert (is_ut(space) is not None) == oracle_is_realizable(space)

    def test_four_point_class_pattern(self):
        verdicts = {
            d.key(): is_ut(dendrogram_to_space(d)) is not None
            for d in enumerate_dendrograms(4)
        }
        assert verdicts == {
            "(1:L,L,L,L)": True,  # equidistant
            "(2:(1:L,L),L,L)": True,  # one close pair
            "(2:(1:L,L),(1:L,L))": False,  # perfect binary: center has 3 values
            "(2:(1:L,L,L),L)": True,  # close triple plus one
            "(3:(1:L,L),(2:L,L))": False,  # two pairs at different scales
            "(3:(2:(1:L,L),L),L)": True,  # chain
        }

    def test_center_dichotomy_alone_is_not_sufficient(self):
        # a two-adic 4-block pushed far from a fifth point has center
        # {0, diam} yet contains a non-realizable open ball
        h = F(1, 2)
        block = [
            [0, 1, h, 1],
            [1, 0, 1, h],
            [h, 1, 0, 1],
            [1, h, 1, 0],
        ]
        matrix = [row + [F(8)] for row in block] + [[F(8)] * 4 + [F(0)]]
        space = validate_ultrametric(["a", "b", "c", "d", "e"], matrix)
        from ultratree import center_of_distances, diameter, restrict

        assert center_of_distances(space).values == (0, diameter(space))
        inner = restrict(space, ["a", "b", "c", "d"])
        assert len(center_of_distances(inner)) == 3
        assert is_ut(space) is None

    def test_seven_point_equidistant_has_no_fence(self):
        space = dendrogram_to_space(
            Dendrogram(1, tuple(Dendrogram(0) for _ in range(7)))
        )
        cert = is_ut(space)
        assert cert is not None
        assert distance_matrix(cert).matrix == space.matrix

    def test_matches_search_oracle_up_to_six_points(self):
        for n in range(1, 7):
            for dendro in enumerate_dendrograms(n):
                space = dendrogram_to_space(dendro)
                expected = oracle_is_ut_search(space) is not None
                assert (is_ut(space) is not None) == expected, dendro.key()

    def test_certificates_and_counts_up_to_eight_points(self):
        realizable = {}
        for n in range(1, 9):
            realizable[n] = 0
            for dendro in enumerate_dendrograms(n):
                space = dendrogram_to_space(dendro)
                cert = is_ut(space)
                if cert is None:
                    continue
                realizable[n] += 1
                again = validate_tree(
                    cert.vertices,
                    cert.edge_names(),
                    dict(zip(cert.vertices, cert.labels)),
                )
                assert again.vertices == space.points
                assert distance_matrix(again).matrix == space.matrix
        assert realizable == {1: 1, 2: 1, 3: 2, 4: 4, 5: 10, 6: 28, 7: 94, 8: 350}

    @given(
        st.integers(1, 12),
        st.sets(st.integers(1, 6), min_size=1),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_reproduces_every_random_tree_metric(self, n, positive, with_zero, seed):
        pool = sorted(positive) + ([0] if with_zero else [])
        space = distance_matrix(random_labeled_tree(n, pool, seed=seed))
        cert = is_ut(space)
        assert cert is not None
        assert distance_matrix(cert).matrix == space.matrix


@st.composite
def top_split_without_singleton(draw):
    """Tree metrics on two or more blocks of two or more points, the
    blocks at distance 4 from each other (every label is at most 3), the
    points shuffled: the top split has no single-point block."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    blocks = [
        distance_matrix(random_labeled_tree(size, [0, 1, 2, 3], seed=draw(st.integers(0, 2**32 - 1))))
        for size in sizes
    ]
    order = draw(st.permutations(range(sum(sizes))))
    where = []  # (block, index in block) of each shuffled point
    for b, size in enumerate(sizes):
        where.extend((b, i) for i in range(size))
    where = [where[k] for k in order]
    matrix = [
        [blocks[b].matrix[i][j] if b == c else F(4) for c, j in where]
        for b, i in where
    ]
    return validate_ultrametric([f"p{k}" for k in range(len(where))], matrix)


def same_certificate(space) -> bool:
    """``is_ut`` and the split-walk oracle give the same tree JSON bytes,
    or both None."""
    new, old = is_ut(space), oracles.is_ut_split_walk(space)
    if new is None or old is None:
        return new is old
    return tree_json_string(new) == tree_json_string(old)


class TestIsUtMatchesSplitWalk:
    def test_every_class_up_to_eight_points(self):
        for n in range(1, 9):
            for dendro in enumerate_dendrograms(n):
                assert same_certificate(dendrogram_to_space(dendro)), dendro.key()

    @given(st.integers(1, 14), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_tree_metrics(self, n, seed):
        assert same_certificate(distance_matrix(random_labeled_tree(n, [0, 1, 2, 3], seed=seed)))

    @given(top_split_without_singleton())
    @settings(max_examples=60, deadline=None)
    def test_unrealizable_top_splits(self, space):
        assert is_ut(space) is None
        assert same_certificate(space)


class TestMergeParts:
    def test_spec_examples(self):
        two = merge_parts([("a",), ("b",), ("c", "d")])
        assert sorted(len(side) for side in two) in ([1, 3], [2, 2])
        assert merge_parts([("a", "b", "c"), ("d", "e", "f")]) == (
            ("a", "b", "c"),
            ("d", "e", "f"),
        )
        four = merge_parts([("a",), ("b",), ("c",), ("d",)])
        assert sorted(len(side) for side in four) == [2, 2]

    def test_too_few_blocks(self):
        with pytest.raises(FewerThanTwoBlocks):
            merge_parts([("a", "b")])

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_min_size_bound(self, sizes):
        counter = itertools.count()
        blocks = [tuple(next(counter) for _ in range(size)) for size in sizes]
        a, b = merge_parts(blocks)
        assert min(len(a), len(b)) >= min(sizes)
        assert sorted(a + b) == sorted(x for blk in blocks for x in blk)


class TestRandomLabeledTree:
    def test_single_vertex(self):
        t = random_labeled_tree(1, [0], seed=0)
        assert t.n == 1

    def test_deterministic(self):
        a = random_labeled_tree(12, [0, 1, 2, 3], seed=42)
        b = random_labeled_tree(12, [0, 1, 2, 3], seed=42)
        assert a == b
        c = random_labeled_tree(12, [0, 1, 2, 3], seed=43)
        assert a != c

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            random_labeled_tree(3, [], seed=0)

    def test_all_zero_pool_rejected(self):
        with pytest.raises(EmptyPool):
            random_labeled_tree(3, [0], seed=0)

    def test_negative_pool_rejected(self):
        from ultratree.errors import NegativeInput

        with pytest.raises(NegativeInput):
            random_labeled_tree(3, [1, -2], seed=0)

    @given(st.integers(0, 10**9), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_pipeline_always_validates(self, seed, n):
        tree = random_labeled_tree(n, [0, 1, 2, 3], seed=seed)
        space = distance_matrix(tree)
        validate_ultrametric(space.points, space.matrix)

    def test_thousand_seeds_validate(self):
        for seed in range(1000):
            tree = random_labeled_tree(12, [0, 1, 2, 3], seed=seed)
            space = distance_matrix(tree)
            validate_ultrametric(space.points, space.matrix)
