"""Exhaustive exploration of finite ultrametric spaces at desk scale.

A leveled dendrogram (internal levels 1..k, all occupied, leaves at 0;
distance = level of the lowest common ancestor) canonically represents a
finite ultrametric space up to order-preserving rescaling of its distance
set. Enumerating canonical dendrograms therefore enumerates those
equivalence classes exactly once. On top of that sit verification
campaigns for the structural theorems and searches probing the open
questions (center-size bound, all-subsets-spheres, closed balls).
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .capacity import ALL_SUBSETS_SPHERES_FENCE, ENUMERATION_FENCE, require_within
from .errors import (
    EmptyPool,
    FewerThanTwoBlocks,
    NegativeInput,
    NotCompleteMultipartite,
    TooSmall,
)
from .formats import matrix_csv_string
from .metric import (
    Dendrogram,
    FiniteUltrametricSpace,
    _diameter_split,
    ball,
    center_of_distances,
    diameter,
    diametrical_graph,
    distance_set,
    enumerate_balls,
    enumerate_centered_spheres,
    is_centered_sphere,
    is_equidistant,
    multipartite_parts,
    pointwise_distance_set,
    restrict,
    space_to_dendrogram,
    spanning_star,
    weak_similarity,
)
from .tree import LabeledTree, distance_matrix, is_nondegenerate, validate_tree

ZERO = Fraction(0)


# --- dendrograms ---------------------------------------------------------------

def _partitions_ge2(counts: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of a multiset into parts of two or more elements.

    The multiset is given by its multiplicities (element i occurs
    ``counts[i]`` times) and so is each part. Every partition is listed
    once, as its non-increasing part sequence, where parts compare as
    their sorted element sequences.
    """

    def elements(part: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(part) for _ in range(t))

    def rec(remaining: tuple[int, ...], bound, acc: list) -> Iterator[tuple]:
        if not any(remaining):
            yield tuple(acc)
            return
        for part in product(*[range(r + 1) for r in remaining]):
            if sum(part) < 2:
                continue
            pk = elements(part)
            if bound is not None and pk > bound:
                continue
            acc.append(part)
            yield from rec(tuple(r - t for r, t in zip(remaining, part)), pk, acc)
            acc.pop()

    return list(rec(counts, None, []))


def enumerate_dendrograms(n: int) -> Iterator[Dendrogram]:
    """Stream every weak-similarity class of n-point spaces exactly once.

    Classes are built bottom-up: starting from n leaves, each step merges
    one or more groups (of at least two current roots) into new nodes at
    the next level. Every canonical dendrogram has a unique merge
    history, so the walk needs no deduplication.

    Subtrees are interned as ints with one key string each (id 0 is the
    leaf), and a forest is a tuple of ids sorted by key, so forests hash
    and compare ints and equal subtrees sit side by side. Each id becomes
    a ``Dendrogram`` once, when a class that holds it is emitted.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    require_within("class enumeration", n, ENUMERATION_FENCE)
    if n == 1:
        yield Dendrogram(0)
        return

    keys = ["L"]
    nodes: list[tuple[int, ...]] = [(0,)]  # (level, child id, ...) per id
    ids: dict[tuple[int, ...], int] = {}
    dendros = [Dendrogram(0)]
    plans: dict[tuple[int, ...], list] = {}  # partitions by multiplicities
    key_of = keys.__getitem__

    def intern(node: tuple[int, ...]) -> int:
        nid = ids.get(node)
        if nid is None:
            nid = ids[node] = len(keys)
            nodes.append(node)
            keys.append("(%d:%s)" % (node[0], ",".join(map(key_of, node[1:]))))
        return nid

    def step(forest: tuple[int, ...], level: int) -> Iterator[int]:
        distinct = list(dict.fromkeys(forest))  # the forest is sorted by key
        counts = [forest.count(x) for x in distinct]
        for passive in product(*[range(c + 1) for c in counts]):
            active = tuple(c - p for c, p in zip(counts, passive))
            if sum(active) < 2:
                continue
            if active not in plans:
                plans[active] = _partitions_ge2(active)
            kept = [x for x, p in zip(distinct, passive) for _ in range(p)]
            for plan in plans[active]:
                merged = [
                    intern((level, *[x for x, t in zip(distinct, part) for _ in range(t)]))
                    for part in plan
                ]
                new_forest = tuple(sorted(kept + merged, key=key_of))
                if len(new_forest) == 1:
                    yield new_forest[0]
                else:
                    yield from step(new_forest, level + 1)

    for root in step((0,) * n, 1):
        # children are interned before their parents, so ids build in order
        for level, *children in nodes[len(dendros):root + 1]:
            dendros.append(Dendrogram(level, tuple(map(dendros.__getitem__, children))))
        yield dendros[root]


def _leaf_runs(dendro: Dendrogram) -> tuple[int, list[tuple[int, int, int, list]]]:
    """Number the leaves depth first; list each internal node's leaf runs.

    Returns the leaf count and, per internal node, ``(level, first leaf,
    end, child runs)``: the node holds leaves ``first..end-1`` and each
    child's leaves are the contiguous run ``(a, b)``, in child order.
    """
    if dendro.is_leaf:
        return 1, []
    nodes = []
    next_leaf = 0
    # frames: [internal node, next child to visit, first leaf, child runs]
    stack: list[list] = [[dendro, 0, 0, []]]
    while stack:
        frame = stack[-1]
        node, child, start, runs = frame
        if child < len(node.children):
            frame[1] += 1
            nxt = node.children[child]
            if nxt.is_leaf:
                runs.append((next_leaf, next_leaf + 1))
                next_leaf += 1
            else:
                stack.append([nxt, 0, next_leaf, []])
            continue
        stack.pop()
        nodes.append((node.level, start, next_leaf, runs))
        if stack:
            stack[-1][3].append((start, next_leaf))
    return next_leaf, nodes


def dendrogram_to_space(dendro: Dendrogram) -> FiniteUltrametricSpace:
    """Realize the dendrogram: leaves x1..xn, distances = ancestor levels.

    Leaves are numbered in depth-first order, so every node's leaves form
    a contiguous run and a node fills its cross-child pairs by slices.
    """
    n, nodes = _leaf_runs(dendro)
    levels = sorted({level for level, _, _, _ in nodes})
    level_rank = {level: r for r, level in enumerate(levels, 1)}
    ranks = [[0] * n for _ in range(n)]
    for level, start, end, runs in nodes:
        r = level_rank[level]
        for a, b in runs:
            before = [r] * (a - start)
            beyond = [r] * (end - b)
            for x in range(a, b):
                ranks[x][start:a] = before
                ranks[x][b:end] = beyond
    names = tuple(f"x{i + 1}" for i in range(n))
    values = (ZERO,) + tuple(Fraction(level) for level in levels)
    return FiniteUltrametricSpace(names, tuple(map(tuple, ranks)), values)


def _has_leaf_children(dendro: Dendrogram) -> bool:
    """The ``is_ut`` criterion read off the dendrogram: the class is
    realizable by a labeled tree on its own points exactly when every
    internal node has a leaf child."""
    stack = [dendro]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if not any(child.is_leaf for child in node.children):
            return False
        stack.extend(node.children)
    return True


# --- campaign reports -------------------------------------------------------------

SCHEMA_VERSION = 1


@dataclass
class CampaignReport:
    """Outcome of one verification or search campaign.

    ``results`` maps a check name to its verdict plus tallies; witnesses
    carry replayable matrix CSV strings for extremal or failing instances.
    """

    check: str
    n: Optional[int]
    instances: int
    verdict: str
    results: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "check": self.check,
            "n": self.n,
            "classes_checked": self.instances,
            "verdict": self.verdict,
            "results": self.results,
            "witnesses": self.witnesses,
        }


def _witness(label: str, space: FiniteUltrametricSpace, note: str = "") -> dict:
    return {"label": label, "matrix_csv": matrix_csv_string(space), "note": note}


def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving map; with jobs > 1 the work is sharded across
    processes but the fold order (hence every output byte) is unchanged."""
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _center_size(dendro: Dendrogram) -> int:
    """|center of distances| of the class, read off the dendrogram.

    A point's distances are 0 and its ancestors' levels, so a level is in
    the center exactly when the nodes at that level hold all the leaves.
    """
    n, nodes = _leaf_runs(dendro)
    covered: Counter = Counter()
    for level, start, end, _ in nodes:
        covered[level] += end - start
    return 1 + list(covered.values()).count(n)


def check_con3(n: int, jobs: int = 1) -> CampaignReport:
    """Probe the binary-log bound on the center size over all n-point classes.

    Reports the maximum |center| over every weak-similarity class of
    cardinality n, the extremal witness, and whether the bound
    1 + floor(log2 n) holds.
    """
    require_within("center-size campaign", n, ENUMERATION_FENCE)
    classes = list(enumerate_dendrograms(n))
    sizes = _parallel_map(_center_size, classes, jobs)
    bound = 1 + (n.bit_length() - 1)
    max_size = max(sizes)
    best = sizes.index(max_size)
    witness_space = dendrogram_to_space(classes[best])
    verdict = "CONSISTENT" if max_size <= bound else "COUNTEREXAMPLE"
    report = CampaignReport(
        check="con3",
        n=n,
        instances=len(classes),
        verdict=verdict,
        results={
            "center-size-bound": {
                "verdict": verdict,
                "bound": bound,
                "max_center_size": max_size,
                "bound_attained": max_size == bound,
            }
        },
        witnesses=[
            _witness(
                classes[best].key(),
                witness_space,
                f"center size {max_size} (bound {bound})",
            )
        ],
    )
    return report


def _reference_three_point_space() -> FiniteUltrametricSpace:
    """The non-equidistant three-point shape: one short side, two long."""
    one, two = Fraction(1), Fraction(2)
    return FiniteUltrametricSpace.from_trusted_matrix(
        ("x1", "x2", "x3"),
        ((ZERO, two, one), (two, ZERO, two), (one, two, ZERO)),
    )


def _sphere_masks(dendro: Dendrogram) -> tuple[int, set[int]]:
    """The leaf count and the distinct centered spheres of the class.

    Leaves are bits in depth-first order. The sphere of radius level(v)
    around a leaf c under the child k of v is {c} ∪ (leaves(v) − leaves(k));
    every other radius gives {c}.
    """
    n, nodes = _leaf_runs(dendro)
    family = {1 << c for c in range(n)}
    for _, start, end, runs in nodes:
        whole = (1 << end) - (1 << start)
        for a, b in runs:
            rest = whole - ((1 << b) - (1 << a))
            family.update(rest | (1 << c) for c in range(a, b))
    return n, family


def _all_subsets_spheres(dendro: Dendrogram) -> bool:
    """Whether every non-empty subset of the class is a centered sphere:
    the distinct spheres are counted against the 2^n − 1 subsets."""
    n, family = _sphere_masks(dendro)
    return len(family) == (1 << n) - 1


def check_hol(n: int, jobs: int = 1) -> CampaignReport:
    """Search for classes where every non-empty subset is a centered sphere.

    At n = 3 exactly one such class should exist (the one-short-side
    triple); for n > 3 the expectation is none. Any other outcome is
    reported as a counterexample with a replayable witness.
    """
    if n < 3:
        raise TooSmall("the all-subsets-spheres campaign needs n >= 3")
    require_within("all-subsets-spheres campaign", n, ALL_SUBSETS_SPHERES_FENCE)
    classes = list(enumerate_dendrograms(n))
    flags = _parallel_map(_all_subsets_spheres, classes, jobs)
    satisfying = [dendro for dendro, flag in zip(classes, flags) if flag]
    witnesses = []
    similar_to_reference = []
    reference = _reference_three_point_space()
    for dendro in satisfying:
        space = dendrogram_to_space(dendro)
        similar = weak_similarity(space, reference) is not None
        similar_to_reference.append(similar)
        witnesses.append(
            _witness(
                dendro.key(),
                space,
                "all subsets are centered spheres"
                + ("; weakly similar to the 3-point reference" if similar else ""),
            )
        )
    if n == 3:
        consistent = len(satisfying) == 1 and similar_to_reference == [True]
    else:
        consistent = not satisfying
    verdict = "CONSISTENT" if consistent else "COUNTEREXAMPLE"
    return CampaignReport(
        check="hol",
        n=n,
        instances=len(classes),
        verdict=verdict,
        results={
            "all-subsets-spheres": {
                "verdict": verdict,
                "satisfying_classes": len(satisfying),
                "weakly_similar_to_reference": similar_to_reference,
            }
        },
        witnesses=witnesses,
    )


def _sphere_family(space: FiniteUltrametricSpace) -> set[frozenset[str]]:
    return {cert.subset for cert in enumerate_centered_spheres(space)}


def _ball_family(
    space: FiniteUltrametricSpace, kind: str
) -> set[frozenset[str]]:
    return {b.members for b in enumerate_balls(space, kind)}


def check_closed_balls(
    source: str,
    *,
    n: Optional[int] = None,
    count: int = 100,
    n_min: int = 2,
    n_max: int = 12,
    pool: Sequence = (0, 1, 2, 3),
    seed: int = 0,
    jobs: int = 1,
) -> CampaignReport:
    """Verify on tree-generated spaces that closed balls are centered spheres.

    ``source`` is "enumerated" (all classes of cardinality ``n`` that are
    realizable by a labeled tree) or "random-trees" (``count`` random
    non-degenerate labeled trees with sizes in [n_min, n_max], seeded).
    Open balls are re-checked alongside as the established half; the
    closed-ball half is reported as search evidence, not asserted.
    """
    instances: list[tuple[str, FiniteUltrametricSpace]] = []
    if source == "enumerated":
        if n is None:
            raise ValueError("source='enumerated' needs n")
        for pos, dendro in enumerate(enumerate_dendrograms(n)):
            if _has_leaf_children(dendro):
                instances.append((f"class-{pos}:{dendro.key()}", dendrogram_to_space(dendro)))
    elif source == "random-trees":
        rng = random.Random(seed)
        for i in range(count):
            size = rng.randint(n_min, n_max)
            tree = random_labeled_tree(size, pool, seed=rng.randrange(2**32))
            instances.append((f"tree-{i}(n={size})", distance_matrix(tree)))
    else:
        raise ValueError("source must be 'enumerated' or 'random-trees'")

    open_fail = []
    closed_fail = []
    for label, space in instances:
        spheres = _sphere_family(space)
        if not _ball_family(space, "open") <= spheres:
            open_fail.append(_witness(label, space, "open ball is not a sphere"))
        if not _ball_family(space, "closed") <= spheres:
            closed_fail.append(_witness(label, space, "closed ball is not a sphere"))
    closed_verdict = "CONSISTENT" if not closed_fail else "COUNTEREXAMPLE"
    open_verdict = "PASS" if not open_fail else "FAIL"
    overall = closed_verdict if open_verdict == "PASS" else "FAIL"
    return CampaignReport(
        check="closed-balls",
        n=n,
        instances=len(instances),
        verdict=overall,
        results={
            "closed-balls-are-spheres": {
                "verdict": closed_verdict,
                "status": "search evidence",
                "failures": len(closed_fail),
            },
            "open-balls-are-spheres": {
                "verdict": open_verdict,
                "failures": len(open_fail),
            },
        },
        witnesses=open_fail + closed_fail,
    )


# --- per-space theorem suite ----------------------------------------------------

def check_theorem_suite(
    space: FiniteUltrametricSpace, is_ut_hint: bool = False
) -> CampaignReport:
    """Run every structural invariant applicable to the space.

    Universal checks hold for all finite ultrametric spaces; the ut-*
    checks additionally assume the space is generated by a labeled tree
    (pass ``is_ut_hint=True`` only for such spaces). The closed-ball
    check is recorded as search evidence, never as a failure of the
    suite.
    """
    n = space.n
    diam = diameter(space)
    center = center_of_distances(space)
    spheres = _sphere_family(space)
    open_list = enumerate_balls(space, "open")
    open_balls = {b.members for b in open_list}
    closed_balls = _ball_family(space, "closed")
    results: dict = {}
    failures: list = []

    def record(name: str, ok: bool, note: str = "") -> None:
        results[name] = {"verdict": "PASS" if ok else "FAIL"}
        if note:
            results[name]["note"] = note
        if not ok:
            failures.append((name, note))

    record(
        "diameter-row-max",
        all(max(row) == len(space.values) - 1 for row in space.ranks)
        if n > 1
        else diam == 0,
    )
    record("center-contains-zero", ZERO in center)
    if n >= 2:
        record("center-contains-diameter", diam in center)
        b_center = center.values == (ZERO, diam)
        graph = diametrical_graph(space)
        try:
            parts = multipartite_parts(graph).parts
            b_singleton = any(len(p) == 1 for p in parts)
            record("complete-multipartite", True)
        except NotCompleteMultipartite as exc:  # would refute the input space
            record("complete-multipartite", False, str(exc))
            b_singleton = False
        b_star = spanning_star(graph) is not None
        # A spanning star forces the center to be exactly {0, diam} on any
        # finite space, and a star is the same thing as a singleton part;
        # the full three-way equivalence needs a tree-generated space (the
        # two-pairs-at-different-scales 4-point class breaks the converse).
        note = f"center-dichotomy={b_center} singleton-part={b_singleton} star={b_star}"
        record("star-iff-singleton-part", b_singleton == b_star, note)
        record("star-implies-center-dichotomy", (not b_star) or b_center, note)
        equi = is_equidistant(space) is not None
        record(
            "equidistance-equivalence",
            equi == (spheres == open_balls) == (spheres <= open_balls),
        )
    ok_irrelevance = True
    for b in open_list:
        for a in b.members:
            if ball(space, a, b.radius, "open").members != b.members:
                ok_irrelevance = False
    record("ball-center-irrelevance", ok_irrelevance)
    ok_relative = True
    for b in open_list:
        outer = is_centered_sphere(space, b.members) is not None
        inner = is_centered_sphere(restrict(space, b.members), b.members) is not None
        if outer != inner:
            ok_relative = False
    record("ball-relative-spheres", ok_relative)
    probe_radii = [v for v in distance_set(space).values if v > 0] + [diam + 1]
    record(
        "pointwise-greatest-below",
        all(
            pointwise_distance_set(space, p).greatest_below(r) is not None
            for p in space.points
            for r in probe_radii
        ),
    )
    record(
        "singletons-are-spheres",
        all(is_centered_sphere(space, [p]) is not None for p in space.points),
    )

    if is_ut_hint:
        if n >= 2:
            record("ut-center-dichotomy", center.values == (ZERO, diam))
            record(
                "ut-no-interior-center-value",
                all(not (0 < v < diam) for v in center.values),
            )
            record(
                "ut-star-equivalence",
                b_center == b_singleton == b_star,
                f"center-dichotomy={b_center} singleton-part={b_singleton} star={b_star}",
            )
            whole = is_centered_sphere(space, space.points)
            record(
                "ut-whole-space-sphere",
                whole is not None and whole.radius == diam,
            )
            record("ut-spanning-star", b_star)
        record("ut-open-balls-are-spheres", open_balls <= spheres)
        closed_ok = closed_balls <= spheres
        results["ut-closed-balls-are-spheres"] = {
            "verdict": "CONSISTENT" if closed_ok else "COUNTEREXAMPLE",
            "status": "search evidence",
        }

    verdict = "PASS" if not failures else "FAIL"
    witnesses = []
    if failures:
        name, note = failures[0]
        witnesses.append(_witness(f"first-failure:{name}", space, note))
    return CampaignReport(
        check="suite",
        n=n,
        instances=1,
        verdict=verdict,
        results=results,
        witnesses=witnesses,
    )


def _suite_row(dendro: Dendrogram) -> tuple[str, bool, Optional[str]]:
    space = dendrogram_to_space(dendro)
    report = check_theorem_suite(space, is_ut_hint=_has_leaf_children(dendro))
    first_fail = None
    if report.verdict != "PASS":
        first_fail = next(
            name for name, res in report.results.items() if res.get("verdict") == "FAIL"
        )
    return (dendro.key(), report.verdict == "PASS", first_fail)


def check_suite_enumerated(n: int, jobs: int = 1) -> CampaignReport:
    """Run the theorem suite over every class of cardinality n."""
    require_within("class enumeration", n, ENUMERATION_FENCE)
    classes = list(enumerate_dendrograms(n))
    rows = _parallel_map(_suite_row, classes, jobs)
    failures = [
        (dendro, key, fail) for dendro, (key, ok, fail) in zip(classes, rows) if not ok
    ]
    witnesses = []
    if failures:
        dendro, key, fail = failures[0]
        witnesses.append(_witness(key, dendrogram_to_space(dendro), f"failed {fail}"))
    return CampaignReport(
        check="suite",
        n=n,
        instances=len(classes),
        verdict="PASS" if not failures else "FAIL",
        results={
            "theorem-suite": {
                "verdict": "PASS" if not failures else "FAIL",
                "failing_classes": len(failures),
            }
        },
        witnesses=witnesses,
    )


# --- labeled-tree realizability -----------------------------------------------------

def is_ut(space: FiniteUltrametricSpace) -> Optional[LabeledTree]:
    """Find a labeled tree on exactly the space's points realizing it.

    Such a tree exists exactly when every internal node of the space's
    canonical dendrogram has at least one leaf child: when every ball of
    two or more points, split at its diameter, has a single-point block.
    The tree is built along the same splits. The lowest-index singleton
    block of each ball is its hub and takes the ball's diameter as its
    label; every other block hangs its own hub off it, and a singleton
    block is its own hub with label 0. Every path between two blocks of
    a ball then peaks at that ball's hub. Returns None when some ball has
    no singleton block. Runs in polynomial time, with no fence.
    """
    if not space.n:
        raise TooSmall("is_ut needs at least 1 point")
    labels = [ZERO] * space.n
    edges: list[tuple[int, int]] = []
    stack: list[tuple[list[int], Optional[int]]] = [(list(range(space.n)), None)]
    while stack:
        idxs, parent = stack.pop()
        hub = idxs[0]
        if len(idxs) > 1:
            diam, groups = _diameter_split(space, idxs)
            singles = [g[0] for g in groups if len(g) == 1]
            if not singles:
                return None
            hub = singles[0]
            labels[hub] = space.values[diam]
            stack.extend((g, hub) for g in groups if g != [hub])
        if parent is not None:
            edges.append((parent, hub))
    names = space.points
    return validate_tree(
        names,
        [(names[i], names[j]) for i, j in edges],
        dict(zip(names, labels)),
    )


# --- partition merging ---------------------------------------------------------------

def merge_parts(parts: Sequence[Iterable]) -> tuple[tuple, tuple]:
    """Fold a partition with k >= 2 blocks into two blocks whose smaller
    side is at least as large as the smallest input block.

    Blocks are assigned largest-first to the currently lighter side, so
    each side ends up holding at least one whole block.
    """
    blocks = [tuple(sorted(b, key=repr)) for b in parts]
    if len(blocks) < 2:
        raise FewerThanTwoBlocks(len(blocks))
    if any(not b for b in blocks):
        raise ValueError("partition blocks must be non-empty")
    blocks.sort(key=lambda b: (-len(b), b))
    side_a: list = []
    side_b: list = []
    for block in blocks:
        if len(side_a) <= len(side_b):
            side_a.extend(block)
        else:
            side_b.extend(block)
    first, second = sorted(
        (tuple(sorted(side_a, key=repr)), tuple(sorted(side_b, key=repr))),
        key=lambda side: (-len(side), side),
    )
    return (first, second)


# --- random labeled trees ---------------------------------------------------------------

def _prufer_to_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over 0..n-1 into a sorted edge list."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def random_labeled_tree(n: int, label_pool: Sequence, seed: int) -> LabeledTree:
    """Uniformly random tree shape with labels drawn from the pool.

    Degenerate edges (both endpoint labels zero) are repaired in a single
    deterministic pass by redrawing the lower endpoint from the positive
    pool values; repairs only ever raise labels, so the result is always
    non-degenerate. The pool must contain a positive value whenever
    n >= 2. Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pool = [Fraction(v) for v in label_pool]
    if not pool:
        raise EmptyPool()
    for v in pool:
        if v < 0:
            raise NegativeInput(v)
    positive = [v for v in pool if v > 0]
    if n >= 2 and not positive:
        raise EmptyPool("label pool needs a positive value for n >= 2")

    rng = random.Random(seed)
    names = [f"v{i + 1}" for i in range(n)]
    if n == 1:
        edges: list[tuple[int, int]] = []
    elif n == 2:
        edges = [(0, 1)]
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        edges = _prufer_to_edges(seq, n)

    labels = [rng.choice(pool) for _ in range(n)]
    for i, j in edges:
        if labels[i] == 0 and labels[j] == 0:
            labels[i] = rng.choice(positive)
    tree = validate_tree(
        names,
        [(names[i], names[j]) for i, j in edges],
        {names[i]: labels[i] for i in range(n)},
    )
    assert is_nondegenerate(tree)
    return tree
