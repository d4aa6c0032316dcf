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

import os
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .capacity import ENUMERATION_FENCE, require_within
from .errors import FewerThanTwoBlocks, NotCompleteMultipartite, TooSmall
from .formats import matrix_csv_string
from .metric import (
    Dendrogram,
    FiniteUltrametricSpace,
    _ball_sets,
    _merge_order,
    _rank_entries,
    _sphere_center,
    _sphere_sets,
    _split_table,
    center_of_distances,
    diameter,
    diametrical_graph,
    is_equidistant,
    multipartite_parts,
    spanning_star,
    weak_similarity,
)
from .tree import LabeledTree, distance_matrix, random_labeled_tree, validate_tree

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

    try:
        return list(rec(counts, None, []))
    finally:
        del rec  # it calls itself through its closure cell: a reference cycle


class _Subtrees:
    """The enumerator's interned subtrees, one entry per int id.

    Id 0 is the leaf. ``nodes[i]`` is (level, child id, ...), children in
    canonical order, and ``order[i]`` its sort key: (level, the children's
    keys, ...) for a node, and for the leaf a one-tuple after every
    node's. With one-digit levels, as under the enumeration fence, this
    is the order of the key strings of :meth:`Dendrogram.key`.

    Four values fold bottom-up. ``full[i]`` has bit L set when the nodes
    at level L cover every leaf of the subtree (none for a leaf; a node
    adds its own level to the AND of its children's), ``leafy[i]`` says
    every internal node has a leaf child, and ``size[i]`` counts the
    leaves. ``spheres[i]`` counts the distinct centered spheres of the
    subtree as a class: 1 for a leaf; for a node v with m leaf children,
    the children's sum plus size(v) − m, plus 1 if m > 0, because the
    sphere {c} ∪ (leaves(v) − leaves(k)) of a leaf c under the child k
    fixes v, and k and c too when k is internal, while every leaf child
    gives leaves(v).
    """

    def __init__(self):
        self.nodes: list = [(0,)]
        self.order: list = [(float("inf"),)]
        self.full: list = [0]
        self.leafy: list = [True]
        self.size: list = [1]
        self.spheres: list = [1]
        self.built: dict = {}  # id -> Dendrogram, for the ids asked for

    def dendrogram(self, nid: int) -> Dendrogram:
        """The subtree as a ``Dendrogram``; each id is built once."""
        dendro = self.built.get(nid)
        if dendro is None:
            level, *children = self.nodes[nid]
            dendro = self.built[nid] = Dendrogram(level, tuple(map(self.dendrogram, children)))
        return dendro


def _enumerate_ids(n: int, table: _Subtrees) -> Iterator[int]:
    """Stream the root id of every n-point class exactly once.

    Classes are built bottom-up: starting from n leaves, each step merges
    one or more groups (of at least two current roots) into new nodes at
    the next level. Every canonical dendrogram has a unique merge
    history, so the walk needs no deduplication. A forest is a tuple of
    ids in canonical order (see :class:`_Subtrees`), so forests hash and
    compare ints and equal subtrees sit side by side.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    require_within("class enumeration", n, ENUMERATION_FENCE)
    if n == 1:
        yield 0
        return

    nodes, order, full, leafy = table.nodes, table.order, table.full, table.leafy
    size, spheres = table.size, table.spheres
    ids: dict[tuple[int, ...], int] = {}
    plans: dict[tuple[int, ...], list] = {}  # partitions by multiplicities
    order_of = order.__getitem__

    def intern(node: tuple[int, ...]) -> int:
        nid = ids.get(node)
        if nid is None:
            nid = ids[node] = len(nodes)
            nodes.append(node)
            level, *children = node
            order.append((level, *map(order_of, children)))
            full.append(reduce(and_, map(full.__getitem__, children)) | 1 << level)
            m = children.count(0)  # leaf children
            leafy.append(m > 0 and all(map(leafy.__getitem__, children)))
            leaves = sum(map(size.__getitem__, children))
            size.append(leaves)
            spheres.append(sum(map(spheres.__getitem__, children)) + leaves - m + (m > 0))
        return nid

    def step(forest: tuple[int, ...], level: int) -> Iterator[int]:
        distinct = list(dict.fromkeys(forest))  # the forest is in order
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
                new_forest = tuple(sorted(kept + merged, key=order_of))
                if len(new_forest) == 1:
                    yield new_forest[0]
                else:
                    yield from step(new_forest, level + 1)

    try:
        yield from step((0,) * n, 1)
    finally:
        # ``step`` calls itself through its closure cell; breaking that
        # cycle frees ``ids``, ``plans`` and the closures when the walk
        # ends, not at the next cyclic garbage collection
        del step


def enumerate_dendrograms(n: int) -> Iterator[Dendrogram]:
    """Stream every weak-similarity class of n-point spaces exactly once,
    as canonical dendrograms in the order of :func:`_enumerate_ids`."""
    table = _Subtrees()
    for root in _enumerate_ids(n, table):
        yield table.dendrogram(root)


def dendrogram_to_space(dendro: Dendrogram) -> FiniteUltrametricSpace:
    """Realize the dendrogram: leaves x1..xn, distances = ancestor levels.

    Leaves are numbered in depth-first order, the merge order of
    :func:`~ultratree.metric._merge_order`, so the distance of any two
    leaves is the largest level between them. The space keeps that order.
    """
    leaves, levels = _merge_order(dendro)
    (gaps,), values = _rank_entries([levels])
    names = tuple(f"x{i + 1}" for i in range(len(leaves)))
    return FiniteUltrametricSpace._from_gaps(names, range(len(leaves)), gaps, values)


# --- campaign reports -------------------------------------------------------------

SCHEMA_VERSION = 1


class CampaignReport:
    """Outcome of one verification or search campaign.

    ``results`` maps a check name to its verdict plus tallies; witnesses
    carry replayable matrix CSV strings for extremal or failing instances.
    Reports compare by their fields; being mutable, they are not hashable.
    """

    def __init__(
        self,
        check: str,
        n: Optional[int],
        instances: int,
        verdict: str,
        results: Optional[dict] = None,
        witnesses: Optional[list] = None,
    ):
        self.check = check
        self.n = n
        self.instances = instances
        self.verdict = verdict
        self.results = {} if results is None else results
        self.witnesses = [] if witnesses is None else witnesses

    def __eq__(self, other):  # defining __eq__ alone also sets __hash__ to None
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

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
    processes but the fold order (hence every output byte) is unchanged.
    A pool forks all its workers up front, so it gets no more of them
    than there are CPUs or items."""
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _center_size(full: int) -> int:
    """|center of distances| of a class from its root's ``full`` mask: 0
    and every level whose nodes hold all the leaves (see :class:`_Subtrees`)."""
    return 1 + full.bit_count()


def check_con3(n: int) -> CampaignReport:
    """Probe the binary-log bound on the center size over all n-point classes.

    Reports the maximum |center| over every weak-similarity class of
    cardinality n, the first class attaining it as the witness, and
    whether the bound 1 + floor(log2 n) holds. The sizes fold over the
    enumerator's per-subtree masks, so the only class built as a
    dendrogram is the witness.
    """
    table = _Subtrees()
    instances = max_size = best = 0
    for root in _enumerate_ids(n, table):
        instances += 1
        size = _center_size(table.full[root])
        if size > max_size:
            max_size, best = size, root
    bound = 1 + (n.bit_length() - 1)
    verdict = "CONSISTENT" if max_size <= bound else "COUNTEREXAMPLE"
    witness = table.dendrogram(best)
    return CampaignReport(
        check="con3",
        n=n,
        instances=instances,
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
                witness.key(),
                dendrogram_to_space(witness),
                f"center size {max_size} (bound {bound})",
            )
        ],
    )


def _reference_three_point_space() -> FiniteUltrametricSpace:
    """The non-equidistant three-point shape: one short side, two long."""
    one, two = Fraction(1), Fraction(2)
    return FiniteUltrametricSpace.from_trusted_matrix(
        ("x1", "x2", "x3"),
        ((ZERO, two, one), (two, ZERO, two), (one, two, ZERO)),
    )


def _all_subsets_spheres(n: int, spheres: int) -> bool:
    """Whether every non-empty subset of an n-point class is a centered
    sphere: the count of its distinct spheres is that of its subsets."""
    return spheres == (1 << n) - 1


def check_hol(n: int) -> CampaignReport:
    """Search for classes where every non-empty subset is a centered sphere.

    At n = 3 exactly one such class should exist (the one-short-side
    triple); for n > 3 the expectation is none. Any other outcome is
    reported as a counterexample with a replayable witness. A class's
    sphere count is a lookup in the enumerator's table (see
    :class:`_Subtrees`), so only the satisfying classes are built.
    """
    if n < 3:
        raise TooSmall("the all-subsets-spheres campaign needs n >= 3")
    table = _Subtrees()
    instances = 0
    satisfying = []
    for root in _enumerate_ids(n, table):
        instances += 1
        if _all_subsets_spheres(n, table.spheres[root]):
            satisfying.append(table.dendrogram(root))
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
        instances=instances,
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


def _sphere_family(space: FiniteUltrametricSpace) -> set[frozenset[int]]:
    return set(_sphere_sets(space))


def _ball_family(space: FiniteUltrametricSpace) -> set[frozenset[int]]:
    # every open ball is a closed ball and back: one family of index sets
    return set(_ball_sets(space))


def check_closed_balls(
    source: str,
    *,
    n: Optional[int] = None,
    count: int = 100,
    n_min: int = 2,
    n_max: int = 12,
    pool: Sequence = (0, 1, 2, 3),
    seed: int = 0,
) -> CampaignReport:
    """Verify on tree-generated spaces that closed balls are centered spheres.

    ``source`` is "enumerated" (all classes of cardinality ``n`` that are
    realizable by a labeled tree) or "random-trees" (``count`` random
    non-degenerate labeled trees with sizes in [n_min, n_max], seeded).
    On a finite space the closed balls are the open balls (the closed ball
    of radius ``values[c - 1]`` is the open ball of radius ``values[c]``),
    so each space's one ball family is checked against its spheres once.
    The verdict is reported twice: for open balls, the established half,
    and for closed balls, as search evidence, not asserted.
    """
    instances: list[tuple[str, FiniteUltrametricSpace]] = []
    if source == "enumerated":
        if n is None:
            raise ValueError("source='enumerated' needs n")
        table = _Subtrees()
        for pos, root in enumerate(_enumerate_ids(n, table)):
            if table.leafy[root]:
                dendro = table.dendrogram(root)
                instances.append((f"class-{pos}:{dendro.key()}", dendrogram_to_space(dendro)))
    elif source == "random-trees":
        rng = random.Random(seed)
        for i in range(count):
            size = rng.randint(n_min, n_max)
            tree = random_labeled_tree(size, pool, seed=rng.randrange(2**32))
            instances.append((f"tree-{i}(n={size})", distance_matrix(tree)))
    else:
        raise ValueError("source must be 'enumerated' or 'random-trees'")

    failed = [
        (label, space)
        for label, space in instances
        if not _ball_family(space) <= _sphere_family(space)
    ]
    return CampaignReport(
        check="closed-balls",
        n=n,
        instances=len(instances),
        verdict="FAIL" if failed else "CONSISTENT",
        results={
            "closed-balls-are-spheres": {
                "verdict": "COUNTEREXAMPLE" if failed else "CONSISTENT",
                "status": "search evidence",
                "failures": len(failed),
            },
            "open-balls-are-spheres": {
                "verdict": "FAIL" if failed else "PASS",
                "failures": len(failed),
            },
        },
        witnesses=[
            _witness(label, space, f"{kind} ball is not a sphere")
            for kind in ("open", "closed")
            for label, space in failed
        ],
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
    suite. ``center-contains-zero`` and ``pointwise-greatest-below``
    cannot fail: every space has rank 0 on its diagonal, which is all
    they test. They stay so that the report keeps its format.
    """
    n = space.n
    everyone = range(n)
    diam = diameter(space)
    center = center_of_distances(space)
    spheres = set(_sphere_sets(space))
    ball_cuts = _ball_sets(space)
    # every open ball is a closed ball and back: the same index sets
    balls = set(ball_cuts)
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
            equi == (spheres == balls) == (spheres <= balls),
        )
    record(
        "ball-center-irrelevance",
        all(
            {j for j, r in enumerate(space.ranks[a]) if r < cut} == members
            for members, (_, cut) in ball_cuts.items()
            for a in members
        ),
    )
    record(
        "ball-relative-spheres",
        all(
            (_sphere_center(space, idxs, everyone) is None)
            == (_sphere_center(space, idxs, idxs) is None)
            for idxs in map(sorted, ball_cuts)
        ),
    )
    # the probe radii are the rank cuts 1..len(values), the last above the
    # diameter: a distance below every cut is one below the first
    record("pointwise-greatest-below", all(min(row) < 1 for row in space.ranks))
    record(
        "singletons-are-spheres",
        all(_sphere_center(space, [i], everyone) is not None for i in everyone),
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
                note,
            )
            whole = _sphere_center(space, everyone, everyone)
            record(
                "ut-whole-space-sphere",
                whole is not None and space.values[whole[1]] == diam,
            )
            record("ut-spanning-star", b_star)
        record("ut-open-balls-are-spheres", balls <= spheres)
        results["ut-closed-balls-are-spheres"] = {
            "verdict": "CONSISTENT" if balls <= spheres else "COUNTEREXAMPLE",
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


def _suite_row(item: tuple[Dendrogram, bool]) -> tuple[str, bool, Optional[str]]:
    dendro, realizable = item
    space = dendrogram_to_space(dendro)
    report = check_theorem_suite(space, is_ut_hint=realizable)
    first_fail = None
    if report.verdict != "PASS":
        first_fail = next(
            name for name, res in report.results.items() if res.get("verdict") == "FAIL"
        )
    return (dendro.key(), report.verdict == "PASS", first_fail)


def check_suite_enumerated(n: int, jobs: int = 1) -> CampaignReport:
    """Run the theorem suite over every class of cardinality n."""
    table = _Subtrees()
    classes = [(table.dendrogram(root), table.leafy[root]) for root in _enumerate_ids(n, table)]
    rows = _parallel_map(_suite_row, classes, jobs)
    failures = [
        (dendro, key, fail) for (dendro, _), (key, ok, fail) in zip(classes, rows) if not ok
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
    The tree is built along the same splits, read bottom-up from
    :func:`~ultratree.metric._split_table` (the space's merge order). The
    first single-point block of each ball (its lowest-index singleton) is
    its hub and takes the ball's diameter as its label; every other block
    hangs its own hub off it, and a singleton block is its own hub with
    label 0. Every path between two blocks of a ball then peaks at that
    ball's hub. Returns None when some ball has no singleton block. Runs
    in polynomial time, with no fence. An unvalidated matrix that is not
    ultrametric raises StrongTriangleViolation naming a violating triple.
    """
    if not space.n:
        raise TooSmall("is_ut needs at least 1 point")
    levels, children = _split_table(space)
    labels = [ZERO] * space.n
    edges: list[tuple[int, int]] = []
    hubs = list(range(space.n))  # a single point is its own hub
    for level, blocks in zip(levels[space.n :], children[space.n :]):  # blocks come first
        hub = next((c for c in blocks if c < space.n), None)  # the least single point
        if hub is None:
            return None
        hubs.append(hub)
        labels[hub] = space.values[level]
        edges.extend((hub, hubs[c]) for c in blocks if c != hub)
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
