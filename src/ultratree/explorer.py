"""Exhaustive exploration of finite ultrametric spaces at desk scale.

A leveled dendrogram (internal levels 1..k, all occupied, leaves at 0;
distance = level of the lowest common ancestor) canonically represents a
finite ultrametric space up to order-preserving rescaling of its distance
set. Enumerating canonical dendrograms therefore enumerates those
equivalence classes exactly once. On top of that sit verification
campaigns for the structural theorems and searches probing the open
questions (center-size bound, all-subsets-spheres, closed balls). One
memoized fold over the walk's forest states drives every walk: the
enumeration is its walk under a gain of zero, and the last three read
its best gain and walk only the classes that attain it.

The theorem suite, per space and over every class with its process
pool, is :mod:`ultratree.suite`, and whether a space is generated by a
labeled tree (``is_ut``) is decided by the tree layer,
:mod:`ultratree.tree`. Their names still resolve here, each loading its
module on first use, so no other campaign loads either. The file
formats and the rank-row analyses (:mod:`ultratree.rankrows`) are
imported only where they are used (witness CSVs and the closed-ball
families), and so is the canonical dendrogram
(:mod:`ultratree.dendrogram`): a witness's label is read off the
enumerator's table, and ``hol`` loads it only to compare a satisfying
class with its reference. So a campaign loads none of them unless it
needs it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .capacity import ENUMERATION_FENCE, FOLD_FENCE, require_within
from .errors import FewerThanTwoBlocks, TooSmall
from .metric import FiniteUltrametricSpace, _merge_order

if TYPE_CHECKING:
    from .dendrogram import Dendrogram

# names defined elsewhere that are still found here, but only on first use
# (PEP 562), so that no campaign loads their modules to get them: `is_ut`
# belongs to the tree layer, the rest to the theorem suite
_MOVED = {
    "is_ut": "tree",
    **dict.fromkeys(
        ("_parallel_map", "_suite_row", "check_suite_enumerated", "check_theorem_suite"),
        "suite",
    ),
}


def __getattr__(name: str):
    module = _MOVED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __package__), name)


# --- dendrograms ---------------------------------------------------------------

def _partitions_ge2(counts: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of a multiset into parts of two or more elements.

    The multiset is given by its multiplicities (element i occurs
    ``counts[i]`` times); each part is its sorted element sequence. Every
    partition is listed once, as its non-increasing part sequence.
    """
    return list(_partitions_below(counts, None, []))


def _partitions_below(remaining: tuple[int, ...], bound, acc: list) -> Iterator[tuple]:
    """The partitions of ``remaining`` into parts no greater than ``bound``
    (None: any), each yielded after the parts ``acc`` holds."""
    if not any(remaining):
        yield tuple(acc)
        return
    for part in product(*[range(r + 1) for r in remaining]):
        if sum(part) < 2:
            continue
        elements = tuple(i for i, t in enumerate(part) for _ in range(t))
        if bound is not None and elements > bound:
            continue
        acc.append(elements)
        yield from _partitions_below(tuple(r - t for r, t in zip(remaining, part)), elements, acc)
        acc.pop()


def _merge_steps(counts: tuple[int, ...], leaf_last: bool, partitions: dict) -> list[tuple]:
    """Every way to merge a forest one level up, for the forest's shape.

    The forest is its distinct roots in canonical order, ``counts[i]``
    copies of the i-th; ``leaf_last`` says the last of them is the leaf.
    Each step keeps some copies and partitions the rest into groups of
    two or more, which become the new nodes. A step is ``(kept, parts,
    shape)``: the indices of the kept roots other than the leaf, the
    distinct parts in the partition's order as indices into the roots,
    and the new forest's ``(counts, leaf_last)``, or None when the step
    leaves a single root. Steps are listed by kept copies, then partition.
    ``partitions`` memoizes :func:`_partitions_ge2` by multiplicities.
    """
    steps = []
    for passive in product(*[range(c + 1) for c in counts]):
        active = tuple(c - p for c, p in zip(counts, passive))
        if sum(active) < 2:
            continue
        leaves = passive[-1] if leaf_last else 0
        kept = tuple(i for i, p in enumerate(passive[:-1] if leaf_last else passive) if p)
        head = tuple(passive[i] for i in kept)
        tail = (leaves,) if leaves else ()
        plans = partitions.get(active)
        if plans is None:
            plans = partitions[active] = _partitions_ge2(active)
        for plan in plans:
            if len(plan) == 1 and not any(passive):
                steps.append((kept, plan, None))
                continue
            parts = tuple(dict.fromkeys(plan))
            merged = tuple(map(plan.count, reversed(parts)))
            steps.append((kept, parts, (head + merged + tail, leaves > 0)))
    return steps


class _Subtrees:
    """The enumerator's interned subtrees, one entry per int id.

    Id 0 is the leaf. ``nodes[i]`` is (level, child id, ...), children in
    canonical order, the walk's: a node sorts by level number, then by its
    children in that order, and the leaf after every node. The walk keeps
    its forests in that order as it builds them and stores no sort key.
    :func:`~ultratree.dendrogram._canonical_form` interns a space's balls
    into a fresh table in the same order, so that there the ids follow it
    too and the table is the space's canonical dendrogram.

    Only proper subtrees are interned, each once by :meth:`intern`. A
    class root covers every leaf, so it is no other node's child: the
    walk hands it to its campaign as its node tuple, ``(0,)`` for the
    one-point class. ``key``, ``dendrogram``, ``levels`` and ``space``
    take a node tuple too. One value folds bottom-up, for an interned node
    and a root alike: ``leafy[i]`` says every internal node of the subtree
    has a leaf child (:meth:`fold_leafy`), that is, a labeled tree
    realizes it. Only the theorem suite reads it, as its hint; the
    closed-ball campaign walks the realizable classes alone.
    """

    def __init__(self):
        self.nodes: list = [(0,)]
        self.leafy: list = [True]
        self.ids: dict = {}  # node tuple -> id
        self.built: list = []  # id -> Dendrogram, for the ids built so far
        self.keys: list = []  # id -> Dendrogram.key(), for the ids keyed so far

    def intern(self, node: tuple[int, ...]) -> int:
        nid = self.ids.get(node)
        if nid is None:
            nid = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
            self.leafy.append(self.fold_leafy(node))
        return nid

    # a plain loop: over two or three children it beats all() of a map
    def fold_leafy(self, node: tuple[int, ...]) -> bool:
        if 0 not in node[1:]:
            return len(node) == 1  # the leaf, or a node with no leaf child
        leafy = self.leafy
        for c in node[1:]:
            if not leafy[c]:
                return False
        return True

    def walk(self, roots: list, state: tuple, level: int, memo: dict, first: int = 0) -> Iterator:
        """Stream ``(position, root)`` for every class built from the forest
        ``roots`` (its distinct roots, in canonical order) by the steps
        ``memo[state]`` keeps (see :func:`_fold`), interning the subtrees on
        the way; the position counts the classes of the full walk before
        it, ``first`` of them before the forest. Every old node is below the
        new level, so the new forest is the kept nodes, the new nodes
        (listed in non-increasing order) reversed, then the leaf."""
        root_at = roots.__getitem__
        intern = self.intern
        for kept, parts, after, before in memo[state][2]:
            if after is None:  # the class root: one part, nothing kept
                yield first + before, (level, *map(root_at, parts[0]))
                continue
            merged = [intern((level, *map(root_at, part))) for part in parts]
            forest = [*map(root_at, kept), *reversed(merged)]
            if after[1]:
                forest.append(0)
            yield from self.walk(forest, after, level + 1, memo, first + before)

    def key(self, node: tuple[int, ...]) -> str:
        """The subtree's :meth:`Dendrogram.key`, read off the table. As in
        :meth:`dendrogram`, the ids not keyed yet are keyed in id order,
        each once, without recursion."""
        keys = self.keys
        for level, *children in [*self.nodes[len(keys):], node]:
            keys.append(
                "(%d:%s)" % (level, ",".join(map(keys.__getitem__, children))) if children else "L"
            )
        return keys.pop()  # the node itself, which may be a root

    def dendrogram(self, node: tuple[int, ...]) -> Dendrogram:
        """The subtree as a ``Dendrogram``. A node is interned after its
        children, so the ids not built yet are built in id order, each once,
        without recursion."""
        from .dendrogram import Dendrogram

        built = self.built
        for level, *children in [*self.nodes[len(built):], node]:
            built.append(Dendrogram(level, tuple(map(built.__getitem__, children))))
        return built.pop()  # the node itself, which may be a root

    def levels(self, node: tuple[int, ...]) -> list[int]:
        """The levels between neighbours in the subtree's merge order (see
        :func:`~ultratree.metric._merge_order`), read off the table."""
        nodes = self.nodes
        return _merge_order(node, lambda v: (v[0], [*map(nodes.__getitem__, v[1:])]))[1]

    def space(self, node: tuple[int, ...]) -> FiniteUltrametricSpace:
        """The subtree realized as :func:`dendrogram_to_space` realizes its
        ``Dendrogram``, read off the table without building one."""
        return _space_of_merge_order(self.levels(node))


def _fold(state: tuple, gain: Callable, memo: dict, partitions: dict) -> tuple:
    """Fold the classes built from ``state`` into ``memo[state]``, returned:
    their count, their best gain and the steps that attain it, each
    ``(kept, parts, after, before)``: ``kept`` and ``parts`` as
    :func:`_merge_steps` lists them, the next state (None for the class
    root), and how many classes the state's earlier steps build, attaining or not."""
    counts, leaf_last, sizes = state
    leaf = len(counts) - 1 if leaf_last else -1
    count, scored = 0, []
    for kept, parts, shape in _merge_steps(counts, leaf_last, partitions):
        part_sizes = [sum(map(sizes.__getitem__, part)) for part in parts]
        if shape is None:
            after, copies, below, best = None, (1,), 1, 0
        else:
            copies = shape[0][len(kept):len(kept) + len(parts)][::-1]
            kept_sizes = tuple(map(sizes.__getitem__, kept))
            after = (*shape, kept_sizes + tuple(reversed(part_sizes)) + (1,) * shape[1])
            below, best, _ = memo.get(after) or _fold(after, gain, memo, partitions)
        new = [(c, size, part.count(leaf)) for c, size, part in zip(copies, part_sizes, parts)]
        fresh = not (kept or shape and shape[1])  # no old root, no leaf kept
        scored.append((gain(fresh, new) + best, (kept, parts, after, count)))
        count += below
    top = max(score for score, _ in scored)
    memo[state] = folded = (count, top, [move for score, move in scored if score == top])
    return folded


def _best_classes(n: int, gain: Callable, table: _Subtrees, fence: int = FOLD_FENCE) -> tuple:
    """The n-point class count, the best gain of a class, and a walk (in
    ``table``, see :meth:`_Subtrees.walk`) over the classes that attain it.

    Classes are built bottom-up: from n leaves, each step merges one or
    more groups (of two or more current roots) into new nodes at the next
    level. Every canonical dendrogram has a unique merge history, so the
    walk needs no deduplication. A forest is held as its distinct roots
    and its state: the copies of each, whether the last is the leaf, and
    each one's leaf count. The state fixes the steps and the classes
    below, so :func:`_fold` folds each state once. A class's gain sums
    ``gain(fresh, new)`` over its steps: ``fresh`` says the step keeps no
    old root and no leaf, and ``new`` lists ``(copies, leaves, leaf
    children)`` per distinct new node. ``n`` above ``fence`` (as
    ``ULTRATREE_MAX_N`` may lower it) raises TooLarge.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    require_within("class enumeration", n, fence)
    if n == 1:
        return 1, 0, iter([(0, (0,))])
    start, memo = ((n,), True, (1,)), {}
    count, best, _ = _fold(start, gain, memo, {})
    return count, best, table.walk([0], start, 1, memo)


def _zero_gain(fresh: bool, new: list) -> int:
    return 0


def _enumerate_ids(n: int, table: _Subtrees, fence: int = ENUMERATION_FENCE) -> Iterator[tuple]:
    """Stream the root of every n-point class exactly once, as its node
    tuple (level, child id, ...); the children are interned in ``table``.
    It is the walk of :func:`_best_classes` under a gain of zero, which
    every class attains."""
    for _, root in _best_classes(n, _zero_gain, table, fence)[2]:
        yield root


def enumerate_dendrograms(n: int) -> Iterator[Dendrogram]:
    """Stream every weak-similarity class of n-point spaces exactly once,
    as canonical dendrograms in the order of :func:`_enumerate_ids`."""
    table = _Subtrees()
    for root in _enumerate_ids(n, table, ENUMERATION_FENCE):
        yield table.dendrogram(root)


def dendrogram_to_space(dendro: Dendrogram) -> FiniteUltrametricSpace:
    """Realize the dendrogram: leaves x1..xn, distances = ancestor levels.

    Leaves are numbered in depth-first order, the merge order of
    :func:`~ultratree.metric._merge_order`, so the distance of any two
    leaves is the largest level between them. The space keeps that order.
    """
    return _space_of_merge_order(_merge_order(dendro)[1])


def _space_of_merge_order(levels: list[int]) -> FiniteUltrametricSpace:
    """The points x1, x2, ... in merge order, ``levels`` between neighbours;
    the distance set is the levels used, ranked."""
    used = sorted({0, *levels})
    rank = {level: r for r, level in enumerate(used)}
    names = tuple(f"x{i + 1}" for i in range(len(levels) + 1))
    # from a list, at its size: a tuple of a map is made with ten slots and
    # shrunk, and a suite's worth of shrunk tuples fills the free lists
    values = tuple([Fraction(level) for level in used])
    return FiniteUltrametricSpace._from_gaps(
        names, range(len(names)), [rank[g] for g in levels], values
    )


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
        n: int,
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
    from .formats import matrix_csv_string

    return {"label": label, "matrix_csv": matrix_csv_string(space), "note": note}


def _center_size(full_levels: int) -> int:
    """|center of distances| of a class from its count of full levels: 0
    and every level whose nodes hold all the leaves."""
    return 1 + full_levels


def check_con3(n: int) -> CampaignReport:
    """Probe the binary-log bound on the center size over all n-point classes.

    Reports the maximum |center| over every weak-similarity class of
    cardinality n, the first class attaining it as the witness, and
    whether the bound 1 + floor(log2 n) holds. A level is in the center
    when its merge step keeps no old root and no leaf (the class root's
    always does), so the maximum folds over forest states; only the
    witness's path is interned, and no class is built as a dendrogram.
    """
    table = _Subtrees()
    instances, full_levels, best = _best_classes(n, lambda fresh, new: fresh, table, FOLD_FENCE)
    max_size = _center_size(full_levels)
    _, witness = next(best)
    bound = 1 + (n.bit_length() - 1)
    verdict = "CONSISTENT" if max_size <= bound else "COUNTEREXAMPLE"
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
                table.key(witness),
                table.space(witness),
                f"center size {max_size} (bound {bound})",
            )
        ],
    )


def _reference_three_point_space() -> FiniteUltrametricSpace:
    """The non-equidistant three-point shape: one short side, two long."""
    return FiniteUltrametricSpace.from_trusted_matrix(
        ("x1", "x2", "x3"), ((0, 2, 1), (2, 0, 2), (1, 2, 0))
    )


def _all_subsets_spheres(n: int, spheres: int) -> bool:
    """Whether every non-empty subset of an n-point class is a centered
    sphere: the count of its distinct spheres is that of its subsets."""
    return spheres == (1 << n) - 1


def _new_spheres(fresh: bool, new: list) -> int:
    # a node v with m leaf children adds size(v) - m spheres, plus 1 if m > 0:
    # the sphere {c} | (leaves(v) - leaves(k)) of a leaf c under the child k
    # fixes v, and k and c too when k is internal; each leaf child gives leaves(v)
    return sum(copies * (size - m + (m > 0)) for copies, size, m in new)


def check_hol(n: int) -> CampaignReport:
    """Search for classes where every non-empty subset is a centered sphere.

    At n = 3 exactly one such class should exist (the one-short-side
    triple); for n > 3 the expectation is none. Any other outcome is
    reported as a counterexample with a replayable witness. A class's
    sphere count is n plus what each internal node adds, so the maximum
    folds over forest states; only when it reaches 2^n - 1 are the classes
    that attain it walked and compared with the reference.
    """
    if n < 3:
        raise TooSmall("the all-subsets-spheres campaign needs n >= 3")
    table = _Subtrees()
    instances, best, attaining = _best_classes(n, _new_spheres, table, FOLD_FENCE)
    satisfying = [root for _, root in attaining] if _all_subsets_spheres(n, n + best) else []
    similar_to_reference = []
    if satisfying:
        from .dendrogram import weak_similarity

        reference = _reference_three_point_space()
        similar_to_reference = [
            weak_similarity(table.space(root), reference) is not None for root in satisfying
        ]
    witnesses = [
        _witness(
            table.key(root),
            table.space(root),
            "all subsets are centered spheres"
            + ("; weakly similar to the 3-point reference" if similar else ""),
        )
        for root, similar in zip(satisfying, similar_to_reference)
    ]
    # the one satisfying class at n = 3 is the reference's
    consistent = similar_to_reference == [True] if n == 3 else not satisfying
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
    from .rankrows import _sphere_sets

    return set(_sphere_sets(space))


def _ball_family(space: FiniteUltrametricSpace) -> set[frozenset[int]]:
    from .rankrows import _ball_sets

    # every open ball is a closed ball and back: one family of index sets
    return set(_ball_sets(space))


def _realizable_step(fresh: bool, new: list) -> int:
    # 0 when every new node has a leaf child, else -1: a class gains 0, the
    # best, iff a labeled tree realizes it
    return all(m for _, _, m in new) - 1


def check_closed_balls(n: int) -> CampaignReport:
    """Verify on tree-generated spaces that closed balls are centered spheres.

    The spaces are the n-point classes that a labeled tree realizes, the
    only ones the walk under :func:`_realizable_step` yields, each checked
    as it is yielded and a failure labelled by its position among all
    classes. On a finite space the closed balls are the open balls (the
    closed ball of radius ``values[c - 1]`` is the open ball of radius
    ``values[c]``), so each space's one ball family is checked against its
    spheres once. The verdict is reported twice: for open balls, the
    established half, and for closed balls, as search evidence, not asserted.
    """
    table = _Subtrees()
    checked = 0
    failed = []
    for pos, root in _best_classes(n, _realizable_step, table, FOLD_FENCE)[2]:
        checked += 1
        space = table.space(root)
        if not _ball_family(space) <= _sphere_family(space):
            failed.append((f"class-{pos}:{table.key(root)}", space))
    return CampaignReport(
        check="closed-balls",
        n=n,
        instances=checked,
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
