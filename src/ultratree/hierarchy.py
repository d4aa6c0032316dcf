"""Matrix validation and the canonical dendrogram of a space.

Validation checks a matrix and lists its merge order by Prim's algorithm
(:func:`_check_strong_triangle`). The diameter splits read off a merge
order (:func:`_split_table`) give the canonical dendrogram, the form of a
space up to weak similarity. Every dendrogram's own merge order is one
depth-first walk (:func:`_merge_order`).

The matrix readers, the p-adic sampler, ``is_ut``, the campaigns and a
space with no merge order load this module; the tree verbs that read
their hierarchy off Kruskal's order (:mod:`ultratree.metric`) do not.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .errors import (
    DuplicatePoint,
    NonpositiveOffDiagonal,
    NotSymmetric,
    NonzeroDiagonal,
    StrongTriangleViolation,
    TooSmall,
)
from .metric import ZERO, FiniteUltrametricSpace, _rank_entries, _Record


def validate_ultrametric(
    points: Sequence[str], matrix: Sequence[Sequence[Fraction]]
) -> FiniteUltrametricSpace:
    """Fully check a square matrix and freeze it into a space.

    Checks that point names are distinct, symmetry, a zero diagonal,
    positive off-diagonal entries, and the strong triangle inequality
    (every triangle must attain its maximum side at least twice). The
    raised error names the repeated point, or the violating pair or
    triple. Runs in O(n²): the strong triangle inequality is checked
    against a minimum spanning tree (see :func:`_check_strong_triangle`),
    and the space keeps the merge order that check lists.
    """
    names = tuple(str(p) for p in points)
    n = len(names)
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicatePoint(name)
        seen.add(name)
    ranks, values = _rank_entries([tuple(row) for row in matrix])
    if len(ranks) != n or any(len(row) != n for row in ranks):
        raise NotSymmetric(("<shape>", "<shape>"))
    _check_entries(names, ranks, values)
    space = FiniteUltrametricSpace(names, ranks, values)
    space.__dict__["_gap_form"] = (*_check_strong_triangle(names, ranks), values)
    return space


def _check_entries(names: tuple[str, ...], ranks, values: Sequence[Fraction]) -> None:
    """Raise NonzeroDiagonal, NotSymmetric or NonpositiveOffDiagonal for the
    first faulty point or pair in row order, unless the square rank matrix
    has a zero diagonal and positive, symmetric entries off it."""
    n = len(ranks)
    positive = bisect_right(values, ZERO)  # ranks >= this are positive values
    for i in range(n):
        row_i = ranks[i]
        if values[row_i[i]] != 0:
            raise NonzeroDiagonal(names[i])
        for j in range(i + 1, n):
            r = row_i[j]
            if r != ranks[j][i]:
                raise NotSymmetric((names[i], names[j]))
            if r < positive:
                raise NonpositiveOffDiagonal((names[i], names[j]))


def _check_strong_triangle(names: tuple[str, ...], ranks) -> tuple[list[int], list[int]]:
    """Prim's order of the points of a rank matrix that passed
    :func:`_check_entries` and the rank at which each later point joins, a
    merge order; raises StrongTriangleViolation unless the matrix is
    ultrametric.

    A metric is ultrametric exactly when it equals its subdominant
    ultrametric, the largest edge on the minimum-spanning-tree path
    (Gower & Ross 1969). Prim's algorithm adds each vertex v by its
    shortest edge (p, v) to the tree so far, and the tree path from v to
    any earlier vertex x runs through p. So, in order of addition, every
    d(v, x) must equal max(d(p, x), d(p, v)), d(p, x) being checked
    already. A mismatch makes {p, v, x} a violating triangle: either
    d(v, x) is above both other sides, or d(p, x) is above both, because
    d(v, x) >= d(p, v) by the choice of v. The triple is reported with its
    unique longest side first.

    Prim's order lists every closed ball as one run (the edges out of a
    ball are longer than those inside), so the distance between
    ``order[i]`` and ``order[j]`` (i < j) is ``max(gaps[i:j])``.
    """
    n = len(ranks)
    if not n:
        return [], []
    best = list(ranks[0])  # shortest edge from the tree to each vertex
    parent = [0] * n
    inside = [0]
    gaps = []
    outside = list(range(1, n))
    while outside:
        v = min(outside, key=best.__getitem__)
        outside.remove(v)
        p = parent[v]
        w = best[v]
        row_v = ranks[v]
        row_p = ranks[p]
        for x in inside:
            through_p = row_p[x] if row_p[x] > w else w
            if row_v[x] != through_p:
                if row_v[x] > through_p:
                    a, b, c = min(v, x), max(v, x), p
                else:
                    a, b, c = min(p, x), max(p, x), v
                raise StrongTriangleViolation((names[a], names[b], names[c]))
        inside.append(v)
        gaps.append(w)
        for x in outside:
            if row_v[x] < best[x]:
                best[x] = row_v[x]
                parent[x] = v
    return inside, gaps


# --- canonical dendrograms ------------------------------------------------------

class Dendrogram(_Record):
    """A rooted leveled hierarchy: leaves at level 0, internal nodes at
    strictly decreasing positive levels, every internal node with at
    least two children. Children are kept sorted by canonical key."""

    __slots__ = ("level", "children", "__dict__")
    level: int
    children: tuple["Dendrogram", ...]

    def __init__(self, level, children=()):
        if level == 0:
            if children:
                raise ValueError("a leaf cannot have children")
        else:
            if len(children) < 2:
                raise ValueError("an internal node needs at least 2 children")
            for child in children:
                if child.level >= level:
                    raise ValueError("levels must strictly decrease downward")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "children", children)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def leaf_count(self) -> int:
        return len(_merge_order(self)[0])

    def levels_used(self) -> frozenset[int]:
        # an internal node has two children or more, so its level is a gap
        return frozenset(_merge_order(self)[1])

    def key(self) -> str:
        """Canonical string encoding; equal keys mean the same class.

        Computed without recursion, so chains of any depth work, and
        cached on every node it visits (in the instance dict, outside the
        fields, so equality and hashing are unaffected).
        """
        stack = [(self, False)]
        while stack:
            node, children_done = stack.pop()
            if "_key" in node.__dict__:
                continue
            if node.is_leaf:
                node.__dict__["_key"] = "L"
            elif children_done:
                node.__dict__["_key"] = "(%d:%s)" % (
                    node.level,
                    ",".join(c.__dict__["_key"] for c in node.children),
                )
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children)
        return self.__dict__["_key"]

    def is_canonical(self) -> bool:
        """Levels used are exactly 1..root level and children are sorted."""
        if self.is_leaf:
            return True
        if self.levels_used() != frozenset(range(1, self.level + 1)):
            return False
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            keys = [c.key() for c in node.children]
            if keys != sorted(keys):
                return False
            stack.extend(node.children)
        return True


def _merge_order(
    root, split: Callable = attrgetter("level", "children")
) -> tuple[list, list[int]]:
    """The leaves under ``root`` in depth-first child order, and the level
    between each two neighbouring leaves: the dendrogram's merge order.

    ``split(node)`` gives the node's level and its children, none for a
    leaf; the default reads a :class:`Dendrogram`. Two neighbouring leaves
    part at the node where one child's leaves end and the next child's
    begin, so the distance of any two leaves is the largest level between
    them. Walked without recursion, so chains of any depth work.
    """
    leaves: list = []
    gaps: list[int] = []
    stack = [(root, 0)]  # a node and the level between it and the leaf before it
    while stack:
        node, gap = stack.pop()
        level, children = split(node)
        if children:
            stack.extend((child, level) for child in reversed(children[1:]))
            stack.append((children[0], gap))
        else:
            leaves.append(node)
            gaps.append(gap)
    return leaves, gaps[1:]


def space_to_dendrogram(space: FiniteUltrametricSpace) -> Dendrogram:
    """Canonical dendrogram of a space: split recursively at the diameter.

    Node levels are the global ranks of the sub-diameters, so two spaces
    are weakly similar exactly when their canonical dendrograms are equal.
    """
    if not space.n:
        raise TooSmall("space_to_dendrogram needs at least 1 point")
    return _canonical_form(space)[0]


def _split_table(space: FiniteUltrametricSpace) -> tuple[list[int], list]:
    """Split the space recursively at its diameters, read off its merge order.

    Returns two lists indexed by ball position: the single points first,
    each at its own index, then every ball after its blocks and the whole
    space last. They hold the ball's diameter rank (0 for a single point)
    and its blocks' positions in order of least point (none for a single
    point). A ball is a run of the merge order and its blocks are the runs
    between its largest gaps: one stack of the balls still open to the
    right finds them.
    """
    order, gaps, values = space._gap_form
    least = list(range(space.n))  # each ball's least point
    levels = [0] * space.n
    children: list = [()] * space.n
    spine: list[tuple[int, list[int]]] = []  # open balls, diameters descending: (diameter, blocks)
    # ``last`` is the ball that ends at the point; a last gap above every
    # rank closes every ball after the last point
    for last, g in zip(order, [*gaps, len(values)]):
        while spine and spine[-1][0] < g:
            level, blocks = spine.pop()
            blocks.append(last)
            blocks.sort(key=least.__getitem__)
            last = len(levels)
            least.append(least[blocks[0]])
            levels.append(level)
            children.append(blocks)
        if spine and spine[-1][0] == g:
            spine[-1][1].append(last)
        else:
            spine.append((g, [last]))
    return levels, children


def _canonical_form(space: FiniteUltrametricSpace) -> tuple[Dendrogram, list[int]]:
    """The canonical dendrogram plus the point indices in canonical leaf order.

    Each node sorts its children by canonical key (AHU canonization), and
    the leaf order lists the children's leaves in that same order, so the
    i-th leaves of two weakly similar spaces correspond. The splits are
    those of :func:`_split_table`, so chains of any depth work.
    """
    levels, children = _split_table(space)
    built = [Dendrogram(0)] * space.n  # the single points
    for level, blocks in zip(levels[space.n :], children[space.n :]):  # blocks come first
        blocks.sort(key=lambda c: built[c].key())
        built.append(Dendrogram(level, tuple(map(built.__getitem__, blocks))))
    root = len(levels) - 1
    leaves, _ = _merge_order(root, lambda pos: (levels[pos], children[pos]))
    return built[root], leaves


class WeakSimilarityWitness(_Record):
    """A point bijection plus the order-preserving pairing of distance sets.

    ``point_bijection`` maps the first space's points onto the second's;
    ``scale_map`` pairs each distance of the second space with the
    distance of the first space of the same rank, so that
    d_first(x, y) = scale(d_second(Φx, Φy)) for all pairs.
    """

    __slots__ = ("point_bijection", "scale_map")
    point_bijection: tuple[tuple[str, str], ...]
    scale_map: tuple[tuple[Fraction, Fraction], ...]

    def forward(self) -> dict[str, str]:
        return dict(self.point_bijection)

    def scale(self) -> dict[Fraction, Fraction]:
        return dict(self.scale_map)


def weak_similarity(
    first: FiniteUltrametricSpace, second: FiniteUltrametricSpace
) -> Optional[WeakSimilarityWitness]:
    """A witness that the spaces are weakly similar, or None.

    On finite distance sets a strictly increasing bijection between them
    is forced to pair equal ranks, so the spaces are weakly similar exactly
    when their canonical dendrograms are equal. The witness then pairs the
    i-th canonical leaf of ``first`` with the i-th canonical leaf of
    ``second``: both leaves sit at the same place in the same dendrogram.
    """
    if first.n != second.n or len(first.values) != len(second.values):
        return None
    order_a: list[int] = []
    order_b: list[int] = []
    if first.n:  # the empty space has no dendrogram, and is similar to itself
        dendro_a, order_a = _canonical_form(first)
        dendro_b, order_b = _canonical_form(second)
        if dendro_a.key() != dendro_b.key():
            return None
    image = dict(zip(order_a, order_b))
    bijection = tuple(
        (first.points[i], second.points[image[i]]) for i in range(first.n)
    )
    scale = tuple(zip(second.values, first.values))
    return WeakSimilarityWitness(bijection, scale)
