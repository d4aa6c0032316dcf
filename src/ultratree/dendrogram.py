"""The canonical dendrogram of a space, and weak similarity built on it.

A space's canonical dendrogram splits every ball at its diameter, each
node at the global rank of its diameter, with the children in the walk's
order: by level number, then by their own children, the single point
after every ball. Its one form is the enumerator's subtree table
(:class:`~ultratree.explorer._Subtrees`): :func:`_canonical_form` interns
the diameter splits of :func:`~ultratree.hierarchy._split_table` into a
fresh table, which builds a ``Dendrogram`` only when asked. Two spaces are
weakly similar exactly when their tables are equal, and the witness pairs
their canonical leaf orders. Every dendrogram's own merge order is one
depth-first walk (:func:`~ultratree.metric._merge_order`).

No CLI verb loads this module except ``hol``, to compare a satisfying
class with its reference: the campaigns read their classes and witness
labels off the enumerator's table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from operator import methodcaller
from typing import Optional

from .errors import TooSmall
from .explorer import _Subtrees
from .hierarchy import _split_table
from .metric import FiniteUltrametricSpace, _merge_order, _Record


class Dendrogram(_Record):
    """A rooted leveled hierarchy: leaves at level 0, internal nodes at
    strictly decreasing positive levels, every internal node with at
    least two children, kept in the order given. A canonical dendrogram
    gives them in the walk's order (:func:`_canonical_form`)."""

    __slots__ = ("level", "children", "__dict__")
    level: int
    children: tuple["Dendrogram", ...]
    # compared and hashed by the cached key, built without recursion for any depth
    _compared = methodcaller("key")

    def __init__(self, level, children=()):
        if level == 0:
            if children:
                raise ValueError("a leaf cannot have children")
        elif len(children) < 2:
            raise ValueError("an internal node needs at least 2 children")
        elif any(child.level >= level for child in children):
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
        """The dendrogram is the canonical form of its own merge order, read
        off that merge order with no matrix. It uses exactly the levels
        1..root level, and its canonical leaf order is the order its leaves
        come in: a node whose children are out of the walk's order would
        have them moved."""
        gaps = _merge_order(self)[1]
        if set(gaps) != set(range(1, self.level + 1)):
            return False
        leaves = _canonical_form((range(len(gaps) + 1), gaps, range(self.level + 1)))[1]
        return leaves == sorted(leaves)


def space_to_dendrogram(space: FiniteUltrametricSpace) -> Dendrogram:
    """Canonical dendrogram of a space: split recursively at the diameter.

    Node levels are the global ranks of the sub-diameters, so two spaces
    are weakly similar exactly when their canonical dendrograms are equal.
    """
    if not space.n:
        raise TooSmall("space_to_dendrogram needs at least 1 point")
    table = _canonical_form(space._gap_form)[0]
    return table.dendrogram(table.nodes[-1])


def _canonical_form(gap_form: tuple) -> tuple[_Subtrees, list[int]]:
    """The canonical dendrogram of a merge order ``(order, gaps, values)``
    as a fresh table, and the points in canonical leaf order.

    The balls of :func:`_split_table` are interned level by level, lowest
    first, and within a level in the walk's order: by their children's
    ids, the single point after every ball. So the ids follow canonical
    order, each node's children sort by id (the leaf last) and the root is
    interned last: two merge orders give equal ``nodes`` exactly when
    their spaces are weakly similar. The leaf order lists the children's
    leaves in that same order, so the i-th leaves of two weakly similar
    spaces correspond. Nothing recurses, so chains of any depth work.
    """
    levels, children = _split_table(gap_form)
    table = _Subtrees()
    ids = [0] * len(levels)  # by ball position; every single point is the leaf
    place = [len(levels)] * len(levels)  # ids as sort keys: the leaf after every ball
    balls = sorted(range(len(gap_form[0]), len(levels)), key=levels.__getitem__)
    for _, group in groupby(balls, levels.__getitem__):
        group = list(group)
        for ball in group:
            children[ball].sort(key=place.__getitem__)
        for ball in sorted(group, key=lambda ball: [*map(place.__getitem__, children[ball])]):
            ids[ball] = place[ball] = table.intern(
                (levels[ball], *map(ids.__getitem__, children[ball]))
            )
    # an empty merge order has no root and no leaves; its table is the leaf
    # alone, as a single point's is, so weak similarity compares sizes first
    leaves = (
        _merge_order(len(levels) - 1, lambda pos: (levels[pos], children[pos]))[0] if levels else []
    )
    return table, leaves


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
    table_a, order_a = _canonical_form(first._gap_form)
    table_b, order_b = _canonical_form(second._gap_form)
    if table_a.nodes != table_b.nodes:
        return None
    image = dict(zip(order_a, order_b))
    bijection = tuple(
        (first.points[i], second.points[image[i]]) for i in range(first.n)
    )
    scale = tuple(zip(second.values, first.values))
    return WeakSimilarityWitness(bijection, scale)
