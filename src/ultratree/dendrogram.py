"""The canonical dendrogram of a space, and weak similarity built on it.

A space's canonical dendrogram splits every ball at its diameter, each
node at the global rank of its diameter, with the children sorted by
canonical key (:func:`_canonical_form`, from the diameter splits of
:func:`~ultratree.hierarchy._split_table`). Two spaces are weakly similar
exactly when their canonical dendrograms are equal, and the witness pairs
their canonical leaf orders. Every dendrogram's own merge order is one
depth-first walk (:func:`~ultratree.metric._merge_order`).

No CLI verb loads this module except ``hol``, to compare a satisfying
class with its reference: the campaigns read their classes and witness
labels off the enumerator's table.
"""

from __future__ import annotations

from fractions import Fraction
from operator import methodcaller
from typing import Optional

from .errors import TooSmall
from .hierarchy import _split_table
from .metric import FiniteUltrametricSpace, _merge_order, _Record


class Dendrogram(_Record):
    """A rooted leveled hierarchy: leaves at level 0, internal nodes at
    strictly decreasing positive levels, every internal node with at
    least two children. Children are kept sorted by canonical key."""

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
        """Levels used are exactly 1..root level and children are sorted."""
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


def space_to_dendrogram(space: FiniteUltrametricSpace) -> Dendrogram:
    """Canonical dendrogram of a space: split recursively at the diameter.

    Node levels are the global ranks of the sub-diameters, so two spaces
    are weakly similar exactly when their canonical dendrograms are equal.
    """
    if not space.n:
        raise TooSmall("space_to_dendrogram needs at least 1 point")
    return _canonical_form(space)[0]


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
