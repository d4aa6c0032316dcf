"""Vertex-labeled trees, and whether a space is generated by one.

A labeled tree carries one non-negative rational label per vertex. The
distance between two distinct vertices is the largest label on the unique
path joining them (endpoints included); the distance from a vertex to
itself is 0. That map is an ultrametric exactly when no edge has both
endpoint labels equal to zero (a *non-degenerate* labeling).

Vertex identifiers are opaque strings externally; internally they map to
dense indices. Trees are immutable after validation, so derived
structures can cache freely.

This module holds the tree itself and the converse question, whether a
finite ultrametric space is generated by some labeled tree on exactly
its points, which :func:`is_ut` answers from the space's diameter splits,
which also give the tree. So ``is-ut``, which reads a matrix and writes a
tree, loads nothing else of the tree layer. Validating a tree, the
metric it generates and the rest of the tree layer live in
:mod:`ultratree.treemetric`; their public names still resolve here, each
loading that module on first use.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Optional

from .errors import TooSmall, UnknownVertex
from .metric import ZERO, FiniteUltrametricSpace, _Record

# the public names defined in `treemetric`; looked up before anything is
# imported, so that a probe such as ``from .tree import X`` (which asks
# for ``__path__`` first) loads no more of the tree layer
_MOVED = frozenset((
    "PathMaxIndex", "ball_subtree", "canonical_labeling", "degenerate_edge",
    "distance_matrix", "is_nondegenerate", "label_distance", "random_labeled_tree",
    "validate_tree",
))


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import treemetric

    return getattr(treemetric, name)


class LabeledTree(_Record):
    """An immutable tree with a non-negative rational label on each vertex.

    ``vertices`` fixes the external identifiers and their order; ``edges``
    holds index pairs (i, j) with i < j; ``labels[i]`` belongs to
    ``vertices[i]``. Instances are built by
    :func:`~ultratree.treemetric.validate_tree` (or by
    library code that guarantees the invariants by construction).
    """

    __slots__ = ("vertices", "edges", "labels", "__dict__")
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    labels: tuple[Fraction, ...]

    def __init__(self, vertices, edges, labels):
        if len(labels) != len(vertices):
            raise ValueError("labels must align with vertices")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index_of(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise UnknownVertex(vertex) from None

    def label_of(self, vertex: str) -> Fraction:
        return self.labels[self.index_of(vertex)]

    def edge_names(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.vertices[i], self.vertices[j]) for i, j in self.edges)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


# --- labeled-tree realizability -----------------------------------------------------

def is_ut(space: FiniteUltrametricSpace) -> Optional[LabeledTree]:
    """Find a labeled tree on exactly the space's points realizing it.

    Such a tree exists exactly when every internal node of the space's
    canonical dendrogram has at least one leaf child: when every ball of
    two or more points, split at its diameter, has a single-point block.
    The tree is built along the same splits, read bottom-up from
    :func:`~ultratree.hierarchy._split_table` (the space's merge order). The
    first single-point block of each ball (its lowest-index singleton) is
    its hub and takes the ball's diameter as its label; every other block
    hangs its own hub off it, and a singleton block is its own hub with
    label 0. Every path between two blocks of a ball then peaks at that
    ball's hub. Returns None when some ball has no singleton block. Runs
    in polynomial time, with no fence. An unvalidated matrix that is not
    ultrametric raises the error, with the culprit, that
    :func:`~ultratree.hierarchy.validate_ultrametric` would raise.
    """
    from .hierarchy import _split_table

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
        edges.extend((min(hub, h), max(hub, h)) for h in map(hubs.__getitem__, blocks) if h != hub)
    return LabeledTree(space.points, tuple(sorted(edges)), tuple(labels))


