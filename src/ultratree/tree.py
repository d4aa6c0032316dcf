"""Vertex-labeled trees and the path-maximum ultrametric they generate.

A labeled tree carries one non-negative rational label per vertex. The
distance between two distinct vertices is the largest label on the unique
path joining them (endpoints included); the distance from a vertex to
itself is 0. That map is an ultrametric exactly when no edge has both
endpoint labels equal to zero (a *non-degenerate* labeling).

Vertex identifiers are opaque strings externally; internally they map to
dense indices. Trees are immutable after validation, so derived structures
(PathMaxIndex, distance matrices) can cache freely.

Both derived structures start from Kruskal's merge order: merging the
edges by ascending weight (the larger endpoint label) and appending
component to component lists the vertices so that the path maximum of
any two is the largest gap between them. The index answers one pair by
a range maximum over the gaps; the matrix is filled from the gaps and
keeps them. The merge order is the form the readers in ``metric`` take,
so the center of distances and the diametrical parts of a tree need no
matrix.

The converse question, whether a finite ultrametric space is generated
by some labeled tree on exactly its points, is answered by :func:`is_ut`
from the space's diameter splits, which also give the tree.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DegenerateLabeling,
    DuplicateVertex,
    EmptyPool,
    FormatError,
    HasCycle,
    MissingLabel,
    NegativeInput,
    NegativeLabel,
    NotABall,
    NotConnected,
    TooSmall,
    UnknownVertex,
)
from .metric import ZERO, FiniteUltrametricSpace, _rank_entries, _Record
from .rationals import exact_rational


class LabeledTree(_Record):
    """An immutable tree with a non-negative rational label on each vertex.

    ``vertices`` fixes the external identifiers and their order; ``edges``
    holds index pairs (i, j) with i < j; ``labels[i]`` belongs to
    ``vertices[i]``. Instances are built by :func:`validate_tree` (or by
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


def validate_tree(
    vertices: Sequence[str],
    edges: Iterable[Sequence[str]],
    labels: Mapping[str, object],
) -> LabeledTree:
    """Check a raw vertex/edge/label description and freeze it into a tree.

    Labels are read first, in the mapping's order, each distinct value once
    by :func:`~ultratree.rationals.exact_rational` (equal ones share one
    Fraction); a value it refuses (a float, a bool, "0.5") raises
    FormatError naming the vertex. An edge that is not two endpoints (a
    string is one vertex name, not read as its characters) raises
    FormatError naming the edge. Then raises DuplicateVertex,
    UnknownVertex (for an edge endpoint or a label key), HasCycle,
    MissingLabel, NegativeLabel or NotConnected, each naming the offending
    vertex or edge.
    """
    # typed, as 1, 1.0 and True are equal keys; an unhashable value raises TypeError
    exact = lru_cache(maxsize=None, typed=True)(exact_rational)
    shared: dict[Fraction, Fraction] = {}  # equal values of any type share one
    for key, value in labels.items():
        try:
            frac = exact(value)
        except (FormatError, TypeError) as exc:  # a string keeps the parser's detail
            raise FormatError(
                f"label for {key!r}: {exc}" if isinstance(value, str)
                else f"label for {key!r} must be an exact rational string, got {value!r}"
            ) from None
        shared.setdefault(frac, frac)

    names = [str(v) for v in vertices]
    if not names:
        raise NotConnected("<empty vertex list>")
    index: dict[str, int] = {}
    for pos, name in enumerate(names):
        if name in index:
            raise DuplicateVertex(name)
        index[name] = pos

    pairs: dict[tuple[int, int], None] = {}  # in input order, for the DFS below
    for raw in edges:
        pair = (raw,) if isinstance(raw, str) else tuple(raw)  # a string names one vertex
        if len(pair) != 2:
            raise FormatError(f"an edge needs exactly 2 endpoints: {pair!r}")
        a, b = (str(pair[0]), str(pair[1]))
        if a not in index:
            raise UnknownVertex(a)
        if b not in index:
            raise UnknownVertex(b)
        if a == b:
            raise HasCycle((a, b))
        i, j = sorted((index[a], index[b]))
        if (i, j) in pairs:
            raise HasCycle((names[i], names[j]))
        pairs[i, j] = None

    for key in labels:
        if key not in index:
            raise UnknownVertex(key)
    parsed: list[Fraction] = []
    for name in names:
        if name not in labels:
            raise MissingLabel(name)
        frac = shared[exact(labels[name])]
        if frac < 0:
            raise NegativeLabel(name, frac)
        parsed.append(frac)

    # DFS: a back edge means a cycle; an unvisited vertex means disconnection.
    n = len(names)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    seen = [True] + [False] * (n - 1)
    parent = [-1] * n
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                stack.append(w)
            elif w != parent[u]:
                raise HasCycle((names[min(u, w)], names[max(u, w)]))
    if not all(seen):
        raise NotConnected(names[seen.index(False)])

    return LabeledTree(tuple(names), tuple(sorted(pairs)), tuple(parsed))


def degenerate_edge(tree: LabeledTree) -> Optional[tuple[str, str]]:
    """Return an edge whose two endpoint labels are both zero, or None."""
    for i, j in tree.edges:
        if tree.labels[i] == 0 and tree.labels[j] == 0:
            return (tree.vertices[i], tree.vertices[j])
    return None


def is_nondegenerate(tree: LabeledTree) -> bool:
    """True iff every edge has at least one strictly positive endpoint label."""
    return degenerate_edge(tree) is None


class PathMaxIndex:
    """Range-maximum index answering path-maximum label queries.

    Edges are weighted by the larger rank of their endpoint labels and
    put in Kruskal's merge order (:func:`_kruskal_order`), where the path
    maximum of two vertices is the largest gap between them. A sparse
    table of gap maxima over power-of-two spans makes the build
    O(n log n) and each query O(1). Labels are compressed to integer
    ranks once, so the hot loops compare small ints; results are mapped
    back to exact Fractions.
    """

    __slots__ = ("tree", "_values", "_rank", "_pos", "_table")

    def __init__(self, tree: LabeledTree):
        self.tree = tree
        (rank,), values = _rank_entries([tree.labels])
        weights = [max(rank[i], rank[j]) for i, j in tree.edges]
        order, gaps = _kruskal_order(tree.n, tree.edges, weights)
        pos = [0] * tree.n
        for k, v in enumerate(order):
            pos[v] = k
        # table[k][i] = max(gaps[i : i + 2**k])
        table = [gaps]
        span = 1
        while 2 * span <= len(gaps):
            prev = table[-1]
            table.append([a if a >= b else b for a, b in zip(prev, prev[span:])])
            span *= 2

        self._values = values
        self._rank = rank
        self._pos = pos
        self._table = table

    def _path_max_rank(self, u: int, v: int) -> int:
        if u == v:
            return self._rank[u]
        i, j = self._pos[u], self._pos[v]
        if i > j:
            i, j = j, i
        # two spans of 2**k gaps cover gaps[i:j] from both ends
        k = (j - i).bit_length() - 1
        row = self._table[k]
        a = row[i]
        b = row[j - (1 << k)]
        return a if a >= b else b

    def path_max(self, u: str, v: str) -> Fraction:
        """Maximum label over the path joining u and v, endpoints included."""
        ui = self.tree.index_of(u)
        vi = self.tree.index_of(v)
        return self._values[self._path_max_rank(ui, vi)]

    def distance(self, u: str, v: str) -> Fraction:
        """The tree ultrametric: 0 if u = v, else the path maximum."""
        ui = self.tree.index_of(u)
        vi = self.tree.index_of(v)
        if ui == vi:
            return Fraction(0)
        return self._values[self._path_max_rank(ui, vi)]


def label_distance(index: PathMaxIndex, u: str, v: str) -> Fraction:
    """Distance between vertices u and v under the indexed tree's metric."""
    return index.distance(u, v)


def distance_matrix(tree: LabeledTree) -> FiniteUltrametricSpace:
    """Build the exact distance matrix of the tree's ultrametric.

    Raises DegenerateLabeling (with the violating edge) when some edge has
    both labels zero; validity of the result is then guaranteed by
    construction. The matrix is filled from Kruskal's merge order in
    O(n²), the size of the output, and keeps that order.
    """
    return FiniteUltrametricSpace._from_gaps(tree.vertices, *_gap_form(tree))


def _gap_form(tree: LabeledTree) -> tuple[list[int], list[int], tuple[Fraction, ...]]:
    """The tree's ultrametric as Kruskal's merge order: ``(order, gaps,
    values)``, where the distance between ``order[i]`` and ``order[j]``
    (i < j) is ``values[max(gaps[i:j])]``. ``values`` is the distance set
    in ascending order, 0 included, so the top rank is the diameter.

    Raises DegenerateLabeling (with the violating edge) when some edge
    has both labels zero.
    """
    bad = degenerate_edge(tree)
    if bad is not None:
        raise DegenerateLabeling(bad)
    labels = tree.labels
    # every weight is positive and a distance: the later endpoint's label
    weights = [max(labels[i], labels[j]) for i, j in tree.edges]
    (levels,), values = _rank_entries([weights])
    order, gaps = _kruskal_order(tree.n, tree.edges, levels)
    return order, gaps, values


def _kruskal_order(
    n: int, edges: Sequence[tuple[int, int]], weights: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Kruskal's merge order of a tree with weighted edges.

    Returns the vertices in an order where the largest edge weight on the
    path between ``order[i]`` and ``order[j]`` (i < j) is ``max(gaps[i:j])``:
    the leaf order of the Kruskal reconstruction tree (Demaine, Landau &
    Weimann, ICALP 2009), whose lowest common ancestors become range
    maxima (Bender & Farach-Colton, LATIN 2000).
    Edges are merged in ascending weight (ties by position). Each
    component is kept as a linked block, and a merge appends the second
    block to the first with the edge's weight as the gap at the join:
    every gap inside either block is no larger, so the join is the
    largest gap between any pair across them.
    """
    parent = list(range(n))
    tail = list(range(n))  # last vertex of each root's block
    after = [-1] * n  # next vertex in the block's linked order
    gap_after = [0] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in sorted(range(len(edges)), key=weights.__getitem__):
        a, b = (find(v) for v in edges[e])
        # a root is its block's first vertex: b's block goes after a's
        after[tail[a]] = b
        gap_after[tail[a]] = weights[e]
        tail[a] = tail[b]
        parent[b] = a
    order = []
    v = find(0)
    while v != -1:
        order.append(v)
        v = after[v]
    return order, [gap_after[v] for v in order[:-1]]


def canonical_labeling(tree: LabeledTree) -> LabeledTree:
    """Replace each label by itself if it occurs as a distance, else by 0.

    The result generates the identical distance matrix, is again
    non-degenerate, and its labels together with 0 are exactly the
    distance set together with 0. Idempotent. The distances are exactly
    the larger endpoint labels of the edges, so no matrix is built.
    """
    bad = degenerate_edge(tree)
    if bad is not None:
        raise DegenerateLabeling(bad)
    labels = tree.labels
    realized = {max(labels[i], labels[j]) for i, j in tree.edges}
    new_labels = tuple(lab if lab in realized else ZERO for lab in labels)
    return LabeledTree(tree.vertices, tree.edges, new_labels)


def ball_subtree(tree: LabeledTree, ball: Iterable[str]) -> LabeledTree:
    """Restrict the tree to the vertices of an open ball of its space.

    The induced subgraph of an open ball is connected, so the result is a
    tree again; its labeling is the restriction and its distance matrix is
    the restriction of the ambient matrix. Raises NotABall if the given
    vertex set is not an open ball.
    """
    members = {tree.index_of(v) for v in ball}
    if not members:
        raise NotABall(ball)
    order, gaps, _ = _gap_form(tree)
    # an open ball is a run of the merge order whose inner gaps are all
    # below the gaps that bound it
    spots = [k for k, v in enumerate(order) if v in members]
    a, b = spots[0], spots[-1]
    inner = max(gaps[a:b], default=0)
    bounds = gaps[a - 1 : a] + gaps[b : b + 1]  # none at an end of the order
    if b - a >= len(spots) or not inner < min(bounds, default=inner + 1):
        raise NotABall([tree.vertices[m] for m in members])

    keep = sorted(members)
    names = tuple(tree.vertices[i] for i in keep)
    remap = {old: new for new, old in enumerate(keep)}
    edges = tuple(
        sorted((remap[i], remap[j]) for i, j in tree.edges if i in members and j in members)
    )
    labels = tuple(tree.labels[i] for i in keep)
    return LabeledTree(names, edges, labels)


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


# --- random labeled trees ---------------------------------------------------------------
# `random` and `heapq` are imported by the functions that use them, so
# the verbs that only read trees do not load them.

def _prufer_to_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over 0..n-1 into a sorted edge list."""
    import heapq

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
    edges.append(tuple(sorted(leaves)))  # the last two
    return sorted(edges)


def random_labeled_tree(n: int, label_pool: Sequence, seed: int) -> LabeledTree:
    """Uniformly random tree shape with labels drawn from the pool.

    Pool values are exact rationals (a float raises FormatError).
    Degenerate edges (both endpoint labels zero) are repaired in a single
    deterministic pass by redrawing the lower endpoint from the positive
    pool values; repairs only ever raise labels, so the result is always
    non-degenerate. The pool must contain a positive value whenever
    n >= 2. Deterministic for a fixed seed.
    """
    import random

    if n < 1:
        raise ValueError("n must be at least 1")
    pool = [exact_rational(v) for v in label_pool]
    if not pool:
        raise EmptyPool()
    for v in pool:
        if v < 0:
            raise NegativeInput(v)
    positive = [v for v in pool if v > 0]
    if n >= 2 and not positive:
        raise EmptyPool("label pool needs a positive value for n >= 2")

    rng = random.Random(seed)
    edges = _prufer_to_edges([rng.randrange(n) for _ in range(n - 2)], n) if n > 1 else []

    labels = [rng.choice(pool) for _ in range(n)]
    for i, j in edges:
        if labels[i] == 0 and labels[j] == 0:
            labels[i] = rng.choice(positive)
    tree = LabeledTree(tuple(f"v{i + 1}" for i in range(n)), tuple(edges), tuple(labels))
    assert is_nondegenerate(tree)
    return tree
