"""Finite ultrametric spaces as integer rank matrices.

Every question asked of a finite ultrametric space compares distances, so
a space stores the rank of each distance among its distinct values (0 on
the diagonal) next to those values as exact Fractions. All analyses
compare small ints; Fractions appear only where a result reports a
distance. Every analysis result (ball, sphere, graph part, similarity
witness) carries enough data to be re-checked independently. The
canonical dendrogram (the diameter splits, children sorted by key) is the
form of a space up to weak similarity.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Iterable, Literal, Optional, Sequence

from .capacity import SUBSET_SCAN_FENCE, require_within
from .errors import (
    DuplicatePoint,
    EmptySubset,
    NonpositiveOffDiagonal,
    NonpositiveRadius,
    NotCompleteMultipartite,
    NotSymmetric,
    NonzeroDiagonal,
    StrongTriangleViolation,
    TooSmall,
    UnknownPoint,
)

ZERO = Fraction(0)


def _rank_entries(
    rows: Sequence[Sequence],
) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...]]:
    """Rank every entry among the distinct values of the matrix (0 included).

    Entries are grouped by object identity first: the readers and builders
    here share one object per distinct value, so each value is converted
    and hashed once instead of once per cell. ``rows`` keeps every entry
    alive for the duration, so identities cannot be reused meanwhile.
    """
    by_id: dict[int, object] = {}
    for row in rows:
        by_id.update(zip(map(id, row), row))
    exact = {key: Fraction(v) for key, v in by_id.items()}
    values = sorted(set(exact.values()) | {ZERO})
    pos = {v: r for r, v in enumerate(values)}
    rank_of = {key: pos[v] for key, v in exact.items()}
    ranks = tuple(tuple(map(rank_of.__getitem__, map(id, row))) for row in rows)
    return ranks, tuple(values)


@dataclass(frozen=True)
class FiniteUltrametricSpace:
    """An ordered point list plus an integer rank matrix over exact values.

    ``ranks[i][j]`` indexes ``values``, the distance set in ascending
    order: ``values[0] == 0`` is the diagonal and every value is realized
    by some pair. Instances are produced by :func:`validate_ultrametric`
    (full check of the strong triangle inequality) or by
    construction-backed builders (tree metrics, dendrograms, restrictions),
    either through ``from_trusted_matrix`` or directly from ranks.
    """

    points: tuple[str, ...]
    ranks: tuple[tuple[int, ...], ...]
    values: tuple[Fraction, ...]

    @classmethod
    def from_trusted_matrix(
        cls, points: Sequence[str], matrix: Sequence[Sequence[Fraction]]
    ) -> "FiniteUltrametricSpace":
        """Wrap a matrix whose validity the caller guarantees by construction."""
        ranks, values = _rank_entries([tuple(row) for row in matrix])
        return cls(tuple(points), ranks, values)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as Fractions: a view derived from the ranks on
        first use. The library's own analyses never build it."""
        values = self.values
        return tuple(tuple(map(values.__getitem__, row)) for row in self.ranks)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def index_of(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownPoint(point) from None

    def distance(self, p: str, q: str) -> Fraction:
        return self.values[self.ranks[self.index_of(p)][self.index_of(q)]]


def validate_ultrametric(
    points: Sequence[str], matrix: Sequence[Sequence[Fraction]]
) -> FiniteUltrametricSpace:
    """Fully check a square matrix and freeze it into a space.

    Checks that point names are distinct, symmetry, a zero diagonal,
    positive off-diagonal entries, and the strong triangle inequality
    (every triangle must attain its maximum side at least twice). The
    raised error names the repeated point, or the violating pair or
    triple. Runs in O(n²): the strong triangle inequality is checked
    against a minimum spanning tree (see :func:`_check_strong_triangle`).
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
    _check_strong_triangle(names, ranks)
    return FiniteUltrametricSpace(names, ranks, values)


def _check_strong_triangle(names: tuple[str, ...], ranks) -> None:
    """Raise StrongTriangleViolation unless the symmetric rank matrix is
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
    """
    n = len(ranks)
    if n < 3:
        return
    best = list(ranks[0])  # shortest edge from the tree to each vertex
    parent = [0] * n
    inside = [0]
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
        for x in outside:
            if row_v[x] < best[x]:
                best[x] = row_v[x]
                parent[x] = v


@dataclass(frozen=True)
class DistanceSet:
    """A strictly increasing tuple of exact distances, always containing 0."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError("distance set must start at 0")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("distance set must be strictly increasing")

    @classmethod
    def from_values(cls, values: Iterable[Fraction]) -> "DistanceSet":
        return cls(tuple(sorted(set(values) | {ZERO})))

    def __contains__(self, value) -> bool:
        return value in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def greatest_below(self, bound: Fraction) -> Optional[Fraction]:
        """Largest member strictly below ``bound``; None when there is none."""
        best = None
        for v in self.values:
            if v < bound:
                best = v
            else:
                break
        return best

    def format(self) -> str:
        from .rationals import format_rational

        return "{" + ", ".join(format_rational(v) for v in self.values) + "}"


def _distances(space: FiniteUltrametricSpace, ranks: Iterable[int]) -> DistanceSet:
    values = space.values
    return DistanceSet(tuple(values[r] for r in sorted(ranks)))


def distance_set(space: FiniteUltrametricSpace) -> DistanceSet:
    """All pairwise distances of the space, 0 included."""
    return DistanceSet(space.values)


def pointwise_distance_set(space: FiniteUltrametricSpace, point: str) -> DistanceSet:
    """Distances from one fixed point to every point, 0 included."""
    return _distances(space, set(space.ranks[space.index_of(point)]))


def diameter(space: FiniteUltrametricSpace) -> Fraction:
    """Largest pairwise distance (0 for a singleton)."""
    return space.values[-1]


def center_of_distances(space: FiniteUltrametricSpace) -> DistanceSet:
    """Distances realizable from *every* point: the intersection of all rows."""
    if not space.n:
        raise TooSmall("center_of_distances needs at least 1 point")
    rows = space.ranks
    common = set(rows[0])
    for row in rows[1:]:
        common.intersection_update(row)
        if len(common) == 1:
            break
    common.add(0)
    return _distances(space, common)


BallKind = Literal["open", "closed"]


@dataclass(frozen=True)
class Ball:
    kind: BallKind
    center: str
    radius: Fraction
    members: frozenset[str]


def ball(
    space: FiniteUltrametricSpace, center: str, radius: Fraction, kind: BallKind = "open"
) -> Ball:
    """The open ball {x : d(c,x) < r} or closed ball {x : d(c,x) <= r}."""
    ci = space.index_of(center)
    radius = Fraction(radius)
    if kind == "open":
        if radius <= 0:
            raise NonpositiveRadius(radius, "open")
        cut = bisect_left(space.values, radius)
    elif kind == "closed":
        if radius < 0:
            raise NonpositiveRadius(radius, "closed")
        cut = bisect_right(space.values, radius)
    else:
        raise ValueError(f"kind must be 'open' or 'closed', got {kind!r}")
    # rank < cut is exactly d < r (open) or d <= r (closed)
    members = frozenset(
        space.points[i] for i, r in enumerate(space.ranks[ci]) if r < cut
    )
    return Ball(kind, center, radius, members)


def _index_sets_sorted(found: dict) -> list:
    """Distinct index sets, smallest first, then by their sorted indices."""
    return sorted(found, key=lambda idx: (len(idx), sorted(idx)))


def enumerate_balls(
    space: FiniteUltrametricSpace, kind: BallKind = "open"
) -> tuple[Ball, ...]:
    """Every distinct ball of the space, one representative each.

    Open-ball member sets only change when the radius crosses a realized
    distance, so sweeping the distance values (plus one sentinel above the
    diameter) is exhaustive. Deduplication is by member set; the reported
    (center, radius) is the least certificate in the sweep, by point index
    then radius.
    """
    values = space.values
    k = len(values)
    # (cut, radius): the ball is every point whose rank is below the cut
    if kind == "open":
        cuts = [(c, values[c]) for c in range(1, k)] + [(k, values[-1] + 1)]
    else:
        cuts = [(c + 1, values[c]) for c in range(k)]
    n = space.n
    found: dict[frozenset[int], tuple[int, Fraction]] = {}
    for ci, row in enumerate(space.ranks):
        by_rank = sorted(range(n), key=row.__getitem__)
        below = [0] * (k + 1)  # below[c]: how many points have rank < c
        for r in row:
            below[r + 1] += 1
        for c in range(1, k + 1):
            below[c] += below[c - 1]
        last = 0
        for cut, radius in cuts:
            size = below[cut]
            if size == last:
                continue  # the same ball as at the previous radius
            last = size
            members = frozenset(by_rank[:size])
            if members not in found:
                found[members] = (ci, radius)
    points = space.points
    balls = []
    for members in _index_sets_sorted(found):
        ci, radius = found[members]
        balls.append(Ball(kind, points[ci], radius, frozenset(points[i] for i in members)))
    return tuple(balls)


@dataclass(frozen=True)
class SphereCertificate:
    center: str
    radius: Fraction
    subset: frozenset[str]


def is_centered_sphere(
    space: FiniteUltrametricSpace, subset: Iterable[str]
) -> Optional[SphereCertificate]:
    """Certify a subset as {x : d(x,c) = r} ∪ {c} for some c in the subset.

    Singletons always certify with r = 0. The scan over candidate centers
    follows point order, so the returned certificate is deterministic.
    """
    idxs = sorted({space.index_of(p) for p in subset})
    if not idxs:
        raise EmptySubset()
    wanted = set(idxs)
    for ci in idxs:
        row = space.ranks[ci]
        rest = {row[j] for j in idxs if j != ci}
        if len(rest) > 1:
            continue
        radius = rest.pop() if rest else 0
        realized = {i for i, r in enumerate(row) if r == radius}
        realized.add(ci)
        if realized == wanted:
            return SphereCertificate(
                space.points[ci],
                space.values[radius],
                frozenset(space.points[i] for i in idxs),
            )
    return None


def enumerate_centered_spheres(
    space: FiniteUltrametricSpace,
) -> tuple[SphereCertificate, ...]:
    """Every distinct centered sphere, one least (center, radius) each.

    For a center c only radii in c's pointwise distance set produce
    anything beyond the singleton {c}, so that sweep is exhaustive.
    """
    found: dict[frozenset[int], tuple[int, int]] = {}
    for ci, row in enumerate(space.ranks):
        spheres: dict[int, list[int]] = {}
        for i, r in enumerate(row):
            spheres.setdefault(r, []).append(i)
        for r in sorted(spheres):
            subset = frozenset(spheres[r]) | {ci}
            if subset not in found:
                found[subset] = (ci, r)
    points = space.points
    certs = []
    for subset in _index_sets_sorted(found):
        ci, r = found[subset]
        certs.append(
            SphereCertificate(points[ci], space.values[r], frozenset(points[i] for i in subset))
        )
    return tuple(certs)


def all_subsets_centered_spheres(space: FiniteUltrametricSpace) -> bool:
    """True iff every non-empty subset of the space is a centered sphere.

    There are at most n * |distance values| distinct spheres, so this just
    compares that family's size against 2^n - 1. Fenced: the answer is
    about all subsets, so n is capped.
    """
    return _spheres_are_all_subsets(space, enumerate_centered_spheres(space))


def _spheres_are_all_subsets(
    space: FiniteUltrametricSpace, spheres: Sequence[SphereCertificate]
) -> bool:
    """:func:`all_subsets_centered_spheres` on the space's spheres, already
    enumerated by :func:`enumerate_centered_spheres`."""
    require_within("all-subsets sphere scan", space.n, SUBSET_SCAN_FENCE)
    return len(spheres) == (1 << space.n) - 1


@dataclass(frozen=True)
class DiametricalGraph:
    """Graph joining exactly the point pairs at maximal distance."""

    points: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {p: set() for p in self.points}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def diametrical_graph(space: FiniteUltrametricSpace) -> DiametricalGraph:
    """Edges = point pairs realizing the diameter; empty iff a singleton."""
    points = space.points
    edges: list[tuple[str, str]] = []
    if space.n >= 2:
        top = len(space.values) - 1
        for i, row in enumerate(space.ranks):
            later = i + 1
            edges.extend(
                zip(repeat(points[i]), compress(points[later:], map(top.__eq__, row[later:])))
            )
    return DiametricalGraph(points, tuple(edges))


@dataclass(frozen=True)
class MultipartiteDecomposition:
    """Partition of a graph's vertices with edges exactly across parts."""

    parts: tuple[tuple[str, ...], ...]


def multipartite_parts(graph: DiametricalGraph) -> MultipartiteDecomposition:
    """Split the vertex set into the complement graph's components.

    For the diametrical graph of an ultrametric space this is always a
    complete multipartite decomposition. The search only separates
    vertices that are adjacent, so the function verifies the other half (no
    edge inside a part) and raises NotCompleteMultipartite otherwise,
    which signals corrupted input. Runs in O(n + edges).
    """
    names = graph.points
    n = len(names)
    order = {p: i for i, p in enumerate(names)}
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edges:
        a, b = order[u], order[v]
        adj[a].add(b)
        adj[b].add(a)
    # complement-graph search: a vertex not adjacent to a part member joins it
    unassigned = set(range(n))
    parts: list[list[int]] = []
    while unassigned:
        seed = min(unassigned)
        unassigned.discard(seed)
        part = [seed]
        frontier = [seed]
        while frontier and unassigned:
            joined = unassigned - adj[frontier.pop()]
            unassigned -= joined
            part.extend(joined)
            frontier.extend(joined)
        parts.append(sorted(part))

    # no edge inside a part: each degree counts the points outside its part
    size_of = [0] * n
    for part in parts:
        for a in part:
            size_of[a] = len(part)
    if any(len(adj[a]) != n - size_of[a] for a in range(n)):
        for part in parts:
            for a in part:
                for b in part:
                    if a != b and b in adj[a]:
                        raise NotCompleteMultipartite(
                            f"edge {names[a]!r}-{names[b]!r} inside a part"
                        )
    return MultipartiteDecomposition(tuple(tuple(names[a] for a in part) for part in parts))


@dataclass(frozen=True)
class StarCertificate:
    """A vertex adjacent to every other vertex of the host graph."""

    center: str


def spanning_star(graph: DiametricalGraph) -> Optional[StarCertificate]:
    """Least-index vertex adjacent to all others, or None.

    Equivalent to some part of the multipartite decomposition being a
    singleton. A one-vertex graph certifies vacuously.
    """
    degree = Counter(chain.from_iterable(graph.edges))
    others = len(graph.points) - 1
    for p in graph.points:
        if degree[p] == others:
            return StarCertificate(p)
    return None


def is_equidistant(space: FiniteUltrametricSpace) -> Optional[Fraction]:
    """The single off-diagonal value if all pairs agree, else None."""
    if space.n < 2:
        raise TooSmall("equidistance needs at least 2 points")
    # every value but 0 is realized off the diagonal
    if len(space.values) == 2:
        return space.values[1]
    return None


# --- canonical dendrograms ------------------------------------------------------

@dataclass(frozen=True)
class Dendrogram:
    """A rooted leveled hierarchy: leaves at level 0, internal nodes at
    strictly decreasing positive levels, every internal node with at
    least two children. Children are kept sorted by canonical key."""

    level: int
    children: tuple["Dendrogram", ...] = ()

    def __post_init__(self):
        if self.level == 0:
            if self.children:
                raise ValueError("a leaf cannot have children")
        else:
            if len(self.children) < 2:
                raise ValueError("an internal node needs at least 2 children")
            for child in self.children:
                if child.level >= self.level:
                    raise ValueError("levels must strictly decrease downward")

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def leaf_count(self) -> int:
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend(node.children)
        return count

    def levels_used(self) -> frozenset[int]:
        levels: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                levels.add(node.level)
                stack.extend(node.children)
        return frozenset(levels)

    def key(self) -> str:
        """Canonical string encoding; equal keys mean the same class.

        Computed without recursion, so chains of any depth work, and
        cached on every node it visits (outside the dataclass fields, so
        equality and hashing are unaffected).
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
    walked without recursion, so chains of any depth work.
    """
    balls: list[list[int]] = [list(range(space.n))]
    levels: list[int] = []
    children: list[list[int]] = []
    for idxs in balls:  # grows while it is walked: each split appends its blocks
        if len(idxs) == 1:
            levels.append(0)
            children.append([])
            continue
        diam, groups = _diameter_split(space, idxs)
        levels.append(diam)
        children.append(list(range(len(balls), len(balls) + len(groups))))
        balls.extend(groups)
    leaf = Dendrogram(0)
    built: list[Optional[Dendrogram]] = [None] * len(levels)
    for pos in reversed(range(len(levels))):  # children come after parents
        if levels[pos] == 0:
            built[pos] = leaf
        else:
            children[pos].sort(key=lambda c: built[c].key())
            built[pos] = Dendrogram(levels[pos], tuple(built[c] for c in children[pos]))
    order: list[int] = []
    stack = [0]
    while stack:
        pos = stack.pop()
        if levels[pos] == 0:
            order.append(balls[pos][0])
        else:
            stack.extend(reversed(children[pos]))
    return built[0], order


def _diameter_split(
    space: FiniteUltrametricSpace, idxs: list[int]
) -> tuple[int, list[list[int]]]:
    """Split a ball (ascending indices, two or more points) at its diameter.

    Returns the diameter's rank and the blocks of points closer than it,
    each block ascending, in order of their smallest index. In an
    ultrametric ball the row of any one point attains the diameter, and
    the block of a point is the set of points closer to it than the
    diameter. A zero diameter can only come from an unvalidated matrix
    and raises NonpositiveOffDiagonal for the pair.
    """
    row = space.ranks[idxs[0]]
    diam = max(map(row.__getitem__, idxs))
    if diam == 0:
        raise NonpositiveOffDiagonal((space.points[idxs[0]], space.points[idxs[1]]))
    groups: list[list[int]] = []
    remaining = idxs
    while remaining:
        row = space.ranks[remaining[0]]
        groups.append([v for v in remaining if row[v] < diam])
        remaining = [v for v in remaining if row[v] >= diam]
    return diam, groups


@dataclass(frozen=True)
class WeakSimilarityWitness:
    """A point bijection plus the order-preserving pairing of distance sets.

    ``point_bijection`` maps the first space's points onto the second's;
    ``scale_map`` pairs each distance of the second space with the
    distance of the first space of the same rank, so that
    d_first(x, y) = scale(d_second(Φx, Φy)) for all pairs.
    """

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


def restrict(
    space: FiniteUltrametricSpace, subset: Iterable[str]
) -> FiniteUltrametricSpace:
    """Subspace on the given points, keeping the ambient point order.

    Ranks are compressed again onto the distances the subspace realizes.
    """
    idxs = sorted({space.index_of(p) for p in subset})
    if not idxs:
        raise EmptySubset()
    rows = [[space.ranks[i][j] for j in idxs] for i in idxs]
    used = sorted(set(chain.from_iterable(rows)))
    remap = {r: k for k, r in enumerate(used)}
    return FiniteUltrametricSpace(
        tuple(space.points[i] for i in idxs),
        tuple(tuple(map(remap.__getitem__, row)) for row in rows),
        tuple(space.values[r] for r in used),
    )
