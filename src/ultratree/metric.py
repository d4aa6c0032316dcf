"""Finite ultrametric spaces as exact distance matrices.

Everything here is exact: entries are Fractions, all comparisons are
integer arithmetic, and every analysis result (ball, sphere, graph part,
similarity witness) carries enough data to be re-checked independently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


@dataclass(frozen=True)
class FiniteUltrametricSpace:
    """An ordered point list plus a symmetric exact distance matrix.

    Instances are produced either by :func:`validate_ultrametric` (full
    check of the strong triangle inequality) or by construction-backed
    builders (tree metrics, restrictions) via ``from_trusted_matrix``.
    """

    points: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_trusted_matrix(
        cls, points: Sequence[str], matrix: Sequence[Sequence[Fraction]]
    ) -> "FiniteUltrametricSpace":
        """Wrap a matrix whose validity the caller guarantees by construction."""
        return cls(tuple(points), tuple(tuple(row) for row in matrix))

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def index_of(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownPoint(point) from None

    def distance(self, p: str, q: str) -> Fraction:
        return self.matrix[self.index_of(p)][self.index_of(q)]


def validate_ultrametric(
    points: Sequence[str], matrix: Sequence[Sequence[Fraction]]
) -> FiniteUltrametricSpace:
    """Fully check a square matrix and freeze it into a space.

    Checks that point names are distinct, symmetry, a zero diagonal,
    positive off-diagonal entries, and the strong triangle inequality on
    every triple (every triangle must attain its maximum side at least
    twice). The raised error names the repeated point, or the violating
    pair or triple.
    """
    names = tuple(str(p) for p in points)
    n = len(names)
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicatePoint(name)
        seen.add(name)
    rows = [tuple(Fraction(v) for v in row) for row in matrix]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise NotSymmetric(("<shape>", "<shape>"))
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonal(names[i])
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric((names[i], names[j]))
            if rows[i][j] <= 0:
                raise NonpositiveOffDiagonal((names[i], names[j]))
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            d_ij = row_i[j]
            row_j = rows[j]
            for k in range(j + 1, n):
                a, b, c = d_ij, row_i[k], row_j[k]
                top = max(a, b, c)
                if (a == top) + (b == top) + (c == top) < 2:
                    # the unique longest side is the violating pair
                    if a == top:
                        raise StrongTriangleViolation((names[i], names[j], names[k]))
                    if b == top:
                        raise StrongTriangleViolation((names[i], names[k], names[j]))
                    raise StrongTriangleViolation((names[j], names[k], names[i]))
    return FiniteUltrametricSpace(names, tuple(rows))


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


def distance_set(space: FiniteUltrametricSpace) -> DistanceSet:
    """All pairwise distances of the space, 0 included."""
    seen = {ZERO}
    for i in range(space.n):
        seen.update(space.matrix[i][i + 1 :])
    return DistanceSet(tuple(sorted(seen)))


def pointwise_distance_set(space: FiniteUltrametricSpace, point: str) -> DistanceSet:
    """Distances from one fixed point to every point, 0 included."""
    row = space.matrix[space.index_of(point)]
    return DistanceSet(tuple(sorted(set(row))))


def diameter(space: FiniteUltrametricSpace) -> Fraction:
    """Largest pairwise distance (0 for a singleton)."""
    return max((v for row in space.matrix for v in row), default=ZERO)


def center_of_distances(space: FiniteUltrametricSpace) -> DistanceSet:
    """Distances realizable from *every* point: the intersection of all rows."""
    common = set(space.matrix[0])
    for row in space.matrix[1:]:
        common &= set(row)
        if common == {ZERO}:
            break
    common.add(ZERO)
    return DistanceSet(tuple(sorted(common)))


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
        members = frozenset(
            space.points[i] for i, d in enumerate(space.matrix[ci]) if d < radius
        )
    elif kind == "closed":
        if radius < 0:
            raise NonpositiveRadius(radius, "closed")
        members = frozenset(
            space.points[i] for i, d in enumerate(space.matrix[ci]) if d <= radius
        )
    else:
        raise ValueError(f"kind must be 'open' or 'closed', got {kind!r}")
    return Ball(kind, center, radius, members)


def _member_sort_key(space: FiniteUltrametricSpace, members: frozenset[str]):
    idx = tuple(sorted(space.index_of(p) for p in members))
    return (len(idx), idx)


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
    values = distance_set(space).values
    if kind == "open":
        radii = [v for v in values if v > 0] + [values[-1] + 1]
    else:
        radii = list(values)
    found: dict[frozenset[str], Ball] = {}
    for ci, center in enumerate(space.points):
        row = space.matrix[ci]
        for r in radii:
            if kind == "open":
                members = frozenset(
                    space.points[i] for i, d in enumerate(row) if d < r
                )
            else:
                members = frozenset(
                    space.points[i] for i, d in enumerate(row) if d <= r
                )
            prev = found.get(members)
            if prev is None or (space.index_of(prev.center), prev.radius) > (ci, r):
                found[members] = Ball(kind, center, r, members)
    return tuple(
        sorted(found.values(), key=lambda b: _member_sort_key(space, b.members))
    )


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
    member_set = frozenset(space.points[i] for i in idxs)
    for ci in idxs:
        row = space.matrix[ci]
        rest = {row[j] for j in idxs if j != ci}
        if len(rest) > 1:
            continue
        radius = rest.pop() if rest else ZERO
        realized = frozenset(
            space.points[i] for i, d in enumerate(row) if d == radius
        ) | {space.points[ci]}
        if realized == member_set:
            return SphereCertificate(space.points[ci], radius, member_set)
    return None


def enumerate_centered_spheres(
    space: FiniteUltrametricSpace,
) -> tuple[SphereCertificate, ...]:
    """Every distinct centered sphere, one least (center, radius) each.

    For a center c only radii in c's pointwise distance set produce
    anything beyond the singleton {c}, so that sweep is exhaustive.
    """
    found: dict[frozenset[str], SphereCertificate] = {}
    for ci, center in enumerate(space.points):
        row = space.matrix[ci]
        for r in sorted(set(row)):
            subset = frozenset(
                space.points[i] for i, d in enumerate(row) if d == r
            ) | {center}
            prev = found.get(subset)
            if prev is None or (space.index_of(prev.center), prev.radius) > (ci, r):
                found[subset] = SphereCertificate(center, r, subset)
    return tuple(
        sorted(found.values(), key=lambda s: _member_sort_key(space, s.subset))
    )


def all_subsets_centered_spheres(space: FiniteUltrametricSpace) -> bool:
    """True iff every non-empty subset of the space is a centered sphere.

    There are at most n * |distance values| distinct spheres, so this just
    compares that family's size against 2^n - 1. Fenced: the answer is
    about all subsets, so n is capped.
    """
    require_within("all-subsets sphere scan", space.n, SUBSET_SCAN_FENCE)
    return len(enumerate_centered_spheres(space)) == (1 << space.n) - 1


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
    diam = diameter(space)
    edges = []
    if space.n >= 2:
        for i in range(space.n):
            row = space.matrix[i]
            for j in range(i + 1, space.n):
                if row[j] == diam:
                    edges.append((space.points[i], space.points[j]))
    return DiametricalGraph(space.points, tuple(edges))


@dataclass(frozen=True)
class MultipartiteDecomposition:
    """Partition of a graph's vertices with edges exactly across parts."""

    parts: tuple[tuple[str, ...], ...]


def multipartite_parts(graph: DiametricalGraph) -> MultipartiteDecomposition:
    """Split the vertex set into the complement graph's components.

    For the diametrical graph of an ultrametric space this is always a
    complete multipartite decomposition; the function re-verifies both
    halves (no edge inside a part, every edge across parts) and raises
    NotCompleteMultipartite otherwise, which signals corrupted input.
    """
    order = {p: i for i, p in enumerate(graph.points)}
    adj = graph.neighbors()
    unassigned = set(graph.points)
    parts: list[tuple[str, ...]] = []
    while unassigned:
        seed = min(unassigned, key=order.__getitem__)
        component = {seed}
        frontier = [seed]
        while frontier:
            u = frontier.pop()
            for v in list(unassigned):
                if v not in component and v not in adj[u]:
                    component.add(v)
                    frontier.append(v)
        unassigned -= component
        parts.append(tuple(sorted(component, key=order.__getitem__)))
    parts.sort(key=lambda part: order[part[0]])

    edge_set = {frozenset(e) for e in graph.edges}
    for part in parts:
        for a in part:
            for b in part:
                if a != b and frozenset((a, b)) in edge_set:
                    raise NotCompleteMultipartite(f"edge {a!r}-{b!r} inside a part")
    for pi in range(len(parts)):
        for pj in range(pi + 1, len(parts)):
            for a in parts[pi]:
                for b in parts[pj]:
                    if frozenset((a, b)) not in edge_set:
                        raise NotCompleteMultipartite(
                            f"missing edge {a!r}-{b!r} across parts"
                        )
    return MultipartiteDecomposition(tuple(parts))


@dataclass(frozen=True)
class StarCertificate:
    """A vertex adjacent to every other vertex of the host graph."""

    center: str


def spanning_star(graph: DiametricalGraph) -> Optional[StarCertificate]:
    """Least-index vertex adjacent to all others, or None.

    Equivalent to some part of the multipartite decomposition being a
    singleton. A one-vertex graph certifies vacuously.
    """
    adj = graph.neighbors()
    total = len(graph.points)
    for p in graph.points:
        if len(adj[p]) == total - 1:
            return StarCertificate(p)
    return None


def is_equidistant(space: FiniteUltrametricSpace) -> Optional[Fraction]:
    """The single off-diagonal value if all pairs agree, else None."""
    if space.n < 2:
        raise TooSmall("equidistance needs at least 2 points")
    values = {
        space.matrix[i][j] for i in range(space.n) for j in range(i + 1, space.n)
    }
    if len(values) == 1:
        return values.pop()
    return None


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


def _rank_matrix(space: FiniteUltrametricSpace) -> tuple[list[list[int]], tuple[Fraction, ...]]:
    values = distance_set(space).values
    pos = {v: r for r, v in enumerate(values)}
    ranks = [[pos[d] for d in row] for row in space.matrix]
    return ranks, values


def weak_similarity(
    first: FiniteUltrametricSpace, second: FiniteUltrametricSpace
) -> Optional[WeakSimilarityWitness]:
    """Search for a bijection matching distances rank-for-rank.

    On finite distance sets a strictly increasing bijection between them
    is forced to pair equal ranks, so the search reduces to matching the
    integer rank matrices. Backtracking orders points by the rarity of
    their rank-multiset signature.
    """
    if first.n != second.n:
        return None
    ranks_a, values_a = _rank_matrix(first)
    ranks_b, values_b = _rank_matrix(second)
    if len(values_a) != len(values_b):
        return None
    n = first.n

    def signature(ranks, i):
        return tuple(sorted(ranks[i][j] for j in range(n) if j != i))

    sig_a = [signature(ranks_a, i) for i in range(n)]
    sig_b = [signature(ranks_b, i) for i in range(n)]
    if Counter(sig_a) != Counter(sig_b):
        return None
    freq = Counter(sig_a)
    order = sorted(range(n), key=lambda i: (freq[sig_a[i]], i))

    assignment: list[int] = [-1] * n  # a-index -> b-index
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j] or sig_b[j] != sig_a[i]:
                continue
            ok = True
            for prev in order[:pos]:
                if ranks_a[i][prev] != ranks_b[j][assignment[prev]]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                if extend(pos + 1):
                    return True
                assignment[i] = -1
                used[j] = False
        return False

    if not extend(0):
        return None
    bijection = tuple(
        (first.points[i], second.points[assignment[i]]) for i in range(n)
    )
    scale = tuple((values_b[r], values_a[r]) for r in range(len(values_a)))
    return WeakSimilarityWitness(bijection, scale)


def restrict(
    space: FiniteUltrametricSpace, subset: Iterable[str]
) -> FiniteUltrametricSpace:
    """Subspace on the given points, keeping the ambient point order."""
    idxs = sorted({space.index_of(p) for p in subset})
    if not idxs:
        raise EmptySubset()
    points = tuple(space.points[i] for i in idxs)
    matrix = tuple(tuple(space.matrix[i][j] for j in idxs) for i in idxs)
    return FiniteUltrametricSpace.from_trusted_matrix(points, matrix)
