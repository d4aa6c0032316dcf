"""The analyses that read a space's rank matrix row by row.

Balls and spheres (with their records and index cores), the distance
sets, the diametrical graph with its decomposition and star, equidistance
and restriction each compare the ints of ``space.ranks``, one row at a
time, and report distances from ``space.values``. They never read the
merge order that the tree verbs answer from (:mod:`ultratree.mergeorder`),
so ``check`` gets independent evidence from them; only ``check``,
``spheres`` and the suite and closed-ball campaigns load this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import Iterable, Literal, Optional, Sequence

from .errors import EmptySubset, NonpositiveRadius, NotCompleteMultipartite, TooSmall
from .mergeorder import DistanceSet, MultipartiteDecomposition, StarCertificate
from .metric import FiniteUltrametricSpace, _Record
from .rationals import exact_rational


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


class Ball(_Record):
    """The points of an open or closed ball, with the center and radius
    that give it."""

    __slots__ = ("kind", "center", "radius", "members")
    kind: BallKind
    center: str
    radius: Fraction
    members: frozenset[str]

    def __init__(self, kind, center, radius, members):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "members", members)


def ball(
    space: FiniteUltrametricSpace, center: str, radius: Fraction, kind: BallKind = "open"
) -> Ball:
    """The open ball {x : d(c,x) < r} or closed ball {x : d(c,x) <= r}, r exact."""
    ci = space.index_of(center)
    radius = exact_rational(radius)
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


def _ball_sets(space: FiniteUltrametricSpace) -> dict[frozenset[int], tuple[int, int]]:
    """Every distinct ball as an index set, with its least (center, cut).

    A ball is the set of points whose rank in the center's row is below a
    cut c = 1..len(values): the open ball of radius ``values[c]`` (the
    sentinel diameter + 1 for the last cut) and the closed ball of radius
    ``values[c - 1]`` alike. In a row's rank-sorted order a ball ends where
    the next rank is larger; its least cut is one above its last rank.
    """
    k = len(space.values)
    found: dict[frozenset[int], tuple[int, int]] = {}
    for ci, row in enumerate(space.ranks):
        by_rank = sorted(range(space.n), key=row.__getitem__)
        sorted_ranks = [row[i] for i in by_rank]
        for size, (r, after) in enumerate(zip(sorted_ranks, sorted_ranks[1:] + [k]), 1):
            if after > r:
                found.setdefault(frozenset(by_rank[:size]), (ci, r + 1))
    return found


def enumerate_balls(
    space: FiniteUltrametricSpace, kind: BallKind = "open"
) -> tuple[Ball, ...]:
    """Every distinct ball of the space, one least (center, radius) each,
    by point index then radius: the cuts of :func:`_ball_sets` as radii."""
    values = space.values
    # the radius of cut c is radii[c - 1]
    radii = (*values[1:], values[-1] + 1) if kind == "open" else values
    found = _ball_sets(space)
    points = space.points
    balls = []
    for members in _index_sets_sorted(found):
        ci, cut = found[members]
        balls.append(Ball(kind, points[ci], radii[cut - 1], frozenset(points[i] for i in members)))
    return tuple(balls)


class SphereCertificate(_Record):
    """A subset with a center c in it and a radius r for which it is
    {x : d(x, c) = r} ∪ {c}."""

    __slots__ = ("center", "radius", "subset")
    center: str
    radius: Fraction
    subset: frozenset[str]

    def __init__(self, center, radius, subset):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "subset", subset)


def _sphere_center(
    space: FiniteUltrametricSpace, idxs: Sequence[int], among: Iterable[int]
) -> Optional[tuple[int, int]]:
    """The least (c, r) for which {c} ∪ {x in among : rank(c, x) = r} is
    exactly the ascending ``idxs``, or None. ``among`` is every point for a
    sphere of the space, or ``idxs`` for one of the subspace on ``idxs``,
    whose ranks compare as the ambient ones do."""
    wanted = set(idxs)
    for ci in idxs:
        row = space.ranks[ci]
        rest = {row[j] for j in idxs if j != ci}
        if len(rest) > 1:
            continue
        radius = rest.pop() if rest else 0
        realized = {i for i in among if row[i] == radius}
        realized.add(ci)
        if realized == wanted:
            return ci, radius
    return None


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
    found = _sphere_center(space, idxs, range(space.n))
    if found is None:
        return None
    members = frozenset(space.points[i] for i in idxs)
    return SphereCertificate(space.points[found[0]], space.values[found[1]], members)


def _sphere_sets(space: FiniteUltrametricSpace) -> dict[frozenset[int], tuple[int, int]]:
    """Every distinct centered sphere as an index set, with its least
    (center, rank). A row's rank buckets are exhaustive and disjoint, so
    they give distinct sets, and the first center to give a set is least."""
    found: dict[frozenset[int], tuple[int, int]] = {}
    for ci, row in enumerate(space.ranks):
        spheres: dict[int, list[int]] = {}
        for i, r in enumerate(row):
            spheres.setdefault(r, []).append(i)
        for r, bucket in spheres.items():
            found.setdefault(frozenset(bucket) | {ci}, (ci, r))
    return found


def enumerate_centered_spheres(
    space: FiniteUltrametricSpace,
) -> tuple[SphereCertificate, ...]:
    """Every distinct centered sphere, one least (center, radius) each."""
    found = _sphere_sets(space)
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
    compares that family's size against 2^n - 1.
    """
    return len(enumerate_centered_spheres(space)) == (1 << space.n) - 1


class DiametricalGraph(_Record):
    """Graph joining exactly the point pairs at maximal distance."""

    __slots__ = ("points", "edges")
    points: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


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
