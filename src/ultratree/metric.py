"""Finite ultrametric spaces as integer rank matrices.

Every question asked of a finite ultrametric space compares distances, so
a space stores the rank of each distance among its distinct values (0 on
the diagonal) next to those values as exact Fractions. All analyses
compare small ints; Fractions appear only where a result reports a
distance. Every analysis result (ball, sphere, graph part, similarity
witness) carries enough data to be re-checked independently. The
canonical dendrogram (the diameter splits, children sorted by key) is the
form of a space up to weak similarity.

The diameter splits, the center and the diametrical parts are read off
one merge order: the points listed so that every distance is the largest
gap between them, from Kruskal for a tree (``tree._gap_form``), a
depth-first walk for a dendrogram (:func:`_merge_order`) or Prim for a
matrix (:func:`_check_strong_triangle`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter, neg
from typing import Callable, Iterable, Literal, Optional, Sequence

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


class _Record:
    """Base of the library's frozen value records.

    A subclass lists its fields in ``__slots__`` (plus ``"__dict__"`` when
    it caches derived values). It gets construction by position or keyword,
    equality and hashing by field values between records of the same type,
    a ``Name(field=value, ...)`` repr, and no assignment or deletion after
    construction. A record that validates or is built in a hot loop writes
    its own ``__init__``, setting each field with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # what equality and hashing compare, read in one call: the field
        # values (the value itself for a one-field record). An attrgetter
        # is no descriptor, so ``self._compared`` is the getter unbound.
        cls._compared = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # every field exactly once: none missing, unknown or given twice
        if values.keys() != set(fields) or len(args) + len(kwargs) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}")
        for field in fields:
            object.__setattr__(self, field, values[field])

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared(self) == other._compared(other)

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


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


def _ranks_from_gaps(
    order: Sequence[int], gaps: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Rank matrix in which the distance between ``order[i]`` and
    ``order[j]`` (i < j) is ``max(gaps[i:j])``.

    Rows are built in list order, each from its neighbour: beyond the
    diagonal, row i is ``gaps[i]`` followed by row i+1's entries, every
    entry below ``gaps[i]`` raised to it; those entries form a prefix,
    as the running maxima ascend away from the diagonal. Before the
    diagonal, row i is row i-1's entries followed by ``gaps[i-1]``, a
    suffix of them raised likewise. Each row is thus one bisection and
    two slice copies per side; a final gather puts rows and columns in
    point order.
    """
    n = len(order)
    if n == 1:
        return ((0,),)
    beyond: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 2, -1, -1):
        g = gaps[i]
        right = beyond[i + 1]
        cut = bisect_left(right, g)
        beyond[i] = [g] * (cut + 1) + right[cut:]
    rows = []
    left: list[int] = []
    for i in range(n):
        if i:
            g = gaps[i - 1]
            cut = bisect_right(left, -g, key=neg)  # first entry below g
            left = left[:cut] + [g] * (i - cut)
        rows.append(left + [0] + beyond[i])
        beyond[i] = []  # each half row is dropped once used, to bound peak memory
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    take = itemgetter(*pos)
    return tuple(take(rows[k]) for k in pos)


class FiniteUltrametricSpace(_Record):
    """An ordered point list plus an integer rank matrix over exact values.

    ``ranks[i][j]`` indexes ``values``, the distance set in ascending
    order: ``values[0] == 0`` is the diagonal and every value is realized
    by some pair. Instances are produced by :func:`validate_ultrametric`
    (full check of the strong triangle inequality) or by
    construction-backed builders (tree metrics, dendrograms, restrictions),
    either through ``from_trusted_matrix``, from a merge order
    (``_from_gaps``) or directly from ranks.
    """

    __slots__ = ("points", "ranks", "values", "__dict__")
    points: tuple[str, ...]
    ranks: tuple[tuple[int, ...], ...]
    values: tuple[Fraction, ...]

    def __init__(self, points, ranks, values):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_trusted_matrix(
        cls, points: Sequence[str], matrix: Sequence[Sequence[Fraction]]
    ) -> "FiniteUltrametricSpace":
        """Wrap a matrix whose validity the caller guarantees by construction."""
        ranks, values = _rank_entries([tuple(row) for row in matrix])
        return cls(tuple(points), ranks, values)

    @classmethod
    def _from_gaps(cls, points, order, gaps, values) -> "FiniteUltrametricSpace":
        """The space in which the distance between ``order[i]`` and
        ``order[j]`` (i < j) is ``values[max(gaps[i:j])]``, keeping that order."""
        space = cls(points, _ranks_from_gaps(order, gaps), values)
        space.__dict__["_gap_form"] = order, gaps, values
        return space

    @cached_property
    def _gap_form(self) -> tuple[Sequence[int], Sequence[int], tuple[Fraction, ...]]:
        """The merge order ``(order, gaps, values)`` as ``_from_gaps`` takes it;
        a space neither built from one nor validated lists it on first use
        by validation's checks, which raise for a non-ultrametric matrix and
        name the same culprit as :func:`validate_ultrametric`."""
        _check_entries(self.points, self.ranks, self.values)
        return (*_check_strong_triangle(self.points, self.ranks), self.values)

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


class DistanceSet(_Record):
    """A strictly increasing tuple of exact distances, always containing 0."""

    __slots__ = ("values",)
    values: tuple[Fraction, ...]

    def __init__(self, values):
        if not values or values[0] != 0:
            raise ValueError("distance set must start at 0")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("distance set must be strictly increasing")
        object.__setattr__(self, "values", values)

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


def _center_from_gaps(gaps: Sequence[int], values: tuple[Fraction, ...]) -> DistanceSet:
    """The center of distances of a space, read off its merge order.

    The points within distance w of a point p are the run of the merge
    order between the nearest gaps above w around p, and p realizes w
    exactly when that run holds a gap equal to w. So w is in the center
    unless some run, with largest inner gap L (0 for one point) and smaller
    bounding gap P, has L < w < P: a single point, or a gap's run up to its
    nearest larger gaps, which one stack over the gaps finds in O(n).
    """
    top = len(values) - 1
    # a difference array: its prefix sum at w counts the runs ruling out
    # w; a sentinel gap above the top closes both ends of the order
    cover = [0] * (top + 2)
    bounds = [top + 1, *gaps, top + 1]
    cover[1] += 1  # the single points, below the farthest nearest neighbour
    cover[max(map(min, bounds, bounds[1:]))] -= 1
    stack: list[int] = []  # strictly decreasing: the gaps still open to the right
    for g in bounds[1:]:
        while stack and stack[-1] < g:
            low = stack.pop()
            cover[low + 1] += 1
            cover[min(g, stack[-1]) if stack else g] -= 1
        if not stack or stack[-1] > g:  # an equal gap belongs to the same run
            stack.append(g)
    center = [values[0]]  # 0
    excluded = 0
    for w in range(1, top + 1):
        excluded += cover[w]
        if not excluded:
            center.append(values[w])
    return DistanceSet(tuple(center))


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


def _cross_part_rows(part_of: Sequence[int]) -> Iterable[tuple[int, list[int]]]:
    """The edges of the complete multipartite graph whose point i lies in
    part ``part_of[i]``, one row at a time: each i with the later points
    of other parts, ascending. A diametrical graph is read off its parts
    this way without holding its edge list."""
    n = len(part_of)
    for i, k in enumerate(part_of):
        later = i + 1
        yield i, list(compress(range(later, n), map(k.__ne__, part_of[later:])))


def _diametrical_parts(
    order: Sequence[int], gaps: Sequence[int], values: tuple[Fraction, ...]
) -> list[list[int]]:
    """The parts of a space's diametrical graph: the runs of its merge
    order between the top gaps, each sorted, ordered by least index, as
    ``multipartite_parts`` lists them. A single point is one part."""
    top = len(values) - 1
    cuts = [0, *(k for k, g in enumerate(gaps, 1) if g == top), len(order)]
    return sorted(sorted(order[a:b]) for a, b in zip(cuts, cuts[1:]))


class MultipartiteDecomposition(_Record):
    """Partition of a graph's vertices with edges exactly across parts."""

    __slots__ = ("parts",)
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


class StarCertificate(_Record):
    """A vertex adjacent to every other vertex of the host graph."""

    __slots__ = ("center",)
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
