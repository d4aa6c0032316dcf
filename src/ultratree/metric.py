"""Finite ultrametric spaces as integer rank matrices, and their merge orders.

Every question asked of a finite ultrametric space compares distances, so
a space stores the rank of each distance among its distinct values (0 on
the diagonal) next to those values as exact Fractions. All analyses
compare small ints; Fractions appear only where a result reports a
distance. Every analysis result (ball, sphere, graph part, similarity
witness) carries enough data to be re-checked independently.

A space's hierarchy has one form, its merge order: the points listed so
that every distance is the largest gap between them. Kruskal's algorithm
gives it for a tree (``treemetric._gap_form``), a depth-first walk for a
dendrogram or the enumerator's table (:func:`_merge_order`, here) and
Prim's for a matrix (``hierarchy._check_strong_triangle``). Everything
else lives in modules that a verb loads only when it runs them: the
center and the diametrical parts read off a merge order in
:mod:`ultratree.mergeorder`, matrix validation in
:mod:`ultratree.hierarchy`, the canonical dendrogram and weak similarity
in :mod:`ultratree.dendrogram`, and the rank-row analyses (balls,
spheres, the diametrical graph) in :mod:`ultratree.rankrows`. Their
public names still resolve here, each loading its module on first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, itemgetter, neg
from typing import Callable, Sequence

from .errors import UnknownPoint
from .rationals import exact_rational

ZERO = Fraction(0)

# the public names defined in the modules split off from this one, each
# with its module; looked up before anything is imported, so that a probe
# such as ``from .metric import X`` (which asks for ``__path__`` first)
# loads neither module
_MOVED = {
    "validate_ultrametric": "hierarchy",
    **dict.fromkeys(
        ("Dendrogram", "WeakSimilarityWitness", "space_to_dendrogram", "weak_similarity"),
        "dendrogram",
    ),
    **dict.fromkeys(
        ("DistanceSet", "MultipartiteDecomposition", "StarCertificate"), "mergeorder"
    ),
    **dict.fromkeys(
        ("Ball", "BallKind", "DiametricalGraph", "SphereCertificate",
         "all_subsets_centered_spheres", "ball", "center_of_distances", "diameter",
         "diametrical_graph", "distance_set", "enumerate_balls",
         "enumerate_centered_spheres", "is_centered_sphere", "is_equidistant",
         "multipartite_parts", "pointwise_distance_set", "restrict", "spanning_star"),
        "rankrows",
    ),
}


def __getattr__(name: str):
    module = _MOVED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __package__), name)


class _Record:
    """Base of the library's frozen value records.

    A subclass lists its fields in ``__slots__`` (plus ``"__dict__"`` when
    it caches derived values). It gets construction by position or keyword,
    equality and hashing by field values (or its own ``_compared``) between
    records of one type, a ``Name(field=value, ...)`` repr, and no
    assignment or deletion after construction. A record that validates or
    is built in a hot loop writes its own ``__init__``, setting each field
    with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # what equality and hashing compare, read in one call: the field
        # values (the value itself for a one-field record) unless the class
        # sets its own. A getter is no descriptor, so it is called unbound.
        cls._compared = vars(cls).get("_compared") or attrgetter(*cls._fields)

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
    here share one object per distinct value, so ``exact_rational`` converts
    each value once, in order of first appearance, instead of once per cell.
    ``rows`` keeps every entry alive, so identities cannot be reused.
    """
    by_id: dict[int, object] = {}
    for row in rows:
        by_id.update(zip(map(id, row), row))
    fracs = {key: exact_rational(v) for key, v in by_id.items()}
    values = sorted(set(fracs.values()) | {ZERO})
    pos = {v: r for r, v in enumerate(values)}
    rank_of = {key: pos[v] for key, v in fracs.items()}
    # tuples from lists, at their size: a tuple of a map is made with ten
    # slots and shrunk, and a campaign builds thousands of small spaces
    ranks = tuple([tuple(list(map(rank_of.__getitem__, map(id, row)))) for row in rows])
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
    take = itemgetter(*pos)  # rows at their size; the outer tuple from a list, as above
    return tuple([take(rows[k]) for k in pos])


class FiniteUltrametricSpace(_Record):
    """An ordered point list plus an integer rank matrix over exact values.

    ``ranks[i][j]`` indexes ``values``, the distance set in ascending
    order: ``values[0] == 0`` is the diagonal and every value is realized
    by some pair. Instances are produced by
    :func:`~ultratree.hierarchy.validate_ultrametric` (full check of the
    strong triangle inequality) or by construction-backed builders (tree
    metrics, dendrograms, restrictions), either through
    ``from_trusted_matrix``, from a merge order (``_from_gaps``) or
    directly from ranks.
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
        """Wrap a matrix whose validity (not exactness) the caller guarantees."""
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
        name the same culprit as
        :func:`~ultratree.hierarchy.validate_ultrametric`."""
        from .hierarchy import _check_entries, _check_strong_triangle

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


def _merge_order(
    root, split: Callable = attrgetter("level", "children")
) -> tuple[list, list[int]]:
    """The leaves under ``root`` in depth-first child order, and the level
    between each two neighbouring leaves: the dendrogram's merge order.

    ``split(node)`` gives the node's level and its children, none for a
    leaf; the default reads a :class:`~ultratree.dendrogram.Dendrogram`. Two neighbouring leaves
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
