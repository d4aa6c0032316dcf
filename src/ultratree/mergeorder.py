"""The readers of a space's merge order: its center of distances and its
diametrical parts.

A merge order lists the points so that every distance is the largest gap
between them (see :mod:`ultratree.metric`). The ``center`` and
``diametrical`` verbs read their answers off it here, in the same way for
a tree JSON (Kruskal's order, no matrix) and a matrix CSV (the order its
validation lists). A distance w is in the center exactly when the closed
balls of diameter w cover the space. The records these answers take, a
distance set, a multipartite decomposition and a star, are defined here
too, and the rank-row analyses (:mod:`ultratree.rankrows`) report in
them. No campaign but the theorem suite and the closed-ball search loads
this module, and neither does ``is-ut``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .metric import _Record
from .rationals import format_rational


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
        return "{" + ", ".join(format_rational(v) for v in self.values) + "}"


def _center_from_gaps(gaps: Sequence[int], values: tuple[Fraction, ...]) -> DistanceSet:
    """The center of distances of a space, read off its merge order.

    A closed ball of diameter w is a run of the merge order whose largest
    inner gap is w and whose bounding gaps are larger. A point realizes w
    exactly when its closed ball of radius w has diameter w, and balls of
    one diameter are disjoint, so w is in the center exactly when the
    balls of diameter w hold all n points. One stack of the balls still
    open to the right finds them, as :func:`~ultratree.hierarchy._split_table`
    finds the diameter splits.
    """
    n = len(gaps) + 1
    held = [n] + [0] * len(values)  # points in the balls of each diameter (0: single points)
    spine: list[tuple[int, int]] = []  # open balls, diameters descending: (diameter, first)
    # a gap closes the smaller balls at the point before it; a last gap
    # above every rank closes every ball after the last point
    for last, g in enumerate([*gaps, len(values)]):
        first = last
        while spine and spine[-1][0] < g:
            w, first = spine.pop()
            held[w] += last + 1 - first
        if not spine or spine[-1][0] > g:  # an equal gap continues the ball
            spine.append((g, first))
    return DistanceSet(tuple(v for v, h in zip(values, held) if h == n))


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


class StarCertificate(_Record):
    """A vertex adjacent to every other vertex of the host graph."""

    __slots__ = ("center",)
    center: str
