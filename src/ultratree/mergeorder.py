"""The readers of a space's merge order: its center of distances and its
diametrical parts.

A merge order lists the points so that every distance is the largest gap
between them (see :mod:`ultratree.metric`). The ``center`` and
``diametrical`` verbs read their answers off it here, in the same way for
a tree JSON (Kruskal's order, no matrix) and a matrix CSV (the order its
validation lists). The records these answers take, a distance set, a
multipartite decomposition and a star, are defined here too, and the
rank-row analyses (:mod:`ultratree.rankrows`) report in them. No
campaign but the theorem suite and the closed-ball search loads this
module, and neither does ``is-ut``.
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
