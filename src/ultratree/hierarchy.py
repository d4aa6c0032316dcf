"""Matrix validation, and the diameter splits read off a merge order.

Validation checks a matrix and lists its merge order by Prim's algorithm
(:func:`_check_strong_triangle`). The diameter splits read off a merge
order (:func:`_split_table`) give the canonical dendrogram
(:mod:`ultratree.dendrogram`) and decide ``is_ut`` (:mod:`ultratree.tree`).

The matrix readers, the p-adic sampler, ``is_ut``, the canonical
dendrogram and a space with no merge order load this module; the tree
verbs, which read their hierarchy off Kruskal's order, and the
campaigns, which read their classes and witnesses off the enumerator's
table, do not.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .errors import (
    DuplicatePoint,
    FormatError,
    NonpositiveOffDiagonal,
    NotSymmetric,
    NonzeroDiagonal,
    StrongTriangleViolation,
)
from .metric import ZERO, FiniteUltrametricSpace, _rank_entries
from .rationals import exact_rational


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
    and the space keeps the merge order that check lists. An entry that
    :func:`~ultratree.rationals.exact_rational` refuses (a float, a bool,
    "0.1") raises FormatError naming the first such pair in row order, and
    so does a row given as a string, naming its point.
    """
    names = tuple(str(p) for p in points)
    n = len(names)
    for name, row in zip(names, matrix):
        if isinstance(row, str):  # not read as its characters
            raise FormatError(f"row for point {name!r} is a string, not a sequence: {row!r}")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise NotSymmetric(("<shape>", "<shape>"))
    try:
        ranks, values = _rank_entries([tuple(row) for row in matrix])
    except FormatError:  # named by the first pair in row order that holds a refused entry
        for i, row in enumerate(matrix):
            for j, v in enumerate(row):
                try:
                    exact_rational(v)
                except FormatError:
                    raise FormatError(
                        f"entry for pair {(names[i], names[j])!r} is not an exact rational: {v!r}"
                    ) from None
    _check_entries(names, ranks, values)
    space = FiniteUltrametricSpace(names, ranks, values)
    space.__dict__["_gap_form"] = (*_check_strong_triangle(names, ranks), values)
    return space


def _check_entries(names: tuple[str, ...], ranks, values: Sequence[Fraction]) -> None:
    """Raise DuplicatePoint for the first repeated name, then
    NonzeroDiagonal, NotSymmetric or NonpositiveOffDiagonal for the first
    faulty point or pair in row order, unless the names are distinct and
    the square rank matrix has a zero diagonal and positive, symmetric
    entries off it."""
    n = len(ranks)
    first = {name: k for k, name in reversed(list(enumerate(names)))}  # first positions
    if len(first) < len(names):
        raise DuplicatePoint(next(name for k, name in enumerate(names) if first[name] != k))
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


def _split_table(gap_form: tuple) -> tuple[list[int], list]:
    """Split a space recursively at its diameters, read off its merge order
    ``(order, gaps, values)`` as ``space._gap_form`` holds it; no matrix is
    needed, so a dendrogram's own merge order serves as well.

    Returns two lists indexed by ball position: the single points first,
    each at its own index, then every ball after its blocks and the whole
    space last. They hold the ball's diameter rank (0 for a single point)
    and its blocks' positions in order of least point (none for a single
    point). A ball is a run of the merge order and its blocks are the runs
    between its largest gaps: one stack of the balls still open to the
    right finds them.
    """
    order, gaps, values = gap_form
    least = list(range(len(order)))  # each ball's least point
    levels = [0] * len(order)
    children: list = [()] * len(order)
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
