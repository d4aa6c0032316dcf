"""Reference implementations on the Fraction matrix, for tests only.

These are the straightforward versions the integer-rank core replaced:
the O(n³) triple scan for the strong triangle inequality, analyses that
compare Fractions entry by entry, and the tree metric by one binary-lifting
query per pair. They read only ``space.points`` and the derived
``space.matrix`` view, never the ranks. The one exception is
``weak_similarity_search``, the backtracking search over point bijections
that the canonical-dendrogram test replaced: it matches rank matrices, as
it did in the library, and shares no code with the canonical form.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional

from ultratree.errors import (
    DuplicatePoint,
    EmptySubset,
    NonpositiveOffDiagonal,
    NonpositiveRadius,
    NotCompleteMultipartite,
    NotSymmetric,
    NonzeroDiagonal,
    StrongTriangleViolation,
    TooSmall,
)
from ultratree.metric import FiniteUltrametricSpace, WeakSimilarityWitness
from ultratree.tree import PathMaxIndex, degenerate_edge
from ultratree.errors import DegenerateLabeling

ZERO = Fraction(0)


def validate(points, matrix):
    """Full check by scanning every triple; returns (names, rows) or raises."""
    names = tuple(str(p) for p in points)
    n = len(names)
    seen = set()
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
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = rows[i][j], rows[i][k], rows[j][k]
                top = max(a, b, c)
                if (a == top) + (b == top) + (c == top) < 2:
                    if a == top:
                        raise StrongTriangleViolation((names[i], names[j], names[k]))
                    if b == top:
                        raise StrongTriangleViolation((names[i], names[k], names[j]))
                    raise StrongTriangleViolation((names[j], names[k], names[i]))
    return names, tuple(rows)


def is_violation_longest_first(points, matrix, triple) -> bool:
    """True iff the triple's first pair is its unique longest side."""
    idx = {p: i for i, p in enumerate(points)}
    x, y, z = (idx[p] for p in triple)
    d = lambda a, b: Fraction(matrix[a][b])  # noqa: E731
    return len({x, y, z}) == 3 and d(x, y) > d(x, z) and d(x, y) > d(y, z)


def distance_set(space):
    return tuple(sorted({v for row in space.matrix for v in row} | {ZERO}))


def pointwise_distance_set(space, point):
    return tuple(sorted(set(space.matrix[space.index_of(point)])))


def diameter(space):
    return max((v for row in space.matrix for v in row), default=ZERO)


def center_of_distances(space):
    common = set(space.matrix[0])
    for row in space.matrix[1:]:
        common &= set(row)
    common.add(ZERO)
    return tuple(sorted(common))


def ball(space, center, radius, kind="open"):
    ci = space.index_of(center)
    radius = Fraction(radius)
    if kind == "open":
        if radius <= 0:
            raise NonpositiveRadius(radius, "open")
        return frozenset(p for p, d in zip(space.points, space.matrix[ci]) if d < radius)
    if radius < 0:
        raise NonpositiveRadius(radius, "closed")
    return frozenset(p for p, d in zip(space.points, space.matrix[ci]) if d <= radius)


def _sort_key(space, members):
    idx = tuple(sorted(space.index_of(p) for p in members))
    return (len(idx), idx)


def enumerate_balls(space, kind="open"):
    """[(center, radius, members)] for every distinct ball, least certificate each."""
    values = distance_set(space)
    if kind == "open":
        radii = [v for v in values if v > 0] + [values[-1] + 1]
    else:
        radii = list(values)
    found = {}
    for ci, center in enumerate(space.points):
        for r in radii:
            members = ball(space, center, r, kind)
            prev = found.get(members)
            if prev is None or (space.index_of(prev[0]), prev[1]) > (ci, r):
                found[members] = (center, r, members)
    return sorted(found.values(), key=lambda b: _sort_key(space, b[2]))


def is_centered_sphere(space, subset):
    """(center, radius, members) or None."""
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
            return (space.points[ci], radius, member_set)
    return None


def enumerate_centered_spheres(space):
    found = {}
    for ci, center in enumerate(space.points):
        row = space.matrix[ci]
        for r in sorted(set(row)):
            subset = frozenset(
                space.points[i] for i, d in enumerate(row) if d == r
            ) | {center}
            prev = found.get(subset)
            if prev is None or (space.index_of(prev[0]), prev[1]) > (ci, r):
                found[subset] = (center, r, subset)
    return sorted(found.values(), key=lambda s: _sort_key(space, s[2]))


def diametrical_edges(space):
    diam = diameter(space)
    edges = []
    if space.n >= 2:
        for i in range(space.n):
            for j in range(i + 1, space.n):
                if space.matrix[i][j] == diam:
                    edges.append((space.points[i], space.points[j]))
    return tuple(edges)


def multipartite_parts(points, edges):
    """Complement components by a quadratic sweep, re-verified pair by pair."""
    order = {p: i for i, p in enumerate(points)}
    adj = {p: set() for p in points}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    unassigned = set(points)
    parts = []
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
    edge_set = {frozenset(e) for e in edges}
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
    return tuple(parts)


def spanning_star(points, edges):
    degree = Counter()
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for p in points:
        if degree[p] == len(points) - 1:
            return p
    return None


def is_equidistant(space):
    if space.n < 2:
        raise TooSmall("equidistance needs at least 2 points")
    values = {
        space.matrix[i][j] for i in range(space.n) for j in range(i + 1, space.n)
    }
    return values.pop() if len(values) == 1 else None


def weakly_similar(first, second) -> bool:
    """Exhaustive: some bijection maps distance ranks onto distance ranks."""
    from itertools import permutations

    if first.n != second.n:
        return False
    va, vb = distance_set(first), distance_set(second)
    if len(va) != len(vb):
        return False
    ra = [[va.index(d) for d in row] for row in first.matrix]
    rb = [[vb.index(d) for d in row] for row in second.matrix]
    n = first.n
    return any(
        all(ra[i][j] == rb[perm[i]][perm[j]] for i in range(n) for j in range(n))
        for perm in permutations(range(n))
    )


def weak_similarity_search(
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
    ranks_a, values_a = first.ranks, first.values
    ranks_b, values_b = second.ranks, second.values
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


def restrict(space, subset):
    idxs = sorted({space.index_of(p) for p in subset})
    if not idxs:
        raise EmptySubset()
    return (
        tuple(space.points[i] for i in idxs),
        tuple(tuple(space.matrix[i][j] for j in idxs) for i in idxs),
    )


def tree_matrix(tree):
    """One binary-lifting path-maximum query per pair."""
    bad = degenerate_edge(tree)
    if bad is not None:
        raise DegenerateLabeling(bad)
    index = PathMaxIndex(tree)
    return tuple(
        tuple(
            ZERO if i == j else index.path_max(tree.vertices[i], tree.vertices[j])
            for j in range(tree.n)
        )
        for i in range(tree.n)
    )


def dfs_path_max(tree, root):
    """Per-root DFS computing the path-maximum label to every vertex."""
    adj = tree.adjacency()
    best = [None] * tree.n
    best[root] = tree.labels[root]
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if best[w] is None:
                best[w] = max(best[u], tree.labels[w])
                stack.append(w)
    return best
