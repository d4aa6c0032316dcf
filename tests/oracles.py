"""Reference implementations on the Fraction matrix, for tests only.

These are the straightforward versions the integer-rank core replaced:
the O(n³) triple scan for the strong triangle inequality, analyses that
compare Fractions entry by entry, the binary-lifting path-maximum index
that the range maximum over Kruskal's merge order replaced, and the tree
metric by one binary-lifting query per pair. They read only
``space.points`` and the derived ``space.matrix`` view, never the ranks. The one exception is
``weak_similarity_search``, the backtracking search over point bijections
that the canonical-dendrogram test replaced: it matches rank matrices, as
it did in the library, and shares no code with the canonical form.
The class enumeration on nested tuples and the campaign checks on each
class's realized space are what the fold over interned dendrograms
replaced; ``enumerate_ids_by_sort_keys`` is that id walk as it sorted
every forest by nested sort keys, before forests were kept in canonical
order as they were built; the walks over one class's dendrogram for its
center size and its leaf-child criterion are what the per-subtree masks
and flags of the enumerator replaced. ``check_con3`` and ``check_hol``
are those campaigns as they walked every class (``enumerate_dendrograms``)
and folded it bottom-up (``dendrogram_folds``), before they folded over
forest states; ``class_counts`` counts the classes in closed form.
``padic_distance`` is the p-adic
distance on Fraction differences that the int valuations replaced.
``is_ut_split_walk`` is ``is_ut`` as it walked the
diameter splits top-down with a stack and a split of its own, before it
read the table the canonical form is built from; ``canonical_form`` is
the canonical dendrogram and leaf order on those same splits, before
both were read off the merge order, its children sorted by
``walk_order_key``, the walk's order, which shares no code with the
enumerator's table. ``_leaf_runs`` numbers
a dendrogram's leaves frame by frame, as ``dendrogram_to_space`` did before
one depth-first walk of the merge order served every dendrogram reader.
The oracles import no private name of the package. The last section is the
theorem suite through the public name-keyed API, which the suite on the
rank matrix replaced; like that suite, it reads the ranks for its
row-maximum check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterator, Optional

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
from ultratree.explorer import CampaignReport, dendrogram_to_space, enumerate_dendrograms
from ultratree.formats import matrix_csv_string
from ultratree.dendrogram import Dendrogram, WeakSimilarityWitness, weak_similarity
from ultratree.metric import FiniteUltrametricSpace
from ultratree.rationals import format_rational
from ultratree.tree import LabeledTree
from ultratree.treemetric import degenerate_edge, validate_tree
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


class LiftingPathMaxIndex:
    """Binary-lifting index answering path-maximum label queries.

    Preprocessing is O(n log d) for maximum depth d; each query is
    O(log d). Labels are compressed to integer ranks once, so the hot
    loops compare small ints; results are mapped back to exact Fractions.
    """

    __slots__ = ("tree", "_values", "_rank", "_depth", "_up", "_upmax", "_levels")

    def __init__(self, tree: LabeledTree):
        self.tree = tree
        n = tree.n
        values = sorted(set(tree.labels))
        pos = {v: r for r, v in enumerate(values)}
        rank = [pos[lab] for lab in tree.labels]

        adj = tree.adjacency()
        parent = [0] * n
        depth = [0] * n
        order = []
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    stack.append(w)

        max_depth = max(depth) if n > 1 else 0
        levels = max(1, max_depth.bit_length())
        up = [parent]
        upmax = [rank[:]]  # segment of length 1: the vertex itself
        for k in range(1, levels):
            prev_up = up[k - 1]
            prev_max = upmax[k - 1]
            nxt_up = [0] * n
            nxt_max = [0] * n
            for v in range(n):
                mid = prev_up[v]
                nxt_up[v] = prev_up[mid]
                a = prev_max[v]
                b = prev_max[mid]
                nxt_max[v] = a if a >= b else b
            up.append(nxt_up)
            upmax.append(nxt_max)

        self._values = values
        self._rank = rank
        self._depth = depth
        self._up = up
        self._upmax = upmax
        self._levels = levels

    def _path_max_rank(self, u: int, v: int) -> int:
        rank = self._rank
        if u == v:
            return rank[u]
        depth = self._depth
        up = self._up
        upmax = self._upmax
        best = rank[u]
        if rank[v] > best:
            best = rank[v]
        du, dv = depth[u], depth[v]
        if du < dv:
            u, v, du, dv = v, u, dv, du
        diff = du - dv
        k = 0
        while diff:
            if diff & 1:
                m = upmax[k][u]
                if m > best:
                    best = m
                u = up[k][u]
            diff >>= 1
            k += 1
        if u == v:
            return best
        for k in range(self._levels - 1, -1, -1):
            uk = up[k]
            if uk[u] != uk[v]:
                mk = upmax[k]
                m = mk[u]
                if m > best:
                    best = m
                m = mk[v]
                if m > best:
                    best = m
                u = uk[u]
                v = uk[v]
        # u and v now sit just below their lowest common ancestor.
        for r in (rank[u], rank[v], rank[self._up[0][u]]):
            if r > best:
                best = r
        return best

    def path_max(self, u: str, v: str) -> Fraction:
        """Maximum label over the path joining u and v, endpoints included."""
        ui = self.tree.index_of(u)
        vi = self.tree.index_of(v)
        return self._values[self._path_max_rank(ui, vi)]


def tree_matrix(tree):
    """One binary-lifting path-maximum query per pair."""
    bad = degenerate_edge(tree)
    if bad is not None:
        raise DegenerateLabeling(bad)
    index = LiftingPathMaxIndex(tree)
    return tuple(
        tuple(
            ZERO if i == j else index.path_max(tree.vertices[i], tree.vertices[j])
            for j in range(tree.n)
        )
        for i in range(tree.n)
    )


def dendrogram_lca_levels(dendro):
    """Level of the lowest common ancestor of every pair of leaves, the
    leaves numbered depth first with children in stored order; 0 on the
    diagonal."""

    def leaves(node, first):
        """Leaf numbers under node, filling in the pairs it separates."""
        if node.is_leaf:
            return [first]
        runs = []
        for child in node.children:
            runs.append(leaves(child, first + sum(map(len, runs))))
        for a, run in enumerate(runs):
            for other in runs[a + 1:]:
                for i in run:
                    for j in other:
                        levels[i][j] = levels[j][i] = node.level
        return [i for run in runs for i in run]

    n = 0
    stack = [dendro]
    while stack:
        node = stack.pop()
        n += node.is_leaf
        stack.extend(node.children)
    levels = [[0] * n for _ in range(n)]
    leaves(dendro, 0)
    return levels


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


def padic_distance(t, w, p: int) -> Fraction:
    """The p-adic distance of two rationals as ``dp_metric`` computed it
    before its int path: the norm of their Fraction difference, the prime
    divided out of its numerator and denominator one factor at a time."""
    diff = Fraction(t) - Fraction(w)
    if not diff:
        return ZERO
    num, den, exponent = abs(diff.numerator), diff.denominator, 0
    while num % p == 0:
        num //= p
        exponent += 1
    while den % p == 0:
        den //= p
        exponent -= 1
    return Fraction(1, p**exponent) if exponent >= 0 else Fraction(p**-exponent)


def padic_space(values, p: int) -> FiniteUltrametricSpace:
    """The p-adic sample space of distinct values, one oracle distance per
    pair, named as ``sample_space`` names its points."""
    vals = [Fraction(v) for v in values]
    matrix = [[padic_distance(t, w, p) for w in vals] for t in vals]
    return FiniteUltrametricSpace.from_trusted_matrix([format_rational(v) for v in vals], matrix)


# --- class enumeration and campaign checks on spaces ---------------------------

def _struct_key(t, cache: dict) -> str:
    k = cache.get(t)
    if k is None:
        if t == 0:
            k = "L"
        else:
            k = "(%d:%s)" % (t[0], ",".join(_struct_key(c, cache) for c in t[1:]))
        cache[t] = k
    return k


def walk_order_key(t, cache: dict) -> tuple:
    """The sort key of the enumerator's walk for a subtree given as nested
    tuples (leaf 0): a node sorts by level number, then by its children in
    this same order, and the leaf after every node."""
    k = cache.get(t)
    if k is None:
        k = cache[t] = (1,) if t == 0 else (0, t[0], tuple(walk_order_key(c, cache) for c in t[1:]))
    return k


def _sub_multisets(items: tuple, min_size: int = 0) -> list[tuple]:
    """All sub-multisets of a sorted tuple, as sorted tuples."""
    groups: list[list] = []
    for it in items:
        if groups and groups[-1][0] == it:
            groups[-1][1] += 1
        else:
            groups.append([it, 1])
    result: list[tuple] = []

    def rec(gi: int, chosen: list, total: int) -> None:
        if gi == len(groups):
            if total >= min_size:
                result.append(tuple(chosen))
            return
        value, count = groups[gi]
        for take in range(count + 1):
            rec(gi + 1, chosen + [value] * take, total + take)

    rec(0, [], 0)
    return result


def _multiset_partitions_ge2(items: tuple, keyfn) -> Iterator[tuple]:
    """Partitions of a sorted multiset into parts of size >= 2, each
    partition emitted once as its non-increasing part sequence."""

    def partkey(part):
        return tuple(keyfn(x) for x in part)

    def rec(remaining: tuple, bound, acc: list) -> Iterator[tuple]:
        if not remaining:
            yield tuple(acc)
            return
        for part in _sub_multisets(remaining, min_size=2):
            pk = partkey(part)
            if bound is not None and pk > bound:
                continue
            rest = list(remaining)
            for x in part:
                rest.remove(x)
            acc.append(part)
            yield from rec(tuple(rest), pk, acc)
            acc.pop()

    yield from rec(items, None, [])


def dendrogram_keys(n: int) -> Iterator[str]:
    """The canonical key of every n-point class, in enumeration order.

    Forests are sorted tuples of nested tuples (leaf = 0, internal =
    (level, child, ...)), merged bottom-up one level at a time.
    """
    if n == 1:
        yield "L"
        return

    key_cache: dict = {}

    def keyf(t) -> str:
        return _struct_key(t, key_cache)

    def step(forest: tuple, level: int) -> Iterator:
        for passive in _sub_multisets(forest):
            active = list(forest)
            for x in passive:
                active.remove(x)
            if len(active) < 2:
                continue
            for plan in _multiset_partitions_ge2(tuple(active), keyf):
                merged = [
                    (level,) + tuple(sorted(group, key=keyf)) for group in plan
                ]
                new_forest = tuple(sorted(list(passive) + merged, key=keyf))
                if len(new_forest) == 1:
                    yield new_forest[0]
                else:
                    yield from step(new_forest, level + 1)

    for struct in step(tuple([0] * n), 1):
        yield keyf(struct)


def enumerate_ids_by_sort_keys(n: int, table, folds: dict) -> Iterator[int]:
    """The enumerator's id walk as it was when it sorted every forest.

    ``table`` is a fresh subtree table: lists ``nodes`` and ``leafy`` that
    hold the leaf's entries. ``folds`` gets this walk's own per-id lists
    ``full``, ``size`` and ``spheres``, folded as :func:`dendrogram_folds`
    folds them. Each interned node also gets a sort key, (level, the
    children's keys, ...), with the leaf's ``(inf,)`` after every node's,
    and each new forest is the kept roots plus the merged nodes, sorted by
    those keys. Forests are tuples of ids; their distinct roots and counts
    are read off by scans.
    """
    folds.update(full=[0], size=[1], spheres=[1])
    full, size, spheres = folds["full"], folds["size"], folds["spheres"]
    if n == 1:
        yield 0
        return
    nodes, leafy = table.nodes, table.leafy
    order = [(float("inf"),)]
    ids: dict = {}

    def intern(node: tuple) -> int:
        nid = ids.get(node)
        if nid is None:
            nid = ids[node] = len(nodes)
            nodes.append(node)
            level, *children = node
            order.append((level, *(order[c] for c in children)))
            mask = ~0
            for c in children:
                mask &= full[c]
            full.append(mask | 1 << level)
            m = children.count(0)
            leafy.append(m > 0 and all(leafy[c] for c in children))
            leaves = sum(size[c] for c in children)
            size.append(leaves)
            spheres.append(sum(spheres[c] for c in children) + leaves - m + (m > 0))
        return nid

    def step(forest: tuple, level: int) -> Iterator[int]:
        distinct = list(dict.fromkeys(forest))
        counts = [forest.count(x) for x in distinct]
        for passive in itertools.product(*[range(c + 1) for c in counts]):
            active = [c - p for c, p in zip(counts, passive)]
            if sum(active) < 2:
                continue
            kept = [x for x, p in zip(distinct, passive) for _ in range(p)]
            elements = tuple(i for i, a in enumerate(active) for _ in range(a))
            for plan in _multiset_partitions_ge2(elements, lambda i: i):
                merged = [intern((level, *(distinct[i] for i in part))) for part in plan]
                new_forest = tuple(sorted(kept + merged, key=order.__getitem__))
                if len(new_forest) == 1:
                    yield new_forest[0]
                else:
                    yield from step(new_forest, level + 1)

    yield from step((0,) * n, 1)


def dendrogram_folds(dendro, memo: dict) -> tuple[int, int, int]:
    """``(full, size, spheres)`` of a class, folded bottom-up over its
    dendrogram as the enumerator's table once folded them per subtree;
    ``memo`` maps each subtree folded so far to its values.

    ``full`` has bit L set when the nodes at level L hold every leaf (none
    for a leaf; a node adds its own level to the AND of its children's);
    ``size`` counts the leaves. ``spheres`` counts the distinct centered
    spheres: 1 for a leaf; for a node v with m leaf children, the
    children's sum plus size(v) − m, plus 1 if m > 0.
    """
    found = memo.get(dendro)
    if found is None:
        if dendro.is_leaf:
            found = (0, 1, 1)
        else:
            mask, size, spheres = ~0, 0, 0
            for child in dendro.children:
                f, s, k = dendrogram_folds(child, memo)
                mask, size, spheres = mask & f, size + s, spheres + k
            m = sum(child.is_leaf for child in dendro.children)
            found = (mask | 1 << dendro.level, size, spheres + size - m + (m > 0))
        memo[dendro] = found
    return found


def _class_witness(dendro, note: str) -> dict:
    return {"label": dendro.key(), "matrix_csv": matrix_csv_string(dendrogram_to_space(dendro)),
            "note": note}


def check_con3(n: int) -> CampaignReport:
    """The ``con3`` campaign as it walked every class: the largest center
    size, folded from each class's ``full`` mask, and the first class of
    the walk that attains it."""
    memo: dict = {}
    instances = max_size = 0
    best = None
    for dendro in enumerate_dendrograms(n):
        instances += 1
        size = 1 + bin(dendrogram_folds(dendro, memo)[0]).count("1")
        if size > max_size:
            max_size, best = size, dendro
    bound = n.bit_length()
    verdict = "CONSISTENT" if max_size <= bound else "COUNTEREXAMPLE"
    results = {"verdict": verdict, "bound": bound, "max_center_size": max_size,
               "bound_attained": max_size == bound}
    return CampaignReport("con3", n, instances, verdict, {"center-size-bound": results},
                          [_class_witness(best, f"center size {max_size} (bound {bound})")])


def max_sphere_count(n: int) -> int:
    """The most distinct centered spheres of an n-point class, over every
    class of the walk."""
    memo: dict = {}
    return max(dendrogram_folds(dendro, memo)[2] for dendro in enumerate_dendrograms(n))


def check_hol(n: int) -> CampaignReport:
    """The ``hol`` campaign as it walked every class: the classes whose
    folded sphere count is 2^n − 1, in walk order, each compared with the
    one-short-side triple."""
    if n < 3:
        raise TooSmall("the all-subsets-spheres campaign needs n >= 3")
    memo: dict = {}
    classes = list(enumerate_dendrograms(n))
    satisfying = [d for d in classes if dendrogram_folds(d, memo)[2] == (1 << n) - 1]
    reference = FiniteUltrametricSpace.from_trusted_matrix(
        ("x1", "x2", "x3"), ((0, 2, 1), (2, 0, 2), (1, 2, 0))
    )
    similar = [weak_similarity(dendrogram_to_space(d), reference) is not None for d in satisfying]
    witnesses = [
        _class_witness(d, "all subsets are centered spheres"
                       + ("; weakly similar to the 3-point reference" if like else ""))
        for d, like in zip(satisfying, similar)
    ]
    consistent = similar == [True] if n == 3 else not satisfying
    verdict = "CONSISTENT" if consistent else "COUNTEREXAMPLE"
    results = {"verdict": verdict, "satisfying_classes": len(satisfying),
               "weakly_similar_to_reference": similar}
    return CampaignReport("hol", n, len(classes), verdict, {"all-subsets-spheres": results}, witnesses)


def _multisets(counts: list[int]) -> list[int]:
    """The Euler transform: from the number of objects of each size (none
    of size 0), the number of multisets of them of each size."""
    n = len(counts) - 1
    weights = [0] + [sum(d * counts[d] for d in range(1, k + 1) if k % d == 0)
                     for k in range(1, n + 1)]
    sets = [1] + [0] * n
    for k in range(1, n + 1):
        sets[k] = sum(weights[i] * sets[k - i] for i in range(1, k + 1)) // k
    return sets


def class_counts(n: int) -> tuple[int, int]:
    """The number of n-point classes and of those a labeled tree realizes,
    in closed form, sharing no code with the walk.

    A class is a rooted tree whose internal nodes have two children or
    more, at strictly increasing integer levels above the leaves' 0, that
    uses every level 1..k. The trees of root level at most j are the
    multisets (of one element: that tree itself) of trees of root level at
    most j − 1: an Euler transform per level. The trees that use k given
    levels are as many for every choice of them, so binomial inversion over
    the levels used keeps those that use all of 1..k. A realizable class
    has a leaf child under every internal node: its new roots are the
    multisets of two or more that hold a leaf, all of them less those with
    none, less the one leaf alone.
    """
    leaf = [0, 1] + [0] * (n - 1)
    every, realizable = [leaf], [leaf]  # index j: trees of root level <= j
    for _ in range(1, n):
        sets = _multisets(every[-1])
        every.append([0] + sets[1:])
        below = realizable[-1]
        with_leaf = [a - b for a, b in zip(_multisets(below), _multisets([0, 0] + below[2:]))]
        realizable.append([b + w - (k == 1) for k, (b, w) in enumerate(zip(below, with_leaf))])

    def using_every_level(trees: list) -> int:
        return sum((-1) ** (k - j) * comb(k, j) * trees[j][n]
                   for k in range(n) for j in range(k + 1))

    return using_every_level(every), using_every_level(realizable)


def center_size(space) -> int:
    """|center of distances| of a class, from its realized space."""
    return len(center_of_distances(space))


def all_subsets_spheres(space) -> bool:
    """Whether every non-empty subset of the space is a centered sphere."""
    return len(enumerate_centered_spheres(space)) == (1 << space.n) - 1


def _leaf_runs(dendro: Dendrogram) -> tuple[int, list[tuple[int, int, int, list]]]:
    """Number the leaves depth first; list each internal node's leaf runs.

    Returns the leaf count and, per internal node, ``(level, first leaf,
    end, child runs)``: the node holds leaves ``first..end-1`` and each
    child's leaves are the contiguous run ``(a, b)``, in child order.
    """
    if dendro.is_leaf:
        return 1, []
    nodes = []
    next_leaf = 0
    # frames: [internal node, next child to visit, first leaf, child runs]
    stack: list[list] = [[dendro, 0, 0, []]]
    while stack:
        frame = stack[-1]
        node, child, start, runs = frame
        if child < len(node.children):
            frame[1] += 1
            nxt = node.children[child]
            if nxt.is_leaf:
                runs.append((next_leaf, next_leaf + 1))
                next_leaf += 1
            else:
                stack.append([nxt, 0, next_leaf, []])
            continue
        stack.pop()
        nodes.append((node.level, start, next_leaf, runs))
        if stack:
            stack[-1][3].append((start, next_leaf))
    return next_leaf, nodes


def sphere_masks(dendro) -> tuple[int, set[int]]:
    """The leaf count and the distinct centered spheres of the class.

    Leaves are bits in depth-first order. The sphere of radius level(v)
    around a leaf c under the child k of v is {c} ∪ (leaves(v) − leaves(k));
    every other radius gives {c}.
    """
    n, nodes = _leaf_runs(dendro)
    family = {1 << c for c in range(n)}
    for _, start, end, runs in nodes:
        whole = (1 << end) - (1 << start)
        for a, b in runs:
            rest = whole - ((1 << b) - (1 << a))
            family.update(rest | (1 << c) for c in range(a, b))
    return n, family


def dendrogram_center_size(dendro) -> int:
    """|center of distances| of the class, read off the dendrogram.

    A point's distances are 0 and its ancestors' levels, so a level is in
    the center exactly when the nodes at that level hold all the leaves.
    """
    n, nodes = _leaf_runs(dendro)
    covered: Counter = Counter()
    for level, start, end, _ in nodes:
        covered[level] += end - start
    return 1 + list(covered.values()).count(n)


def has_leaf_children(dendro) -> bool:
    """The ``is_ut`` criterion read off the dendrogram: the class is
    realizable by a labeled tree on its own points exactly when every
    internal node has a leaf child."""
    stack = [dendro]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if not any(child.is_leaf for child in node.children):
            return False
        stack.extend(node.children)
    return True


def _diameter_split(space, idxs: list[int]) -> tuple[Fraction, list[list[int]]]:
    """Split a ball (ascending indices, two or more points) at its
    diameter: the diameter and the blocks of points closer than it, each
    ascending, in order of their smallest index."""
    matrix = space.matrix
    diam = max(matrix[idxs[0]][j] for j in idxs)
    if diam == 0:
        raise NonpositiveOffDiagonal((space.points[idxs[0]], space.points[idxs[1]]))
    groups: list[list[int]] = []
    remaining = idxs
    while remaining:
        row = matrix[remaining[0]]
        groups.append([v for v in remaining if row[v] < diam])
        remaining = [v for v in remaining if row[v] >= diam]
    return diam, groups


def canonical_form(space) -> tuple[str, list[int]]:
    """The canonical dendrogram's key and the point indices in canonical
    leaf order, by recursive diameter splits of the matrix: a ball's blocks
    in order of their smallest index, then stably sorted in the walk's
    order (:func:`walk_order_key`)."""
    rank = {v: r for r, v in enumerate(distance_set(space))}
    cache: dict = {}

    def build(idxs: list[int]) -> tuple[object, list[int]]:
        if len(idxs) == 1:
            return 0, idxs
        diam, groups = _diameter_split(space, idxs)
        subs = sorted(map(build, groups), key=lambda sub: walk_order_key(sub[0], cache))
        leaves = [i for _, order in subs for i in order]
        return (rank[diam], *(t for t, _ in subs)), leaves

    tree, leaves = build(list(range(space.n)))
    return _struct_key(tree, {}), leaves


def is_ut_split_walk(space) -> Optional[LabeledTree]:
    """A labeled tree on the space's points realizing it, or None.

    Walks the balls from the whole space down with a stack: a ball of two
    or more points with no single-point block means None; otherwise its
    lowest-index singleton is its hub, labeled with the ball's diameter,
    and every other block hangs its own hub off it.
    """
    labels = [ZERO] * space.n
    edges: list[tuple[int, int]] = []
    stack: list[tuple[list[int], Optional[int]]] = [(list(range(space.n)), None)]
    while stack:
        idxs, parent = stack.pop()
        hub = idxs[0]
        if len(idxs) > 1:
            diam, groups = _diameter_split(space, idxs)
            singles = [g[0] for g in groups if len(g) == 1]
            if not singles:
                return None
            hub = singles[0]
            labels[hub] = diam
            stack.extend((g, hub) for g in groups if g != [hub])
        if parent is not None:
            edges.append((parent, hub))
    names = space.points
    return validate_tree(
        names,
        [(names[i], names[j]) for i, j in edges],
        dict(zip(names, labels)),
    )


# --- the name-keyed theorem suite ---------------------------------------------

def theorem_suite(
    space: FiniteUltrametricSpace, is_ut_hint: bool = False
) -> "CampaignReport":
    """The theorem suite through the public name-keyed API, as it ran
    before the suite read the rank matrix: one ``ball``,
    ``is_centered_sphere``, ``restrict`` or ``pointwise_distance_set``
    call per ball or per point, radii and distance sets as Fractions.

    The ball and sphere enumerations and the sphere test are this
    module's Fraction-matrix versions, since the library's now wrap the
    index cores the suite runs on; the rest is the library's API.
    """
    from ultratree.explorer import CampaignReport
    from ultratree.formats import matrix_csv_string
    from ultratree.rankrows import (
        ball,
        center_of_distances,
        diameter,
        diametrical_graph,
        distance_set,
        is_equidistant,
        multipartite_parts,
        pointwise_distance_set,
        restrict,
        spanning_star,
    )

    n = space.n
    diam = diameter(space)
    center = center_of_distances(space)
    spheres = {subset for _, _, subset in enumerate_centered_spheres(space)}
    open_list = enumerate_balls(space, "open")  # (center, radius, members) each
    open_balls = {members for _, _, members in open_list}
    closed_balls = {members for _, _, members in enumerate_balls(space, "closed")}
    results: dict = {}
    failures: list = []

    def record(name: str, ok: bool, note: str = "") -> None:
        results[name] = {"verdict": "PASS" if ok else "FAIL"}
        if note:
            results[name]["note"] = note
        if not ok:
            failures.append((name, note))

    record(
        "diameter-row-max",
        all(max(row) == len(space.values) - 1 for row in space.ranks)
        if n > 1
        else diam == 0,
    )
    record("center-contains-zero", ZERO in center)
    if n >= 2:
        record("center-contains-diameter", diam in center)
        b_center = center.values == (ZERO, diam)
        graph = diametrical_graph(space)
        try:
            parts = multipartite_parts(graph).parts
            b_singleton = any(len(p) == 1 for p in parts)
            record("complete-multipartite", True)
        except NotCompleteMultipartite as exc:  # would refute the input space
            record("complete-multipartite", False, str(exc))
            b_singleton = False
        b_star = spanning_star(graph) is not None
        # A spanning star forces the center to be exactly {0, diam} on any
        # finite space, and a star is the same thing as a singleton part;
        # the full three-way equivalence needs a tree-generated space (the
        # two-pairs-at-different-scales 4-point class breaks the converse).
        note = f"center-dichotomy={b_center} singleton-part={b_singleton} star={b_star}"
        record("star-iff-singleton-part", b_singleton == b_star, note)
        record("star-implies-center-dichotomy", (not b_star) or b_center, note)
        equi = is_equidistant(space) is not None
        record(
            "equidistance-equivalence",
            equi == (spheres == open_balls) == (spheres <= open_balls),
        )
    ok_irrelevance = True
    for _, radius, members in open_list:
        for a in members:
            if ball(space, a, radius, "open").members != members:
                ok_irrelevance = False
    record("ball-center-irrelevance", ok_irrelevance)
    ok_relative = True
    for _, _, members in open_list:
        outer = is_centered_sphere(space, members) is not None
        inner = is_centered_sphere(restrict(space, members), members) is not None
        if outer != inner:
            ok_relative = False
    record("ball-relative-spheres", ok_relative)
    probe_radii = [v for v in distance_set(space).values if v > 0] + [diam + 1]
    record(
        "pointwise-greatest-below",
        all(
            pointwise.greatest_below(r) is not None
            for pointwise in (pointwise_distance_set(space, p) for p in space.points)
            for r in probe_radii
        ),
    )
    record(
        "singletons-are-spheres",
        all(is_centered_sphere(space, [p]) is not None for p in space.points),
    )

    if is_ut_hint:
        if n >= 2:
            record("ut-center-dichotomy", center.values == (ZERO, diam))
            record(
                "ut-no-interior-center-value",
                all(not (0 < v < diam) for v in center.values),
            )
            record(
                "ut-star-equivalence",
                b_center == b_singleton == b_star,
                f"center-dichotomy={b_center} singleton-part={b_singleton} star={b_star}",
            )
            whole = is_centered_sphere(space, space.points)
            record(
                "ut-whole-space-sphere",
                whole is not None and whole[1] == diam,
            )
            record("ut-spanning-star", b_star)
        record("ut-open-balls-are-spheres", open_balls <= spheres)
        closed_ok = closed_balls <= spheres
        results["ut-closed-balls-are-spheres"] = {
            "verdict": "CONSISTENT" if closed_ok else "COUNTEREXAMPLE",
            "status": "search evidence",
        }

    verdict = "PASS" if not failures else "FAIL"
    witnesses = []
    if failures:
        name, note = failures[0]
        label = f"first-failure:{name}"
        witnesses.append({"label": label, "matrix_csv": matrix_csv_string(space), "note": note})
    return CampaignReport(
        check="suite",
        n=n,
        instances=1,
        verdict=verdict,
        results=results,
        witnesses=witnesses,
    )
