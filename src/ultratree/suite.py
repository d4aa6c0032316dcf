"""The theorem suite: every structural invariant on one space, and over
every n-point class, with a process pool for ``--jobs``.

The suite reads each space through the rank-row analyses
(:mod:`ultratree.rankrows`), never through its merge order or a class's
dendrogram, so its evidence stays independent of the enumeration and of
the readers the tree verbs run. ``check`` and ``enumerate --check
suite`` load this module, and no other verb does; its public names still
resolve from :mod:`ultratree.explorer`.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional

from .capacity import ENUMERATION_FENCE
from .errors import NotCompleteMultipartite
from .explorer import (
    CampaignReport,
    _enumerate_ids,
    _space_of_merge_order,
    _Subtrees,
    _witness,
)
from .metric import ZERO, FiniteUltrametricSpace


def check_theorem_suite(
    space: FiniteUltrametricSpace, is_ut_hint: bool = False
) -> CampaignReport:
    """Run every structural invariant applicable to the space.

    Universal checks hold for all finite ultrametric spaces; the ut-*
    checks additionally assume the space is generated by a labeled tree
    (pass ``is_ut_hint=True`` only for such spaces). The closed-ball
    check is recorded as search evidence, never as a failure of the
    suite. ``center-contains-zero`` and ``pointwise-greatest-below``
    cannot fail: every space has rank 0 on its diagonal, which is all
    they test. They stay so that the report keeps its format.
    """
    from .rankrows import (
        _ball_sets,
        _sphere_center,
        _sphere_sets,
        center_of_distances,
        diameter,
        diametrical_graph,
        is_equidistant,
        multipartite_parts,
        spanning_star,
    )

    n = space.n
    everyone = range(n)
    diam = diameter(space)
    center = center_of_distances(space)
    spheres = set(_sphere_sets(space))
    ball_cuts = _ball_sets(space)
    # every open ball is a closed ball and back: the same index sets
    balls = set(ball_cuts)
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
            equi == (spheres == balls) == (spheres <= balls),
        )
    record(
        "ball-center-irrelevance",
        all(
            {j for j, r in enumerate(space.ranks[a]) if r < cut} == members
            for members, (_, cut) in ball_cuts.items()
            for a in members
        ),
    )
    record(
        "ball-relative-spheres",
        all(
            (_sphere_center(space, idxs, everyone) is None)
            == (_sphere_center(space, idxs, idxs) is None)
            for idxs in map(sorted, ball_cuts)
        ),
    )
    # the probe radii are the rank cuts 1..len(values), the last above the
    # diameter: a distance below every cut is one below the first
    record("pointwise-greatest-below", all(min(row) < 1 for row in space.ranks))
    record(
        "singletons-are-spheres",
        all(_sphere_center(space, [i], everyone) is not None for i in everyone),
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
                note,
            )
            whole = _sphere_center(space, everyone, everyone)
            record(
                "ut-whole-space-sphere",
                whole is not None and space.values[whole[1]] == diam,
            )
            record("ut-spanning-star", b_star)
        record("ut-open-balls-are-spheres", balls <= spheres)
        results["ut-closed-balls-are-spheres"] = {
            "verdict": "CONSISTENT" if balls <= spheres else "COUNTEREXAMPLE",
            "status": "search evidence",
        }

    verdict = "PASS" if not failures else "FAIL"
    witnesses = []
    if failures:
        name, note = failures[0]
        witnesses.append(_witness(f"first-failure:{name}", space, note))
    return CampaignReport(
        check="suite",
        n=n,
        instances=1,
        verdict=verdict,
        results=results,
        witnesses=witnesses,
    )


def _suite_row(item: tuple[tuple, list[int], bool]) -> tuple[tuple, Optional[str]]:
    """The root and the first check the class fails, or None; the class is
    its root tuple, merge-order levels and whether a labeled tree generates it."""
    root, levels, realizable = item
    results = check_theorem_suite(_space_of_merge_order(levels), is_ut_hint=realizable).results
    return root, next((name for name, res in results.items() if res["verdict"] == "FAIL"), None)


def check_suite_enumerated(n: int, jobs: int = 1) -> CampaignReport:
    """Run the theorem suite over every class of cardinality n.

    Each class goes to the suite as the walk yields it, as the levels of its
    merge order read off the enumerator's table (see :class:`_Subtrees`),
    with its root tuple to name a failure; the first failing class, the
    witness, is read off the same table, and no class is built as a
    ``Dendrogram``.
    """
    table = _Subtrees()
    roots = _enumerate_ids(n, table, ENUMERATION_FENCE)
    classes = ((r, table.levels(r), table.fold_leafy(r)) for r in roots)
    instances = 0
    failures = []
    for root, fail in _parallel_map(_suite_row, classes, jobs):
        instances += 1
        if fail:
            failures.append((root, fail))
    witnesses = [
        _witness(table.key(root), table.space(root), f"failed {fail}")
        for root, fail in failures[:1]
    ]
    return CampaignReport(
        check="suite",
        n=n,
        instances=instances,
        verdict="PASS" if not failures else "FAIL",
        results={
            "theorem-suite": {
                "verdict": "PASS" if not failures else "FAIL",
                "failing_classes": len(failures),
            }
        },
        witnesses=witnesses,
    )


# --- the pool -----------------------------------------------------------------------

_POOL_CHUNK = 64  # items a worker takes at a time
_POOL_AHEAD = 4  # chunks per worker that may be drawn and not yet folded


def _parallel_map(fn: Callable, items: Iterable, jobs: int) -> Iterator:
    """Order-preserving map that takes each item only when it needs it: in
    this thread as the fold asks, or with jobs > 1 in the pool's feeder
    thread as the workers ask, the results still in item order (hence every
    output byte unchanged). The first items are taken here, before a pool
    starts, so an error the stream raises at once is raised here; a pool,
    which forks its workers up front, gets no more than CPUs or items.

    The feeder takes a permit before it draws an item, and the fold gives
    one back for each result it takes, so however slow the fold, no more
    than ``_POOL_AHEAD`` chunks per worker are drawn and not yet folded:
    the pool holds that many results at most. A fold that stops early
    (closed, or raising a worker's error) stops the feeder too, which the
    pool's exit waits for.
    """
    items = iter(items)
    head = list(islice(items, min(jobs, os.cpu_count() or 1)))
    if len(head) <= 1:
        yield from map(fn, chain(head, items))
        return
    import threading
    from multiprocessing import Pool

    permits = threading.Semaphore(_POOL_AHEAD * _POOL_CHUNK * len(head))
    stopped = threading.Event()
    end = object()

    def feed() -> Iterator:
        source = chain(head, items)
        while permits.acquire() and not stopped.is_set():
            item = next(source, end)
            if item is end:
                return
            yield item

    with Pool(len(head)) as pool:
        try:
            for result in pool.imap(partial(_call_in_worker, fn), feed(), _POOL_CHUNK):
                permits.release()
                yield result
        finally:
            stopped.set()
            permits.release()  # wakes a feeder that waits for a permit


def _call_in_worker(fn: Callable, item):
    """``fn(item)`` in a pool worker. An error that does not survive a
    pickle round trip would kill the pool's result thread in the parent,
    and ``imap`` would wait for ever; it is raised as a RuntimeError that
    names its type and message instead."""
    try:
        return fn(item)
    except Exception as exc:
        import pickle

        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(f"{type(exc).__qualname__}: {exc}") from None
        raise


