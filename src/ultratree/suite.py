"""The theorem suite: every structural invariant on one space, and over
every n-point class. For ``--jobs`` the classes are split by their walk
position into shares, one per pool worker; each worker walks the classes
itself, so no class crosses a process.

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
from itertools import islice
from typing import Callable, Optional

from .capacity import ENUMERATION_FENCE
from .errors import NotCompleteMultipartite
# module level: `check` loads explorer, so the tree-scale traced names `explorer.*` resolve
from .explorer import (
    CampaignReport,
    _best_classes,
    _space_of_merge_order,
    _Subtrees,
    _witness,
    _zero_gain,
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


def _suite_row(levels: list[int], realizable: bool) -> Optional[str]:
    """The first check a class fails, or None; the class is the levels of its
    merge order and whether a labeled tree generates it."""
    results = check_theorem_suite(_space_of_merge_order(levels), is_ut_hint=realizable).results
    return next((name for name, res in results.items() if res["verdict"] == "FAIL"), None)


def _suite_share(n: int, share: int, shares: int) -> tuple[int, int, Optional[tuple]]:
    """Run the suite on the n-point classes whose walk position is ``share``
    mod ``shares``: the classes checked, the classes failing, and the first
    failure as its position and witness, or None.

    The share walks every class with its own table (the walk is about 1 %
    of the suite's time at n = 10) and checks its classes as the walk
    yields them, each as the levels of its merge order read off the table
    (see :class:`_Subtrees`); the witness is read off the same table, and
    no class is built as a ``Dendrogram``.
    """
    table = _Subtrees()
    checked = failing = 0
    first = None
    walk = _best_classes(n, _zero_gain, table, ENUMERATION_FENCE)[2]
    for position, root in islice(walk, share, None, shares):
        checked += 1
        fail = _suite_row(table.levels(root), table.fold_leafy(root))
        if fail:
            failing += 1
            if first is None:
                first = position, _witness(table.key(root), table.space(root), f"failed {fail}")
    return checked, failing, first


def check_suite_enumerated(n: int, jobs: int = 1) -> CampaignReport:
    """Run the theorem suite over every class of cardinality n.

    The classes are split into shares by their walk position, one share
    per worker (see :func:`_parallel_map`); the counts add up and the
    witness is the failure at the least position, the walk's first failing
    class, so the report does not depend on ``jobs``. The class count is
    folded here, which raises the enumeration fence before any worker starts.
    """
    classes = _best_classes(n, _zero_gain, _Subtrees(), ENUMERATION_FENCE)[0]
    tallies = _parallel_map(partial(_suite_share, n), classes, jobs)
    instances = sum(checked for checked, _, _ in tallies)
    failing = sum(failed for _, failed, _ in tallies)
    witnesses = [min(first for _, _, first in tallies if first)[1]] if failing else []
    return CampaignReport(
        check="suite",
        n=n,
        instances=instances,
        verdict="PASS" if not failing else "FAIL",
        results={
            "theorem-suite": {
                "verdict": "PASS" if not failing else "FAIL",
                "failing_classes": failing,
            }
        },
        witnesses=witnesses,
    )


# --- the pool -----------------------------------------------------------------------

def _parallel_map(fn: Callable, items: int, jobs: int) -> list:
    """``fn(share, shares)`` for each share of ``items`` items, in share
    order: one share per worker, min(jobs, CPUs, items) of them. One share
    runs in this process; more run in a pool of one worker per share, and
    each worker is sent nothing but its share's number."""
    shares = min(jobs, os.cpu_count() or 1, items)
    if shares <= 1:
        return [fn(0, 1)]
    from multiprocessing import Pool

    with Pool(shares) as pool:
        return pool.starmap(partial(_call_in_worker, fn), [(share, shares) for share in range(shares)])


def _call_in_worker(fn: Callable, *args):
    """``fn(*args)`` in a pool worker. An error that does not survive a
    pickle round trip would kill the pool's result thread in the parent,
    and ``starmap`` would wait for ever; it is raised as a RuntimeError
    that names its type and message instead."""
    try:
        return fn(*args)
    except Exception as exc:
        import pickle

        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(f"{type(exc).__qualname__}: {exc}") from None
        raise
