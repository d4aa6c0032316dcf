"""In-process span tracing around calls into the ultratree modules.

The program is not edited: :func:`instrument` swaps the public functions
of each module (and every alias another module imported by name, such as
``explorer.enumerate_balls``) for wrappers that record one span per call,
then restores the originals. Spans are kept in flat lists and turned into
per-layer metrics only after the traced pass has ended.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from math import comb

# span name -> layer group; a group's self time is the sum of the self
# times of its spans. Names are "<module>.<function>".
GROUPS = {
    "cli.main": "cli",
    "formats.read_tree_file": "formats.parse",
    "formats.read_matrix_file": "formats.parse",
    "formats.parse_tree_json": "formats.parse",
    "formats.parse_matrix_csv": "formats.parse",
    "formats.matrix_csv_string": "formats.write",
    "formats.tree_json_string": "formats.write",
    "formats.diametrical_dot_string": "formats.write",
    "metric.validate_ultrametric": "metric.validate",
    "metric.enumerate_balls": "metric.balls",
    "metric.ball": "metric.balls",
    "metric.is_centered_sphere": "metric.spheres",
    "metric.enumerate_centered_spheres": "metric.spheres",
    "metric.all_subsets_centered_spheres": "metric.spheres",
    "metric.center_of_distances": "metric.center",
    "metric.distance_set": "metric.center",
    "metric.pointwise_distance_set": "metric.center",
    "metric.diameter": "metric.center",
    "metric.is_equidistant": "metric.center",
    "metric.diametrical_graph": "metric.diametrical",
    "metric.multipartite_parts": "metric.diametrical",
    "metric.spanning_star": "metric.diametrical",
    "metric.weak_similarity": "metric.weak_similarity",
    "metric.restrict": "metric.restrict",
    "tree.validate_tree": "tree.validate",
    "tree.degenerate_edge": "tree.validate",
    "tree.is_nondegenerate": "tree.validate",
    "tree.PathMaxIndex.__init__": "tree.index_build",
    "tree.distance_matrix": "tree.distance_matrix",
    "tree.canonical_labeling": "tree.canonical",
    "padic.sample_space": "padic.sample",
    "explorer.enumerate_dendrograms": "explorer.enumerate",
    "explorer.dendrogram_to_space": "explorer.to_space",
    "explorer.is_ut": "explorer.is_ut",
    "explorer.check_theorem_suite": "explorer.suite",
    "explorer.check_con3": "explorer.campaign",
    "explorer.check_hol": "explorer.campaign",
    "explorer.check_closed_balls": "explorer.campaign",
    "explorer.check_suite_enumerated": "explorer.campaign",
    "explorer._parallel_map": "explorer.campaign",
    "explorer._witness": "explorer.campaign",
    "explorer._center_size": "explorer.campaign",
    "explorer._all_subsets_spheres": "explorer.campaign",
    "explorer._suite_row": "explorer.campaign",
    "explorer._sphere_family": "explorer.campaign",
    "explorer._ball_family": "explorer.campaign",
    "explorer._reference_three_point_space": "explorer.campaign",
}

GENERATORS = {"explorer.enumerate_dendrograms"}


# span name -> fn(counts, args, kwargs, result) recording work counts
COUNTERS = {
    "formats.parse_tree_json": lambda c, a, k, r: c.update(
        {"formats.bytes_in": len((a[0] if a else k["text"]).encode())}),
    "formats.parse_matrix_csv": lambda c, a, k, r: c.update(
        {"formats.bytes_in": len((a[0] if a else k["text"]).encode())}),
    "formats.matrix_csv_string": lambda c, a, k, r: c.update(
        {"formats.bytes_out": len(r.encode())}),
    "formats.tree_json_string": lambda c, a, k, r: c.update(
        {"formats.bytes_out": len(r.encode())}),
    "formats.diametrical_dot_string": lambda c, a, k, r: c.update(
        {"formats.bytes_out": len(r.encode())}),
    "metric.validate_ultrametric": lambda c, a, k, r: c.update(
        {"metric.validate_triples": comb(r.n, 3)}),
    "metric.enumerate_balls": lambda c, a, k, r: c.update(
        {"metric.balls_calls": 1, "metric.balls_found": len(r)}),
    "metric.ball": lambda c, a, k, r: c.update({"metric.ball_calls": 1}),
    "metric.enumerate_centered_spheres": lambda c, a, k, r: c.update(
        {"metric.sphere_calls": 1, "metric.spheres_found": len(r)}),
    "metric.is_centered_sphere": lambda c, a, k, r: c.update(
        {"metric.sphere_calls": 1, "metric.spheres_found": r is not None}),
    "metric.all_subsets_centered_spheres": lambda c, a, k, r: c.update(
        {"metric.sphere_calls": 1}),
    "tree.distance_matrix": lambda c, a, k, r: c.update(
        {"tree.pairs": comb(r.n, 2)}),
    "padic.sample_space": lambda c, a, k, r: c.update(
        {"padic.distances": comb(r.n, 2)}),
    "explorer.enumerate_dendrograms": lambda c, a, k, r: c.update(
        {"explorer.classes": 1}),
    "explorer.dendrogram_to_space": lambda c, a, k, r: c.update(
        {"explorer.to_space_calls": 1}),
    "explorer.is_ut": lambda c, a, k, r: c.update(
        {"explorer.is_ut_calls": 1, "explorer.is_ut_found": r is not None}),
}


class Tracer:
    """Flat in-memory span store: name, start, end and parent per span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Time each step inside the generator, not the consumer's loop body."""
        count = COUNTERS.get(name)
        tracer = self

        def steps(gen):
            while True:
                sid = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(sid)
                    return
                except BaseException:
                    tracer.close(sid)
                    raise
                tracer.close(sid)
                if count is not None:
                    count(tracer.counts, (), {}, item)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return wrapper

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own


def _resolve(package, dotted: str):
    """'tree.PathMaxIndex.__init__' -> (owner object, attribute, function)."""
    parts = dotted.split(".")
    owner = sys.modules[f"{package.__name__}.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


@contextlib.contextmanager
def instrument(package, tracer: Tracer):
    """Wrap every function named in GROUPS, wherever the package binds it."""
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package.__name__
                                or name.startswith(package.__name__ + "."))
    ]
    saved = []
    try:
        for dotted in GROUPS:
            owner, attr, original = _resolve(package, dotted)
            make = tracer.wrap_generator if dotted in GENERATORS else tracer.wrap
            wrapper = make(dotted, original)
            targets = [(owner, attr)]
            if isinstance(owner, type(package)):
                # aliases: `from .metric import enumerate_balls` and the like
                targets += [
                    (mod, key) for mod in modules
                    for key, value in list(vars(mod).items())
                    if value is original and (mod, key) != (owner, attr)
                ]
            for target, key in targets:
                saved.append((target, key, original))
                setattr(target, key, wrapper)
        yield tracer
    finally:
        for target, key, original in reversed(saved):
            setattr(target, key, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate the spans and counts into the per-layer metric values."""
    self_times = tracer.self_times()
    group_s: Counter = Counter()
    calls: Counter = Counter()
    for name, t in zip(tracer.names, self_times):
        group = GROUPS.get(name)
        if group is not None:
            group_s[group] += t
            calls[group] += 1
    c = tracer.counts
    metric_groups = [g for g in set(GROUPS.values()) if g.startswith("metric.")]
    metric_calls = sum(calls[g] for g in metric_groups)
    metric_s = sum(group_s[g] for g in metric_groups)
    classes = c["explorer.classes"]
    is_ut_calls = c["explorer.is_ut_calls"]
    return {
        "cli.self_s": group_s["cli"],
        "formats.parse_s": group_s["formats.parse"],
        "formats.bytes_in": c["formats.bytes_in"],
        "formats.write_s": group_s["formats.write"],
        "formats.bytes_out": c["formats.bytes_out"],
        "metric.validate_s": group_s["metric.validate"],
        "metric.validate_triples": c["metric.validate_triples"],
        "metric.balls_s": group_s["metric.balls"],
        "metric.balls_calls": c["metric.balls_calls"],
        "metric.balls_found": c["metric.balls_found"],
        "metric.ball_calls": c["metric.ball_calls"],
        "metric.spheres_s": group_s["metric.spheres"],
        "metric.sphere_calls": c["metric.sphere_calls"],
        "metric.spheres_found": c["metric.spheres_found"],
        "metric.center_s": group_s["metric.center"],
        "metric.diametrical_s": group_s["metric.diametrical"],
        "metric.weak_similarity_s": group_s["metric.weak_similarity"],
        "metric.restrict_s": group_s["metric.restrict"],
        "metric.calls": metric_calls,
        "metric.us_per_call": metric_s / metric_calls * 1e6 if metric_calls else 0.0,
        "tree.validate_s": group_s["tree.validate"],
        "tree.index_build_s": group_s["tree.index_build"],
        "tree.distance_matrix_s": group_s["tree.distance_matrix"],
        "tree.pairs": c["tree.pairs"],
        "tree.canonical_s": group_s["tree.canonical"],
        "padic.sample_s": group_s["padic.sample"],
        "padic.distances": c["padic.distances"],
        "explorer.enumerate_s": group_s["explorer.enumerate"],
        "explorer.classes": classes,
        "explorer.to_space_s": group_s["explorer.to_space"],
        "explorer.to_space_calls": c["explorer.to_space_calls"],
        "explorer.spaces_per_class": (
            c["explorer.to_space_calls"] / classes if classes else 0.0),
        "explorer.is_ut_s": group_s["explorer.is_ut"],
        "explorer.is_ut_calls": is_ut_calls,
        "explorer.is_ut_found_ratio": (
            c["explorer.is_ut_found"] / is_ut_calls if is_ut_calls else 0.0),
        "explorer.suite_s": group_s["explorer.suite"],
        "explorer.campaign_self_s": group_s["explorer.campaign"],
    }
