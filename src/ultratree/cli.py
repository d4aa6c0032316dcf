"""Command-line interface.

Exit codes: 0 success (and, for check verbs, all assertions passed),
1 failed assertion or invalid input (the witness is printed),
2 usage error, 3 capacity fence.
"""

from __future__ import annotations

import argparse
import json
import sys

# `explorer` is imported by the verbs that use it. `padic` stays here: the
# span tracer in perfbench/ looks up the modules it wraps in sys.modules,
# and the class-campaigns workload runs no verb that would import padic.
from . import formats, metric, padic, tree
from .errors import TooLarge, UltratreeError
from .rationals import format_rational, parse_rational_list


def _load_space(path: str) -> tuple[metric.FiniteUltrametricSpace, bool]:
    """Read a space from a tree JSON or matrix CSV; returns (space, tree_backed)."""
    if path.endswith(".json"):
        t = formats.read_tree_file(path)
        return tree.distance_matrix(t), True
    if path.endswith(".csv"):
        return formats.read_matrix_file(path), False
    raise UltratreeError(f"cannot tell tree JSON from matrix CSV: {path!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Exact analysis of finite ultrametric spaces generated by labeled trees.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate a tree JSON file")
    p.add_argument("tree")

    p = sub.add_parser("distances", help="distance matrix of a tree, as CSV")
    p.add_argument("tree")
    p.add_argument("-o", "--output")

    p = sub.add_parser("canonical", help="rewrite labels to realized distances")
    p.add_argument("tree")
    p.add_argument("-o", "--output")

    p = sub.add_parser("center", help="center of distances of a tree or matrix")
    p.add_argument("input")

    p = sub.add_parser("diametrical", help="diametrical graph, parts, star")
    p.add_argument("input")
    p.add_argument("--dot", help="write a DOT rendering to this path")

    p = sub.add_parser("spheres", help="enumerate centered spheres")
    p.add_argument("input")
    p.add_argument(
        "--subsets",
        action="store_true",
        help="also decide whether every non-empty subset is a centered sphere",
    )

    p = sub.add_parser("check", help="run the theorem suite on one space")
    p.add_argument("input")
    p.add_argument(
        "--ut",
        action="store_true",
        help="treat a matrix input as tree-generated (tree inputs always are)",
    )

    p = sub.add_parser("enumerate", help="run a campaign over all n-point classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--check",
        required=True,
        choices=("con3", "hol", "closed-balls", "suite"),
    )
    p.add_argument("-o", "--output")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("padic", help="p-adic distance matrix of a rational sample")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sample", required=True, help='comma list, e.g. "0,1,2,3"')
    p.add_argument("-o", "--output")

    p = sub.add_parser("dplus", help="distinct-max distance matrix of a sample")
    p.add_argument("--sample", required=True)

    p = sub.add_parser("is-ut", help="realizing labeled tree, or none")
    p.add_argument("matrix")

    p = sub.add_parser("random-tree", help="seeded random labeled tree, as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pool", required=True, help='comma list of labels, e.g. "0,1,2,3"')

    return parser


def _run(args: argparse.Namespace) -> int:
    if args.verb == "validate":
        t = formats.read_tree_file(args.tree)
        status = "non-degenerate" if tree.is_nondegenerate(t) else (
            "degenerate (edge %s-%s)" % tree.degenerate_edge(t)
        )
        print(f"OK: {t.n} vertices, {len(t.edges)} edges, labeling {status}")
        return 0

    if args.verb == "distances":
        space = tree.distance_matrix(formats.read_tree_file(args.tree))
        _emit(formats.matrix_csv_string(space), args.output)
        return 0

    if args.verb == "canonical":
        t = tree.canonical_labeling(formats.read_tree_file(args.tree))
        _emit(formats.tree_json_string(t), args.output)
        return 0

    if args.verb == "center":
        space, _ = _load_space(args.input)
        print(metric.center_of_distances(space).format())
        return 0

    if args.verb == "diametrical":
        space, _ = _load_space(args.input)
        graph = metric.diametrical_graph(space)
        print(f"diameter: {format_rational(metric.diameter(space))}")
        print(
            f"edges ({len(graph.edges)}): "
            + ", ".join(f"{u}-{v}" for u, v in graph.edges)
        )
        parts = star = None
        if space.n >= 2:
            parts = metric.multipartite_parts(graph)
            print(
                "parts: " + " | ".join("{" + ",".join(p) + "}" for p in parts.parts)
            )
            star = metric.spanning_star(graph)
        print(f"star center: {star.center if star else 'none'}")
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(formats.diametrical_dot_string(graph, parts, star))
        return 0

    if args.verb == "spheres":
        space, _ = _load_space(args.input)
        spheres = metric.enumerate_centered_spheres(space)
        # decided first, so that a fenced run refuses before printing anything
        every = metric._spheres_are_all_subsets(space, spheres) if args.subsets else None
        for cert in spheres:
            members = ",".join(
                sorted(cert.subset, key=space.index_of)
            )
            print(
                "{%s}  center=%s radius=%s"
                % (members, cert.center, format_rational(cert.radius))
            )
        if args.subsets:
            print(f"all non-empty subsets are centered spheres: {'yes' if every else 'no'}")
        return 0

    if args.verb == "check":
        from . import explorer

        space, tree_backed = _load_space(args.input)
        report = explorer.check_theorem_suite(
            space, is_ut_hint=tree_backed or args.ut
        )
        for name, res in report.results.items():
            line = f"{res['verdict']} {name}"
            if res.get("note"):
                line += f"  ({res['note']})"
            print(line)
        if report.verdict != "PASS":
            for w in report.witnesses:
                print(f"witness: {w['label']}")
                print(w["matrix_csv"], end="")
            return 1
        return 0

    if args.verb == "enumerate":
        from . import explorer

        if args.check == "con3":
            report = explorer.check_con3(args.n, jobs=args.jobs)
        elif args.check == "hol":
            report = explorer.check_hol(args.n, jobs=args.jobs)
        elif args.check == "closed-balls":
            report = explorer.check_closed_balls(
                "enumerated", n=args.n, jobs=args.jobs
            )
        else:
            report = explorer.check_suite_enumerated(args.n, jobs=args.jobs)
        _emit(_report_json(report), args.output)
        if report.verdict in ("PASS", "CONSISTENT"):
            return 0
        for w in report.witnesses:
            print(f"witness: {w['label']}", file=sys.stderr)
        return 1

    if args.verb == "padic":
        values = parse_rational_list(args.sample)
        space = padic.sample_space(values, padic.dp_metric(args.p))
        _emit(formats.matrix_csv_string(space), args.output)
        return 0

    if args.verb == "dplus":
        values = parse_rational_list(args.sample)
        space = padic.sample_space(values, padic.dplus)
        _emit(formats.matrix_csv_string(space), None)
        return 0

    if args.verb == "is-ut":
        from . import explorer

        space = formats.read_matrix_file(args.matrix)
        cert = explorer.is_ut(space)
        if cert is None:
            print("none")
        else:
            sys.stdout.write(formats.tree_json_string(cert))
        return 0

    if args.verb == "random-tree":
        from . import explorer

        pool = parse_rational_list(args.pool)
        t = explorer.random_labeled_tree(args.n, pool, args.seed)
        sys.stdout.write(formats.tree_json_string(t))
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UltratreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
