"""Command-line interface.

Exit codes: 0 success (and, for check verbs, all assertions passed),
1 failed assertion or invalid input (the witness is printed), or a
file that cannot be read or written,
2 usage error, 3 capacity fence.

:func:`main` parses ``argv``, runs the verb and returns its exit code; it
never ends the interpreter, so library callers and tests can call it in
process. The ``ultratree`` command and ``python -m ultratree.cli`` enter
through :func:`run` instead: after a normal return it flushes stdout and
stderr and ends the process with ``os._exit``, so the process spends no
time on interpreter teardown (freeing objects the kernel reclaims anyway).
A usage error or ``--help`` (argparse's ``SystemExit``) and an exception
that escapes :func:`main` take the normal exit instead. A flush that fails
(the reader of a pipe has closed it) prints ``error: <reason>`` and exits 1,
as a write that fails inside a verb does. Every file a verb writes is closed
by its ``with`` block and the ``--jobs`` pool is shut down before
:func:`main` returns, so nothing is left for the teardown to do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The other modules are imported by the verbs that run them, so that a
# process compiles no module it does not execute. `padic` stays here: the
# span tracer in perfbench/ looks up every module it wraps in sys.modules
# and raises KeyError for one that no operation of a workload loaded, and
# the class-campaigns workload runs no verb that imports padic.
from . import metric, padic
from .errors import FormatError, TooLarge, UltratreeError
from .rationals import format_rational, parse_integer, parse_rational_list


def _load_space(path: str) -> tuple[metric.FiniteUltrametricSpace, bool]:
    """Read a space from a tree JSON or matrix CSV; returns (space, tree_backed)."""
    from . import formats

    if path.endswith(".json"):
        from . import treemetric

        t = formats.read_tree_file(path)
        return treemetric.distance_matrix(t), True
    if path.endswith(".csv"):
        return formats.read_matrix_file(path), False
    raise UltratreeError(f"cannot tell tree JSON from matrix CSV: {path!r}")


def _load_gap_form(path: str) -> tuple:
    """A space's points and merge order ``(order, gaps, values)``: Kruskal's
    from a tree JSON, with no matrix, or the one a matrix CSV's validation lists."""
    if path.endswith(".json"):
        from . import formats, treemetric

        t = formats.read_tree_file(path)
        return (t.vertices, *treemetric._gap_form(t))
    space = _load_space(path)[0]
    return (space.points, *space._gap_form)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# an integer flag: a sign and the ASCII digits 0-9, as every number here
def _integer(text: str) -> int:
    try:
        return parse_integer(text)
    except FormatError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _arg(*flags, **options) -> tuple:
    return flags, options


_OUTPUT = _arg("-o", "--output")

# verb -> (help, arguments), in the order the usage lists the verbs
_VERBS = {
    "validate": ("validate a tree JSON file", [_arg("tree")]),
    "distances": ("distance matrix of a tree, as CSV", [_arg("tree"), _OUTPUT]),
    "canonical": ("rewrite labels to realized distances", [_arg("tree"), _OUTPUT]),
    "center": ("center of distances of a tree or matrix", [_arg("input")]),
    "diametrical": (
        "diametrical graph, parts, star",
        [_arg("input"), _arg("--dot", help="write a DOT rendering to this path")],
    ),
    "spheres": (
        "enumerate centered spheres",
        [
            _arg("input"),
            _arg(
                "--subsets",
                action="store_true",
                help="also decide whether every non-empty subset is a centered sphere",
            ),
        ],
    ),
    "check": (
        "run the theorem suite on one space",
        [
            _arg("input"),
            _arg(
                "--ut",
                action="store_true",
                help="treat a matrix input as tree-generated (tree inputs always are)",
            ),
        ],
    ),
    "enumerate": (
        "run a campaign over all n-point classes",
        [
            _arg("--n", type=_integer, required=True),
            _arg("--check", required=True, choices=("con3", "hol", "closed-balls", "suite")),
            _OUTPUT,
            _arg(
                "--jobs",
                type=_integer,
                default=1,
                help="worker processes for suite (at most the CPU count); "
                "con3, hol and closed-balls always run in one process",
            ),
        ],
    ),
    "padic": (
        "p-adic distance matrix of a rational sample",
        [
            _arg("--p", type=_integer, required=True),
            _arg("--sample", required=True, help='comma list, e.g. "0,1,2,3"'),
            _OUTPUT,
        ],
    ),
    "dplus": ("distinct-max distance matrix of a sample", [_arg("--sample", required=True)]),
    "is-ut": ("realizing labeled tree, or none", [_arg("matrix")]),
    "random-tree": (
        "seeded random labeled tree, as JSON",
        [
            _arg("--n", type=_integer, required=True),
            _arg("--seed", type=_integer, required=True),
            _arg("--pool", required=True, help='comma list of labels, e.g. "0,1,2,3"'),
        ],
    ),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of the one ``verb`` names only.

    Building a subparser costs time at every start-up, so :func:`main`
    builds only the one it runs. That parser's usage still lists every
    verb, so each usage, help and error it prints is the same text as the
    full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Exact analysis of finite ultrametric spaces generated by labeled trees.",
    )
    if verb in _VERBS:
        names, metavar = [verb], "{%s}" % ",".join(_VERBS)
    else:
        names, metavar = list(_VERBS), None
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name in names:
        help_text, arguments = _VERBS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.verb == "validate":
        from . import formats, treemetric

        t = formats.read_tree_file(args.tree)
        status = "non-degenerate" if treemetric.is_nondegenerate(t) else (
            "degenerate (edge %s-%s)" % treemetric.degenerate_edge(t)
        )
        print(f"OK: {t.n} vertices, {len(t.edges)} edges, labeling {status}")
    elif args.verb == "distances":
        from . import formats, treemetric

        space = treemetric.distance_matrix(formats.read_tree_file(args.tree))
        _emit(formats.matrix_csv_string(space), args.output)
    elif args.verb == "canonical":
        from . import formats, treemetric

        t = treemetric.canonical_labeling(formats.read_tree_file(args.tree))
        _emit(formats.tree_json_string(t), args.output)
    elif args.verb == "center":
        from . import mergeorder

        _, _, gaps, values = _load_gap_form(args.input)
        print(mergeorder._center_from_gaps(gaps, values).format())
    elif args.verb == "diametrical":
        from . import formats, mergeorder

        points, order, gaps, values = _load_gap_form(args.input)
        parts = mergeorder._diametrical_parts(order, gaps, values)
        formats.write_diametrical(sys.stdout, points, parts, values[-1], args.dot)
    elif args.verb == "spheres":
        from . import rankrows

        space, _ = _load_space(args.input)
        spheres = rankrows.enumerate_centered_spheres(space)
        for cert in spheres:
            members = ",".join(
                sorted(cert.subset, key=space.index_of)
            )
            print(
                "{%s}  center=%s radius=%s"
                % (members, cert.center, format_rational(cert.radius))
            )
        if args.subsets:
            every = len(spheres) == (1 << space.n) - 1
            print(f"all non-empty subsets are centered spheres: {'yes' if every else 'no'}")
    elif args.verb == "check":
        from . import suite

        space, tree_backed = _load_space(args.input)
        report = suite.check_theorem_suite(
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
    elif args.verb == "enumerate":
        from . import explorer

        if args.check == "con3":
            report = explorer.check_con3(args.n)
        elif args.check == "hol":
            report = explorer.check_hol(args.n)
        elif args.check == "closed-balls":
            report = explorer.check_closed_balls(args.n)
        else:
            from . import suite

            report = suite.check_suite_enumerated(args.n, jobs=args.jobs)
        _emit(_report_json(report), args.output)
        if report.verdict not in ("PASS", "CONSISTENT"):
            for w in report.witnesses:
                print(f"witness: {w['label']}", file=sys.stderr)
            return 1
    elif args.verb in ("padic", "dplus"):
        from . import formats

        values = parse_rational_list(args.sample)  # read before the prime is checked
        chosen = padic.dp_metric(args.p) if args.verb == "padic" else padic.dplus
        space = padic.sample_space(values, chosen)
        _emit(formats.matrix_csv_string(space), getattr(args, "output", None))  # dplus has no -o
    elif args.verb == "is-ut":
        from . import formats, tree

        space = formats.read_matrix_file(args.matrix)
        cert = tree.is_ut(space)
        if cert is None:
            print("none")
        else:
            sys.stdout.write(formats.tree_json_string(cert))
    elif args.verb == "random-tree":
        from . import formats, treemetric

        pool = parse_rational_list(args.pool)
        t = treemetric.random_labeled_tree(args.n, pool, args.seed)
        sys.stdout.write(formats.tree_json_string(t))
    else:
        raise AssertionError(f"unhandled verb {args.verb!r}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # these errors print the usage of the parser with every verb
    if args.verb == "enumerate" and args.jobs < 1:
        build_parser().error(f"argument --jobs: must be at least 1, got {args.jobs}")
    if args.verb in ("enumerate", "random-tree") and args.n < 1:
        build_parser().error(f"argument --n: must be at least 1, got {args.n}")
    try:
        return _run(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UltratreeError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # the entry point; see the module docstring
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except OSError as exc:  # the output cannot be written, as in main
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
