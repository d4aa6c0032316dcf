"""The traced benchmark names library functions; they must keep resolving.

``perfbench/spans.py`` wraps each function listed in ``GROUPS`` by its
dotted name, so renaming one (``_center_size``, ``_sphere_family``,
``PathMaxIndex.__init__``, ...) would break ``perfbench/run.py --trace 1``,
and so would a module that no operation of a workload loads. The
package's public names are pinned too, no module of the package keeps a
name it imports but never uses, and no module-level function, constant
or class goes unused.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ultratree
import ultratree.cli  # noqa: F401 - the harness traces cli.main too
# the CLI imports these per verb; the harness's verbs have imported them before tracing
import ultratree.explorer  # noqa: F401
import ultratree.formats  # noqa: F401
import ultratree.tree  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PACKAGE = sorted(Path(ultratree.__file__).resolve().parent.glob("*.py"))


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("name", sorted(spans.GROUPS))
def test_traced_name_resolves(name):
    _, _, function = spans._resolve(ultratree, name)
    assert callable(function)


def test_counted_and_generator_names_are_traced():
    assert set(spans.COUNTERS) <= set(spans.GROUPS)
    assert spans.GENERATORS <= set(spans.GROUPS)


# The public surface: moving a function between modules must neither drop
# nor rename one of these names.
PUBLIC_NAMES = [
    "Ball", "CampaignReport", "Dendrogram", "DiametricalGraph", "DistanceSet",
    "FiniteUltrametricSpace", "LabeledTree", "MultipartiteDecomposition", "PadicNorm",
    "PathMaxIndex", "SphereCertificate", "StarCertificate", "UltratreeError",
    "WeakSimilarityWitness", "ball", "ball_subtree", "canonical_labeling", "capacity",
    "center_of_distances", "check_closed_balls", "check_con3", "check_hol",
    "check_theorem_suite", "dendrogram", "dendrogram_to_space", "diameter",
    "diametrical_graph", "distance_matrix", "distance_set", "dp_metric", "dplus",
    "enumerate_balls", "enumerate_centered_spheres", "enumerate_dendrograms", "errors",
    "explorer", "formats", "hierarchy", "is_centered_sphere", "is_equidistant",
    "is_nondegenerate", "is_ut", "label_distance", "merge_parts", "mergeorder", "metric",
    "multipartite_parts", "padic", "padic_distance", "padic_valuation",
    "pointwise_distance_set", "random_labeled_tree", "rankrows", "rationals", "restrict",
    "sample_space", "space_to_dendrogram", "spanning_star", "suite", "tree", "treemetric",
    "validate_tree", "validate_ultrametric", "weak_similarity",
]


def test_public_names_are_pinned():
    assert sorted(ultratree.__all__) == PUBLIC_NAMES


def test_every_export_is_defined_where_it_is_mapped():
    # a name mapped to a module that only passes it on would load that
    # module too, for nothing: `is_ut` through `explorer` loads the campaigns
    misplaced = [
        f"{module}.{name}"
        for module, names in ultratree._EXPORTS.items()
        for name in names
        if getattr(importlib.import_module(f"ultratree.{module}"), name).__module__
        != f"ultratree.{module}"
    ]
    assert misplaced == []


def assert_forwarded(source: str, split_off: tuple, unexported: set) -> None:
    """Every public name defined in the ``split_off`` modules (those of
    ``_EXPORTS`` and ``unexported``) imports from ``source`` too, as the
    same object."""
    moved = {
        name: module
        for module in split_off
        for name, value in vars(importlib.import_module(f"ultratree.{module}")).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == f"ultratree.{module}"
    }
    exported = {name for module in split_off for name in ultratree._EXPORTS[module]}
    assert set(moved) == exported | unexported
    for name, module in moved.items():
        namespace: dict = {}
        exec(f"from ultratree.{source} import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"ultratree.{module}"), name)


def test_every_moved_public_name_still_imports_from_metric():
    # the names split off into `hierarchy`, `dendrogram`, `mergeorder` and
    # `rankrows` resolve through `metric` too, as the harness's dotted names
    # (`metric.enumerate_balls`, `metric.weak_similarity`) need
    assert_forwarded(
        "metric",
        ("dendrogram", "hierarchy", "mergeorder", "rankrows"),
        {"all_subsets_centered_spheres"},
    )


def test_every_moved_public_name_still_imports_from_tree():
    # as `tree.validate_tree` and `tree.PathMaxIndex.__init__` need
    assert_forwarded("tree", ("treemetric",), {"degenerate_edge"})


def test_every_moved_public_name_still_imports_from_explorer():
    # as `explorer.check_theorem_suite` needs; the private `_parallel_map`
    # and `_suite_row` are forwarded for the harness too (see above)
    assert_forwarded("explorer", ("suite",), {"check_suite_enumerated"})


def loaded_by_script(script: str) -> list[str]:
    """The modules a fresh interpreter has loaded after ``script``."""
    src = str(Path(ultratree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script + "\nprint(' '.join(sorted(sys.modules)))\n"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_metric_alone_loads_neither_split_module():
    # `from .metric import X` asks `metric` for `__path__` first: a forwarder
    # that imported on every unknown name would load every split module here
    loaded = loaded_by_script(
        "import sys\n"
        "import ultratree.metric\n"
        "from ultratree.metric import FiniteUltrametricSpace, _rank_entries"
    )
    assert "ultratree.metric" in loaded
    split = {"ultratree.dendrogram", "ultratree.hierarchy", "ultratree.mergeorder", "ultratree.rankrows"}
    assert split.isdisjoint(loaded)


def test_tree_alone_loads_no_tree_metric():
    # what `is-ut` needs of the tree layer
    loaded = loaded_by_script(
        "import sys\n"
        "import ultratree.tree\n"
        "from ultratree.tree import LabeledTree, is_ut"
    )
    assert "ultratree.tree" in loaded
    assert "ultratree.treemetric" not in loaded


def test_explorer_alone_loads_neither_the_suite_nor_the_dendrogram_nor_the_tree():
    # what `con3`, `hol` and `closed-balls` need of the campaigns
    loaded = loaded_by_script(
        "import sys\n"
        "import ultratree.explorer\n"
        "from ultratree.explorer import CampaignReport, _Subtrees, check_con3"
    )
    assert "ultratree.explorer" in loaded
    absent = {"ultratree.dendrogram", "ultratree.suite", "ultratree.tree", "ultratree.treemetric"}
    assert absent.isdisjoint(loaded)


# Run in a fresh interpreter with bytecode off: one workload's seeded
# inputs written by CLI processes, as the benchmark's set-up does, then
# every --jobs 1 operation through ``cli.main`` in this process, as the
# traced pass does, and then every traced name resolved. Only the modules
# those operations loaded are in ``sys.modules`` then, where the test
# process has imported every module.
TRACED_PASS = """
import contextlib, importlib.util, io, subprocess, sys, tempfile
from pathlib import Path

bench, workload = Path(sys.argv[1]), sys.argv[2]


def load(name):
    spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # `workloads` imports `checks` by this name
    spec.loader.exec_module(module)
    return module


load("checks")
workloads, spans = load("workloads"), load("spans")
import ultratree
import ultratree.cli


def cli(argv, stdout_path):
    proc = subprocess.run([sys.executable, "-B", "-m", "ultratree.cli", *argv],
                          capture_output=True, text=True, check=True)
    if stdout_path:
        Path(stdout_path).write_text(proc.stdout, encoding="utf-8")


generate, operations = workloads.WORKLOADS[workload]
with tempfile.TemporaryDirectory() as workdir:
    ctx = workloads.Context(Path(workdir), 7, workloads.TINY, cli)
    generate(ctx)
    for op in operations(ctx):
        if op.jobs == 1:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = ultratree.cli.main(list(op.argv))
            assert op.check(code, out.getvalue()) is None, op.argv
unresolved = []
for name in spans.GROUPS:
    try:
        spans._resolve(ultratree, name)
    except (KeyError, AttributeError) as exc:
        unresolved.append(f"{name}: {exc!r}")
print(unresolved)
"""

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_names_resolve_after_a_workloads_own_operations(workload):
    # `spans.instrument` finds a traced module in `sys.modules` only if an
    # operation of the workload loaded it: were `is-ut`, the only
    # class-campaigns operation that loads `tree`, to stop loading it,
    # every `tree.*` name would raise KeyError in the traced pass
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_PASS, str(ROOT / "perfbench"), workload],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1", "PATH": ""},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from ultratree import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    for name in PUBLIC_NAMES:
        assert getattr(ultratree, name) is namespace[name]


def bound_name(node: ast.AST, alias: ast.alias) -> str:
    """The name an import binds: ``import a.b`` binds ``a``."""
    if alias.asname or isinstance(node, ast.ImportFrom):
        return alias.asname or alias.name
    return alias.name.partition(".")[0]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_from_import_is_used(path):
    # plain and from-imports alike, at module level and inside functions:
    # a leftover import of a slow module (dataclasses pulls in inspect)
    # costs every CLI process its start-up time
    module = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    unused = [
        bound_name(node, alias)
        for node in ast.walk(module)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
        if bound_name(node, alias) not in used
    ]
    assert unused == []


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level definition or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
    return [
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    ]


def traced_definitions() -> set[str]:
    """Where each function the harness traces is defined, as
    "<module>.<qualified name>": ``metric.validate_ultrametric`` is traced
    through ``metric`` but defined in ``hierarchy``."""
    functions = (spans._resolve(ultratree, name)[2] for name in spans.GROUPS)
    return {f"{f.__module__.rpartition('.')[2]}.{f.__qualname__}" for f in functions}


def unused_module_names(kinds: tuple) -> list[str]:
    """Module-level names bound by statements of ``kinds`` that nothing in
    the package reads, that are not public, not dunders and not traced by
    the harness: dead code."""
    traced = traced_definitions()
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    used = set().union(*map(referenced_names, trees.values()))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for statement in tree.body
        if isinstance(statement, kinds)
        for name in defined_names(statement)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
        and name not in ultratree.__all__
        and f"{module}.{name}" not in traced
    ]


def test_every_module_function_is_used():
    assert unused_module_names((ast.FunctionDef, ast.AsyncFunctionDef)) == []


def test_every_module_constant_and_class_is_used():
    # a leftover constant, such as a fence no code applies any more, is
    # caught like a leftover function
    assert unused_module_names((ast.Assign, ast.AnnAssign, ast.ClassDef)) == []


def test_oracles_import_no_private_name():
    # an oracle that calls the library's own private helpers is no longer
    # an independent reference for them
    module = ast.parse(ORACLES.read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ultratree")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_one_module_decides_exactness():
    # `rationals.exact_rational` is the one rule for what counts as an exact
    # rational: no other module tells a float or a bool apart itself, reads
    # the digit patterns, or (but the CSV reader) parses rational text
    forked, parsers = [], []
    for path in PACKAGE:
        if path.stem == "rationals":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = {n.id for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Name)}
                if kinds & {"bool", "float"}:
                    forked.append(f"{path.stem}:{node.lineno}")
            if isinstance(node, ast.FunctionDef):
                uses = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                if "parse_rational" in uses and f"{path.stem}.{node.name}" != "formats.parse_matrix_csv":
                    parsers.append(f"{path.stem}.{node.name}")
            if isinstance(node, (ast.Name, ast.alias, ast.Attribute)):
                name = getattr(node, "id", None) or getattr(node, "name", None) or node.attr
                if name in ("_INTEGER_RE", "_RATIONAL_RE"):
                    forked.append(f"{path.stem}:{getattr(node, 'lineno', 0)}")
            if isinstance(node, ast.ImportFrom) and path.stem != "formats":
                parsers += [f"{path.stem} imports it" for a in node.names if a.name == "parse_rational"]
    assert forked == [] and parsers == []


def test_only_the_cli_entry_function_ends_the_process():
    # `os._exit` skips interpreter teardown: it belongs to the one function
    # the installed command and `python -m ultratree.cli` enter through, and
    # never to `main`, which library callers and tests run in process
    callers = [
        f"{path.stem}.{getattr(statement, 'name', statement.lineno)}"
        for path in PACKAGE
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        if any(
            "_exit" in (getattr(node, "attr", None), getattr(node, "name", None))
            for node in ast.walk(statement)
            if isinstance(node, (ast.Attribute, ast.alias))  # os._exit, from os import _exit
        )
    ]
    assert callers == ["cli.run"]

    cli = ast.parse(Path(ultratree.cli.__file__).read_text(encoding="utf-8"))
    main_block = [node for node in cli.body if isinstance(node, ast.If)]
    assert len(main_block) == 1 and ast.unparse(main_block[0]) == (
        "if __name__ == '__main__':\n    run()"
    )


def test_installed_command_enters_through_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ultratree": "ultratree.cli:run"}
