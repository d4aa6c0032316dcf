"""The traced benchmark names library functions; they must keep resolving.

``perfbench/spans.py`` wraps each function listed in ``GROUPS`` by its
dotted name, so renaming one (``_center_size``, ``_sphere_family``,
``PathMaxIndex.__init__``, ...) would break ``perfbench/run.py --trace 1``. The package's public names
are pinned too, no module of the package keeps a name it imports but
never uses, and no module-level function, constant or class goes unused.
"""

import ast
import importlib.util
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

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
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
    "FiniteUltrametricSpace", "LabeledTree", "MultipartiteDecomposition",
    "PadicNorm", "PathMaxIndex", "SphereCertificate", "StarCertificate",
    "UltratreeError", "WeakSimilarityWitness", "ball", "ball_subtree",
    "canonical_labeling", "capacity", "center_of_distances", "check_closed_balls",
    "check_con3", "check_hol", "check_theorem_suite", "dendrogram_to_space",
    "diameter", "diametrical_graph", "distance_matrix", "distance_set",
    "dp_metric", "dplus", "enumerate_balls", "enumerate_centered_spheres",
    "enumerate_dendrograms", "errors", "explorer", "formats", "hierarchy", "is_centered_sphere",
    "is_equidistant", "is_nondegenerate", "is_ut", "label_distance", "merge_parts",
    "metric", "multipartite_parts", "padic", "padic_distance", "padic_valuation",
    "pointwise_distance_set", "random_labeled_tree", "rankrows", "rationals", "restrict",
    "sample_space", "space_to_dendrogram", "spanning_star", "tree",
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


def test_every_moved_public_name_still_imports_from_metric():
    # the names split off into `hierarchy` and `rankrows` resolve through
    # `metric` too, as the harness's dotted names (`metric.enumerate_balls`) need
    moved = {
        name: module
        for module in ("hierarchy", "rankrows")
        for name, value in vars(importlib.import_module(f"ultratree.{module}")).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == f"ultratree.{module}"
    }
    assert set(moved) == set(ultratree._EXPORTS["hierarchy"] + ultratree._EXPORTS["rankrows"]) | {
        "all_subsets_centered_spheres"
    }
    for name, module in moved.items():
        namespace: dict = {}
        exec(f"from ultratree.metric import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"ultratree.{module}"), name)


def test_metric_alone_loads_neither_split_module():
    # `from .metric import X` asks `metric` for `__path__` first: a forwarder
    # that imported on every unknown name would load both modules here
    script = (
        "import sys\n"
        "import ultratree.metric\n"
        "from ultratree.metric import FiniteUltrametricSpace, _rank_entries\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(ultratree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "ultratree.metric" in loaded
    assert "ultratree.hierarchy" not in loaded and "ultratree.rankrows" not in loaded


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
