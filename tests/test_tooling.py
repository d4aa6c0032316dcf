"""The traced benchmark names library functions; they must keep resolving.

``perfbench/spans.py`` wraps each function listed in ``GROUPS`` by its
dotted name, so renaming one (``_center_size``, ``_sphere_family``,
``PathMaxIndex.__init__``, ...) would break ``perfbench/run.py --trace 1``. The package's public names
are pinned too, no module of the package keeps a name it imports but
never uses, and no module-level function, constant or class goes unused.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import ultratree
import ultratree.cli  # noqa: F401 - the harness traces cli.main too
import ultratree.explorer  # noqa: F401 - the harness's campaign verbs import it before tracing

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
    "enumerate_dendrograms", "errors", "explorer", "formats", "is_centered_sphere",
    "is_equidistant", "is_nondegenerate", "is_ut", "label_distance", "merge_parts",
    "metric", "multipartite_parts", "padic", "padic_distance", "padic_valuation",
    "pointwise_distance_set", "random_labeled_tree", "rationals", "restrict",
    "sample_space", "space_to_dendrogram", "spanning_star", "tree",
    "validate_tree", "validate_ultrametric", "weak_similarity",
]


def test_public_names_are_pinned():
    assert sorted(ultratree.__all__) == PUBLIC_NAMES


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


def unused_module_names(kinds: tuple) -> list[str]:
    """Module-level names bound by statements of ``kinds`` that nothing in
    the package reads, that are not public, not dunders and not traced by
    the harness: dead code."""
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
        and f"{module}.{name}" not in spans.GROUPS
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
