"""The traced benchmark names library functions; they must keep resolving.

``perfbench/spans.py`` wraps each function listed in ``GROUPS`` by its
dotted name, so renaming one (``_center_size``, ``_sphere_family``,
``PathMaxIndex.__init__``, ...) would break ``perfbench/run.py --trace 1``. The package's public names
are pinned too.
"""

import importlib.util
from pathlib import Path

import pytest

import ultratree
import ultratree.cli  # noqa: F401 - the harness traces cli.main too
import ultratree.explorer  # noqa: F401 - the harness's campaign verbs import it before tracing

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
