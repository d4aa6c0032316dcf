"""Exact-arithmetic toolkit for finite ultrametric spaces generated by
vertex-labeled trees: distance matrices, centers of distances, centered
spheres, diametrical graphs, p-adic samples, and exhaustive enumeration
of weak-similarity classes.

Submodules are imported on first use of one of their names (PEP 562), so
a command that needs only the tree layer never loads the campaign code.
The space itself and its merge-order readers (``metric``) are apart from
matrix validation and the canonical dendrogram (``hierarchy``) and from
the rank-row analyses, balls and spheres among them (``rankrows``).
``is_ut``, which decides whether a space is generated by a labeled tree,
belongs to the tree layer (``tree``). The campaigns (``explorer``) load
``tree`` only for random trees, and the file formats only to write a
witness.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "errors": ("UltratreeError",),
    "explorer": (
        "CampaignReport", "check_closed_balls", "check_con3", "check_hol",
        "check_theorem_suite", "dendrogram_to_space", "enumerate_dendrograms",
        "merge_parts",
    ),
    "hierarchy": (
        "Dendrogram", "WeakSimilarityWitness", "space_to_dendrogram",
        "validate_ultrametric", "weak_similarity",
    ),
    "metric": (
        "DistanceSet", "FiniteUltrametricSpace", "MultipartiteDecomposition",
        "StarCertificate",
    ),
    "padic": (
        "PadicNorm", "dp_metric", "dplus", "padic_distance", "padic_valuation",
        "sample_space",
    ),
    "rankrows": (
        "Ball", "DiametricalGraph", "SphereCertificate", "ball", "center_of_distances",
        "diameter", "diametrical_graph", "distance_set", "enumerate_balls",
        "enumerate_centered_spheres", "is_centered_sphere", "is_equidistant",
        "multipartite_parts", "pointwise_distance_set", "restrict", "spanning_star",
    ),
    "tree": (
        "LabeledTree", "PathMaxIndex", "ball_subtree", "canonical_labeling",
        "distance_matrix", "is_nondegenerate", "is_ut", "label_distance",
        "random_labeled_tree", "validate_tree",
    ),
}
_SUBMODULES = (
    "capacity", "errors", "explorer", "formats", "hierarchy", "metric", "padic", "rankrows",
    "rationals", "tree",
)
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
