"""Exact-arithmetic toolkit for finite ultrametric spaces generated by
vertex-labeled trees: distance matrices, centers of distances, centered
spheres, diametrical graphs, p-adic samples, and exhaustive enumeration
of weak-similarity classes.

Submodules are imported on first use of one of their names (PEP 562), so
a command that needs only the tree layer never loads the campaign code.
The modules are split along the paths the CLI verbs run, since a process
that finds no bytecode compiles every module it imports:

- ``metric``: the space itself and its merge order;
- ``mergeorder``: the center and the diametrical parts read off a merge
  order, and the records they report in;
- ``hierarchy``: matrix validation and the diameter splits;
- ``dendrogram``: the canonical dendrogram and weak similarity;
- ``rankrows``: the rank-row analyses, balls and spheres among them;
- ``tree``: the labeled tree, and ``is_ut``, which decides whether a
  space is generated by one;
- ``treemetric``: tree validation and the metric a tree generates;
- ``explorer``: the class enumeration and its campaigns;
- ``suite``: the theorem suite and its process pool.

The campaigns load the file formats (``formats``) only to write a witness.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "errors": ("UltratreeError",),
    "dendrogram": (
        "Dendrogram", "WeakSimilarityWitness", "space_to_dendrogram", "weak_similarity",
    ),
    "explorer": (
        "CampaignReport", "check_closed_balls", "check_con3", "check_hol",
        "dendrogram_to_space", "enumerate_dendrograms", "merge_parts",
    ),
    "hierarchy": ("validate_ultrametric",),
    "mergeorder": ("DistanceSet", "MultipartiteDecomposition", "StarCertificate"),
    "metric": ("FiniteUltrametricSpace",),
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
    "suite": ("check_theorem_suite",),
    "tree": ("LabeledTree", "is_ut"),
    "treemetric": (
        "PathMaxIndex", "ball_subtree", "canonical_labeling", "distance_matrix",
        "is_nondegenerate", "label_distance", "random_labeled_tree", "validate_tree",
    ),
}
_SUBMODULES = (
    "capacity", "dendrogram", "errors", "explorer", "formats", "hierarchy", "mergeorder",
    "metric", "padic", "rankrows", "rationals", "suite", "tree", "treemetric",
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
