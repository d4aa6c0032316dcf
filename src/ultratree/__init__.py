"""Exact-arithmetic toolkit for finite ultrametric spaces generated by
vertex-labeled trees: distance matrices, centers of distances, centered
spheres, diametrical graphs, p-adic samples, and exhaustive enumeration
of weak-similarity classes."""

from .errors import UltratreeError
from .explorer import (
    CampaignReport,
    check_closed_balls,
    check_con3,
    check_hol,
    check_theorem_suite,
    dendrogram_to_space,
    enumerate_dendrograms,
    is_ut,
    merge_parts,
    random_labeled_tree,
)
from .metric import (
    Ball,
    Dendrogram,
    DiametricalGraph,
    DistanceSet,
    FiniteUltrametricSpace,
    MultipartiteDecomposition,
    SphereCertificate,
    StarCertificate,
    WeakSimilarityWitness,
    ball,
    center_of_distances,
    diameter,
    diametrical_graph,
    distance_set,
    enumerate_balls,
    enumerate_centered_spheres,
    is_centered_sphere,
    is_equidistant,
    multipartite_parts,
    pointwise_distance_set,
    restrict,
    space_to_dendrogram,
    spanning_star,
    validate_ultrametric,
    weak_similarity,
)
from .padic import PadicNorm, dp_metric, dplus, padic_distance, padic_valuation, sample_space
from .tree import (
    LabeledTree,
    PathMaxIndex,
    ball_subtree,
    canonical_labeling,
    distance_matrix,
    is_nondegenerate,
    label_distance,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
