"""Spectral graph analysis around the Fiedler vector.

Core objects: weighted undirected graphs, a deterministic dense symmetric
eigensolver, pendant-vertex perturbation of the Fiedler pair, the Fiedler
centrality distance, classical centralities for comparison, and Fiedler-based
longitudinal parameterization of 2D binary shapes.
"""
from .centrality import (
    CentralityVector,
    CorrelationTable,
    betweenness,
    closeness,
    correlation_experiment,
    eigenvector_centrality,
    pearson,
    spearman,
)
from .eigen import ConvergenceError, Spectrum, eig_sym, eigvals_sym
from .fcd import AbarSweep, FcdConfig, FcdResult, FcdSearchError, a_of_v, a_of_v_sweep, fcd_all
from .graphs import (
    DisconnectedGraphError,
    EdgeListParseError,
    Graph,
    build_graph,
    generate,
    is_connected,
    laplacian,
    read_edgelist,
    weight_matrix,
    write_edgelist,
)
from .perturbation import (
    Conjecture1Report,
    PerturbedFiedler,
    attach_pendant,
    complete_graph_large_x,
    conjecture1_check,
    perturbed_fiedler,
    small_x_limit,
    sweep,
)
from .shape import (
    MaskImage,
    MaskParseError,
    Parameterization,
    ShapeGraph,
    ThicknessProfile,
    anchored_parameterization,
    load_mask,
    mask_to_graph,
    parameterize,
    synthetic_bent_tube,
    synthetic_hooked_shape,
    synthetic_rectangle,
    thickness_profile,
)
from .spectral import FiedlerResult, fiedler, first_order_perturbation, weyl_check

__version__ = "0.1.0"

__all__ = [
    "AbarSweep",
    "CentralityVector",
    "Conjecture1Report",
    "ConvergenceError",
    "CorrelationTable",
    "DisconnectedGraphError",
    "EdgeListParseError",
    "FcdConfig",
    "FcdResult",
    "FcdSearchError",
    "FiedlerResult",
    "Graph",
    "MaskImage",
    "MaskParseError",
    "Parameterization",
    "PerturbedFiedler",
    "ShapeGraph",
    "Spectrum",
    "ThicknessProfile",
    "a_of_v",
    "a_of_v_sweep",
    "anchored_parameterization",
    "attach_pendant",
    "betweenness",
    "build_graph",
    "closeness",
    "complete_graph_large_x",
    "conjecture1_check",
    "correlation_experiment",
    "eig_sym",
    "eigenvector_centrality",
    "eigvals_sym",
    "fcd_all",
    "fiedler",
    "first_order_perturbation",
    "generate",
    "is_connected",
    "laplacian",
    "load_mask",
    "mask_to_graph",
    "parameterize",
    "pearson",
    "perturbed_fiedler",
    "read_edgelist",
    "small_x_limit",
    "spearman",
    "sweep",
    "synthetic_bent_tube",
    "synthetic_hooked_shape",
    "synthetic_rectangle",
    "thickness_profile",
    "weight_matrix",
    "weyl_check",
    "write_edgelist",
]
