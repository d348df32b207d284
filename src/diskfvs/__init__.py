"""diskfvs: feedback vertex set solving on fat-object intersection graphs.

The solver decides whether a graph has a feedback vertex set of size at
most k via a contraction-based weighted tree decomposition and a
clique-constrained connectivity DP with rank-based state reduction;
solve(g, SolveConfig(k=g.n)) returns a minimum one. Unit disk graphs are
the flagship instance family; the DP itself is exact on any graph.
"""

from .errors import (
    DiskFvsError,
    InputError,
    InternalError,
    ResourceError,
    ValidationError,
)
from .graph import (
    Graph,
    PeelResult,
    connected_components,
    count_high_degree,
    from_edge_list,
    induced_subgraph,
    is_forest,
    peel_degree_one,
)
from .geometry import (
    FatObject,
    ObjectSet,
    build_intersection_graph,
    planted_yes_instance,
    random_udg,
)
from .partition import (
    ContractedGraph,
    KappaPartition,
    contract,
    greedy_partition,
    local_selections,
)
from .decomposition import (
    BlowupGraph,
    NiceDecomposition,
    TreeDecomposition,
    blowup,
    decompose_unweighted,
    make_nice,
    project,
    validate_decomposition,
    weighted_width,
)
from .oracle import min_fvs_bruteforce
from .reduction import RepresentativeTable, rank_reduce
from .solver import (
    Pipeline,
    Solution,
    SolveConfig,
    build_pipeline,
    component_pipelines,
    dp_run,
    reconstruct,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "DiskFvsError",
    "InputError",
    "InternalError",
    "ResourceError",
    "ValidationError",
    "Graph",
    "PeelResult",
    "connected_components",
    "count_high_degree",
    "from_edge_list",
    "induced_subgraph",
    "is_forest",
    "peel_degree_one",
    "FatObject",
    "ObjectSet",
    "build_intersection_graph",
    "planted_yes_instance",
    "random_udg",
    "ContractedGraph",
    "KappaPartition",
    "contract",
    "greedy_partition",
    "local_selections",
    "BlowupGraph",
    "NiceDecomposition",
    "TreeDecomposition",
    "blowup",
    "decompose_unweighted",
    "make_nice",
    "project",
    "validate_decomposition",
    "weighted_width",
    "min_fvs_bruteforce",
    "RepresentativeTable",
    "rank_reduce",
    "Pipeline",
    "Solution",
    "SolveConfig",
    "build_pipeline",
    "component_pipelines",
    "dp_run",
    "reconstruct",
    "solve",
]
