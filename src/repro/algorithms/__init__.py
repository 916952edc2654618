"""The paper's nine benchmark graph algorithms (pure + traced)."""

from repro.algorithms.base import (
    ALGO_BACKENDS,
    ALGORITHM_NAMES,
    REGISTRY,
    AlgorithmSpec,
    run_arranged,
    spec,
    traced_fn,
)
from repro.algorithms.bfs import (
    UNVISITED,
    breadth_first_search,
    breadth_first_search_traced,
)
from repro.algorithms.deltastep import (
    delta_stepping,
    delta_stepping_traced,
    edge_weights,
)
from repro.algorithms.dfs import (
    depth_first_search,
    depth_first_search_traced,
)
from repro.algorithms.diameter import (
    diameter,
    diameter_traced,
    pick_sources,
)
from repro.algorithms.domset import dominating_set, dominating_set_traced
from repro.algorithms.kcore import (
    core_decomposition,
    core_decomposition_traced,
)
from repro.algorithms.labelprop import (
    label_propagation,
    label_propagation_traced,
)
from repro.algorithms.nq import (
    neighbor_query,
    neighbor_query_traced,
)
from repro.algorithms.pagerank import (
    DAMPING,
    PAPER_ITERATIONS,
    pagerank,
    pagerank_traced,
)
from repro.algorithms.runtime import (
    BucketQueue,
    Frontier,
    TraceEmitter,
)
from repro.algorithms.scc import (
    strongly_connected_components,
    strongly_connected_components_traced,
)
from repro.algorithms.sp import (
    INFINITY,
    shortest_paths,
    shortest_paths_traced,
)
from repro.algorithms.traced_heap import TracedBinaryHeap
from repro.algorithms.triangles import (
    triangle_count,
    triangle_count_traced,
)
from repro.algorithms.union_find import UnionFind
from repro.algorithms.wcc import (
    weakly_connected_components,
    weakly_connected_components_traced,
)
from repro.algorithms.wkcore import (
    weighted_core_decomposition,
    weighted_core_decomposition_traced,
)

__all__ = [
    "ALGO_BACKENDS",
    "ALGORITHM_NAMES",
    "REGISTRY",
    "AlgorithmSpec",
    "spec",
    "traced_fn",
    "run_arranged",
    "neighbor_query",
    "neighbor_query_traced",
    "breadth_first_search",
    "breadth_first_search_traced",
    "UNVISITED",
    "depth_first_search",
    "depth_first_search_traced",
    "strongly_connected_components",
    "strongly_connected_components_traced",
    "shortest_paths",
    "shortest_paths_traced",
    "INFINITY",
    "pagerank",
    "pagerank_traced",
    "DAMPING",
    "PAPER_ITERATIONS",
    "dominating_set",
    "dominating_set_traced",
    "core_decomposition",
    "core_decomposition_traced",
    "diameter",
    "diameter_traced",
    "pick_sources",
    "TracedBinaryHeap",
    "UnionFind",
    "weakly_connected_components",
    "weakly_connected_components_traced",
    "triangle_count",
    "triangle_count_traced",
    "label_propagation",
    "label_propagation_traced",
    "delta_stepping",
    "delta_stepping_traced",
    "edge_weights",
    "weighted_core_decomposition",
    "weighted_core_decomposition_traced",
    "BucketQueue",
    "Frontier",
    "TraceEmitter",
]
