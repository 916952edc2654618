"""Algorithm registry: the paper's nine benchmark algorithms by name.

Each entry couples the *pure* implementation (returns results, used by
tests and examples) with its *traced* twin (drives the cache
simulator).  ``source_params`` names parameters holding logical node
ids; the experiment runner maps those through each ordering's
permutation so every ordering performs identical logical work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.algorithms.bfs import (
    breadth_first_search,
    breadth_first_search_traced,
)
from repro.algorithms.deltastep import (
    delta_stepping,
    delta_stepping_traced,
)
from repro.algorithms.dfs import (
    depth_first_search,
    depth_first_search_traced,
)
from repro.algorithms.diameter import diameter, diameter_traced
from repro.algorithms.domset import dominating_set, dominating_set_traced
from repro.algorithms.kcore import (
    core_decomposition,
    core_decomposition_traced,
)
from repro.algorithms.labelprop import (
    label_propagation,
    label_propagation_traced,
)
from repro.algorithms.nq import neighbor_query, neighbor_query_traced
from repro.algorithms.pagerank import pagerank, pagerank_traced
from repro.algorithms.scc import (
    strongly_connected_components,
    strongly_connected_components_traced,
)
from repro.algorithms.sp import shortest_paths, shortest_paths_traced
from repro.algorithms.wkcore import (
    weighted_core_decomposition,
    weighted_core_decomposition_traced,
)
from repro.algorithms.triangles import (
    triangle_count,
    triangle_count_traced,
)
from repro.algorithms.wcc import (
    weakly_connected_components,
    weakly_connected_components_traced,
)
from repro.errors import InvalidParameterError, UnknownAlgorithmError


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered benchmark algorithm."""

    name: str  # registry key (the paper's abbreviation, lowercase)
    display_name: str  # the paper's label (NQ, BFS, ...)
    pure: Callable[..., Any]
    traced: Callable[..., Any]
    #: Parameter names carrying logical node ids (relabeled per run).
    source_params: tuple[str, ...] = ()
    #: Parameters that scale the run length in experiment profiles.
    scale_params: tuple[str, ...] = field(default=())
    #: Whether the algorithm belongs to the paper's benchmark nine.
    headline: bool = True


#: The nine algorithms, in the paper's figure order.
REGISTRY: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        AlgorithmSpec("nq", "NQ", neighbor_query, neighbor_query_traced),
        AlgorithmSpec(
            "bfs", "BFS", breadth_first_search,
            breadth_first_search_traced,
        ),
        AlgorithmSpec(
            "dfs", "DFS", depth_first_search, depth_first_search_traced
        ),
        AlgorithmSpec(
            "scc", "SCC", strongly_connected_components,
            strongly_connected_components_traced,
        ),
        AlgorithmSpec(
            "sp", "SP", shortest_paths, shortest_paths_traced,
            source_params=("source",),
        ),
        AlgorithmSpec(
            "pr", "PR", pagerank, pagerank_traced,
            scale_params=("iterations",),
        ),
        AlgorithmSpec(
            "ds", "DS", dominating_set, dominating_set_traced
        ),
        AlgorithmSpec(
            "kcore", "Kcore", core_decomposition,
            core_decomposition_traced,
        ),
        AlgorithmSpec(
            "diam", "Diam", diameter, diameter_traced,
            source_params=("sources",),
        ),
        # Extension algorithms (beyond the paper's nine) — the
        # replication suggests Gorder "could speed up other graph
        # algorithms as well"; these test that claim.
        AlgorithmSpec(
            "wcc", "WCC", weakly_connected_components,
            weakly_connected_components_traced, headline=False,
        ),
        AlgorithmSpec(
            "tc", "TC", triangle_count, triangle_count_traced,
            headline=False,
        ),
        AlgorithmSpec(
            "lp", "LP", label_propagation, label_propagation_traced,
            scale_params=("iterations",), headline=False,
        ),
        AlgorithmSpec(
            "dsssp", "DSSSP", delta_stepping, delta_stepping_traced,
            source_params=("source",), headline=False,
        ),
        AlgorithmSpec(
            "wkcore", "WKcore", weighted_core_decomposition,
            weighted_core_decomposition_traced, headline=False,
        ),
    ]
}

#: Names in the paper's figure order (the headline nine only).
ALGORITHM_NAMES: tuple[str, ...] = tuple(
    name for name, algorithm in REGISTRY.items() if algorithm.headline
)

#: Trace-emitter selection: ``"runtime"`` is the vectorised frontier
#: runtime (the default), ``"scalar"`` forces the scalar-loop oracle
#: from :data:`repro.oracles.TRACED_SCALAR` where one exists
#: (algorithms without a port run their only traced implementation
#: either way).  Only differential tests and ``bench --suite algos``
#: select the oracle.
ALGO_BACKENDS: tuple[str, ...] = ("runtime", "scalar")


def traced_fn(
    algorithm: AlgorithmSpec, algo_backend: str = "runtime"
) -> Callable[..., Any]:
    """The trace emitter for ``algorithm`` under ``algo_backend``."""
    if algo_backend not in ALGO_BACKENDS:
        known = ", ".join(ALGO_BACKENDS)
        raise InvalidParameterError(
            f"algo_backend must be one of {known}, "
            f"got {algo_backend!r}"
        )
    if algo_backend == "scalar":
        # Deferred: repro.oracles imports the algorithm modules, and
        # importing any of them runs this package's __init__.
        from repro.oracles import TRACED_SCALAR

        return TRACED_SCALAR.get(algorithm.name, algorithm.traced)
    return algorithm.traced


def spec(name: str) -> AlgorithmSpec:
    """Look up an algorithm by registry name (case-insensitive)."""
    try:
        return REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        ) from None
