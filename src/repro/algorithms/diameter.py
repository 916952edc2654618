"""Diam — diameter estimation by repeated shortest-path runs.

Following the paper: run the SP algorithm from randomly chosen source
nodes and report the largest finite distance seen.  The paper uses
5000 repetitions; accuracy is irrelevant here (the point is the memory
traffic of repeated SP runs), so experiment profiles use far fewer.

Sources are chosen by the caller (the experiment runner picks them
once per dataset and maps them through each ordering's permutation so
every ordering does identical logical work) or drawn from ``seed``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.common import declare_graph
from repro.algorithms.sp import (
    INFINITY,
    _declare_sp_arrays,
    _sp_runtime_core,
    shortest_paths,
)
from repro.cache.layout import Memory
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

#: Default number of SP repetitions (the paper uses 5000).
DEFAULT_SOURCES = 16


def pick_sources(
    graph: CSRGraph, num_sources: int = DEFAULT_SOURCES, seed: int = 0
) -> np.ndarray:
    """Deterministically draw SP source nodes for the estimate."""
    if num_sources < 1:
        raise InvalidParameterError(
            f"num_sources must be positive, got {num_sources}"
        )
    if graph.num_nodes == 0:
        raise InvalidParameterError("cannot pick sources in an empty graph")
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, graph.num_nodes, size=num_sources, dtype=np.int64
    )


def diameter(
    graph: CSRGraph,
    sources: Sequence[int] | None = None,
    num_sources: int = DEFAULT_SOURCES,
    seed: int = 0,
) -> int:
    """Max finite SP distance over the source sample."""
    if sources is None:
        sources = pick_sources(graph, num_sources, seed)
    best = 0
    for source in sources:
        distance = shortest_paths(graph, int(source))
        finite = distance[distance != INFINITY]
        if finite.shape[0]:
            best = max(best, int(finite.max()))
    return best


def diameter_traced(
    graph: CSRGraph,
    memory: Memory,
    sources: Sequence[int] | None = None,
    num_sources: int = DEFAULT_SOURCES,
    seed: int = 0,
) -> int:
    """Diameter estimate with traced memory accesses.

    The SP property arrays are declared once and reused across runs,
    as a C implementation reusing its buffers would.  Each run is a
    runtime-backed SPFA (see :func:`repro.algorithms.sp.
    shortest_paths_traced`); touch-sequence identical to
    :func:`~repro.oracles.diameter_traced_scalar`.
    """
    if sources is None:
        sources = pick_sources(graph, num_sources, seed)
    traced = declare_graph(memory, graph)
    arrays = _declare_sp_arrays(memory, graph.num_nodes, suffix="")
    best = 0
    for source in sources:
        distance = _sp_runtime_core(
            graph, traced, arrays, int(source), memory
        )
        finite = distance[distance != INFINITY]
        if finite.shape[0]:
            best = max(best, int(finite.max()))
    return best
