"""Cheap structural predictors of reordering benefit.

"A Closer Look at Lightweight Graph Reordering" [Faldu, Diamond &
Grot 2019] shows that whether reordering pays — and which reordering
— is largely decided by a handful of structural properties: how
skewed the degree distribution is, how much of the access stream the
hub set absorbs, and how badly the hot vertices are scattered across
cache lines; Satav adds the graph's diameter.  This module computes
those properties in O(n + m).  The selector
(:mod:`repro.ordering.select`) reports them to explain a decision;
no decision reads them.  EXPERIMENTS.md ranks each against measured
Gorder speedup over the dataset registry.

All predictors are deterministic pure functions of the graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

#: Nodes per simulated cache line used by the packing factor — a
#: 64-byte line of 4-byte vertex states, matching the simulator's
#: default line size.
LINE_NODES = 16


@dataclass(frozen=True)
class StructuralPredictors:
    """O(n + m) structural signals for one graph.

    All ratios are dimensionless; a graph with no edges yields the
    neutral values (skew 1, concentration 0, packing 1).
    """

    nodes: int
    edges: int
    #: Mean degree (m / n) — separates sparse from dense inputs.
    mean_degree: float
    #: Max in-degree over mean degree: >> 1 on power-law graphs,
    #: ~1 on regular/mesh graphs where hub packing cannot help.
    degree_skew: float
    #: Share of nodes whose in-degree exceeds the mean (the hub set
    #: the lightweight orderings pack).
    hub_fraction: float
    #: Share of edges that *target* a hub — how much of the access
    #: stream the hot working set absorbs.
    hub_concentration: float
    #: Faldu-style packing factor: cache lines the hub set currently
    #: touches over the minimum possible.  1.0 = already perfectly
    #: packed (reordering cannot densify the hot set further).
    packing_factor: float
    #: Double-BFS-sweep eccentricity lower bound: long, thin graphs
    #: (large proxy) favour traversal-order arrangements, compact
    #: ones favour hub packing.
    diameter_proxy: int

    def as_dict(self) -> dict:
        return asdict(self)


def _bfs_farthest(
    graph: CSRGraph, source: int
) -> tuple[int, int]:
    """``(farthest_node, distance)`` of a BFS from ``source``."""
    distances = np.full(graph.num_nodes, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.array([source], dtype=np.int64)
    offsets = graph.offsets
    adjacency = graph.adjacency
    depth = 0
    farthest = source
    while frontier.shape[0]:
        spans = [
            adjacency[offsets[u]:offsets[u + 1]] for u in frontier
        ]
        neighbors = (
            np.unique(np.concatenate(spans)) if spans
            else np.zeros(0, dtype=np.int64)
        )
        frontier = neighbors[distances[neighbors] < 0]
        if frontier.shape[0]:
            depth += 1
            distances[frontier] = depth
            farthest = int(frontier[0])
    return farthest, depth


def diameter_proxy(graph: CSRGraph) -> int:
    """Double-sweep BFS eccentricity bound (two O(n + m) BFS runs).

    Starts from the max-out-degree node (deterministic), hops to the
    farthest node it reaches and returns that node's BFS depth — the
    classic lower bound on the directed diameter.
    """
    if graph.num_nodes == 0 or graph.num_edges == 0:
        return 0
    start = int(np.argmax(graph.out_degrees()))
    turn, _ = _bfs_farthest(graph, start)
    _, depth = _bfs_farthest(graph, turn)
    return depth


def packing_factor(
    graph: CSRGraph, line_nodes: int = LINE_NODES
) -> float:
    """Hub cache-line spread over the minimum possible spread."""
    if line_nodes < 1:
        raise InvalidParameterError(
            f"line_nodes must be positive, got {line_nodes}"
        )
    degrees = graph.in_degrees()
    if graph.num_nodes == 0 or graph.num_edges == 0:
        return 1.0
    hubs = np.flatnonzero(degrees > degrees.mean())
    if not hubs.shape[0]:
        return 1.0
    lines_used = int(np.unique(hubs // line_nodes).shape[0])
    lines_minimal = -(-int(hubs.shape[0]) // line_nodes)
    return lines_used / lines_minimal


def compute_predictors(
    graph: CSRGraph, line_nodes: int = LINE_NODES
) -> StructuralPredictors:
    """All structural predictors for one graph, in one call."""
    n = graph.num_nodes
    m = graph.num_edges
    with obs.profile("ordering.predictors", n=n, m=m):
        if n == 0 or m == 0:
            return StructuralPredictors(
                nodes=n, edges=m, mean_degree=0.0, degree_skew=1.0,
                hub_fraction=0.0, hub_concentration=0.0,
                packing_factor=1.0, diameter_proxy=0,
            )
        degrees = graph.in_degrees()
        mean_degree = m / n
        hubs = degrees > degrees.mean()
        return StructuralPredictors(
            nodes=n,
            edges=m,
            mean_degree=mean_degree,
            degree_skew=float(degrees.max()) / mean_degree,
            hub_fraction=float(np.count_nonzero(hubs)) / n,
            hub_concentration=float(degrees[hubs].sum()) / m,
            packing_factor=packing_factor(
                graph, line_nodes=line_nodes
            ),
            diameter_proxy=diameter_proxy(graph),
        )

