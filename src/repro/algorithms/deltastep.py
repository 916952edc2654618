"""DSSSP — delta-stepping single-source shortest paths (weighted).

Extension algorithm exercising the bucket side of the frontier
runtime: distances advance bucket-by-bucket through a
:class:`~repro.algorithms.runtime.BucketQueue`, light edges
(weight <= delta) are relaxed with *bucket fusion* — re-draining the
active bucket until no light relaxation lands back in it — and heavy
edges once per settled node, as in Meyer & Sanders' algorithm.

Edge weights are synthesised deterministically (no RNG, no stored
weight data) by hashing the endpoints' degrees: symmetric, so an
undirected edge has one weight in both directions, and blind to node
ids, so every ordering solves the same weighted problem; see
:func:`edge_weights`.

The pure oracle is Dijkstra (binary heap), so the parity tests check
delta-stepping against an independently correct algorithm rather than
a restructured copy of itself.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph
from repro.algorithms.runtime import (
    BucketQueue,
    TraceEmitter,
    interleave_fields,
    run_field,
    segment_sums,
)
from repro.cache.layout import Memory
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

#: Distance assigned to unreachable nodes.
INFINITY = np.iinfo(np.int64).max
#: Largest synthesised edge weight (weights are 1..MAX_WEIGHT).
MAX_WEIGHT = 15
#: Default bucket width; light edges have weight <= delta.
DEFAULT_DELTA = 4

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX_C = np.uint64(0xFF51AFD7ED558CCD)


def edge_weights(
    graph: CSRGraph, max_weight: int = MAX_WEIGHT
) -> np.ndarray:
    """Deterministic per-edge weights in ``1..max_weight``.

    Hash of the *unordered* pair of the endpoints' total (in + out)
    degrees.  Symmetric, so an edge and its reverse always agree, which
    keeps undirected graphs consistent; and a property of the graph
    rather than of its labels, so relabeling a graph permutes its
    weights with its edges and a weighted result maps back exactly.
    Aligned with ``graph.adjacency`` (the flattened CSR edge order).
    """
    if max_weight < 1:
        raise InvalidParameterError(
            f"max_weight must be positive, got {max_weight}"
        )
    n = graph.num_nodes
    degrees = (
        graph.out_degrees() + np.bincount(graph.adjacency, minlength=n)
    ).astype(np.uint64)
    sources, targets = graph.edge_array()
    lo = np.minimum(degrees[sources], degrees[targets])
    hi = np.maximum(degrees[sources], degrees[targets])
    with np.errstate(over="ignore"):
        mixed = lo * _MIX_A + hi * _MIX_B
        mixed ^= mixed >> np.uint64(33)
        mixed *= _MIX_C
        mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(max_weight)).astype(np.int64) + 1


def delta_stepping(
    graph: CSRGraph,
    source: int = 0,
    delta: int = DEFAULT_DELTA,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted SSSP distances (Dijkstra oracle; see module doc)."""
    _check_params(graph, source, delta)
    if weights is None:
        weights = edge_weights(graph)
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    distance = np.full(n, INFINITY, dtype=np.int64)
    distance[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    while heap:
        dist_u, u = heapq.heappop(heap)
        if dist_u != distance[u]:
            continue  # stale heap entry
        start = int(offsets[u])
        end = int(offsets[u + 1])
        for i, v in enumerate(adjacency[start:end].tolist()):
            candidate = dist_u + int(weights[start + i])
            if candidate < distance[v]:
                distance[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return distance


def delta_stepping_traced(
    graph: CSRGraph,
    memory: Memory,
    source: int = 0,
    delta: int = DEFAULT_DELTA,
) -> np.ndarray:
    """Delta-stepping with traced memory accesses.

    Runtime-backed throughout: each relaxation round pops the minimum
    bucket, advances the valid nodes as one frontier (light edges
    only, re-draining the bucket until no light relaxation lands back
    in it — bucket fusion), then relaxes the settled nodes' heavy
    edges in one batch.  Emits per round one block: per node the
    ``distance`` read and ``offsets`` touch, the adjacency and
    ``weights`` spans, then per relaxed edge the ``distance`` probe
    and (on improvement) the ``distance`` write.

    Distances equal :func:`delta_stepping` (the Dijkstra oracle); the
    touch *sequence* is delta-stepping's own, there is no scalar trace
    twin — the algorithm exists to exercise the bucket runtime.
    """
    _check_params(graph, source, delta)
    weights = edge_weights(graph)
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_weights = memory.array("weights", graph.num_edges, NODE_BYTES)
    traced_distance = memory.array("distance", n, NODE_BYTES)
    offsets = graph.offsets
    adjacency = graph.adjacency.astype(np.int64, copy=False)
    starts_all = offsets[:-1].astype(np.int64, copy=False)
    degrees_all = (
        offsets[1:].astype(np.int64, copy=False) - starts_all
    )
    light = weights <= delta
    emitter = TraceEmitter(memory)
    distance = np.full(n, INFINITY, dtype=np.int64)
    distance[source] = 0
    #: Bucket each node currently waits in (-1 = none).
    pending = np.full(n, -1, dtype=np.int64)
    pending[source] = 0
    queue = BucketQueue()
    queue.push(
        np.zeros(1, dtype=np.int64), np.array([source], dtype=np.int64)
    )
    emitter.flush(
        traced_distance.element_lines(np.array([source], dtype=np.int64))
    )

    def relax(nodes: np.ndarray, edge_mask: np.ndarray) -> None:
        """Relax the masked out-edges of ``nodes``; emit one block."""
        starts = starts_all[nodes]
        degrees = degrees_all[nodes]
        total = int(degrees.sum())
        flat = np.repeat(starts, degrees) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(degrees) - degrees, degrees)
        )
        keep = edge_mask[flat]
        kept = flat[keep]
        targets = adjacency[kept]
        candidate = (
            np.repeat(distance[nodes], degrees)[keep] + weights[kept]
        )
        # Per-target minimum candidate (first occurrence on ties keeps
        # the relaxation deterministic).
        order = np.lexsort((candidate,))
        improved_any = np.zeros(0, dtype=np.int64)
        if targets.shape[0]:
            t_sorted = targets[order]
            c_sorted = candidate[order]
            first = np.full(n, -1, dtype=np.int64)
            pos = np.arange(t_sorted.shape[0], dtype=np.int64)
            first[t_sorted[::-1]] = pos[::-1]
            heads = first[t_sorted] == pos
            best_targets = t_sorted[heads]
            best_candidates = c_sorted[heads]
            wins = best_candidates < distance[best_targets]
            improved_any = best_targets[wins]
            distance[improved_any] = best_candidates[wins]
        num_nodes_in = int(nodes.shape[0])
        ones = np.ones(num_nodes_in, dtype=np.int64)
        adj_runs = run_field(traced.adjacency, starts, degrees)
        weight_runs = run_field(traced_weights, starts, degrees)
        kept_degrees = segment_sums(keep, degrees)
        lines, demand = interleave_fields([
            (ones, traced_distance.element_lines(nodes), None),
            (ones, traced.offsets.element_lines(nodes), None),
            adj_runs.as_field(),
            weight_runs.as_field(),
            (kept_degrees, traced_distance.element_lines(targets),
             None),
        ])
        emitter.flush(
            lines, demand,
            adj_runs.extra_l1 + weight_runs.extra_l1,
            adj_runs.prefetched + weight_runs.prefetched,
        )
        if improved_any.shape[0]:
            emitter.flush(traced_distance.element_lines(improved_any))
            buckets = distance[improved_any] // delta
            pending[improved_any] = buckets
            queue.push(buckets, improved_any)

    while not queue.empty:
        key, popped = queue.pop_bucket()
        settled: list[np.ndarray] = []
        while True:
            valid = popped[pending[popped] == key]
            if valid.shape[0]:
                valid = np.unique(valid)
                pending[valid] = -1
                settled.append(valid)
                relax(valid, light)
            refill = queue.pop_at(key)  # bucket fusion round-trip
            if refill is None:
                break
            popped = refill
        if settled:
            batch = np.unique(np.concatenate(settled))
            relax(batch, ~light)
    return distance


def _check_params(graph: CSRGraph, source: int, delta: int) -> None:
    if not 0 <= source < max(graph.num_nodes, 1):
        raise InvalidParameterError(
            f"source {source} out of range for {graph.num_nodes} nodes"
        )
    if delta < 1:
        raise InvalidParameterError(
            f"delta must be positive, got {delta}"
        )
