"""SP — single-source shortest paths via queue-based Bellman-Ford.

The paper uses Bellman-Ford "with simple optimisations"; the standard
such optimisation is the queue-based variant (SPFA): only nodes whose
distance improved are re-relaxed.  On the unweighted datasets each
edge relaxation costs one random ``distance[v]`` access — the access a
good ordering accelerates.  Runs in O(Delta * m) like the paper notes,
with Delta the (small) diameter.

Unreachable nodes keep distance :data:`INFINITY`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.algorithms.common import NODE_BYTES, TracedGraph, declare_graph
from repro.algorithms.runtime import (
    Frontier,
    TraceEmitter,
    interleave_fields,
    run_field,
    segment_sums,
)
from repro.cache.layout import Memory, TracedArray
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

#: Distance assigned to unreachable nodes.
INFINITY = np.iinfo(np.int64).max


def shortest_paths(
    graph: CSRGraph,
    source: int = 0,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """SPFA distances from ``source`` (unreachable = :data:`INFINITY`).

    ``weights`` optionally assigns an integer weight to every edge,
    aligned with ``graph.adjacency`` (the flattened, per-source-sorted
    edge order).  Bellman-Ford's reason to exist: weights may be
    negative, as long as no negative cycle is reachable (detected and
    reported).  Without weights every edge costs 1 hop.
    """
    _check_source(graph, source)
    weights = _check_weights(graph, weights)
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    distance = np.full(n, INFINITY, dtype=np.int64)
    in_queue = np.zeros(n, dtype=bool)
    relaxations = np.zeros(n, dtype=np.int64)
    distance[source] = 0
    queue = deque([source])
    in_queue[source] = True
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        base = distance[u]
        start = int(offsets[u])
        row = adjacency[start:int(offsets[u + 1])].tolist()
        for i, v in enumerate(row):
            step = 1 if weights is None else int(weights[start + i])
            candidate = base + step
            if candidate < distance[v]:
                distance[v] = candidate
                relaxations[v] += 1
                if relaxations[v] > n:
                    raise InvalidParameterError(
                        "negative cycle reachable from the source"
                    )
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
    return distance


def _check_weights(
    graph: CSRGraph, weights: np.ndarray | None
) -> np.ndarray | None:
    if weights is None:
        return None
    weights = np.asarray(weights)
    if weights.shape != (graph.num_edges,):
        raise InvalidParameterError(
            f"weights must have one entry per edge "
            f"({graph.num_edges}), got shape {weights.shape}"
        )
    if not np.issubdtype(weights.dtype, np.integer):
        raise InvalidParameterError(
            f"weights must be integers, got dtype {weights.dtype}"
        )
    return weights.astype(np.int64, copy=False)


def shortest_paths_traced(
    graph: CSRGraph, memory: Memory, source: int = 0
) -> np.ndarray:
    """SPFA with traced memory accesses.

    Runtime-backed: the traced variant is unweighted, and unweighted
    SPFA from a FIFO queue is level-synchronous — a node's distance
    improves exactly once (from :data:`INFINITY` to its hop depth), it
    is never re-queued, and the queue holds each depth contiguously —
    so each depth advances as one frontier with one assembled access
    block.  Touch-sequence identical to
    :func:`~repro.oracles.shortest_paths_traced_scalar`.
    """
    _check_source(graph, source)
    traced = declare_graph(memory, graph)
    n = graph.num_nodes
    arrays = _declare_sp_arrays(memory, n, suffix="")
    return _sp_runtime_core(graph, traced, arrays, source, memory)


def _check_source(graph: CSRGraph, source: int) -> None:
    if not 0 <= source < max(graph.num_nodes, 1):
        raise InvalidParameterError(
            f"source {source} out of range for {graph.num_nodes} nodes"
        )


def _declare_sp_arrays(
    memory: Memory, n: int, suffix: str
) -> dict[str, TracedArray]:
    """Declare the SP property arrays (reused across Diameter runs)."""
    return {
        "distance": memory.array(f"distance{suffix}", n, NODE_BYTES),
        "in_queue": memory.array(f"in_queue{suffix}", n, 1),
        "queue": memory.array(f"queue{suffix}", n, NODE_BYTES),
    }


def _sp_runtime_core(
    graph: CSRGraph,
    traced: TracedGraph,
    arrays: dict[str, TracedArray],
    source: int,
    memory: Memory,
) -> np.ndarray:
    """One runtime-backed SPFA run over pre-declared arrays.

    Emits, per depth, one block holding for every frontier node the
    queue pop (modulo-``n`` slot), the ``in_queue`` clear, the
    ``distance`` read and the ``offsets`` touch, then the adjacency
    ``touch_run`` span, then per edge the ``distance`` probe and — on
    improvement, which in the unweighted run means first discovery —
    the ``in_queue`` set and queue push.
    """
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    t_distance = arrays["distance"]
    t_in_queue = arrays["in_queue"]
    t_queue = arrays["queue"]
    emitter = TraceEmitter(memory)
    distance = np.full(n, INFINITY, dtype=np.int64)
    distance[source] = 0
    source_idx = np.array([source], dtype=np.int64)
    emitter.flush(np.concatenate([
        t_distance.element_lines(source_idx),
        t_in_queue.element_lines(source_idx),
        t_queue.element_lines(np.zeros(1, dtype=np.int64)),
    ]))
    frontier = Frontier(source_idx, n)
    head, tail, depth = 0, 1, 0
    while frontier.size:
        edges = frontier.advance(offsets, adjacency)
        targets = edges.targets
        # candidate < distance[v] with candidate = depth + 1 holds
        # exactly for still-infinite targets; the first improving edge
        # claims the node (later same-level edges see depth + 1).
        newly = frontier.first_claims(
            edges, distance[targets] == INFINITY
        )
        discovered = targets[newly]
        num_discovered = int(discovered.shape[0])
        size = frontier.size
        ones = np.ones(size, dtype=np.int64)
        runs = run_field(traced.adjacency, edges.starts, edges.degrees)
        push_at = (tail + np.cumsum(newly) - 1) % n
        edge_lines, edge_demand = interleave_fields([
            (np.ones(edges.total, dtype=np.int64),
             t_distance.element_lines(targets), None),
            (newly.astype(np.int64),
             t_in_queue.element_lines(discovered), None),
            (newly.astype(np.int64),
             t_queue.element_lines(push_at[newly]), None),
        ])
        lines, demand = interleave_fields([
            (ones, t_queue.element_lines(
                (head + np.arange(size, dtype=np.int64)) % n), None),
            (ones, t_in_queue.element_lines(frontier.nodes), None),
            (ones, t_distance.element_lines(frontier.nodes), None),
            (ones, traced.offsets.element_lines(frontier.nodes), None),
            runs.as_field(),
            (edges.degrees + 2 * segment_sums(newly, edges.degrees),
             edge_lines, edge_demand),
        ])
        emitter.flush(lines, demand, runs.extra_l1, runs.prefetched)
        depth += 1
        distance[discovered] = depth
        head += size
        tail += num_discovered
        frontier = Frontier(discovered, n)
    return distance
