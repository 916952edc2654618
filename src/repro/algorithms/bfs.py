"""BFS — whole-graph breadth-first search.

A BFS forest over the full graph: traversal starts at node 0 and
restarts from the lowest-id unvisited node until every node is
numbered, visiting neighbours in lexicographic (ascending id) order as
the replication specifies.  Returns the hop distance of every node
from its forest root (roots have distance 0).

The cache-relevant access is the per-edge ``distance[v]`` probe that
checks whether a neighbour was already discovered.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph
from repro.algorithms.runtime import (
    Frontier,
    TraceEmitter,
    interleave_fields,
    run_field,
    segment_sums,
)
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph

#: Marker for not-yet-visited nodes in the distance array.
UNVISITED = -1


def breadth_first_search(graph: CSRGraph) -> np.ndarray:
    """Whole-graph BFS; returns per-node distance from its forest root."""
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    distance = np.full(n, UNVISITED, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    for root in range(n):
        if distance[root] != UNVISITED:
            continue
        distance[root] = 0
        head = 0
        tail = 1
        queue[0] = root
        while head < tail:
            u = int(queue[head])
            head += 1
            next_distance = distance[u] + 1
            for v in adjacency[offsets[u]:offsets[u + 1]].tolist():
                if distance[v] == UNVISITED:
                    distance[v] = next_distance
                    queue[tail] = v
                    tail += 1
    return distance


def breadth_first_search_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Whole-graph BFS with traced memory accesses.

    Runtime-backed: the scalar FIFO is level-synchronous (every node
    of depth ``d`` is enqueued before any is processed), so each level
    advances as one :class:`~repro.algorithms.runtime.Frontier` and
    emits one assembled access block — per node the queue pop, the
    ``offsets`` touch, the adjacency ``touch_run`` span, then per edge
    the ``distance`` probe and (on discovery) the queue push.
    Touch-sequence identical to
    :func:`breadth_first_search_traced_scalar`.
    """
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_distance = memory.array("distance", n, NODE_BYTES)
    traced_queue = memory.array("queue", n, NODE_BYTES)
    offsets = graph.offsets
    adjacency = graph.adjacency
    distance = np.full(n, UNVISITED, dtype=np.int64)
    emitter = TraceEmitter(memory)
    scan_from = 0  # next node the restart scan will probe
    root = 0
    while True:
        # Next unvisited root: each node is skipped at most once
        # across the whole run, so the scan stays O(n) total.
        while root < n and distance[root] != UNVISITED:
            root += 1
        if root == n:
            if scan_from < n:  # trailing probes of the restart scan
                emitter.flush(traced_distance.element_lines(
                    np.arange(scan_from, n, dtype=np.int64)
                ))
            break
        # Restart-scan probes up to and including the new root, then
        # the queue[0] write that seeds its tree.
        emitter.flush(np.concatenate([
            traced_distance.element_lines(
                np.arange(scan_from, root + 1, dtype=np.int64)
            ),
            traced_queue.element_lines(np.zeros(1, dtype=np.int64)),
        ]))
        scan_from = root + 1
        distance[root] = 0
        frontier = Frontier(np.array([root], dtype=np.int64), n)
        head, tail, depth = 0, 1, 0
        while frontier.size:
            edges = frontier.advance(offsets, adjacency)
            targets = edges.targets
            newly = frontier.first_claims(
                edges, distance[targets] == UNVISITED
            )
            discovered = targets[newly]
            num_discovered = int(discovered.shape[0])
            size = frontier.size
            ones = np.ones(size, dtype=np.int64)
            runs = run_field(traced.adjacency, edges.starts, edges.degrees)
            # Per-edge region: the distance probe, then the queue push
            # of discovered nodes (tail slots assigned in edge order).
            push_at = tail + np.cumsum(newly) - 1
            edge_lines, edge_demand = interleave_fields([
                (np.ones(edges.total, dtype=np.int64),
                 traced_distance.element_lines(targets), None),
                (newly.astype(np.int64),
                 traced_queue.element_lines(push_at[newly]), None),
            ])
            lines, demand = interleave_fields([
                (ones, traced_queue.element_lines(
                    head + np.arange(size, dtype=np.int64)), None),
                (ones, traced.offsets.element_lines(frontier.nodes),
                 None),
                runs.as_field(),
                (edges.degrees + segment_sums(newly, edges.degrees),
                 edge_lines, edge_demand),
            ])
            emitter.flush(lines, demand, runs.extra_l1, runs.prefetched)
            depth += 1
            distance[discovered] = depth
            head += size
            tail += num_discovered
            frontier = Frontier(discovered, n)
    return distance


def breadth_first_search_traced_scalar(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Scalar-loop BFS emitter: the runtime port's oracle."""
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_distance = memory.array("distance", n, NODE_BYTES)
    traced_queue = memory.array("queue", n, NODE_BYTES)
    offsets = graph.offsets
    adjacency = graph.adjacency
    distance = np.full(n, UNVISITED, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    touch_distance = traced_distance.touch
    touch_queue = traced_queue.touch
    for root in range(n):
        # The restart scan probes distance.
        traced_distance.touch(root)
        if distance[root] != UNVISITED:
            continue
        distance[root] = 0
        head = 0
        tail = 1
        queue[0] = root
        touch_queue(0)
        while head < tail:
            touch_queue(head)
            u = int(queue[head])
            head += 1
            traced.offsets.touch(u)
            start = int(offsets[u])
            end = int(offsets[u + 1])
            traced.adjacency.touch_run(start, end - start)
            next_distance = distance[u] + 1
            for v in adjacency[start:end].tolist():
                touch_distance(v)
                if distance[v] == UNVISITED:
                    distance[v] = next_distance
                    queue[tail] = v
                    touch_queue(tail)
                    tail += 1
    return distance
