"""NQ — neighbour query, the paper's elementary benchmark.

For every node ``u`` compute ``q_u = sum_{v in N+(u)} d_v`` (the sum of
its out-neighbours' out-degrees).  The per-neighbour lookup
``degree[v]`` is the canonical random access a good ordering turns into
a cache hit: when ``u``'s neighbours have nearby ids, their degree
entries share cache lines.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph
from repro.algorithms.runtime import (
    TraceEmitter,
    interleave_fields,
    run_field,
    segment_sums,
)
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph


def neighbor_query(graph: CSRGraph) -> np.ndarray:
    """Vectorised NQ: the array ``q`` of neighbour degree sums."""
    degrees = graph.out_degrees()
    sources, targets = graph.edge_array()
    return np.bincount(
        sources, weights=degrees[targets], minlength=graph.num_nodes
    ).astype(np.int64)


def neighbor_query_traced(graph: CSRGraph, memory: Memory) -> np.ndarray:
    """NQ with every data reference driven through the cache model.

    Runtime-backed: the full node scan is one assembled access block —
    per node an ``offsets`` touch, the adjacency ``touch_run`` span and
    the per-neighbour ``degree`` gather, then the ``q`` write — flushed
    to the backend in a single call.  Touch-sequence identical to
    :func:`neighbor_query_traced_scalar`.
    """
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_degree = memory.array("degree", n, NODE_BYTES)
    traced_q = memory.array("q", n, 8)
    offsets = graph.offsets
    degrees = graph.out_degrees().astype(np.int64, copy=False)
    nodes = np.arange(n, dtype=np.int64)
    starts = offsets[:-1].astype(np.int64, copy=False)
    widths = offsets[1:].astype(np.int64, copy=False) - starts
    neighbors = graph.adjacency.astype(np.int64, copy=False)
    ones = np.ones(n, dtype=np.int64)
    runs = run_field(traced.adjacency, starts, widths)
    lines, demand = interleave_fields([
        (ones, traced.offsets.element_lines(nodes), None),
        runs.as_field(),
        (widths, traced_degree.element_lines(neighbors), None),
        (ones, traced_q.element_lines(nodes), None),
    ])
    TraceEmitter(memory).flush(
        lines, demand, runs.extra_l1, runs.prefetched
    )
    return segment_sums(degrees[neighbors], widths)


def neighbor_query_traced_scalar(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Scalar-loop NQ emitter: the runtime port's oracle."""
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_degree = memory.array("degree", n, NODE_BYTES)
    traced_q = memory.array("q", n, 8)
    offsets = graph.offsets
    adjacency = graph.adjacency
    degrees = graph.out_degrees()
    q = np.zeros(n, dtype=np.int64)
    touch_degree_all = traced_degree.touch_all
    for u in range(n):
        traced.offsets.touch(u)
        start = int(offsets[u])
        end = int(offsets[u + 1])
        traced.adjacency.touch_run(start, end - start)
        neighbors = adjacency[start:end]
        touch_degree_all(neighbors)
        traced_q.touch(u)
        q[u] = degrees[neighbors].sum()
    return q
