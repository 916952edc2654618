"""Triangle counting (extension algorithm).

Node-iterator triangle counting over the undirected view with
merge-based intersection of sorted neighbour lists — the standard
cache-sensitive kernel (every intersection streams two lists whose
*contents* are looked up again as lists themselves).

Each triangle {a, b, c} is counted exactly once via the degree
orientation: an edge (u, v) is processed only from the lower-rank
endpoint, with rank = (degree, id).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import no_emit
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph


def triangle_count(graph: CSRGraph) -> int:
    """Number of distinct triangles in the undirected view."""
    return _count(graph, memory=None)


def triangle_count_traced(graph: CSRGraph, memory: Memory) -> int:
    """Triangle counting with traced memory accesses."""
    return _count(graph, memory=memory)


def _count(graph: CSRGraph, memory: Memory | None) -> int:
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets.tolist()
    adjacency = undirected.adjacency.tolist()
    degrees = np.diff(undirected.offsets).tolist()
    if memory is None:
        emit = no_emit
        c_offsets = c_adjacency = c_degree = 0
        traced_adjacency = None
    else:
        c_offsets = memory.array("u_offsets", n + 1, 8).code
        traced_adjacency = memory.array(
            "u_adjacency", undirected.num_edges, 4
        )
        c_adjacency = traced_adjacency.code
        c_degree = memory.array("degree", n, 4).code
        emit = memory.touch_sink()

    def rank_lower(u: int, v: int) -> bool:
        """Whether u precedes v in the degree orientation."""
        du = degrees[u]
        dv = degrees[v]
        return du < dv or (du == dv and u < v)

    total = 0
    for u in range(n):
        start_u = offsets[u]
        end_u = offsets[u + 1]
        emit(c_offsets + u)
        if traced_adjacency is not None:
            traced_adjacency.touch_run(start_u, end_u - start_u)
        for v in adjacency[start_u:end_u]:
            emit(c_degree + v)
            if not rank_lower(u, v):
                continue
            # Merge-intersect N(u) and N(v), keeping only successors
            # of v in the orientation (so each triangle counts once).
            i = start_u
            j = offsets[v]
            end_v = offsets[v + 1]
            emit(c_offsets + v)
            while i < end_u and j < end_v:
                a = adjacency[i]
                b = adjacency[j]
                emit(c_adjacency + i)
                emit(c_adjacency + j)
                if a == b:
                    if rank_lower(v, a):
                        total += 1
                    i += 1
                    j += 1
                elif a < b:
                    i += 1
                else:
                    j += 1
    return total
