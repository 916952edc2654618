"""Shared helpers for the instrumented benchmark algorithms.

Every traced algorithm declares the arrays a C implementation would
allocate and *touches* them as it runs (see :mod:`repro.cache.layout`).
The CSR arrays are shared by all algorithms and declared here with the
element sizes of the original implementation: 8-byte offsets, 4-byte
node ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.layout import Memory, TracedArray
from repro.graph.csr import CSRGraph

#: Bytes per node id in traced arrays (int32, as in the C original).
NODE_BYTES = 4
#: Bytes per CSR offset (size_t).
OFFSET_BYTES = 8
#: Bytes per floating-point rank (double).
FLOAT_BYTES = 8


@dataclass(frozen=True)
class TracedGraph:
    """Traced handles for the CSR arrays of one graph."""

    offsets: TracedArray
    adjacency: TracedArray
    in_offsets: TracedArray | None = None
    in_adjacency: TracedArray | None = None


def declare_graph(
    memory: Memory, graph: CSRGraph, include_in_csr: bool = False
) -> TracedGraph:
    """Declare the graph's CSR arrays in the simulated address space."""
    offsets = memory.array("offsets", graph.num_nodes + 1, OFFSET_BYTES)
    adjacency = memory.array("adjacency", graph.num_edges, NODE_BYTES)
    if not include_in_csr:
        return TracedGraph(offsets, adjacency)
    in_offsets = memory.array(
        "in_offsets", graph.num_nodes + 1, OFFSET_BYTES
    )
    in_adjacency = memory.array("in_adjacency", graph.num_edges, NODE_BYTES)
    return TracedGraph(offsets, adjacency, in_offsets, in_adjacency)


def no_emit(code: int, /) -> None:
    """Untraced stand-in for :meth:`Memory.touch_sink`'s sink."""


def touch_neighbor_list(
    traced: TracedGraph, graph: CSRGraph, u: int
) -> None:
    """Model reading node ``u``'s offset pair and scanning its list."""
    traced.offsets.touch(u)  # offsets[u + 1] shares the line or the next
    start = int(graph.offsets[u])
    degree = int(graph.offsets[u + 1]) - start
    traced.adjacency.touch_run(start, degree)
