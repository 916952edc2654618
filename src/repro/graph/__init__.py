"""Graph substrate: CSR storage, construction, I/O, generators, datasets."""

from repro.graph.builder import empty_graph, from_arrays, from_edges
from repro.graph.csr import NODE_DTYPE, OFFSET_DTYPE, CSRGraph
from repro.graph.io import (
    load_npz,
    load_permutation,
    read_edge_list,
    save_npz,
    save_permutation,
    write_edge_list,
)
from repro.graph.permute import (
    compose,
    identity_permutation,
    invert_permutation,
    permutation_from_sequence,
    relabel,
    validate_permutation,
)
from repro.graph.stats import GraphSummary, summarize
from repro.graph.subgraph import induced_subgraph

__all__ = [
    "CSRGraph",
    "NODE_DTYPE",
    "OFFSET_DTYPE",
    "from_edges",
    "from_arrays",
    "empty_graph",
    "read_edge_list",
    "write_edge_list",
    "save_npz",
    "load_npz",
    "relabel",
    "induced_subgraph",
    "save_permutation",
    "load_permutation",
    "summarize",
    "GraphSummary",
    "validate_permutation",
    "identity_permutation",
    "invert_permutation",
    "permutation_from_sequence",
    "compose",
]
