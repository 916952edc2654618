"""Directed graph stored in Compressed Sparse Row (CSR) form.

The paper stores graphs exactly this way (its Figure 2): one shared
``adjacency`` array of length *m* holding the concatenated out-neighbour
lists, plus an ``offsets`` array of length *n + 1* so the out-neighbours
of node ``u`` are ``adjacency[offsets[u]:offsets[u + 1]]``.  Both the
benchmark algorithms and the cache model depend on this layout: the
whole point of a node ordering is to control which node ids land on the
same cache line inside these arrays.

A :class:`CSRGraph` is immutable once built.  It carries both the
out-CSR and the in-CSR (Gorder's score needs in-neighbours), with the
in-CSR built lazily on first use.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError

#: dtype used for node ids inside adjacency arrays.  32-bit ids mirror the
#: original C++ implementation and mean 16 ids fit on a 64-byte cache line.
NODE_DTYPE = np.int32

#: dtype used for the CSR offsets array (64-bit, like a C ``size_t``).
OFFSET_DTYPE = np.int64


class CSRGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    num_nodes:
        Number of nodes *n*; node ids are ``0 .. n - 1``.
    offsets:
        ``int64`` array of length ``n + 1``; monotone, starts at 0 and
        ends at *m*.
    adjacency:
        ``int32`` array of length *m* with the concatenated, per-node
        **sorted** out-neighbour lists.

    Use :func:`repro.graph.builder.from_edges` (or the I/O and generator
    helpers) rather than calling this constructor with raw arrays.
    """

    __slots__ = (
        "_n", "_offsets", "_adjacency", "_in_csr",
        "_out_degrees", "_in_degrees", "_fingerprint", "name",
    )

    def __init__(
        self,
        num_nodes: int,
        offsets: np.ndarray,
        adjacency: np.ndarray,
        name: str = "graph",
        validate: bool = True,
    ) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=OFFSET_DTYPE)
        adjacency = np.ascontiguousarray(adjacency, dtype=NODE_DTYPE)
        if validate:
            _validate_csr(num_nodes, offsets, adjacency)
        self._n = int(num_nodes)
        self._offsets = offsets
        self._adjacency = adjacency
        self._in_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._out_degrees: np.ndarray | None = None
        self._in_degrees: np.ndarray | None = None
        self._fingerprint: str | None = None
        self.name = name
        self._offsets.setflags(write=False)
        self._adjacency.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes *n*."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges *m*."""
        return int(self._adjacency.shape[0])

    @property
    def offsets(self) -> np.ndarray:
        """The read-only CSR offsets array (length ``n + 1``)."""
        return self._offsets

    @property
    def adjacency(self) -> np.ndarray:
        """The read-only shared out-neighbour array (length *m*)."""
        return self._adjacency

    @property
    def fingerprint(self) -> str:
        """Hex blake2b digest of ``num_nodes``, ``offsets`` and
        ``adjacency``: graphs with equal content share it, whatever
        their name or identity.  Computed once (the graph is
        immutable)."""
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self._n.to_bytes(8, "little"))
            digest.update(memoryview(self._offsets))
            digest.update(memoryview(self._adjacency))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRGraph(name={self.name!r}, n={self.num_nodes}, "
            f"m={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Out-adjacency
    # ------------------------------------------------------------------
    def out_neighbors(self, u: int) -> np.ndarray:
        """Sorted out-neighbours of ``u`` as a read-only array view."""
        return self._adjacency[self._offsets[u]:self._offsets[u + 1]]

    def out_degree(self, u: int) -> int:
        """Out-degree of node ``u``."""
        return int(self._offsets[u + 1] - self._offsets[u])

    def out_degrees(self) -> np.ndarray:
        """Out-degrees of every node as a read-only ``int64`` array.

        Cached on the instance (the graph is immutable); callers that
        need a private mutable copy must ``.copy()``.
        """
        if self._out_degrees is None:
            degrees = np.diff(self._offsets)
            degrees.setflags(write=False)
            self._out_degrees = degrees
        return self._out_degrees

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists (binary search)."""
        row = self.out_neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all directed edges as ``(u, v)`` pairs."""
        offsets = self._offsets
        adjacency = self._adjacency
        for u in range(self._n):
            for i in range(offsets[u], offsets[u + 1]):
                yield u, int(adjacency[i])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as a ``(sources, targets)`` pair of arrays."""
        sources = np.repeat(
            np.arange(self._n, dtype=NODE_DTYPE), np.diff(self._offsets)
        )
        return sources, self._adjacency.copy()

    # ------------------------------------------------------------------
    # In-adjacency (built lazily; Gorder and InDegSort need it)
    # ------------------------------------------------------------------
    def _ensure_in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._in_csr is None:
            sources, targets = self.edge_array()
            in_offsets, in_adjacency = _group_by_target(
                self._n, sources, targets
            )
            in_offsets.setflags(write=False)
            in_adjacency.setflags(write=False)
            self._in_csr = (in_offsets, in_adjacency)
        return self._in_csr

    @property
    def in_offsets(self) -> np.ndarray:
        """CSR offsets of the in-adjacency (length ``n + 1``)."""
        return self._ensure_in_csr()[0]

    @property
    def in_adjacency(self) -> np.ndarray:
        """Shared sorted in-neighbour array (length *m*)."""
        return self._ensure_in_csr()[1]

    def in_neighbors(self, u: int) -> np.ndarray:
        """Sorted in-neighbours of ``u`` as a read-only array view."""
        in_offsets, in_adjacency = self._ensure_in_csr()
        return in_adjacency[in_offsets[u]:in_offsets[u + 1]]

    def in_degree(self, u: int) -> int:
        """In-degree of node ``u``."""
        in_offsets, _ = self._ensure_in_csr()
        return int(in_offsets[u + 1] - in_offsets[u])

    def in_degrees(self) -> np.ndarray:
        """In-degrees of every node as a read-only ``int64`` array.

        Cached on the instance, like :meth:`out_degrees`.
        """
        if self._in_degrees is None:
            degrees = np.diff(self._ensure_in_csr()[0])
            degrees.setflags(write=False)
            self._in_degrees = degrees
        return self._in_degrees

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "CSRGraph":
        """The transpose graph (every edge ``u -> v`` becomes ``v -> u``)."""
        in_offsets, in_adjacency = self._ensure_in_csr()
        return CSRGraph(
            self._n,
            in_offsets.copy(),
            in_adjacency.copy(),
            name=f"{self.name}-reversed",
            validate=False,
        )

    def undirected(self) -> "CSRGraph":
        """Symmetrised copy: ``u -> v`` iff either direction exists.

        Self-loops are dropped and duplicate (symmetrised) edges merged.
        RCM, SlashBurn, LDG and the MinLA energies all operate on this
        undirected view, as in the replication.
        """
        sources, targets = self.edge_array()
        all_sources = np.concatenate([sources, targets])
        all_targets = np.concatenate([targets, sources])
        keep = all_sources != all_targets
        all_sources = all_sources[keep]
        all_targets = all_targets[keep]
        order = np.lexsort((all_targets, all_sources))
        all_sources = all_sources[order]
        all_targets = all_targets[order]
        if all_sources.shape[0]:
            first = np.empty(all_sources.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(
                all_sources[1:], all_sources[:-1], out=first[1:]
            )
            same_target = all_targets[1:] == all_targets[:-1]
            first[1:] |= ~same_target
            all_sources = all_sources[first]
            all_targets = all_targets[first]
        counts = np.bincount(all_sources, minlength=self._n)
        offsets = np.zeros(self._n + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        return CSRGraph(
            self._n,
            offsets,
            all_targets.astype(NODE_DTYPE),
            name=f"{self.name}-undirected",
            validate=False,
        )

    # ------------------------------------------------------------------
    # Equality (structural)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._adjacency, other._adjacency)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash is fine
        return id(self)


def _validate_csr(
    num_nodes: int, offsets: np.ndarray, adjacency: np.ndarray
) -> None:
    """Raise :class:`GraphFormatError` unless the arrays form a valid CSR."""
    if num_nodes < 0:
        raise GraphFormatError(f"negative node count: {num_nodes}")
    if offsets.ndim != 1 or offsets.shape[0] != num_nodes + 1:
        raise GraphFormatError(
            f"offsets must have length n + 1 = {num_nodes + 1}, "
            f"got shape {offsets.shape}"
        )
    if adjacency.ndim != 1:
        raise GraphFormatError(
            f"adjacency must be one-dimensional, got shape {adjacency.shape}"
        )
    if num_nodes == 0:
        if adjacency.shape[0] != 0 or int(offsets[0]) != 0:
            raise GraphFormatError("empty graph must have empty adjacency")
        return
    if int(offsets[0]) != 0:
        raise GraphFormatError("offsets must start at 0")
    if int(offsets[-1]) != adjacency.shape[0]:
        raise GraphFormatError(
            f"offsets end at {int(offsets[-1])} but adjacency has "
            f"{adjacency.shape[0]} entries"
        )
    if np.any(np.diff(offsets) < 0):
        raise GraphFormatError("offsets must be non-decreasing")
    if adjacency.shape[0]:
        low = int(adjacency.min())
        high = int(adjacency.max())
        if low < 0 or high >= num_nodes:
            raise GraphFormatError(
                f"neighbour ids must lie in [0, {num_nodes - 1}], "
                f"found range [{low}, {high}]"
            )


def _group_by_target(
    num_nodes: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build in-CSR arrays (offsets, sorted in-neighbour lists)."""
    counts = np.bincount(targets, minlength=num_nodes)
    in_offsets = np.zeros(num_nodes + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=in_offsets[1:])
    order = np.lexsort((sources, targets))
    in_adjacency = sources[order].astype(NODE_DTYPE)
    return in_offsets, in_adjacency
