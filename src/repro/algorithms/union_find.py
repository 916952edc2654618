"""Union-find (disjoint set union) with an optional cache trace.

Substrate for weakly-connected components.  Uses union by size and
path halving; ``find`` is the ultimate pointer-chasing workload, so
the traced variant makes DSU a sharp probe of an ordering's locality.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import no_emit
from repro.cache.layout import Memory
from repro.errors import InvalidParameterError


class UnionFind:
    """Disjoint sets over items ``0 .. n-1``.

    Pass a :class:`Memory` to charge every parent/size access to the
    cache simulator (one 4-byte slot per item and array), emitted
    through :meth:`Memory.touch_sink`.
    """

    __slots__ = ("_parent", "_size", "_count", "_emit", "_c_parent",
                 "_c_size")

    def __init__(self, num_items: int, memory: Memory | None = None,
                 name: str = "dsu") -> None:
        if num_items < 0:
            raise InvalidParameterError(
                f"num_items must be non-negative, got {num_items}"
            )
        self._parent = list(range(num_items))
        self._size = [1] * num_items
        self._count = num_items
        if memory is None:
            self._emit = no_emit
            self._c_parent = self._c_size = 0
        else:
            self._c_parent = memory.array(
                f"{name}_parent", num_items, 4
            ).code
            self._c_size = memory.array(f"{name}_size", num_items, 4).code
            self._emit = memory.touch_sink()

    @property
    def num_components(self) -> int:
        """Current number of disjoint sets."""
        return self._count

    def find(self, item: int) -> int:
        """Representative of ``item``'s set (path halving)."""
        parent = self._parent
        emit = self._emit
        code = self._c_parent
        emit(code + item)
        while parent[item] != item:
            grandparent = parent[parent[item]]
            emit(code + parent[item])
            parent[item] = grandparent
            emit(code + item)  # the halving write
            item = grandparent
            emit(code + item)
        return item

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were apart."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        emit = self._emit
        size = self._size
        emit(self._c_size + root_a)
        emit(self._c_size + root_b)
        if size[root_a] < size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        emit(self._c_parent + root_b)
        size[root_a] += size[root_b]
        emit(self._c_size + root_a)
        self._count -= 1
        return True

    def components(self) -> np.ndarray:
        """Component id per item (ids are compacted root ranks)."""
        n = len(self._parent)
        roots = np.array([self.find(i) for i in range(n)],
                         dtype=np.int64)
        _, labels = np.unique(roots, return_inverse=True)
        return labels.astype(np.int64)
