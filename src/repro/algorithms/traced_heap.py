"""Array-backed binary min-heap with traced memory accesses.

Kcore's peeling loop keeps node degrees in a binary heap (as the
replication describes).  To charge the heap's memory traffic to the
cache model faithfully, the traced variant cannot use ``heapq`` (its
accesses would be invisible) — this class implements the heap over a
declared :class:`~repro.cache.layout.TracedArray`, emitting every slot
a C implementation would read or write during sift-up/sift-down
through :meth:`Memory.touch_sink <repro.cache.layout.Memory.touch_sink>`.
"""

from __future__ import annotations

from repro.algorithms.common import no_emit
from repro.cache.layout import Memory, TracedArray

#: Entries are packed as ``key * 2**32 + value``.
_VALUE_BITS = 32
_VALUE_MASK = (1 << _VALUE_BITS) - 1


class TracedBinaryHeap:
    """Min-heap of ``(key, value)`` pairs over a simulated array.

    One heap slot models an 8-byte packed entry (4-byte key + 4-byte
    value), and the Python side stores exactly that: one int
    ``key * 2**32 + value``, which orders like the ``(key, value)``
    tuple for values in ``[0, 2**32)``.  Pass ``traced=None`` to get
    an untraced heap with identical semantics (used to keep the pure
    and traced Kcore implementations structurally identical).
    """

    __slots__ = ("_items", "_emit", "_code")

    def __init__(self, traced: TracedArray | None) -> None:
        self._items: list[int] = []
        if traced is None:
            self._emit = no_emit
            self._code = 0
        else:
            self._emit = traced.memory.touch_sink()
            self._code = traced.code

    @classmethod
    def declare(
        cls, memory: Memory, name: str, capacity: int
    ) -> "TracedBinaryHeap":
        """Declare the backing array in ``memory`` and wrap it."""
        return cls(memory.array(name, capacity, 8))

    def __len__(self) -> int:
        return len(self._items)

    def push(self, key: int, value: int) -> None:
        """Insert an entry and restore the heap property."""
        items = self._items
        emit = self._emit
        code = self._code
        entry = (key << _VALUE_BITS) + value
        items.append(entry)
        index = len(items) - 1
        emit(code + index)
        while index > 0:
            parent = (index - 1) >> 1
            emit(code + parent)
            if items[parent] <= entry:
                break
            items[index] = items[parent]
            items[parent] = entry
            emit(code + index)
            index = parent
        # loop end: either at root or parent is smaller

    def pop(self) -> tuple[int, int]:
        """Remove and return the minimal ``(key, value)`` entry."""
        items = self._items
        emit = self._emit
        code = self._code
        if not items:
            # Container protocol: empty-pop mirrors list.pop.
            raise IndexError(  # repro: noqa[REP006]
                "pop from an empty TracedBinaryHeap"
            )
        emit(code)
        top = items[0]
        last = items.pop()
        size = len(items)
        if size:
            items[0] = last
            emit(code)
            index = 0
            while True:
                left = 2 * index + 1
                if left >= size:
                    break
                smallest = left
                emit(code + left)
                right = left + 1
                if right < size:
                    emit(code + right)
                    if items[right] < items[left]:
                        smallest = right
                if items[smallest] >= last:
                    break
                items[index] = items[smallest]
                items[smallest] = last
                emit(code + index)
                emit(code + smallest)
                index = smallest
        return top >> _VALUE_BITS, top & _VALUE_MASK
