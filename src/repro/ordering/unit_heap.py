"""The *unit heap*: Gorder's priority queue.

The greedy GO algorithm (Algorithm 2 of the paper) repeatedly extracts
the candidate node with the maximum proximity score to the current
window, under a stream of **unit** updates: every event changes one
node's key by exactly ±1.  The paper uses a linked bucket structure
with O(1) updates; this implementation keeps one flat ``int64`` key
vector, so the batched numpy kernel applies a whole window slide in a
few scatter calls.

* **Key vector with block bounds.**  Items are grouped into fixed
  blocks of :data:`BLOCK` ids, and ``_bound[b]`` is an upper bound on
  every key in block ``b``.  Increases raise the bound (a scalar max,
  or ``np.maximum.at`` for a batch); decreases and removals leave it
  stale-high.  Removed items, and the padding of the ragged last
  block, hold a sentinel far below any reachable key, so presence
  needs no second array.
* **Pop by argmax.**  ``pop_max`` takes the first block of maximal
  bound and the first maximal key inside it.  If that key equals the
  bound it is the global maximum; otherwise the bound is stale, is
  lowered to the block's true maximum, and the search retries.  Each
  attempt is O(n / BLOCK + BLOCK) vectorised work.
* **State-functional tie-break.**  ``argmax`` returns the *first*
  maximum, so ``pop_max`` returns the smallest item id of maximal key:
  a pure function of the key state, independent of the order in which
  the deltas arrived.  A vectorised kernel that applies a whole step's
  events as one net delta therefore pops byte-identical sequences to
  the one-event-at-a-time loop.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError

#: Items per bound block (``1 << _SHIFT``).
_SHIFT = 8
BLOCK = 1 << _SHIFT
#: Key of removed items and padding: far below any reachable key, and
#: far enough above the int64 minimum that updates addressed at removed
#: items may drift it without overflowing.
_REMOVED = np.iinfo(np.int64).min // 2
#: Keys at or below this value mark removed items.
_ABSENT_BELOW = _REMOVED // 2


class UnitHeap:
    """Max-priority structure over items ``0 .. n-1`` with unit updates.

    All items start present with key 0.  Updates addressed at removed
    items are ignored: Gorder's placed nodes keep receiving score
    events that must not resurrect them.

    Ties go to the **smallest item id** among the maximal-key items,
    so updates with the same net effect give the same pop order.
    """

    __slots__ = ("_keys", "_bound", "_size", "_key_view", "_bound_view")

    def __init__(
        self, num_items: int, candidates: np.ndarray | None = None
    ) -> None:
        """Build the heap over ``num_items`` item ids; ``candidates``,
        when given, restricts it to that subset (the rest start removed).
        """
        if num_items < 0:
            raise InvalidParameterError(
                f"num_items must be non-negative, got {num_items}"
            )
        blocks = -(-num_items // BLOCK)
        keys = np.full(blocks * BLOCK, _REMOVED, dtype=np.int64)
        if candidates is None:
            keys[:num_items] = 0
            self._size = num_items
        else:
            candidates = self._as_batch(candidates)
            if candidates.shape[0] and (
                int(candidates.min()) < 0
                or int(candidates.max()) >= num_items
            ):
                raise InvalidParameterError(
                    f"candidates must lie in [0, {num_items})"
                )
            keys[candidates] = 0
            self._size = int(np.count_nonzero(keys == 0))
        self._keys = keys
        self._bound = keys.reshape(blocks, BLOCK).max(axis=1)
        # Scalar access goes through memoryviews of the same buffers,
        # which is about twice as fast as numpy scalar indexing.
        self._key_view = memoryview(keys)
        self._bound_view = memoryview(self._bound)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: int) -> bool:
        return self._key_view[item] > _ABSENT_BELOW

    def key_of(self, item: int) -> int:
        """Current key of ``item`` (meaningful only while present)."""
        return self._key_view[item]

    # Decreases and batches addressed at a removed item drift its
    # sentinel key, which stays far below every live key.
    def increase(self, item: int) -> None:
        """Add 1 to ``item``'s key.  No-op if the item was removed."""
        keys = self._key_view
        key = keys[item]
        if key > _ABSENT_BELOW:
            key += 1
            keys[item] = key
            if key > self._bound_view[item >> _SHIFT]:
                self._bound_view[item >> _SHIFT] = key

    def decrease(self, item: int) -> None:
        """Subtract 1 from ``item``'s key.  No-op if removed."""
        self._key_view[item] -= 1

    @staticmethod
    def _as_batch(items) -> np.ndarray:
        items = np.asarray(items)
        if items.ndim != 1:
            raise InvalidParameterError(
                f"batch items must be one-dimensional, got shape "
                f"{items.shape}"
            )
        if items.shape[0] and items.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"batch items must be integers, got dtype {items.dtype}"
            )
        return items if items.shape[0] else items.astype(np.intp)

    def _batch_deltas(self, items, counts):
        """Validate a batch; return its items and per-entry deltas."""
        items = self._as_batch(items)
        if counts is None:
            return items, 1
        counts = np.asarray(counts)
        if counts.shape != items.shape:
            raise InvalidParameterError(
                f"counts shape {counts.shape} does not match items "
                f"shape {items.shape}"
            )
        if counts.shape[0] and int(counts.min()) < 0:
            raise InvalidParameterError("batch counts must be non-negative")
        return items, counts

    def increase_batch(
        self, items: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        """Add to many keys at once.

        ``items`` may repeat (each occurrence is one +1 event) and hold
        removed items (ignored).  ``counts``, when given, aligns with
        ``items`` and gives each entry's non-negative delta instead.
        """
        items, deltas = self._batch_deltas(items, counts)
        np.add.at(self._keys, items, deltas)
        np.maximum.at(self._bound, items >> _SHIFT, self._keys[items])

    def decrease_batch(
        self, items: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        """Subtract from many keys at once (mirror of increase_batch)."""
        items, deltas = self._batch_deltas(items, counts)
        np.subtract.at(self._keys, items, deltas)

    def apply_step(
        self, enter_events: np.ndarray, exit_events: np.ndarray
    ) -> None:
        """Net-apply one window slide: ``increase_batch(enter)`` then
        ``decrease_batch(exit)``, with no pop between them.

        Only entering items can rise above their block's bound, so one
        ``np.maximum.at`` over their final keys restores the invariant.
        """
        enter_events = self._as_batch(enter_events)
        keys = self._keys
        np.add.at(keys, enter_events, 1)
        np.subtract.at(keys, self._as_batch(exit_events), 1)
        np.maximum.at(
            self._bound, enter_events >> _SHIFT, keys[enter_events]
        )

    def remove(self, item: int) -> None:
        """Delete ``item`` from the heap (subsequent updates ignored)."""
        if self._key_view[item] > _ABSENT_BELOW:
            self._key_view[item] = _REMOVED
            self._size -= 1

    def _top(self) -> int:
        """Smallest id of maximal key, tightening stale bounds on the way."""
        if self._size == 0:
            # Container protocol: mirrors list.pop on an empty list.
            raise IndexError("empty UnitHeap")  # repro: noqa[REP006]
        keys = self._keys
        bound = self._bound
        while True:
            block = int(bound.argmax())
            start = block << _SHIFT
            keys_in_block = keys[start:start + BLOCK]
            offset = int(keys_in_block.argmax())
            key = keys_in_block[offset]
            if key == bound[block]:
                return start + offset
            bound[block] = key

    def pop_max(self) -> int:
        """Remove and return the smallest-id item with the maximal key
        (``IndexError`` if the heap is empty)."""
        item = self._top()
        self._key_view[item] = _REMOVED
        self._size -= 1
        return item

    def peek_max_key(self) -> int:
        """Maximal key among present items (empty heap raises)."""
        return self._key_view[self._top()]
