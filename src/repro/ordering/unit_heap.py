"""The *unit heap*: Gorder's priority queue.

The greedy GO algorithm (Algorithm 2 of the paper) repeatedly extracts
the candidate node with the maximum proximity score to the current
window, under a stream of **unit** updates: every event changes one
node's key by exactly ±1.  The paper exploits this with a linked
bucket structure giving O(1) updates; this implementation keeps the
authoritative state in two flat arrays (``_keys``, ``_present``) and
makes two further changes that unlock the batched numpy kernel:

* **State-functional tie-break.**  ``pop_max`` returns the *smallest
  item id* among the maximal-key items.  Unlike FIFO-within-bucket,
  this is a pure function of the current ``(keys, present)`` state —
  independent of the order in which the key deltas arrived — so a
  vectorised kernel that applies a whole step's events as one net
  delta pops byte-identical sequences to the one-event-at-a-time loop.
* **Array-wise lazy entries.**  Every key change records one packed
  entry ``key * span + (span - 1 - item)``; maximising the packed code
  is exactly "maximal key, then minimal id".  Entries live in a small
  collection of **sorted numpy runs** (merged geometrically, LSM
  style), so a batch update is: deduplicate events, scatter-add the
  net deltas into ``_keys``, pack, one ``sort`` — no per-event Python.
  Scalar updates append to a plain-list buffer that is sorted into a
  run at the next pop.  Entries are *lazy*: an entry is valid only if
  it still matches ``_keys``/``_present``; ``pop_max`` discards stale
  tops, and a periodic compaction (rebuilding the runs from the live
  keys once garbage exceeds a small multiple of the live size) bounds
  memory at O(n) under arbitrary churn.

Amortised costs: scalar updates are O(1) list appends plus their
share of run merging (O(log n) comparisons, all inside C sorts);
batch updates are O(k log k) vectorised for k events; ``pop_max``
scans the run tails (a handful of Python ints) and pays one discard
per stale entry that surfaces, bounded by the total update count.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError


class UnitHeap:
    """Max-priority structure over items ``0 .. n-1`` with unit updates.

    All items start present with key 0.  ``pop_max`` removes and
    returns an item of maximal key; updates addressed at removed items
    are ignored (exactly what Gorder needs — placed nodes keep
    receiving score events that must not resurrect them).

    Ties are broken deterministically: the **smallest item id** among
    the maximal-key items.  This is a pure function of the heap state,
    so any sequence of updates with the same net effect leaves the pop
    order unchanged — the property the batched Gorder kernel relies on
    for byte-identical output versus the event-loop reference.
    """

    #: Fresh runs buffered before a collapse into the merge ladder.
    #: Bounds the tail scan in ``pop_max`` while amortising the
    #: geometric merges over many updates.
    _MAX_FRESH_RUNS = 8

    __slots__ = (
        "_keys", "_present", "_size", "_span",
        "_runs", "_tails", "_ladder", "_pending", "_entries",
    )

    def __init__(
        self,
        num_items: int,
        candidates: np.ndarray | None = None,
    ) -> None:
        """Build the heap over ``num_items`` item ids.

        ``candidates``, when given, restricts the heap to that subset:
        every other id starts *removed* (updates addressed at it are
        ignored, it can never be popped) at zero construction cost —
        the bulk mask replaces a per-item ``remove`` loop, which is
        what keeps incremental extension proportional to the batch
        rather than the whole graph.
        """
        if num_items < 0:
            raise InvalidParameterError(
                f"num_items must be non-negative, got {num_items}"
            )
        self._keys = np.zeros(num_items, dtype=np.int64)
        self._span = max(num_items, 1)
        if candidates is None:
            self._present = np.ones(num_items, dtype=bool)
            self._size = num_items
            # With every key 0 the packed codes are span-1-item, i.e.
            # an ascending arange — already one sorted run.
            self._runs: list[np.ndarray] = (
                [np.arange(num_items, dtype=np.int64)]
                if num_items else []
            )
        else:
            candidates = self._as_batch(candidates)
            if candidates.shape[0] and (
                int(candidates.min()) < 0
                or int(candidates.max()) >= num_items
            ):
                raise InvalidParameterError(
                    f"candidates must lie in [0, {num_items})"
                )
            self._present = np.zeros(num_items, dtype=bool)
            self._present[candidates] = True
            self._size = int(np.count_nonzero(self._present))
            # Key 0 packs to span-1-item: sorted codes are the live
            # items in descending id order.
            codes = self._span - 1 - (
                np.unique(candidates).astype(np.int64)[::-1]
            )
            self._runs = [np.ascontiguousarray(codes)] if (
                codes.shape[0]
            ) else []
        self._tails = (
            [int(self._runs[0][-1])] if self._runs else []
        )
        # Runs below this index form the geometric merge ladder;
        # beyond it sit the fresh, not-yet-merged runs.
        self._ladder = 1 if self._runs else 0
        self._pending: list[int] = []
        self._entries = self._size

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: int) -> bool:
        return bool(self._present[item])

    def key_of(self, item: int) -> int:
        """Current key of ``item``.

        Meaningful only while the item is present: batch updates
        addressed at a removed item are ignored for ordering purposes
        but may still drift its stored key.
        """
        return int(self._keys[item])

    # ------------------------------------------------------------------
    # Run maintenance
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Merge two sorted arrays in three linear passes.

        ``np.searchsorted`` places every element of the smaller array,
        then two scatter writes interleave both — much cheaper than
        re-sorting the concatenation, which is what keeps the
        geometric run-merging affordable.
        """
        if a.shape[0] < b.shape[0]:
            a, b = b, a
        merged = np.empty(a.shape[0] + b.shape[0], dtype=np.int64)
        slots = np.searchsorted(a, b) + np.arange(b.shape[0])
        keep = np.ones(merged.shape[0], dtype=bool)
        keep[slots] = False
        merged[slots] = b
        merged[keep] = a
        return merged

    def _add_run(self, codes: np.ndarray) -> None:
        """Buffer a sorted code run, collapsing the buffer when full.

        Merging every new (small) run straight into the ladder costs
        a handful of numpy calls per run; buffering and collapsing
        :data:`_MAX_FRESH_RUNS` at a time pays that price once per
        batch while ``pop_max`` keeps scanning the buffered tails.
        """
        self._runs.append(codes)
        self._tails.append(int(codes[-1]))
        if len(self._runs) - self._ladder >= self._MAX_FRESH_RUNS:
            self._collapse_fresh()

    def _collapse_fresh(self) -> None:
        """Sort the fresh runs into one and merge it up the ladder."""
        runs = self._runs
        tails = self._tails
        ladder = self._ladder
        fresh = runs[ladder:]
        del runs[ladder:]
        del tails[ladder:]
        if len(fresh) == 1:
            codes = fresh[0]
        else:
            codes = np.concatenate(fresh)
            codes.sort()
        # Geometric cascade: absorb every ladder run not much bigger
        # than the incoming one, so each entry is merged O(log) times.
        while ladder and runs[ladder - 1].shape[0] <= 2 * codes.shape[0]:
            ladder -= 1
            codes = self._merge_sorted(runs.pop(ladder), codes)
            tails.pop(ladder)
        runs.append(codes)
        tails.append(int(codes[-1]))
        self._ladder = len(runs)

    def _flush_pending(self) -> None:
        pending = self._pending
        if pending:
            codes = np.array(pending, dtype=np.int64)
            pending.clear()
            codes.sort()
            self._add_run(codes)

    def _maybe_compact(self) -> None:
        if self._entries > 64 + 4 * self._size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the runs from the authoritative key vector.

        Drops every stale entry in one vectorised pass; the result is
        a single sorted run of exactly the live items.  Compaction is
        the heap's single heaviest internal operation (an O(n) rebuild
        triggered by garbage growth), so it is a profiled phase —
        amortisation cost attribution needs it visible; when telemetry
        is off the hook is one no-op context manager per compaction
        (rare: garbage must exceed 4x the live size).
        """
        with obs.profile(
            "gorder.heap_compact",
            entries=self._entries, live=self._size,
        ):
            self._pending.clear()
            items = np.flatnonzero(self._present)
            self._entries = int(items.shape[0])
            if not items.shape[0]:
                self._runs = []
                self._tails = []
                self._ladder = 0
                return
            codes = self._keys[items] * self._span + (
                self._span - 1 - items
            )
            codes.sort()
            self._runs = [codes]
            self._tails = [int(codes[-1])]
            self._ladder = 1

    # ------------------------------------------------------------------
    # Scalar updates
    # ------------------------------------------------------------------
    def increase(self, item: int) -> None:
        """Add 1 to ``item``'s key.  No-op if the item was removed."""
        if not self._present[item]:
            return
        key = int(self._keys[item]) + 1
        self._keys[item] = key
        self._pending.append(key * self._span + self._span - 1 - item)
        self._entries += 1
        self._maybe_compact()

    def decrease(self, item: int) -> None:
        """Subtract 1 from ``item``'s key.  No-op if removed."""
        if not self._present[item]:
            return
        key = int(self._keys[item]) - 1
        self._keys[item] = key
        self._pending.append(key * self._span + self._span - 1 - item)
        self._entries += 1
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Batched updates
    # ------------------------------------------------------------------
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
        return items

    def increase_batch(
        self, items: np.ndarray, counts: np.ndarray | None = None
    ) -> int:
        """Add to many keys at once; return the number of moved items.

        ``items`` may contain duplicates (each occurrence is one +1
        event) and removed items (silently ignored).  ``counts``, when
        given, must align with ``items`` and give the non-negative
        delta per entry instead of the implicit 1.  The return value
        counts distinct live items whose key changed.
        """
        return self._update_batch(items, counts, 1)

    def decrease_batch(
        self, items: np.ndarray, counts: np.ndarray | None = None
    ) -> int:
        """Subtract from many keys at once (mirror of increase_batch)."""
        return self._update_batch(items, counts, -1)

    def _update_batch(
        self, items: np.ndarray, counts: np.ndarray | None, sign: int
    ) -> int:
        """Apply the summed deltas; return the number of moved items."""
        items = self._as_batch(items)
        if counts is None:
            if not items.shape[0]:
                return 0
            items, deltas = np.unique(items, return_counts=True)
        else:
            counts = np.asarray(counts)
            if counts.shape != items.shape:
                raise InvalidParameterError(
                    f"counts shape {counts.shape} does not match items "
                    f"shape {items.shape}"
                )
            if counts.shape[0] and int(counts.min()) < 0:
                raise InvalidParameterError(
                    "batch counts must be non-negative"
                )
            if not items.shape[0]:
                return 0
            # Collapse duplicate items so each gets one summed delta.
            items, inverse = np.unique(items, return_inverse=True)
            deltas = np.bincount(
                inverse, weights=counts, minlength=items.shape[0]
            ).astype(np.int64)
        if sign < 0:
            deltas = -deltas
        return self._apply_deltas(items, deltas)

    def apply_step(
        self, enter_events: np.ndarray, exit_events: np.ndarray
    ) -> int:
        """Net-apply one window slide in a single pass.

        Every occurrence in ``enter_events`` is a +1 and every one in
        ``exit_events`` a −1.  Equivalent to
        ``increase_batch(enter_events)`` followed by
        ``decrease_batch(exit_events)`` (no pop may occur between the
        two, which is exactly Gorder's window slide), but with far
        fewer array passes: the duplicate-aware scatter-adds land the
        net keys directly, and one sort extracts the unique touched
        items whose fresh entries need recording.  Returns the number
        of live candidates touched.
        """
        enter_events = self._as_batch(enter_events)
        exit_events = self._as_batch(exit_events)
        total = enter_events.shape[0] + exit_events.shape[0]
        if not total:
            return 0
        keys = self._keys
        np.add.at(keys, enter_events, 1)
        np.subtract.at(keys, exit_events, 1)
        touched = np.concatenate((enter_events, exit_events))
        touched.sort()
        boundary = np.empty(total, dtype=bool)
        boundary[0] = True
        np.not_equal(touched[1:], touched[:-1], out=boundary[1:])
        items = touched[boundary]
        items = items[self._present[items]]
        if not items.shape[0]:
            return 0
        codes = keys[items] * self._span + (self._span - 1 - items)
        codes.sort()
        self._add_run(codes)
        self._entries += codes.shape[0]
        self._maybe_compact()
        return int(items.shape[0])

    def _apply_deltas(
        self, items: np.ndarray, deltas: np.ndarray
    ) -> int:
        """Scatter signed deltas of unique ``items``; push new entries."""
        moved = self._present[items] & (deltas != 0)
        items = items[moved]
        if not items.shape[0]:
            return 0
        deltas = deltas[moved]
        self._keys[items] += deltas
        codes = self._keys[items] * self._span + (
            self._span - 1 - items
        )
        codes.sort()
        self._add_run(codes)
        self._entries += codes.shape[0]
        self._maybe_compact()
        return int(items.shape[0])

    # ------------------------------------------------------------------
    # Removal and extraction
    # ------------------------------------------------------------------
    def remove(self, item: int) -> None:
        """Delete ``item`` from the heap (subsequent updates ignored)."""
        if not self._present[item]:
            return
        self._present[item] = False
        self._size -= 1

    def pop_max(self) -> int:
        """Remove and return the smallest-id item with the maximal key.

        Raises
        ------
        IndexError
            If the heap is empty.
        """
        if self._size == 0:
            # Container protocol: empty-pop mirrors list.pop.
            raise IndexError(  # repro: noqa[REP006]
                "pop from an empty UnitHeap"
            )
        self._flush_pending()
        runs = self._runs
        tails = self._tails
        keys = self._keys
        present = self._present
        span = self._span
        while True:
            # max()/index() run at C speed over the few run tails.
            best_tail = max(tails)
            best = tails.index(best_tail)
            run = runs[best]
            if run.shape[0] == 1:
                runs.pop(best)
                tails.pop(best)
                if best < self._ladder:
                    self._ladder -= 1
            else:
                run = run[:-1]
                runs[best] = run
                tails[best] = int(run[-1])
            self._entries -= 1
            key, remainder = divmod(best_tail, span)
            item = span - 1 - remainder
            if present[item] and keys[item] == key:
                present[item] = False
                self._size -= 1
                return item

    def peek_max_key(self) -> int:
        """Maximal key among present items (empty heap raises)."""
        if self._size == 0:
            # Container protocol: empty-peek mirrors list indexing.
            raise IndexError(  # repro: noqa[REP006]
                "peek on an empty UnitHeap"
            )
        self._flush_pending()
        runs = self._runs
        tails = self._tails
        keys = self._keys
        present = self._present
        span = self._span
        while True:
            best_tail = max(tails)
            key, remainder = divmod(best_tail, span)
            item = span - 1 - remainder
            if present[item] and keys[item] == key:
                return key
            # Discard the stale top, exactly as pop_max would.
            best = tails.index(best_tail)
            run = runs[best]
            if run.shape[0] == 1:
                runs.pop(best)
                tails.pop(best)
                if best < self._ladder:
                    self._ladder -= 1
            else:
                run = run[:-1]
                runs[best] = run
                tails[best] = int(run[-1])
            self._entries -= 1

