"""Vectorised trace replay: the cache simulator's batched backend.

The scalar simulator pays one Python call per simulated reference —
``TracedArray.touch`` → ``CacheHierarchy.access`` → per-level dict
ops.  This module removes that per-reference interpreter round-trip
the same way PR 3's batched kernel removed it from the ordering side:
record now, compute later, array-wise.

* :class:`TraceBuffer` is the record side.  ``Memory`` (in replay
  mode) appends single demand touches, and ``touch_many`` batches, as
  packed int64 *touch codes* (``slot << 48`` plus a bias plus the
  element index) to one ``array('q')`` (the hottest path).  Everything
  else is a *segment* in one list in record order: a run-compressed
  sequential scan, or a block of line ids and demand flags that the
  frontier runtime (:mod:`repro.algorithms.runtime`) pre-resolves per
  iteration and appends via ``record_block`` — one Python call per
  frontier advance instead of one per access.  Code decoding, bounds
  checking and line arithmetic are deferred to ``freeze()``, which
  interleaves everything back into one flat line-id access stream in
  a handful of numpy passes.
* :func:`hit_mask` classifies every access of a line stream against
  one set-associative LRU level — **exactly**, not approximately.
  ``CacheHierarchy.replay`` chains it level by level (each level's
  reference stream is the previous level's miss stream).
* Replay runs in windows of :data:`WINDOW` accesses.  An LRU set's
  whole state is its top-``A`` stack, so :func:`lru_stack` carries
  each level from one window to the next: played oldest first in
  front of the next window's input, it rebuilds every set exactly.
  Memory then grows with the window, not with the trace.

Two classifier implementations back :func:`hit_mask`:

* :func:`lru_hit_mask` — the *reference* path: per-set stack
  distances via a bottom-up merge (``searchsorted`` over
  offset-packed sorted rows), O(n log^2 n) array work, valid for any
  associativity and any line-id range.
* the *blocked* fast path — per-set subtraces are chunked into
  blocks of a power-of-two width; every block gets the top-``A`` LRU
  stack entering it (computed once for all blocks by an associative
  parallel prefix scan over block summaries), after which all blocks
  classify together, one of two ways:

  - *lockstep replay*, when there are at least
    :data:`LOCKSTEP_MIN_ROWS` blocks: one ``(A, blocks)`` stack array
    steps through the block columns, each step a comparison OR'd down
    the ways, a shift of the entries above the match and a push.  That
    is LRU itself, exact by construction, in about ``A + 5`` numpy
    calls per column whatever the block count;
  - the *inversion pyramid* otherwise: each block is prefixed with
    its incoming stack, a pack-sort finds previous occurrences and a
    level-doubling inversion count gives in-window distinct totals,
    hence exact stack distances (the formula below).

  The lockstep needs none of the pyramid's prefix rows, sort keys or
  count tables, so a full 2**18-access window of the scaled L1 (2 sets
  x 8 ways, about 1 500 blocks) peaks at 47-55 B per access instead of
  100-136 B and classifies in about 60-70% of the time.  Narrow
  windows keep the pyramid: the lockstep's per-column calls run on
  small arrays, where numpy holds the GIL.  With two threads replaying
  the 27 traces a serve daemon replays (three datasets, nine
  algorithms), the median call took 29-30 ms on the pyramid, 35-44 ms
  with lockstep everywhere and 29-34 ms with the 1024-block rule.
  The fast path requires ``associativity <= 64`` and line ids below
  ``2**23`` (int32 packing headroom) and silently defers to the
  reference path otherwise.

The mathematics shared by the reference and the pyramid: within one
cache set, an access at local time ``t`` to a line previously seen at
``P[t]`` has LRU stack distance

    ``d(t) = (t - 1 - P[t]) - #{s < t : P[s] > P[t]}``

because every access in the window ``(P[t], t)`` touches a line other
than ``line[t]``, and a line's *first* access in the window — the one
that counts towards the distinct total — is exactly an access whose
own previous occurrence lies before the window (``P[s] < P[t]``;
``P[s] == P[t]`` is impossible for a warm ``t`` since a position has
one next-occurrence).  The access hits a level of associativity ``A``
iff it is warm and ``d(t) < A``; the Fenwick-tree oracle in
:mod:`repro.cache.reuse` stays as the scalar cross-check.

Replay is exact for LRU only: FIFO and random levels are not
stack-distance characterisable, so ``Memory`` silently falls back to
scalar stepping for those geometries.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError

#: Stack distance reported for cold (first-ever) accesses — same
#: convention as :data:`repro.cache.reuse.COLD`.
COLD = -1

#: Sentinel for an empty slot in blocked-classifier stack summaries.
_EMPTY_SLOT = -1

#: Line ids must stay below this for the blocked fast path (int32
#: packing: line * ROW + column must fit 31 bits with ROW <= 128).
FAST_LINE_LIMIT = 1 << 23

#: Largest associativity the blocked fast path handles (a row must
#: hold the incoming stack prefix plus at least that many accesses).
FAST_MAX_WAYS = 64

#: Accesses per replay window.  ``TraceBuffer.window_end`` cuts a
#: record into windows of this many accesses (a single longer segment
#: makes a longer one) and ``CacheHierarchy.replay`` classifies its
#: input in slices of this many; replay memory grows with it, not with
#: the trace.  At 2**18 a window peaks about 36 MiB; a smaller window
#: costs a fig5-sized trace of 300k accesses a few percent more time
#: in per-window overhead.
WINDOW = 1 << 18

#: Fewest blocks for which the blocked classifier replays its blocks
#: in lockstep (:func:`_lockstep_hits`) instead of building the
#: inversion pyramid.  The lockstep issues a few numpy calls per block
#: column whatever the block count, and numpy holds the GIL on small
#: arrays, so narrow windows keep the pyramid.
LOCKSTEP_MIN_ROWS = 1024


# ----------------------------------------------------------------------
# Reference classifier: exact stack distances by merge counting
# ----------------------------------------------------------------------
def count_prior_greater(values) -> np.ndarray:
    """For each position ``t``, count positions ``s < t`` with
    ``values[s] > values[t]`` (the classic inversion count, reported
    per right endpoint).

    Bottom-up merge counting: blocks of doubling width; at each level
    the left half of every block holds the originally-earlier
    positions already sorted, so one ``searchsorted`` over the
    offset-packed concatenation counts, for every right element, the
    left elements strictly greater than it.  O(n log^2 n) total array
    work, no Python per element.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    # Rank-compress so the per-row offset packing below stays small.
    ranks = np.unique(values, return_inverse=True)[1].astype(np.int64)
    span = int(ranks.max()) + 3  # row values live in [-1, span - 3]
    m = 1 << (n - 1).bit_length()
    vals = np.full(m, -1, dtype=np.int64)  # pad: below every rank
    vals[:n] = ranks
    idx = np.arange(m, dtype=np.int64)
    width = 1
    while width < m:
        rows = m // (2 * width)
        block = vals.reshape(rows, 2 * width)
        block_idx = idx.reshape(rows, 2 * width)
        left = block[:, :width]  # ascending within each row (invariant)
        right = block[:, width:]
        row_offset = np.arange(rows, dtype=np.int64)[:, None] * span
        left_keys = (left + row_offset).ravel()  # globally ascending
        right_keys = (right + row_offset).ravel()
        insert = np.searchsorted(left_keys, right_keys, side="right")
        row_of_right = np.repeat(np.arange(rows, dtype=np.int64), width)
        greater = width - (insert - row_of_right * width)
        right_pos = block_idx[:, width:].ravel()
        live = right_pos < n  # padding slots carry no real position
        # Original positions are a permutation, so plain fancy-index
        # addition is safe (no duplicate indices).
        counts[right_pos[live]] += greater[live]
        merged = np.argsort(block, axis=1, kind="stable")
        vals = np.take_along_axis(block, merged, axis=1).ravel()
        idx = np.take_along_axis(block_idx, merged, axis=1).ravel()
        width *= 2
    return counts


def stack_distances(lines, num_sets: int = 1) -> np.ndarray:
    """Per-access LRU stack distance of a line trace, per cache set.

    The distance of an access is the number of *distinct* lines
    referenced in the same set since the previous access to its line
    (:data:`COLD` for first-ever accesses).  With ``num_sets=1`` this
    equals :func:`repro.cache.reuse.reuse_distances`, vectorised.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    if num_sets < 1 or (num_sets & (num_sets - 1)):
        raise InvalidParameterError(
            f"num_sets must be a positive power of two, got {num_sets}"
        )
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if num_sets > 1:
        # Group-major view: stable sort by set id keeps time order
        # inside each group; local time = position minus group start.
        sets = lines & np.int64(num_sets - 1)
        order = np.argsort(sets, kind="stable")
        s_lines = lines[order]
        s_sets = sets[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(s_sets[1:], s_sets[:-1], out=new_group[1:])
        group_id = np.cumsum(new_group) - 1
        group_start = np.flatnonzero(new_group)
        local_t = np.arange(n, dtype=np.int64) - group_start[group_id]
    else:
        order = None
        s_lines = lines
        group_id = None
        local_t = np.arange(n, dtype=np.int64)
    # Previous occurrence (as a local time) of each access's line.  A
    # line always maps to one set, so equal values never cross groups.
    by_line = np.argsort(s_lines, kind="stable")
    previous = np.full(n, -1, dtype=np.int64)
    same = s_lines[by_line[1:]] == s_lines[by_line[:-1]]
    previous[by_line[1:][same]] = local_t[by_line[:-1][same]]
    if group_id is None:
        packed = previous
    else:
        # Offset per group: a pair from different groups can never
        # register as an inversion (the gap n+2 exceeds any local
        # P-difference), so one global count serves every set at once.
        packed = previous + group_id * np.int64(n + 2)
    inversions = count_prior_greater(packed)
    distances = (local_t - 1 - previous) - inversions
    distances[previous < 0] = COLD
    if order is None:
        return distances
    out = np.empty(n, dtype=np.int64)
    out[order] = distances
    return out


def lru_hit_mask(
    lines, num_sets: int, associativity: int
) -> np.ndarray:
    """Hit/miss of every access against one cold-started LRU level.

    Exact: an access hits a ``num_sets x associativity`` LRU level iff
    it is warm and its in-set stack distance is below the
    associativity.  This is the reference implementation, valid for
    any associativity and line-id range; :func:`hit_mask` dispatches
    to the blocked fast path when the geometry allows.
    """
    distances = stack_distances(lines, num_sets)
    return (distances != COLD) & (distances < associativity)


def lru_stack(lines, num_sets: int, ways: int) -> np.ndarray:
    """What a cold ``num_sets x ways`` LRU level holds after ``lines``.

    Each set holds the last ``ways`` distinct lines referenced in it.
    They come back as one sequence ordered by last reference, oldest
    first, so replaying the sequence on a cold level rebuilds every
    set's stack exactly (no set receives more than ``ways`` lines, so
    nothing is evicted).  Only a tail of ``lines`` is read: it starts
    at twice the level's capacity and doubles until every set has
    ``ways`` distinct lines in it or the tail is all of ``lines``, so
    the cost follows the resident lines, not the input length.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    if n == 0:
        return lines
    take = min(n, 2 * num_sets * ways)
    while True:
        # Reversed tail: a line's first index is its age, 0 = newest.
        distinct, age = np.unique(
            lines[n - take:][::-1], return_index=True
        )
        sets = distinct & np.int64(num_sets - 1)
        order = np.lexsort((age, sets))  # by set, newest first
        grouped = sets[order]
        starts = np.flatnonzero(
            np.concatenate([[True], grouped[1:] != grouped[:-1]])
        )
        sizes = np.diff(np.append(starts, order.shape[0]))
        full = starts.shape[0] == num_sets and int(sizes.min()) >= ways
        if take == n or full:
            break
        take = min(n, 2 * take)
    rank = np.arange(order.shape[0]) - np.repeat(starts, sizes)
    kept = order[rank < ways]
    return distinct[kept[np.argsort(age[kept])[::-1]]]


# ----------------------------------------------------------------------
# Blocked fast classifier
# ----------------------------------------------------------------------
def _compose(older, newer, ways: int) -> np.ndarray:
    """Top-``ways`` distinct lines after playing ``older`` then
    ``newer`` (both ``(rows, ways)`` int32 stacks, most recent first,
    :data:`_EMPTY_SLOT` padded) — the associative scan operator."""
    dup = (older[:, :, None] == newer[:, None, :]).any(axis=2)
    valid_n = newer != _EMPTY_SLOT
    valid_o = (older != _EMPTY_SLOT) & ~dup
    cand = np.concatenate([newer, older], axis=1)
    valid = np.concatenate([valid_n, valid_o], axis=1)
    # Pack (invalid, recency, line) into int32: invalid entries sort
    # last, surviving entries keep newest-first order.
    seq = np.arange(2 * ways, dtype=np.int32)
    pack = (~valid).astype(np.int32) << 30
    pack |= seq << 23
    pack |= np.where(valid, cand, 0).astype(np.int32)
    pack.sort(axis=1)
    head = pack[:, :ways]
    out = head & np.int32(FAST_LINE_LIMIT - 1)
    out[head >= (1 << 30)] = _EMPTY_SLOT
    return out


def _classify_blocks(s_lines, starts, lens, ways: int, data_width: int):
    """Hit mask for concatenated per-set subtraces (int32 lines).

    ``s_lines`` holds each set's accesses contiguously (set ``i`` at
    ``starts[i] : starts[i] + lens[i]``); consecutive equal lines must
    already be collapsed (the caller's distance-0 pass).
    ``data_width`` (a power of two) is the number of trace cells per
    block.  Every block's incoming stack comes from a prefix scan of
    block summaries; the blocks are then classified together, by
    lockstep replay when there are at least :data:`LOCKSTEP_MIN_ROWS`
    of them and by the inversion pyramid otherwise.
    """
    n = s_lines.size
    data_bits = data_width.bit_length() - 1
    num_sets = starts.size
    blocks_per_set = -(-lens // data_width)
    row_offset = np.concatenate([[0], np.cumsum(blocks_per_set)[:-1]])
    num_rows = int(blocks_per_set.sum())
    row_set = np.repeat(np.arange(num_sets), blocks_per_set)

    # Scatter each set's subtrace into its rows; padding cells get
    # distinct negative sentinels (cold by construction, never hits).
    # With a power-of-two row the block/column split of the in-set
    # position folds into the flat index itself: one repeat, one add.
    cols = np.arange(data_width, dtype=np.int32)
    data = np.empty((num_rows, data_width), dtype=np.int32)
    data[:] = -(cols + ways + 2)
    flat = np.arange(n, dtype=np.int64) + np.repeat(
        (row_offset << np.int64(data_bits)) - starts, lens
    )
    data.reshape(-1)[flat] = s_lines

    states = _incoming_stacks(
        _block_summaries(data, ways), row_set, int(blocks_per_set.max())
    )
    if num_rows >= LOCKSTEP_MIN_ROWS:
        hit = _lockstep_hits(data, states, min(data_width, int(lens.max())))
    else:
        hit = _pyramid_hits(data, states)
    return hit.reshape(-1)[flat]


def _block_summaries(data, ways: int) -> np.ndarray:
    """Each row's last ``ways`` distinct lines, newest first, as a
    ``(rows, ways)`` int32 array padded with :data:`_EMPTY_SLOT`.

    Pack-sort (line << data_bits | column) groups equal lines with
    ascending positions; the last entry of each group is the line's
    final occurrence in the block.  (A negative sentinel times a power
    of two has zeroed low bits, so or-ing the column in and shifting
    back out is exact for sentinels too.)  Each final occurrence is
    then repacked as (age << 23 | line), age 0 being the row's last
    column, every other cell as a key above them all; the ``ways``
    smallest keys of a row are its summary, newest first.
    """
    num_rows, data_width = data.shape
    data_bits = data_width.bit_length() - 1
    pack = data << np.int32(data_bits)
    pack |= np.arange(data_width, dtype=np.int32)
    pack.sort(axis=1)
    line = pack >> np.int32(data_bits)
    final = np.empty((num_rows, data_width), dtype=bool)
    final[:, -1] = True
    np.not_equal(line[:, 1:], line[:, :-1], out=final[:, :-1])
    final &= line >= 0  # sentinels never enter a summary
    # The key fits int32: age < data_width <= 128 above 23 line bits.
    pack &= np.int32(data_width - 1)
    np.subtract(np.int32(data_width - 1), pack, out=pack)
    pack <<= np.int32(23)
    pack |= line
    stale = np.int32(data_width << 23)
    np.copyto(pack, stale, where=~final)
    take = min(ways, data_width)
    if take < data_width:
        pack = np.partition(pack, take - 1, axis=1)[:, :take]
    pack.sort(axis=1)
    summary = np.full((num_rows, ways), _EMPTY_SLOT, dtype=np.int32)
    summary[:, :take] = np.where(
        pack < stale, pack & np.int32(FAST_LINE_LIMIT - 1), _EMPTY_SLOT
    )
    return summary


def _incoming_stacks(summary, row_set, max_blocks: int) -> np.ndarray:
    """Each row's incoming stack, newest first: a masked exclusive
    prefix scan of the block summaries within each set (Hillis–Steele;
    :func:`_compose` associates).  A set's first row starts empty."""
    num_rows, ways = summary.shape
    comp = summary.copy()
    shift = 1
    while shift < max_blocks:
        idx = np.arange(shift, num_rows)
        ok = row_set[idx] == row_set[idx - shift]
        tgt = idx[ok]
        comp[tgt] = _compose(comp[tgt - shift], comp[tgt], ways)
        shift *= 2
    states = np.full((num_rows, ways), _EMPTY_SLOT, dtype=np.int32)
    has_prev = np.zeros(num_rows, dtype=bool)
    has_prev[1:] = row_set[1:] == row_set[:-1]
    states[has_prev] = comp[np.flatnonzero(has_prev) - 1]
    return states


def _pyramid_hits(data, states) -> np.ndarray:
    """Hit mask of ``data`` (``(rows, width)`` int32, negative padding)
    from exact in-row stack distances, all rows at once."""
    num_rows, data_width = data.shape
    ways = states.shape[1]
    data_bits = data_width.bit_length() - 1
    row_width = ways + data_width  # prefix + data, prev-pack coords

    # ---- full rows: replaying the incoming stack deepest-first as
    # `ways` prefix accesses reproduces it exactly, so in-row stack
    # distances of the data cells are true distances (cells whose true
    # distance exceeds the prefix are in-row cold -> miss, correct
    # since true distance >= ways means miss anyway).
    rows = np.empty((num_rows, row_width), dtype=np.int32)
    prefix = states[:, ::-1]
    sentinels = -(np.arange(ways, dtype=np.int32) + 2)
    rows[:, :ways] = np.where(prefix != _EMPTY_SLOT, prefix, sentinels)
    rows[:, ways:] = data

    # ---- previous occurrence within each row, same pack-sort trick
    # (eight column bits: row_width <= FAST_MAX_WAYS + 128 < 256).
    packf = rows << np.int32(8)
    packf |= np.arange(row_width, dtype=np.int32)
    packf.sort(axis=1)
    linef = packf >> np.int32(8)
    posf = (packf & np.int32(255)).astype(np.uint8)
    # The later element of an equal-line pair is always a data cell
    # (prefix lines are distinct and sort first in their group), so a
    # plain adjacency test selects exactly the warm data cells.  Prev
    # values stay in full-row coordinates; targets drop to data-block
    # coordinates (the masked-out wraparounds are never gathered).
    same = linef[:, 1:] == linef[:, :-1]
    same_flat = same.reshape(-1)
    row_base = np.arange(num_rows, dtype=np.uint32)[:, None]
    row_base <<= np.uint32(data_bits)
    target = (row_base + posf[:, 1:]).reshape(-1)[same_flat]
    target -= np.uint32(ways)
    value = (posf[:, :-1] + np.uint8(1)).reshape(-1)[same_flat]
    prev1 = np.zeros((num_rows, data_width), dtype=np.uint8)  # P+1
    prev1.reshape(-1)[target] = value

    # ---- in-window inversion counts by level doubling: at each width
    # the right half of every span counts left-half entries with a
    # larger previous-occurrence.  Ties are cold/cold only (distinct
    # next-occurrences), and cold entries never beat warm ones, so the
    # count is exact for warm targets — the only ones that can hit.
    # Prefix cells are in-row cold (each stack line occurs once), so
    # they contribute nothing and stay out of the pyramid entirely.
    inversions = np.zeros((num_rows, data_width), dtype=np.int16)
    width = 1
    while width < data_width:
        spans = prev1.reshape(-1, 2 * width)
        acc = inversions.reshape(-1, 2 * width)
        left = spans[:, :width]
        right = spans[:, width:]
        if width <= 4:
            for j in range(width):
                col_r = right[:, j]
                out_col = acc[:, width + j]
                for i in range(width):
                    out_col += left[:, i] > col_r
        elif width < 64:
            # Chunk the (rows, width, width) comparison so its bool
            # temporary stays a few MB: one huge temp per round would
            # be mmap'd and page-faulted afresh on every call.
            step = max(1, (1 << 22) // (width * width))
            for lo in range(0, spans.shape[0], step):
                hi = lo + step
                # Bounded: counts at most `width` (< 64) matches
                # per cell, so int16 cannot wrap.
                acc[lo:hi, width:] += (  # repro: noqa[REP004]
                    left[lo:hi, :, None] > right[lo:hi, None, :]
                ).sum(axis=1, dtype=np.int16)
        else:
            # Widest round: per-row 256-bin histogram of the left
            # half, prefix-summed, beats the quadratic comparison.
            # #(left > r) = width - #(left <= r) = width - cum[r].
            # 2048 rows keeps the int64 histogram a few MB (same
            # mmap-thrash guard as the branch above).
            step = 2048
            for lo in range(0, spans.shape[0], step):
                l_chunk = left[lo:lo + step]
                r_chunk = right[lo:lo + step]
                nrows = l_chunk.shape[0]
                base = np.arange(nrows, dtype=np.int64)[:, None] << 8
                counts = np.bincount(
                    (base + l_chunk).reshape(-1), minlength=nrows << 8
                )
                cum = counts.reshape(nrows, 256).cumsum(axis=1)
                below = cum.reshape(-1)[(base + r_chunk).reshape(-1)]
                acc[lo:lo + step, width:] += (
                    width - below.reshape(nrows, width)
                ).astype(np.int16)
        width *= 2

    # Data cell local times in full-row coordinates (after the
    # ``ways`` prefix cells), matching the stored prev positions.
    local_t = np.arange(ways, ways + data_width, dtype=np.int16)[None, :]
    prev = prev1.astype(np.int16) - 1
    distance = (local_t - 1 - prev) - inversions
    hit = (prev >= 0) & (distance < ways)
    return hit


def _lockstep_hits(data, states, columns: int) -> np.ndarray:
    """Hit mask of ``data`` (``(rows, width)`` int32, negative padding)
    by replaying every row's LRU stack at once, one column per step.

    ``states`` holds each row's incoming stack, newest first.  The
    stacks are held as one ``(ways, rows)`` array: a column's line is
    found by one comparison OR'd down the ways, the entries above the
    match shift down one and the line goes on top (on a miss the whole
    stack shifts and the bottom drops out).  That is LRU itself, so the
    verdicts are exact.  Padding lines are negative and distinct from
    every stack sentinel, so they never hit, and they only ever follow
    a row's data.  Only the first ``columns`` columns are replayed.
    """
    num_rows, ways = states.shape
    stack = np.ascontiguousarray(states.T)
    lines = np.ascontiguousarray(data[:, :columns].T)
    hits = np.empty((columns, num_rows), dtype=bool)
    found = np.empty((ways, num_rows), dtype=bool)
    moved = np.empty((ways - 1, num_rows), dtype=np.int32)
    for column, line in enumerate(lines):
        np.equal(stack, line, out=found)
        for way in range(1, ways):
            np.logical_or(found[way], found[way - 1], out=found[way])
        hits[column] = found[-1]
        np.copyto(moved, stack[:-1])
        np.copyto(stack[1:], moved, where=~found[:-1])
        stack[0] = line
    hit = np.zeros(data.shape, dtype=bool)
    hit[:, :columns] = hits.T
    return hit


def _data_width_for(mean_len: float) -> int:
    """Trace cells per block: roughly one mean subtrace, rounded up
    to a power of two and clamped to keep padding and pyramid depth
    in check.  Independent of associativity — the stack prefix lives
    outside the block."""
    target = min(max(int(mean_len) + 1, 16), 128)
    return 1 << (target - 1).bit_length()


def _classify_sets(s_lines, starts, lens, ways: int) -> np.ndarray:
    """Dispatch per-set subtraces to the cheapest exact classifier.

    A set with at most ``ways`` accesses (after distance-0 collapse)
    can never overflow its stack — every warm access hits, every cold
    access misses — so only a previous-occurrence test is needed.
    That shortcut is what keeps many-set levels (e.g. a 16384-set L3
    seeing a short miss stream) from drowning in per-set padding.
    """
    n = s_lines.size
    short = lens <= ways
    if not short.any():
        mean_len = n / max(starts.size, 1)
        return _classify_blocks(
            s_lines, starts, lens, ways, _data_width_for(mean_len)
        )
    verdict = np.empty(n, dtype=bool)
    elem_short = np.repeat(short, lens)
    n_short = int(lens[short].sum())
    if n_short:
        segment = np.repeat(np.cumsum(short) - 1, lens)[elem_short]
        packed = (segment << np.int64(24)) | s_lines[elem_short].astype(
            np.int64
        )
        order = np.argsort(packed, kind="stable")
        ordered = packed[order]
        warm = np.empty(n_short, dtype=bool)
        warm[0] = False
        np.equal(ordered[1:], ordered[:-1], out=warm[1:])
        back = np.empty(n_short, dtype=bool)
        back[order] = warm
        verdict[elem_short] = back
    if n_short < n:
        long_lens = lens[~short]
        long_lines = s_lines[~elem_short]
        long_starts = np.concatenate([[0], np.cumsum(long_lens)[:-1]])
        mean_len = long_lines.size / max(long_lens.size, 1)
        verdict[~elem_short] = _classify_blocks(
            long_lines,
            long_starts,
            long_lens,
            ways,
            _data_width_for(mean_len),
        )
    return verdict


def _blocked_hit_mask(
    lines: np.ndarray, num_sets: int, associativity: int
) -> np.ndarray:
    """Fast-path hit classification; caller guarantees the domain
    (int64 ``lines`` in ``[0, FAST_LINE_LIMIT)``, ``associativity <=
    FAST_MAX_WAYS``, power-of-two ``num_sets``)."""
    n = lines.size
    if n == 0:
        return np.ones(0, dtype=bool)
    ways = int(associativity)
    small = lines.astype(np.int32)
    if num_sets > 1:
        # Stable partition by set id via a packed value sort — the
        # permutation comes out of the low bits, ~5x cheaper than a
        # stable argsort — with the set id readable from the high
        # bits of the sorted keys (no gather needed).
        if n < (1 << 26) and num_sets <= 64:
            pk = (
                (small.astype(np.uint32) & np.uint32(num_sets - 1))
                << np.uint32(26)
            ) | np.arange(n, dtype=np.uint32)
            pk.sort()
            order = (pk & np.uint32((1 << 26) - 1)).astype(np.int64)
            hi = pk >> np.uint32(26)
        else:
            pk = (
                (small & np.int32(num_sets - 1)).astype(np.int64)
                << np.int64(32)
            ) | np.arange(n, dtype=np.int64)
            pk.sort()
            order = pk & np.int64((1 << 32) - 1)
            hi = pk >> np.int64(32)
        s_lines = small[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(hi[1:], hi[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        # Distance-0 collapse: re-touching a set's stack top is a
        # guaranteed hit and leaves the stack unchanged.  Same line
        # -> same set and the partition is stable, so an adjacent-
        # equal test here catches raw-adjacent repeats too.
        keep1 = np.empty(n, dtype=bool)
        keep1[0] = True
        np.not_equal(s_lines[1:], s_lines[:-1], out=keep1[1:])
        keep1 |= boundary
        if not keep1.all():
            reduced = s_lines[keep1]
            lens = np.add.reduceat(
                keep1.astype(np.int32), starts
            ).astype(np.int64)
            starts_r = np.concatenate([[0], np.cumsum(lens)[:-1]])
        else:
            reduced = s_lines
            lens = np.diff(np.append(starts, n))
            starts_r = starts
        v_reduced = _classify_sets(reduced, starts_r, lens, ways)
        v_part = np.ones(n, dtype=bool)
        v_part[keep1] = v_reduced
        out = np.empty(n, dtype=bool)
        out[order] = v_part
        return out
    # Single set: the raw adjacent-equal test is the whole
    # distance-0 story.
    keep0 = np.empty(n, dtype=bool)
    keep0[0] = True
    np.not_equal(small[1:], small[:-1], out=keep0[1:])
    core = small[keep0] if not keep0.all() else small
    starts_r = np.array([0], dtype=np.int64)
    lens = np.array([core.size], dtype=np.int64)
    out = np.ones(n, dtype=bool)
    out[keep0] = _classify_sets(core, starts_r, lens, ways)
    return out


def hit_mask(lines, num_sets: int, associativity: int) -> np.ndarray:
    """Hit/miss of every access against one cold-started LRU level.

    Dispatches to the blocked fast classifier when the geometry is in
    its domain, otherwise to the :func:`lru_hit_mask` reference; both
    are exact, so the choice is invisible in the results.
    """
    if num_sets < 1 or (num_sets & (num_sets - 1)):
        raise InvalidParameterError(
            f"num_sets must be a positive power of two, got {num_sets}"
        )
    if associativity < 1:
        raise InvalidParameterError(
            f"associativity must be positive, got {associativity}"
        )
    arr = np.ascontiguousarray(lines, dtype=np.int64)
    blocked = (
        associativity <= FAST_MAX_WAYS
        and arr.size > 0
        and 0 <= int(arr.min())
        and int(arr.max()) < FAST_LINE_LIMIT
    )
    # Profiled phase: the classifier is the replay backend's entire
    # compute cost, so per-level wall/CPU attribution lands here.
    with obs.profile(
        "cache.replay.classify",
        n=int(arr.shape[0]), sets=num_sets, ways=associativity,
        path="blocked" if blocked else "reference",
    ):
        if blocked:
            return _blocked_hit_mask(arr, num_sets, associativity)
        return lru_hit_mask(arr, num_sets, associativity)


# ----------------------------------------------------------------------
# Trace recording
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class CacheTrace:
    """A frozen access trace, ready for :meth:`CacheHierarchy.replay`.

    ``lines`` is every line-level access in program order (demand
    touches *and* the prefetched line fills of sequential scans, which
    update cache state and per-level counters exactly like the scalar
    path).  ``demand_idx`` indexes the accesses whose serving level is
    charged to ``Memory.level_counts``; ``extra_l1`` is the aggregate
    of run-compressed element references that are L1 hits by
    construction (later elements on an already-referenced line).
    """

    lines: np.ndarray
    demand_idx: np.ndarray
    extra_l1: int
    prefetched_refs: int

    @property
    def num_accesses(self) -> int:
        return int(self.lines.shape[0])

    @property
    def num_demand(self) -> int:
        return int(self.demand_idx.shape[0])

    @property
    def total_refs(self) -> int:
        """Demand element references (matches ``Memory.total_refs``)."""
        return self.num_demand + self.extra_l1


_EMPTY = np.zeros(0, dtype=np.int64)

#: A touch code is ``(slot << SLOT_SHIFT) + INDEX_BIAS + index``: the
#: slot names the declared array, the biased low 48 bits its element.
#: The bias keeps a small negative index inside its own slot, so an
#: off-by-one below zero is caught by the bounds check at decode time.
SLOT_SHIFT = 48
INDEX_BIAS = 1 << 47


def touch_code(slot: int) -> int:
    """The touch code of element 0 of the array in ``slot``."""
    return (slot << SLOT_SHIFT) + INDEX_BIAS


def unknown_slot(code: int) -> InvalidParameterError:
    """The error for a touch code whose slot names no array."""
    return InvalidParameterError(
        f"touch code {code} names no declared array "
        f"(slot {code >> SLOT_SHIFT})"
    )


class TraceBuffer:
    """Growable record of touches, cheap to append and cheap to freeze.

    The record is two lists, interleaved by position at freeze time:

    * ``touches`` — one ``array('q')`` of single demand touches, each a
      packed touch code (see :func:`touch_code`): 8 bytes per touch and
      no int object kept alive.  ``touches.append`` is the hottest
      record-mode operation; :meth:`Memory.touch_sink
      <repro.cache.layout.Memory.touch_sink>` hands it to the
      sequential emitters directly, and ``TracedArray.touch_many``
      appends a whole index batch as codes in one call.  ``slots``
      (the declared arrays, in slot order, each with ``name``,
      ``length``, ``itemsize`` and ``base``) decodes the codes to line
      ids at freeze time;
    * segments — one list, in record order, of ``(position, first
      line, accesses, extra L1 refs, prefetched lines)``.  A *run*
      (``touch_run``: the first line demand, the rest prefetched) has
      ``first line >= 0``.  A *block* (:meth:`record_block`: the
      frontier runtime's pre-resolved line ids and demand flags in
      emission order, one call per frontier advance) has ``first line
      == -1``; its two arrays are kept **by reference** in a dict
      keyed by the segment's index.

    A segment's position is the ``touches`` length at record time: it
    precedes that touch.  A :attr:`mark` — a touch count and a segment
    count — therefore cuts the record in two, and ``freeze(start,
    stop)`` freezes the window between two marks; :meth:`window_end`
    picks marks about :data:`WINDOW` accesses apart.  Bounds errors in
    touch codes surface when their window is frozen — that is, when
    results are first read — rather than at touch time; the exception
    type matches the scalar path's.
    """

    __slots__ = (
        "touches", "slots", "_line_shift",
        "_segments", "_blocks", "_segment_refs",
        "extra_l1", "prefetched_refs",
    )

    def __init__(
        self, line_shift: int = 6, slots: Sequence[Any] = ()
    ) -> None:
        self.touches = array("q")
        self.slots = slots
        self._line_shift = line_shift
        #: (position, first line, accesses, extra L1, prefetched).
        self._segments: list[tuple[int, int, int, int, int]] = []
        #: Block ``(lines, demand)`` arrays by segment index.
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._segment_refs = 0
        self.extra_l1 = 0
        self.prefetched_refs = 0

    @property
    def total_refs(self) -> int:
        """Demand element references recorded so far."""
        return len(self.touches) + self._segment_refs

    @property
    def mark(self) -> tuple[int, int]:
        """A watermark that moves whenever anything is recorded: the
        touch count and the segment count."""
        return len(self.touches), len(self._segments)

    def record_run(self, line0: int, nlines: int, count: int) -> None:
        """A sequential scan: ``count`` elements spanning ``nlines``
        consecutive lines from ``line0`` (first line demand, the rest
        prefetched, later elements on a line L1 hits)."""
        self._segments.append(
            (len(self.touches), line0, nlines, count - 1, nlines - 1)
        )
        self._segment_refs += count
        self.extra_l1 += count - 1
        self.prefetched_refs += nlines - 1

    def record_runs(
        self,
        line0s: np.ndarray,
        nlines: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """A batch of sequential scans, equivalent to calling
        :meth:`record_run` once per element (all arrays int64, aligned,
        every count >= 1)."""
        num = line0s.shape[0]
        self._segments.extend(
            zip(
                (len(self.touches),) * num,
                line0s.tolist(),
                nlines.tolist(),
                (counts - 1).tolist(),
                (nlines - 1).tolist(),
            )
        )
        total = int(counts.sum())
        self._segment_refs += total
        self.extra_l1 += total - num
        self.prefetched_refs += int(nlines.sum()) - num

    def record_block(
        self,
        lines: np.ndarray,
        demand: np.ndarray,
        extra_l1: int,
        prefetched: int,
    ) -> None:
        """A pre-resolved interleaved access vector: ``lines`` (int64
        line ids in emission order) with a ``demand`` bool mask
        (``False`` marks prefetched fills, counted like a run's trailing
        lines).  Arrays are kept **by reference** — the caller must not
        mutate them before ``freeze()``.  ``extra_l1`` aggregates
        run-compressed element references that are L1 hits by
        construction; ``prefetched`` is the prefetched-line count the
        block contributes to ``Memory.prefetched_refs``."""
        self._blocks[len(self._segments)] = (lines, demand)
        self._segments.append(
            (len(self.touches), -1, lines.shape[0], extra_l1, prefetched)
        )
        self._segment_refs += int(demand.sum()) + extra_l1
        self.extra_l1 += extra_l1
        self.prefetched_refs += prefetched

    # ------------------------------------------------------------------
    def window_end(self, start: tuple[int, int]) -> tuple[int, int]:
        """The mark that closes the replay window opening at ``start``.

        The window takes whole touches and segments, in record order,
        while they fit in :data:`WINDOW` accesses; a segment longer
        than that still makes a window of its own, so every window
        holds at least one.  Never past the current :attr:`mark`.
        """
        t0, s0 = start
        t_end, s_end = self.mark
        segments = self._segments
        # A segment placed after touch t0 + WINDOW cannot fit, and each
        # segment but an empty block spans >= 1 access, so at most
        # WINDOW + 1 of them can matter.
        hi = min(
            bisect_right(segments, t0 + WINDOW, s0, key=itemgetter(0)),
            s0 + WINDOW + 1,
        )
        next_pos = segments[hi][0] if hi < s_end else t_end
        fit = before = 0
        if hi > s0:
            table = np.asarray(segments[s0:hi], dtype=np.int64)
            cum = np.cumsum(table[:, 2])
            # Accesses from the window start to the end of each segment.
            ends = table[:, 0] - t0 + cum
            fit = int(np.searchsorted(ends, WINDOW, side="right"))
            if fit < hi - s0:
                next_pos = int(table[fit, 0])
            before = int(cum[fit - 1]) if fit else 0
        touch = min(t0 + WINDOW - before, next_pos, t_end)
        if touch == t0 and not fit and hi > s0:
            fit = 1  # one oversized segment opens the window
        return touch, s0 + fit

    # ------------------------------------------------------------------
    def _resolve_touches(self, t0: int, t1: int) -> np.ndarray:
        """Decode touch codes ``t0:t1`` to line ids: one copy out of
        the ``array('q')``, then a slot lookup, a bounds check and the
        line arithmetic, all in place where possible."""
        if t1 <= t0:
            return _EMPTY
        codes = np.frombuffer(
            self.touches, dtype=np.int64, count=t1 - t0,
            offset=t0 * self.touches.itemsize,
        ).copy()  # the copy releases the buffer, so appends still work
        slot = codes >> np.int64(SLOT_SHIFT)
        bad = (slot < 0) | (slot >= len(self.slots))
        if bad.any():
            raise unknown_slot(int(codes[int(np.argmax(bad))]))
        meta = np.array(
            [(a.length, a.itemsize, a.base) for a in self.slots],
            dtype=np.int64,
        ).reshape(-1, 3)
        codes -= slot << np.int64(SLOT_SHIFT)
        codes -= np.int64(INDEX_BIAS)  # now element indices
        bad = (codes < 0) | (codes >= meta[slot, 0])
        if bad.any():
            first = int(np.argmax(bad))
            owner = self.slots[int(slot[first])]
            raise InvalidParameterError(
                f"touch({int(codes[first])}) is outside array "
                f"{owner.name!r} of length {owner.length}"
            )
        codes *= meta[slot, 1]
        codes += meta[slot, 2]
        codes >>= np.int64(self._line_shift)
        return codes

    def freeze(
        self,
        start: tuple[int, int] = (0, 0),
        stop: tuple[int, int] | None = None,
    ) -> CacheTrace:
        """Interleave touches and segments into one flat
        :class:`CacheTrace`: the whole record by default, or the window
        between two marks (``stop`` defaults to the current
        :attr:`mark`)."""
        t0, s0 = start
        t1, s1 = self.mark if stop is None else stop
        touches = self._resolve_touches(t0, t1)
        table = np.asarray(self._segments[s0:s1], dtype=np.int64)
        table = table.reshape(-1, 5)
        pos, first, size = table[:, 0] - t0, table[:, 1], table[:, 2]
        # A segment recorded at position p precedes touches[p]: it
        # starts after p singles and every earlier segment, and each
        # touch comes after every segment placed at or before it.
        cum = np.zeros(size.shape[0] + 1, dtype=np.int64)
        np.cumsum(size, out=cum[1:])
        seg_start = pos + cum[:-1]
        touch_at = np.arange(touches.shape[0], dtype=np.int64)
        touch_at += cum[np.searchsorted(pos, touch_at, side="right")]
        total = touches.shape[0] + int(cum[-1])
        lines = np.empty(total, dtype=np.int64)
        lines[touch_at] = touches
        demand = np.ones(total, dtype=bool)
        run = first >= 0
        at, ramp = _spans(seg_start[run], size[run])
        lines[at] = np.repeat(first[run], size[run]) + ramp
        demand[at[ramp > 0]] = False  # prefetched fills
        blocks = np.flatnonzero(~run)
        if blocks.shape[0]:
            at, _ = _spans(seg_start[blocks], size[blocks])
            arrays = [self._blocks[s0 + i] for i in blocks.tolist()]
            lines[at] = np.concatenate([b for b, _ in arrays])
            demand[at] = np.concatenate([d for _, d in arrays])
        return CacheTrace(
            lines=lines,
            demand_idx=np.flatnonzero(demand),
            extra_l1=int(table[:, 3].sum()),
            prefetched_refs=int(table[:, 4].sum()),
        )


def _spans(
    starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``starts[i] + k`` for ``k < sizes[i]``, concatenated, and
    the offsets ``k``."""
    ends = np.cumsum(sizes)
    offset = np.arange(
        int(ends[-1]) if ends.shape[0] else 0, dtype=np.int64
    ) - np.repeat(ends - sizes, sizes)
    return np.repeat(starts, sizes) + offset, offset
