"""Partitioned Gorder — the paper's "parallel version" made real.

The replication's discussion suggests "a parallel version of Gorder"
to attack its long ordering time.  Gorder's cost is superlinear in the
graph size, so even *without* processes, splitting the graph into k
partitions and ordering each induced subgraph independently cuts the
total work substantially; with ``workers > 1`` the parts really do run
concurrently on a :class:`concurrent.futures.ProcessPoolExecutor`.
The price is quality at partition boundaries: scores across parts are
ignored.

Determinism: each part is ordered by the standard (deterministic)
Gorder kernel on its induced subgraph and the parts are merged in
partition order, so the output is **identical for every worker
count** — ``workers=4`` is a wall-clock optimisation, never a
different arrangement.  Workers are spawned (not forked) so they start
from a clean interpreter without inheriting telemetry sinks; per-part
timings and counter deltas are reported back to the parent, which
merges the counters into its own registry and emits them as
``gorder.partition`` telemetry (profiled spans when inline, events
when the part ran in a worker process, since spans cannot cross
processes).  Both carry a stable ``part=`` attribute.

Partitions come from the BFS bisection of
:mod:`repro.ordering.bisect` so parts are locality-coherent.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import obs
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import (
    invert_permutation,
    permutation_from_sequence,
)
from repro.graph.subgraph import induced_subgraph
from repro.ordering.bisect import bisection_order
from repro.ordering.gorder import DEFAULT_WINDOW, gorder_sequence


def partition_nodes(
    graph: CSRGraph, num_parts: int
) -> list[np.ndarray]:
    """Split nodes into ``num_parts`` locality-coherent blocks.

    Uses the recursive BFS bisection arrangement and slices it into
    equal contiguous chunks, so each part is a connected-ish region.
    """
    if num_parts < 1:
        raise InvalidParameterError(
            f"num_parts must be positive, got {num_parts}"
        )
    sequence = invert_permutation(
        bisection_order(graph, leaf_size=max(1, graph.num_nodes // 64))
    )
    return [
        chunk
        for chunk in np.array_split(sequence, num_parts)
        if chunk.shape[0]
    ]


def _order_part(
    task: tuple,
) -> tuple[int, np.ndarray, float, dict[str, int]]:
    """Order one induced-subgraph part (runs in a worker process).

    The subgraph travels as raw CSR arrays (cheap to pickle) and is
    rebuilt without validation — it came from ``induced_subgraph`` on
    an already-valid graph.  When ``collect`` is set the worker turns
    on a registry-only telemetry session around the kernel and ships
    the counter *deltas* back to the parent, which merges them into
    its own registry (spans cannot cross processes, counters can).
    """
    (
        index, num_nodes, offsets, adjacency,
        window, hub_threshold, collect,
    ) = task
    subgraph = CSRGraph(
        num_nodes, offsets, adjacency,
        name=f"part-{index}", validate=False,
    )
    owns_telemetry = collect and not obs.enabled()
    if owns_telemetry:
        obs.configure()  # registry only: no sinks in the worker
    before = obs.counters() if collect else {}
    start = time.perf_counter()
    sequence = gorder_sequence(
        subgraph, window=window, hub_threshold=hub_threshold
    )
    seconds = time.perf_counter() - start
    counters: dict[str, int] = {}
    if collect:
        after = obs.counters()
        counters = {
            name: after[name] - before.get(name, 0)
            for name in sorted(after)
            if after[name] != before.get(name, 0)
        }
    if owns_telemetry:
        obs.reset()
    return index, sequence, seconds, counters


def gorder_partitioned(
    graph: CSRGraph,
    seed: int = 0,
    num_parts: int = 4,
    window: int = DEFAULT_WINDOW,
    hub_threshold: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Gorder applied independently to ``num_parts`` partitions.

    Returns a full arrangement: partitions are laid out in bisection
    order, each internally ordered by Gorder on its induced subgraph.
    ``workers`` bounds the process pool; the result is identical for
    every worker count (see the module docstring).
    """
    del seed  # deterministic
    if workers < 1:
        raise InvalidParameterError(
            f"workers must be positive, got {workers}"
        )
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    parts = partition_nodes(graph, num_parts)
    effective_workers = min(workers, len(parts))
    collect = obs.enabled() and effective_workers > 1
    tasks = []
    for index, part in enumerate(parts):
        subgraph, _ = induced_subgraph(graph, part)
        tasks.append((
            index, subgraph.num_nodes, subgraph.offsets,
            subgraph.adjacency, window, hub_threshold, collect,
        ))
    pieces: list[np.ndarray] = [None] * len(tasks)  # type: ignore[list-item]
    with obs.span(
        "gorder.partitioned", n=n, m=graph.num_edges,
        parts=len(tasks), workers=effective_workers,
    ):
        if effective_workers == 1:
            for task in tasks:
                with obs.profile(
                    "gorder.partition", part=task[0], n=task[1],
                ):
                    index, local_sequence, _, _ = _order_part(task)
                pieces[index] = parts[index][local_sequence]
        else:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(
                max_workers=effective_workers, mp_context=context
            ) as pool:
                for index, local_sequence, seconds, counters in (
                    pool.map(_order_part, tasks)
                ):
                    for counter_name, delta in counters.items():
                        obs.inc(  # repro: noqa[REP005] — the merged
                            # names were literal in the worker.
                            counter_name, delta,
                        )
                    attrs: dict = {
                        "part": index,
                        "n": tasks[index][1],
                        "seconds": round(seconds, 6),
                    }
                    if counters:
                        attrs["counters"] = counters
                    obs.event("gorder.partition", **attrs)
                    pieces[index] = parts[index][local_sequence]
    return permutation_from_sequence(np.concatenate(pieces))
