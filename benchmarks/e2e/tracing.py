"""Spans recorded by the benchmark around calls into each layer.

Two producers feed the same span format:

* :func:`run_traced_cells` re-runs experiment cells through the
  pipeline ``compute_ordering -> relabel -> traced emitter ->
  recorded_trace -> CacheHierarchy.replay -> CostModel.cost`` with one
  span per layer call, and returns every cell's cycles and level
  counts so the caller can compare them with the untraced run.
* :func:`install_probes` wraps the same public entry points inside a
  serve daemon, so its worker threads record spans too.

Spans stay in memory and are written out once, as JSON lines, when
the run ends.  Repro's own telemetry stays off throughout: enabling
it switches Gorder onto a metered heap, which is a different program.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.algorithms import base as algorithms
from repro.cache import DEFAULT_COST_MODEL, Memory
from repro.graph.permute import relabel
from repro.ioutil import atomic_write_text
from repro.ordering import base as orderings
from repro.perf import algorithm_params

#: Span names that are pipeline layers, in pipeline order.  Any other
#: span (``round``, ``cell``, ``graph.build``) is benchmark structure
#: or set-up and is not counted as layer time.
LAYERS = (
    "ordering.compute",
    "graph.relabel",
    "algorithms.emit",
    "algorithms.freeze",
    "cache.replay",
    "cache.cost",
)


class Tracer:
    """Records spans: name, start, end, parent, workload and cell.

    ``start``/``end`` are ``time.perf_counter()`` readings of the
    recording process.  Parents are tracked per thread, so the serve
    daemon's concurrent workers each get their own span stacks.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, cell: str = "", **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "workload": self.workload,
            "cell": cell,
            "attrs": attrs,
            "start": time.perf_counter(),
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path) -> None:
        atomic_write_text(
            path, "".join(json.dumps(span) + "\n" for span in self.spans)
        )


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_seconds(spans: list[dict]) -> list[tuple[dict, float]]:
    """Each span with its self time: its duration minus the part of
    that interval its child spans cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return [
        (span, span["end"] - span["start"] - covered.get(span["id"], 0.0))
        for span in spans
    ]


def cell_record(cost, stats) -> dict:
    """The outputs a cell must reproduce: cycles and level counts."""
    return {
        "cycles": cost.total_cycles,
        "execute_cycles": cost.execute_cycles,
        "stall_cycles": cost.stall_cycles,
        "l1_refs": stats.l1_refs,
        "l1_misses": stats.l1_misses,
        "l2_refs": stats.l2_refs,
        "l2_misses": stats.l2_misses,
        "l3_refs": stats.l3_refs,
        "l3_misses": stats.l3_misses,
    }


def _logical_to_relabeled(spec, params: dict, perm: np.ndarray) -> dict:
    """Map source-node parameters through the permutation, as
    ``run_cell`` does, so every ordering does the same logical work."""
    mapped = dict(params)
    for key in spec.source_params:
        if key in mapped:
            value = mapped[key]
            if np.isscalar(value):
                mapped[key] = int(perm[int(value)])
            else:
                mapped[key] = [int(perm[int(v)]) for v in value]
    return mapped


def run_traced_cells(
    tracer: Tracer, profile, graphs: dict, cells, memo: dict | None = None
) -> dict[str, dict]:
    """Run ``(dataset, algorithm, ordering, seed)`` cells layer by
    layer under spans; return each cell's :func:`cell_record`.

    Orderings and relabeled graphs are computed once per (dataset,
    ordering, seed) and kept in ``memo``, as the runner's memo does;
    pass one dict to calls that should share it.
    """
    memo = {} if memo is None else memo
    records: dict[str, dict] = {}
    for dataset, algorithm, ordering, seed in cells:
        label = f"{dataset}/{algorithm}/{ordering}"
        graph = graphs[dataset]
        with tracer.span("cell", label):
            key = (dataset, ordering, seed)
            if key not in memo:
                with tracer.span(
                    "ordering.compute", label, ordering=ordering
                ):
                    perm = orderings.compute_ordering(
                        ordering, graph, seed=seed,
                        **dict(profile.ordering_params),
                    )
                with tracer.span("graph.relabel", label):
                    memo[key] = (perm, relabel(graph, perm))
            perm, relabeled = memo[key]
            spec = algorithms.spec(algorithm)
            params = _logical_to_relabeled(
                spec, algorithm_params(algorithm, graph, profile), perm
            )
            memory = Memory(profile.hierarchy(), cache_backend="replay")
            with tracer.span("algorithms.emit", label):
                algorithms.traced_fn(spec)(relabeled, memory, **params)
            with tracer.span("algorithms.freeze", label):
                trace = memory.recorded_trace()
            with tracer.span("cache.replay", label) as span:
                # Built exactly as Memory._ensure_replayed builds them.
                hierarchy = profile.hierarchy()
                serving = hierarchy.replay(trace.lines)
                counts = np.bincount(
                    serving[trace.demand_idx],
                    minlength=hierarchy.num_levels + 1,
                )
                level_counts = [int(c) for c in counts]
                level_counts[1] += trace.extra_l1
                stats = hierarchy.snapshot()
                span["attrs"].update(
                    accesses=trace.num_accesses,
                    misses=[stats.l1_misses, stats.l2_misses,
                            stats.l3_misses],
                )
            with tracer.span("cache.cost", label):
                cost = DEFAULT_COST_MODEL.cost(
                    level_counts, memory.extra_work, trace.prefetched_refs
                )
            records[label] = cell_record(cost, stats)
    return records


def install_probes(tracer: Tracer) -> None:
    """Wrap each layer's public entry point in a span, process-wide.

    Used only inside the traced serve daemon, which runs the program's
    own request path; the wrappers add spans and change nothing else.
    """
    import repro.ordering
    from repro.cache.cost import CostModel
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.replay import TraceBuffer
    from repro.graph import datasets
    from repro.perf import runner

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    compute = orderings.compute_ordering

    @functools.wraps(compute)
    def compute_ordering(name, *args, **kwargs):
        with tracer.span("ordering.compute", ordering=name):
            return compute(name, *args, **kwargs)

    replay = CacheHierarchy.replay

    @functools.wraps(replay)
    def replay_lines(self, lines):
        with tracer.span("cache.replay") as span:
            serving = replay(self, lines)
            span["attrs"].update(
                accesses=len(lines),
                misses=[level.misses for level in self.levels],
            )
        return serving

    traced_fn = algorithms.traced_fn

    @functools.wraps(traced_fn)
    def timed_traced_fn(*args, **kwargs):
        return timed("algorithms.emit", traced_fn(*args, **kwargs))

    datasets.load = timed("graph.build", datasets.load)
    orderings.compute_ordering = compute_ordering
    repro.ordering.compute_ordering = compute_ordering
    runner.relabel = timed("graph.relabel", runner.relabel)
    algorithms.traced_fn = timed_traced_fn
    TraceBuffer.freeze = timed("algorithms.freeze", TraceBuffer.freeze)
    CacheHierarchy.replay = replay_lines
    CostModel.cost = timed("cache.cost", CostModel.cost)
