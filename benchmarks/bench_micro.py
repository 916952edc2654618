"""Micro-benchmarks of the library's own hot paths.

Unlike the paper-artifact benches (single-shot ``pedantic`` runs),
these use pytest-benchmark's normal multi-round measurement: they
track the throughput of the simulator and ordering kernels so
regressions in the *infrastructure* are visible independently of the
experiment results.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.algorithms import neighbor_query, neighbor_query_traced
from repro.cache import Memory, scaled_hierarchy
from repro.graph import datasets
from repro.ordering import UnitHeap, gorder_order, rcm_order


@pytest.fixture(scope="module")
def pokec():
    return datasets.load("pokec")


def test_micro_cache_access_throughput(benchmark):
    hierarchy = scaled_hierarchy()
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 4096, size=20000).tolist()

    def run():
        access = hierarchy.access
        for line in lines:
            access(line)

    benchmark(run)


def test_micro_touch_run_throughput(benchmark):
    memory = Memory()
    array = memory.array("a", 200000, 4)

    def run():
        array.touch_run(0, 200000)

    benchmark(run)


def test_micro_unit_heap_churn(benchmark):
    def run():
        heap = UnitHeap(2000)
        for i in range(2000):
            for _ in range(i % 7):
                heap.increase(i)
        for _ in range(2000):
            heap.pop_max()

    benchmark(run)


def test_micro_gorder_pokec(benchmark, pokec):
    benchmark.pedantic(
        gorder_order, args=(pokec,), rounds=2, iterations=1
    )


def test_micro_rcm_pokec(benchmark, pokec):
    benchmark(rcm_order, pokec)


def test_micro_pure_nq(benchmark, pokec):
    benchmark(neighbor_query, pokec)


def test_micro_gorder_telemetry_disabled_overhead(pokec):
    """Guard: disabled telemetry must cost < 5% of the greedy loop.

    With telemetry off, one Gorder call pays a fixed number of no-op
    hooks (one ``enabled()`` check around the counter tail, no-op
    profiled phases) — per *call*, never per loop iteration.  Measure the
    kernel and the hooks separately and assert that even a hundred
    hook sites would stay inside the 5% budget of the seed timing.
    """
    assert not obs.enabled()
    kernel = min(
        _timed(lambda: gorder_order(pokec)) for _ in range(3)
    )

    hook_rounds = 10_000
    start = time.perf_counter()
    for _ in range(hook_rounds):
        if obs.enabled():  # the hoisted guard the kernels use
            pass
        with obs.span("bench.noop"):
            pass
        with obs.profile("bench.noop"):
            pass
        obs.inc("bench.noop")
    per_hook_site = (time.perf_counter() - start) / hook_rounds

    budget = 0.05 * kernel
    assert 100 * per_hook_site < budget, (
        f"disabled-telemetry hooks cost {per_hook_site * 1e6:.2f}us per "
        f"site; 100 sites would exceed 5% of the {kernel * 1e3:.1f}ms "
        "greedy kernel"
    )


def test_micro_gorder_enabled_vs_disabled(pokec):
    """Report (not gate) the cost of switching telemetry on."""
    disabled = min(
        _timed(lambda: gorder_order(pokec)) for _ in range(2)
    )
    obs.configure()  # registry only: counters + spans, no sinks
    try:
        enabled = min(
            _timed(lambda: gorder_order(pokec)) for _ in range(2)
        )
    finally:
        obs.reset()
    print(
        f"\ngorder greedy: disabled {disabled * 1e3:.1f}ms, "
        f"enabled {enabled * 1e3:.1f}ms "
        f"({enabled / disabled:.2f}x)"
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_micro_traced_nq(benchmark, pokec):
    def run():
        neighbor_query_traced(pokec, Memory())

    benchmark.pedantic(run, rounds=3, iterations=1)
