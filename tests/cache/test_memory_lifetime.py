"""A traced cell's simulator state is freed by reference counting.

``TracedArray`` holds its ``Memory``; if ``Memory`` held its arrays
back, every cell would leave its arrays, trace record and LRU stacks
as cyclic garbage that only a full collection frees.
"""

import gc
import weakref

import pytest

from repro.algorithms import base as algorithms
from repro.cache import Memory, scaled_hierarchy
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.social_graph(300, edges_per_node=5, seed=4)


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("algorithm", ["nq", "pr", "kcore", "bfs"])
def test_memory_freed_without_collection(graph, algorithm, no_gc):
    memory = Memory(scaled_hierarchy())
    algorithms.spec(algorithm).traced(graph, memory)
    assert memory.cost().total_cycles > 0
    ref = weakref.ref(memory)
    del memory
    assert ref() is None


def test_arrays_lookup_still_touches(no_gc):
    memory = Memory(scaled_hierarchy())
    memory.array("a", 64, 8)
    memory.arrays["a"].touch(3)
    assert memory.total_refs == 1
    assert memory.arrays["a"].name == "a"
    ref = weakref.ref(memory)
    del memory
    assert ref() is None
