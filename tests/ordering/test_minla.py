"""Tests for the simulated-annealing MinLA / MinLogA orderings."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import InvalidParameterError
from repro.graph import datasets, generators
from repro.oracles import anneal_reference
from repro.ordering import (
    minla_energy,
    minla_order,
    minloga_energy,
    minloga_order,
)
from repro.ordering import minla as minla_module
from repro.ordering.minla import STEP_SLICE

from tests.conftest import assert_valid_permutation, graph_strategy

#: ``logarithmic`` flag of :func:`anneal_reference` -> production order.
ORDERS = {False: minla_order, True: minloga_order}


@pytest.fixture(scope="module")
def graph():
    return generators.social_graph(150, edges_per_node=5, seed=11)


class TestMinla:
    def test_valid_permutation(self, graph):
        assert_valid_permutation(
            minla_order(graph, seed=1), graph.num_nodes
        )

    def test_improves_over_start(self, graph):
        """Annealing from the identity must not worsen the energy
        (local search accepts only improving swaps)."""
        start = np.arange(graph.num_nodes, dtype=np.int64)
        result = minla_order(graph, seed=1, standard_energy=0.0)
        assert minla_energy(graph, result) <= minla_energy(graph, start)

    def test_local_search_beats_huge_temperature(self, graph):
        """With k enormous every swap is accepted - the arrangement is
        effectively random and worse than local search (the
        replication's Figure 3 observation b)."""
        local = minla_order(graph, seed=1, standard_energy=0.0)
        hot = minla_order(graph, seed=1, standard_energy=1e9)
        assert minla_energy(graph, local) < minla_energy(graph, hot)

    def test_more_steps_do_not_hurt(self, graph):
        short = minla_order(
            graph, seed=1, steps=graph.num_edges // 8,
            standard_energy=0.0,
        )
        long = minla_order(
            graph, seed=1, steps=graph.num_edges * 2,
            standard_energy=0.0,
        )
        assert minla_energy(graph, long) <= minla_energy(graph, short)

    def test_zero_steps_is_identity(self, graph):
        perm = minla_order(graph, seed=1, steps=0)
        assert np.array_equal(perm, np.arange(graph.num_nodes))

    def test_invalid_parameters(self, graph):
        with pytest.raises(InvalidParameterError):
            minla_order(graph, steps=-1)
        with pytest.raises(InvalidParameterError):
            minla_order(graph, standard_energy=-1.0)

    def test_trivial_graphs(self):
        from repro.graph import from_edges

        empty = from_edges([], num_nodes=1)
        assert minla_order(empty).tolist() == [0]
        none = from_edges([], num_nodes=0)
        assert minla_order(none).tolist() == []


class TestMinloga:
    def test_valid_permutation(self, graph):
        assert_valid_permutation(
            minloga_order(graph, seed=1), graph.num_nodes
        )

    def test_improves_log_energy(self, graph):
        start = np.arange(graph.num_nodes, dtype=np.int64)
        result = minloga_order(graph, seed=1, standard_energy=0.0)
        assert minloga_energy(graph, result) <= minloga_energy(
            graph, start
        )

    def test_objectives_differ(self, graph):
        """MinLA and MinLogA optimise different objectives, so their
        outputs should generally differ."""
        a = minla_order(graph, seed=1)
        b = minloga_order(graph, seed=1)
        assert not np.array_equal(a, b)


def assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestMatchesOracle:
    """The list loop equals the numpy-scalar loop byte for byte."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=graph_strategy())
    def test_random_graphs(self, graph):
        """Both objectives, several seeds, step counts and energy
        scales; a slice of 4 steps makes most runs span several
        conversion slices."""
        n, m = graph.num_nodes, graph.num_edges
        step_slice = 4
        with mock.patch.object(minla_module, "STEP_SLICE", step_slice):
            for logarithmic, order in ORDERS.items():
                for seed in (0, 7):
                    assert_same_bytes(
                        order(graph, seed=seed),
                        anneal_reference(
                            graph, seed, None, None, logarithmic
                        ),
                    )
                    for steps in (0, 1, m // 3, 2 * m, 3 * step_slice + 1):
                        for energy in (0.0, 1e-3, m / n, 1e9):
                            assert_same_bytes(
                                order(
                                    graph, seed=seed, steps=steps,
                                    standard_energy=energy,
                                ),
                                anneal_reference(
                                    graph, seed, steps, energy,
                                    logarithmic,
                                ),
                            )

    @pytest.mark.parametrize("logarithmic", sorted(ORDERS))
    def test_more_steps_than_one_slice(self, logarithmic):
        graph = generators.erdos_renyi(40, 80, seed=3)
        steps = STEP_SLICE + 5
        assert_same_bytes(
            ORDERS[logarithmic](graph, seed=11, steps=steps),
            anneal_reference(graph, 11, steps, None, logarithmic),
        )


class TestWikiPins:
    """SHA-256 of both annealers' output on ``wiki`` (6800 nodes),
    pinned from the numpy-scalar loop that
    :func:`repro.oracles.anneal_reference` keeps."""

    PINNED = {
        ("minla", 0): (
            minla_order,
            "859de04cf8dbff25c045b4f126fc15bb"
            "774bcbbc0c72c62081eb9b4968ac5f82",
        ),
        ("minla", 7): (
            minla_order,
            "6f3be8e093ee42419186cfa2dae69657"
            "fb6ade81e6c059800c128f3fbe4c6516",
        ),
        ("minloga", 0): (
            minloga_order,
            "d16f28120badc386479f9c4980c38411"
            "66a1b5746b5e5f40e4a74673d1c7cdc9",
        ),
        ("minloga", 7): (
            minloga_order,
            "a8f43f433edf7d48e68ec8e0161969ef"
            "23b8937d59f5d60a1f74a0dca724ddb6",
        ),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_wiki_output_pinned(self, key):
        function, digest = self.PINNED[key]
        output = function(datasets.load("wiki"), seed=key[1])
        assert output.dtype == np.int64
        assert hashlib.sha256(output.tobytes()).hexdigest() == digest


def traced_peak(function, *args, **kwargs) -> int:
    """tracemalloc peak of one call, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        function(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


class TestStepMemory:
    """The step stream becomes Python lists one slice at a time.

    Two graphs on the same nodes, one with 4x the edges, so 4x the
    default steps.  What the steps add to the peak (the peak of a
    default run minus that of a ``steps=0`` run, which builds the same
    neighbour lists) may grow by the numpy step arrays' growth plus
    one slice's lists, not by lists of every step (about 112 B each).
    The graphs are sparse because tracemalloc slows every allocation
    of the loop.
    """

    NODES = 10_000
    EDGES = 4_000

    def step_peak(self, graph):
        return traced_peak(minloga_order, graph, seed=1) - traced_peak(
            minloga_order, graph, seed=1, steps=0
        )

    def test_step_lists_are_bounded_by_one_slice(self):
        small = generators.erdos_renyi(self.NODES, self.EDGES, seed=1)
        large = generators.erdos_renyi(self.NODES, 4 * self.EDGES, seed=2)
        assert small.num_edges > 2 * STEP_SLICE
        # Node ids above 256 are int objects of their own, as in a run.
        pairs = np.full((STEP_SLICE, 2), self.NODES - 1)
        coins = np.full(STEP_SLICE, 0.5)
        one_slice = traced_peak(
            lambda: (
                pairs[:, 0].tolist(), pairs[:, 1].tolist(), coins.tolist()
            )
        )
        step_arrays = 24 * (large.num_edges - small.num_edges)
        growth = self.step_peak(large) - self.step_peak(small)
        assert growth <= step_arrays + one_slice, (
            growth, step_arrays, one_slice
        )
