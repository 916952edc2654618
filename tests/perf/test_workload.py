"""Tests for workloads and the amortisation table (through the
``repro.perf`` re-exports)."""

import numpy as np
import pytest

from repro.errors import (
    InvalidParameterError,
    UnknownAlgorithmError,
)
from repro.graph import generators, identity_permutation
from repro.ordering import OrderingConfig, compute_ordering
from repro.perf import (
    OrderingCache,
    Workload,
    amortization_table,
    simulate,
)


@pytest.fixture(scope="module")
def graph():
    return generators.web_graph(
        600, pages_per_host=60, out_degree=8, seed=23,
        name="workload-test",
    )


@pytest.fixture(scope="module")
def pipeline():
    return Workload.of(
        "pipeline", ("pr", {"iterations": 2}), "nq",
    )


class TestWorkload:
    def test_of_normalises_steps(self):
        workload = Workload.of("w", "nq", ("pr", {"iterations": 1}))
        assert workload.steps == (
            ("nq", {}), ("pr", {"iterations": 1}),
        )

    def test_needs_steps(self):
        with pytest.raises(InvalidParameterError):
            Workload.of("empty")

    def test_unknown_algorithm_rejected_eagerly(self):
        with pytest.raises(UnknownAlgorithmError):
            Workload.of("w", "frobnicate")

    def test_cycles_positive_and_deterministic(self, graph, pipeline):
        identity = identity_permutation(graph.num_nodes)
        a = pipeline.run(graph, identity)
        b = pipeline.run(graph, identity)
        assert a[0] > 0
        assert a == b

    def test_cycles_additive(self, graph):
        identity = identity_permutation(graph.num_nodes)
        nq_only, nq_stats = Workload.of("a", "nq").run(graph, identity)
        double, double_stats = Workload.of("b", "nq", "nq").run(
            graph, identity
        )
        # Two cold runs cost exactly twice one cold run (fresh caches).
        assert double == pytest.approx(2 * nq_only)
        assert double_stats == nq_stats + nq_stats


class TestMatchesSimulate:
    """A workload step does the logical work ``simulate`` does: node
    ids in its parameters are mapped through each arrangement."""

    @pytest.mark.parametrize("ordering", ["dbg", "gorder"])
    @pytest.mark.parametrize(
        "step",
        [
            ("sp", {"source": 3}),
            ("dsssp", {"source": 5}),
            ("diam", {"sources": [1, 4]}),
        ],
        ids=lambda step: step[0],
    )
    def test_step_equals_simulate(self, graph, step, ordering):
        algorithm, params = step
        config = OrderingConfig(ordering)
        cycles, stats = Workload.of("one", step).run(
            graph, config.compute(graph)
        )
        result = simulate(
            graph, algorithm, config, params=params,
            cache=OrderingCache(),
        )
        assert cycles == result.cost.total_cycles
        assert stats == result.stats


class TestAmortization:
    def test_table_rows(self, graph, pipeline):
        rows = amortization_table(
            pipeline, graph, ["original", "random", "gorder"]
        )
        by_name = {row.ordering: row for row in rows}
        assert by_name["original"].speedup == pytest.approx(1.0)
        # The first ordering is the baseline: nothing to pay back.
        assert by_name["original"].break_even_runs == 0.0
        assert by_name["gorder"].speedup > 1.05
        assert by_name["gorder"].break_even_runs < float("inf")
        assert by_name["random"].speedup < 1.0
        assert by_name["random"].break_even_runs == float("inf")

    def test_cheap_ordering_amortises_faster(self, graph, pipeline):
        rows = amortization_table(
            pipeline, graph, ["original", "chdfs", "gorder"]
        )
        by_name = {row.ordering: row for row in rows}
        if by_name["chdfs"].speedup > 1.0:
            assert (
                by_name["chdfs"].break_even_runs
                < by_name["gorder"].break_even_runs
            )

    def test_needs_an_ordering(self, graph, pipeline):
        with pytest.raises(InvalidParameterError):
            amortization_table(pipeline, graph, [])

    def test_baseline_computed_once(self, graph, pipeline, monkeypatch):
        from repro.ordering import base

        calls = []
        real = base.compute_ordering

        def counting(name, *args, **kwargs):
            calls.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(base, "compute_ordering", counting)
        amortization_table(pipeline, graph, ["original", "dbg"])
        assert calls == ["original", "dbg"]

    def test_configs_carry_params(self, graph, pipeline):
        rows = amortization_table(
            pipeline, graph,
            ["original", OrderingConfig("gorder", 0, {"window": 3})],
        )
        assert rows[1].label == "gorder[window=3]"
        assert np.array_equal(
            rows[1].perm, compute_ordering("gorder", graph, window=3)
        )


class TestExtensionWorkloads:
    def test_mixed_workload_with_extensions(self, graph):
        """Workloads accept extension algorithms too."""
        mixed = Workload.of(
            "analytics", "wcc", "tc", ("lp", {"iterations": 2})
        )
        cycles, _ = mixed.run(
            graph, identity_permutation(graph.num_nodes)
        )
        assert cycles > 0

    def test_amortization_on_extension_workload(self, graph):
        mixed = Workload.of("analytics", "wcc")
        rows = amortization_table(mixed, graph, ["gorder"])
        assert rows[0].ordering == "gorder"
        assert rows[0].cycles > 0
        assert rows[0].speedup == 1.0
        assert rows[0].stats.l1_refs > 0
