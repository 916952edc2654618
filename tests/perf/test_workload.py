"""Tests for workloads and amortisation analysis."""

import pytest

from repro.errors import (
    InvalidParameterError,
    UnknownAlgorithmError,
)
from repro.graph import generators
from repro.perf import Workload, amortization_table


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
        a = pipeline.cycles(graph)
        b = pipeline.cycles(graph)
        assert a > 0
        assert a == b

    def test_cycles_additive(self, graph):
        nq_only = Workload.of("a", "nq").cycles(graph)
        double = Workload.of("b", "nq", "nq").cycles(graph)
        # Two cold runs cost exactly twice one cold run (fresh caches).
        assert double == pytest.approx(2 * nq_only)


class TestAmortization:
    def test_table_rows(self, graph, pipeline):
        rows = amortization_table(
            pipeline, graph, ["original", "random", "gorder"]
        )
        by_name = {row.ordering: row for row in rows}
        assert by_name["original"].speedup == pytest.approx(1.0)
        assert by_name["original"].break_even_runs == float("inf")
        assert by_name["gorder"].speedup > 1.05
        assert by_name["gorder"].break_even_runs < float("inf")
        assert by_name["random"].speedup < 1.0
        assert by_name["random"].break_even_runs == float("inf")

    def test_cheap_ordering_amortises_faster(self, graph, pipeline):
        rows = amortization_table(
            pipeline, graph, ["chdfs", "gorder"]
        )
        by_name = {row.ordering: row for row in rows}
        if by_name["chdfs"].speedup > 1.0:
            assert (
                by_name["chdfs"].break_even_runs
                < by_name["gorder"].break_even_runs
            )

    def test_clock_validation(self, graph, pipeline):
        with pytest.raises(InvalidParameterError):
            amortization_table(
                pipeline, graph, ["original"], clock_hz=0
            )


class TestExtensionWorkloads:
    def test_mixed_workload_with_extensions(self, graph):
        """Workloads accept extension algorithms too."""
        mixed = Workload.of(
            "analytics", "wcc", "tc", ("lp", {"iterations": 2})
        )
        assert mixed.cycles(graph) > 0

    def test_amortization_on_extension_workload(self, graph):
        mixed = Workload.of("analytics", "wcc")
        rows = amortization_table(mixed, graph, ["gorder"])
        assert rows[0].ordering == "gorder"
        assert rows[0].cycles > 0
