"""Public API contract: exports exist, are documented, and stay sane."""

import inspect

import pytest

import repro
from repro import algorithms, cache, graph, oracles, ordering, perf

PACKAGES = [repro, graph, cache, ordering, algorithms, perf, oracles]


class TestExports:
    @pytest.mark.parametrize(
        "package", PACKAGES, ids=lambda p: p.__name__
    )
    def test_all_names_resolve(self, package):
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), (
                f"{package.__name__}.__all__ lists missing {name!r}"
            )

    @pytest.mark.parametrize(
        "package", PACKAGES, ids=lambda p: p.__name__
    )
    def test_public_callables_documented(self, package):
        undocumented = []
        for name in getattr(package, "__all__", []):
            member = getattr(package, name)
            if inspect.isfunction(member) or inspect.isclass(member):
                if not (member.__doc__ or "").strip():
                    undocumented.append(f"{package.__name__}.{name}")
        assert not undocumented, (
            "public items without docstrings: "
            + ", ".join(undocumented)
        )

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_registries_consistent(self):
        from repro.algorithms import ALGORITHM_NAMES, REGISTRY as ALGOS
        from repro.ordering import ORDERING_NAMES, REGISTRY as ORDERS

        assert set(ALGORITHM_NAMES) <= set(ALGOS)
        assert set(ORDERING_NAMES) <= set(ORDERS)
        # Display names are unique within each registry.
        assert len({a.display_name for a in ALGOS.values()}) == len(ALGOS)
        assert len({o.display_name for o in ORDERS.values()}) == len(
            ORDERS
        )

    def test_module_docstrings(self):
        import pkgutil

        missing = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = __import__(
                module_info.name, fromlist=["_"]
            )
            if not (module.__doc__ or "").strip():
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"


#: Names deleted from the public packages, with the package that
#: exported them.  ``repro-gorder evaluate`` is the NQ probe's
#: amortisation table now, and nothing used the graph validator.  The
#: four bench suites are entries of ``perf.SUITES``, run by
#: ``perf.run_bench`` and printed by ``perf.render_bench``; a metric's
#: trend direction follows its name.
REMOVED = [
    (ordering, "OrderingEvaluation"),
    (ordering, "evaluate_ordering"),
    (ordering, "evaluate_all"),
    (ordering, "probe_arrangement"),
    (graph, "validate_graph"),
    (graph, "ValidationReport"),
    *(
        (perf, name)
        for name in (
            "RUNTIME_ALGORITHMS",
            "GorderBenchConfig", "CacheBenchConfig", "AlgosBenchConfig",
            "FrontierBenchConfig",
            "quick_config", "quick_cache_config", "quick_algos_config",
            "quick_frontier_config",
            "run_gorder_bench", "run_cache_bench", "run_algos_bench",
            "run_frontier_bench",
            "render_gorder_bench", "render_cache_bench",
            "render_algos_bench", "render_frontier_bench",
        )
    ),
    (perf.trends, "METRIC_DIRECTIONS"),
]


class TestRemovedNames:
    @pytest.mark.parametrize(
        "package, name", REMOVED,
        ids=lambda item: getattr(item, "__name__", item),
    )
    def test_absent(self, package, name):
        assert not hasattr(package, name)
        assert name not in getattr(package, "__all__", [])

    @pytest.mark.parametrize(
        "module", ["repro.ordering.evaluation", "repro.graph.validation"]
    )
    def test_module_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            __import__(module)
