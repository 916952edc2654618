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
