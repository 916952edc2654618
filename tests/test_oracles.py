"""The oracles stay pure by structure: a layering check and a tripwire.

:mod:`repro.oracles` holds the literal implementations every fast path
is compared against.  Two checks keep them trustworthy:

* the layering test reads the import graph ``repro-gorder deps``
  builds and requires that the module imports none of the telemetry,
  I/O, bench and serve layers — not even in a function body;
* the tripwire test runs every callable the module exports on random
  graphs with RNG, file I/O and telemetry patched to raise (see
  :mod:`tests.tripwire`), so it checks the calls the oracles make.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import oracles
from repro.algorithms import REGISTRY, traced_fn
from repro.analysis import ProjectAnalysis
from repro.cache import Memory

from tests.conftest import graph_strategy
from tests.tripwire import exported_oracles, run_oracle

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Layers an oracle must never reach.
FORBIDDEN = ("repro.obs", "repro.ioutil", "repro.perf", "repro.serve")


def forbidden_imports(src: Path) -> list[str]:
    """Modules of ``FORBIDDEN`` layers that ``repro.oracles`` imports."""
    project = ProjectAnalysis.build([str(src)])
    graph = project.import_graph(include_deferred=True)
    return sorted(
        target
        for target in graph["repro.oracles"]
        if any(
            target == layer or target.startswith(layer + ".")
            for layer in FORBIDDEN
        )
    )


@pytest.mark.skipif(
    not REPO_SRC.is_dir(), reason="repo source tree not available"
)
class TestLayering:
    def test_oracles_import_no_telemetry_io_bench_or_serve(self):
        assert forbidden_imports(REPO_SRC) == []

    def test_a_deferred_telemetry_import_is_caught(self, make_tree):
        make_tree({
            "repro/__init__.py": "",
            "repro/obs.py": "",
            "repro/oracles.py": """
                def count_reference(values):
                    from repro import obs

                    return len(values)
            """,
        })
        assert forbidden_imports(Path("repro")) == ["repro.obs"]


def step_memory():
    return Memory(cache_backend="step")


#: Exported oracle name -> its call on one graph, as (args, kwargs).
#: Diameter draws its sources from a seeded generator, which the
#: tripwire allows.
ORACLE_CALLS = {
    "neighbor_query_traced_scalar": lambda g: ((g, step_memory()), {}),
    "breadth_first_search_traced_scalar": lambda g: (
        (g, step_memory()), {}
    ),
    "shortest_paths_traced_scalar": lambda g: (
        (g, step_memory()), {"source": g.num_nodes - 1}
    ),
    "pagerank_traced_scalar": lambda g: ((g, step_memory()), {}),
    "diameter_traced_scalar": lambda g: (
        (g, step_memory()), {"num_sources": 3}
    ),
    "label_propagation_traced_scalar": lambda g: (
        (g, step_memory()), {}
    ),
    "gorder_sequence_reference": lambda g: ((g,), {"window": 3}),
    "window_scores_reference": lambda g: (
        (g, np.arange(g.num_nodes)[::-1]), {"window": 3}
    ),
    "dbg_classes_reference": lambda g: ((g.in_degrees(), 4), {}),
}


class TestTripwire:
    def test_every_export_is_run(self):
        assert set(exported_oracles(oracles)) == set(ORACLE_CALLS)

    def test_every_scalar_twin_is_exported(self):
        exported = set(exported_oracles(oracles).values())
        assert set(oracles.TRACED_SCALAR.values()) <= exported
        for name, emitter in oracles.TRACED_SCALAR.items():
            assert traced_fn(REGISTRY[name], "scalar") is emitter

    @pytest.mark.parametrize("name", sorted(ORACLE_CALLS))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=graph_strategy())
    def test_oracle_is_pure(self, name, graph):
        args, kwargs = ORACLE_CALLS[name](graph)
        run_oracle(getattr(oracles, name), *args, **kwargs)
