"""Gorder's window reaches the permutation from every entry point.

Every entry point names its permutation with one
:class:`~repro.ordering.OrderingConfig`; this is the run-time check
that none of them drops the parameters on the way.  ``window=1`` is
set through a sweep profile, ``run_cell``, the CLI ``run`` command and
serve ``/run``/``/order``, and each must give the window-1 cycles or
permutation, which differ from the default window's.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import cli
from repro.graph import datasets
from repro.ordering import compute_ordering
from repro.perf import (
    OrderingCache,
    SweepEngine,
    algorithm_params,
    get_profile,
    run_cell,
    speedup_matrix,
)
from repro.serve import ServeConfig

from tests.serve.conftest import ServeHarness

DATASET = "epinion"
NARROW = {"window": 1}


@pytest.fixture(scope="module")
def profile():
    return replace(
        get_profile("quick"),
        datasets=(DATASET,),
        algorithms=("pr",),
        orderings=("gorder",),
    )


@pytest.fixture(scope="module")
def graph():
    return datasets.load(DATASET)


@pytest.fixture(scope="module")
def cycles(profile, graph):
    """PR cycles on the default and the window-1 Gorder arrangement."""

    def run(ordering_params):
        return run_cell(
            graph,
            "pr",
            "gorder",
            seed=profile.seed,
            params=algorithm_params("pr", graph, profile),
            hierarchy=profile.hierarchy(),
            cache=OrderingCache(),
            ordering_params=ordering_params,
        ).cycles

    default, narrow = run(None), run(NARROW)
    assert default != narrow, "window=1 must change the cycles"
    return narrow


def test_sweep_profile(profile, cycles):
    """The default arrangement is memoised first, so a memo key that
    dropped the window would hand it to the window-1 cells."""
    cache = OrderingCache()
    cell = (DATASET, "pr", "gorder")
    assert speedup_matrix(profile, cache=cache)[cell].cycles != cycles
    narrow = replace(profile, ordering_params=tuple(NARROW.items()))
    outcome = SweepEngine(cache=cache).run(narrow)
    assert outcome.matrix()[cell].cycles == cycles
    assert speedup_matrix(narrow, cache=cache)[cell].cycles == cycles


def test_cli_run(monkeypatch, capsys, cycles):
    """The CLI has no window flag; the knob is fed where the ordering
    flags land, after a default run has filled the shared memo."""
    argv = ["run", "--dataset", DATASET, "--algorithm", "pr",
            "--ordering", "gorder"]
    line = f"cycles      : {cycles:,.0f}\n"
    assert cli.main(argv) == 0
    assert line not in capsys.readouterr().out
    monkeypatch.setattr(cli, "_ordering_params", lambda args: NARROW)
    assert cli.main(argv) == 0
    assert line in capsys.readouterr().out


def test_serve(profile, graph, cycles):
    """The default arrangement is stored first, so a store key that
    dropped the window would serve it to the window-1 requests."""
    harness = ServeHarness(ServeConfig(workers=1, queue_capacity=4))
    try:
        status, _, _ = harness.post(
            "/order", {"dataset": DATASET, "seed": profile.seed}
        )
        assert status == 200
        status, payload, _ = harness.post(
            "/run",
            {"dataset": DATASET, "algorithm": "pr",
             "ordering_params": NARROW},
        )
        assert status == 200, payload
        assert payload["cycles"] == cycles
        status, payload, _ = harness.post(
            "/order",
            {"dataset": DATASET, "ordering_params": NARROW,
             "include_permutation": True},
        )
        assert status == 200, payload
        expected = compute_ordering("gorder", graph, **NARROW)
        assert not np.array_equal(expected, compute_ordering(
            "gorder", graph
        ))
        assert payload["permutation"] == expected.tolist()
    finally:
        harness.service.drain()
        harness.close()
