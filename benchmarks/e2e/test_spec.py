"""Checks of the benchmark itself.  Run explicitly, from the root:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_spec.py

It is not part of the tier-1 suite: the metric-set tests run every
workload briefly in both modes, which takes about two minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest
import run
import workloads
from tracing import LAYERS, Tracer, cell_record, run_traced_cells

from repro.algorithms import ALGORITHM_NAMES
from repro.graph import datasets
from repro.perf import OrderingCache, algorithm_params, run_cell

SPEC = run.load_spec()
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def test_names_are_well_formed_and_unique():
    names = NAMES + [
        metric["name"]
        for kind in ("end_to_end", "per_layer")
        for metric in SPEC[kind]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert len(name) <= 64, name
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_emits_exactly_the_declared_metrics(
    workload, trace, tmp_path
):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace),
         "--out", str(tmp_path / "results.json")],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_percentile_uses_nearest_rank():
    values = list(range(1, 21))
    assert workloads.percentile(values, 50) == 10  # not 10.5
    assert workloads.percentile(range(1, 201), 95) == 190


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(workloads.BenchmarkError):
        workloads.percentile(range(1, 20), 50)  # 9 beyond the median
    with pytest.raises(workloads.BenchmarkError):
        workloads.percentile(range(1, 200), 95)


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_traced_pipeline_equals_run_cell(algorithm):
    profile = workloads.quick_profile(7, datasets=("epinion",))
    graph = datasets.load("epinion")
    tracer = Tracer("test")
    records = run_traced_cells(
        tracer, profile, {"epinion": graph},
        [("epinion", algorithm, "gorder", 7)],
    )
    result = run_cell(
        graph, algorithm, "gorder", seed=7,
        params=algorithm_params(algorithm, graph, profile),
        hierarchy=profile.hierarchy(), cache=OrderingCache(),
        cache_backend=profile.cache_backend,
        algo_backend=profile.algo_backend,
    )
    assert records == {
        f"epinion/{algorithm}/gorder": cell_record(result.cost, result.stats)
    }
    assert {span["name"] for span in tracer.spans} >= set(LAYERS)
