"""The perf-regression gate: every suite of ``repro.perf.SUITES``.

Each suite runs its fast path against its oracle at the
profile-selected workload (``REPRO_PROFILE``: quick | standard |
full).  :func:`repro.perf.run_bench` raises ``BenchRegressionError``
when an answer diverges, a speedup falls below its floor or a selector
regret rises above its tolerance.  The payload is recorded as
``benchmarks/results/<profile>/BENCH_<suite>.json`` beside a text
summary, so every change leaves a perf trajectory behind.
"""

import pytest

from repro.perf import SUITES, render_bench, run_bench, write_bench_json


@pytest.mark.parametrize("name", list(SUITES))
def test_bench_suite(name, profile, results_dir, record):
    payload = run_bench(name, profile.name)
    write_bench_json(payload, results_dir / SUITES[name].out)
    record(f"bench_{payload['bench']}", render_bench(payload))
