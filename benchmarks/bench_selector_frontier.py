"""Cost/quality frontier benchmark for the adaptive selector.

Runs :func:`repro.perf.run_frontier_bench` at the profile-selected
scale: the selector probes every candidate ordering on each dataset,
models amortised cost at the configured query volume, and must land
within the regret tolerance of both the probe's locality oracle and
the best candidate on the quick-profile algorithm suite (the
benchmark itself raises otherwise).  Records ``BENCH_selector.json``
under ``benchmarks/results/<profile>/`` with the full per-dataset
frontier — ordering seconds, probe cycles, suite cycles and
break-even query volume per candidate.

Scale (via ``REPRO_PROFILE``):

* ``quick``    — epinion only, the CI smoke size (sub-second)
* ``standard`` — epinion + pokec
* ``full``     — the acceptance trio epinion/pokec/wiki, matching the
  committed ``BENCH_selector.json`` snapshot
"""

import json

from repro.perf import (
    FrontierBenchConfig,
    quick_frontier_config,
    render_frontier_bench,
    run_frontier_bench,
    write_bench_json,
)

CONFIGS = {
    "quick": quick_frontier_config(),
    "standard": FrontierBenchConfig(datasets=("epinion", "pokec")),
    "full": FrontierBenchConfig(),
}


def test_selector_frontier_bench(profile, results_dir, record):
    config = CONFIGS[profile.name]
    payload = run_frontier_bench(config)

    # run_frontier_bench raises past the tolerance; asserted again so
    # the recorded artifact is self-certifying.
    assert payload["within_tolerance"] is True
    assert payload["max_regret"] <= config.tolerance
    assert payload["max_suite_regret"] <= config.tolerance
    for name, entry in payload["datasets"].items():
        # Every dataset must report a full frontier, baseline first,
        # measured on the probe and on the suite alike.
        assert entry["rows"][0]["ordering"] == "original", name
        assert entry["selected"]["amortised_seconds"] == min(
            row["amortised_seconds"] for row in entry["rows"]
        )
        assert [row["label"] for row in entry["suite_rows"]] == [
            row["label"] for row in entry["rows"]
        ]

    path = write_bench_json(
        payload, results_dir / "BENCH_selector.json"
    )
    record("bench_selector_frontier", render_frontier_bench(payload))
    assert (
        json.loads(path.read_text())["bench"] == "selector_frontier"
    )
