"""Smoke tests: every example script runs to completion.

The slow pipeline example is skipped unless ``REPRO_RUN_SLOW_EXAMPLES``
is set (it sweeps every ordering over a 4 000-node crawl).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "reorder_edge_list.py",
    "evolving_graph.py",
    "social_network_analysis.py",
]


def run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"


def test_quickstart_reports_speedup():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "speedup" in result.stdout.lower()
    assert "identical" in result.stdout


def test_reorder_example_writes_outputs():
    result = run_example("reorder_edge_list.py")
    assert result.returncode == 0, result.stderr
    assert "locality score" in result.stdout


@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW_EXAMPLES"),
    reason="slow example; set REPRO_RUN_SLOW_EXAMPLES=1 to include",
)
def test_pipeline_example_runs():
    result = run_example("web_crawl_pipeline.py")
    assert result.returncode == 0, result.stderr
    assert "pays off" in result.stdout
    # The closing text names the costliest ordering of its own table.
    costs = {
        fields[0]: float(fields[3].rstrip("s"))
        for fields in map(str.split, result.stdout.splitlines())
        if len(fields) >= 5 and fields[3].endswith("s")
        and fields[2].endswith("x")
    }
    named = re.search(
        r"(\S+) has the largest ordering cost", result.stdout
    ).group(1)
    assert costs[named] == max(costs.values()), (named, costs)
