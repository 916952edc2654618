"""Web-graph pipeline: choosing an ordering for a crawl workload.

The paper's motivating scenario: a search-engine pipeline repeatedly
runs PageRank, SCC condensation and diameter probes over a web crawl.
This example builds a web-graph analogue, evaluates every ordering on
that workload mix, and prints a recommendation table including the
*amortisation point* — how many pipeline runs it takes for the
ordering's one-off cost to pay for itself (the question raised by
"When is Graph Reordering an Optimization?", discussed in the
replication's Section 4).

Run:  python examples/web_crawl_pipeline.py
"""

from repro.graph import generators
from repro.ordering import ORDERING_NAMES
from repro.perf import Workload, amortization_table


def main() -> None:
    crawl = generators.web_graph(
        4000, pages_per_host=120, out_degree=14, seed=11,
        name="crawl",
    )
    print(f"crawl graph: {crawl.num_nodes} pages, "
          f"{crawl.num_edges} links\n")

    pipeline = Workload.of(
        "nightly-pipeline",
        ("pr", {"iterations": 3}),
        "scc",
        ("diam", {"sources": [0, 1]}),
    )
    # The first ordering, "original", is the baseline.
    rows = amortization_table(pipeline, crawl, ORDERING_NAMES, seed=1)
    print(f"{'ordering':>10s} {'pipeline':>9s} {'speedup':>8s} "
          f"{'order-cost':>10s} {'pays off after':>14s}")
    for row in rows:
        if row is rows[0]:
            pays_off = "  baseline"
        elif row.break_even_runs < float("inf"):
            pays_off = f"{row.break_even_runs:8.0f} runs"
        else:
            pays_off = "     never"
        print(
            f"{row.ordering:>10s} {row.cycles / 1e6:8.1f}M "
            f"{row.speedup:7.2f}x {row.ordering_seconds:9.2f}s "
            f"{pays_off:>14s}"
        )

    fastest = min(rows, key=lambda row: row.cycles)
    costliest = max(rows, key=lambda row: row.ordering_seconds)
    print(
        f"\nInterpretation: {fastest.ordering} gives the fastest pipeline,"
        f"\nand {costliest.ordering} has the largest ordering cost"
        f" ({costliest.ordering_seconds:.2f}s)."
        "\nAn ordering only pays off for workloads that re-run the"
        "\npipeline more often than its break-even count (the"
        "\nreplication's closing observation)."
    )

if __name__ == "__main__":
    main()
