"""The benchmark's four workloads and the measurements they share.

Each workload repeats one unit of user-visible work for the run's time
budget:

* ``fig5-quick`` — the quick profile's Figure 5/6 sweep over epinion
  and pokec: 9 algorithms x 10 orderings = 180 cells through
  ``SweepEngine`` with its checkpoint journal.  Small graphs: per-call
  overhead dominates.
* ``fig1-sdarc`` — ``cache_stall_split`` on sdarc, the largest
  analogue (9 algorithms x {original, gorder}).  Traces overflow the
  scaled L3 about tenfold: emission and replay dominate.
* ``table2-social50k`` — ten orderings of a 50k-node social graph.
  Ordering only; the only user of a process pool.
* ``serve-mixed`` — one HTTP request to a ``repro-gorder serve``
  daemon, from a closed loop of clients.  Orderings come from the
  daemon's store instead of being computed.

Ordering time is part of every unit: a reordering is judged with its
own cost included.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from tracing import (
    LAYERS,
    Tracer,
    cell_record,
    read_spans,
    run_traced_cells,
    self_seconds,
)

from repro.algorithms import ALGORITHM_NAMES
from repro.graph import datasets
from repro.graph.generators import social_graph
from repro.ioutil import atomic_write_text
from repro.ordering import compute_ordering
from repro.perf import (
    GLOBAL_ORDERING_CACHE,
    PROFILES,
    OrderingCache,
    SweepEngine,
    cache_stall_split,
    enumerate_cells,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN_DIR = HERE / "golden"
#: The quick profile's seed; golden outputs are checked at this seed.
DEFAULT_SEED = 7
#: A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: Client threads, daemon workers and pool processes: at most two,
#: and never more than the machine has cores.
WIDTH = min(2, os.cpu_count() or 1)


class BenchmarkError(Exception):
    """The benchmark cannot run or measure as asked."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses a percentile with fewer than :data:`MIN_BEYOND` samples
    beyond it: such a tail is a handful of outliers.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise BenchmarkError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


def is_permutation(perm, n: int) -> bool:
    perm = np.asarray(perm)
    return perm.shape == (n,) and np.array_equal(
        np.sort(perm), np.arange(n)
    )


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: Failed output checks; any one makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Workload-specific numbers, name -> (value, unit): printed and
    #: saved, but outside the metric set every workload declares.
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Latency samples behind ``latency_ms``.
    samples: int = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def layer_metrics(
    spans: list[dict],
    units: int,
    traced_s: float,
    untraced_s: float,
    build_s: float,
) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
    """Per-layer metrics of ``units`` traced units of work that took
    ``traced_s`` in all, from their layer spans.

    ``untraced_s`` is the mean wall time of one untraced unit; what it
    holds beyond the layer time is glue no layer accounts for.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    gorder = accesses = 0.0
    misses = [0, 0, 0]
    for span, seconds in self_seconds(spans):
        if span["name"] not in totals:
            continue
        totals[span["name"]] += seconds
        attrs = span["attrs"]
        if attrs.get("ordering") == "gorder":
            gorder += seconds
        if span["name"] == "cache.replay":
            accesses += attrs["accesses"]
            misses = [a + b for a, b in zip(misses, attrs["misses"])]
    layer_s = sum(totals.values())
    emit_s, replay_s = totals["algorithms.emit"], totals["cache.replay"]
    metrics = {
        "graph.build_s": build_s,
        "ordering.compute_s": totals["ordering.compute"] / units,
        "ordering.gorder_s": gorder / units,
        **{f"{name}_share": totals[name] / traced_s for name in LAYERS},
        "algorithms.accesses": accesses / units,
        "algorithms.accesses_per_s": accesses / emit_s if emit_s else 0.0,
        "cache.accesses_per_s": accesses / replay_s if replay_s else 0.0,
        "cache.l1_misses": misses[0] / units,
        "cache.l2_misses": misses[1] / units,
        "cache.l3_misses": misses[2] / units,
        "perf.glue_share": 1 - layer_s / units / untraced_s,
        "perf.accounted_frac": layer_s / traced_s,
        "perf.trace_overhead_frac": traced_s / units / untraced_s - 1,
    }
    detail = {f"{name}_s": (totals[name] / units, "s") for name in LAYERS}
    detail["perf.glue_s"] = (untraced_s - layer_s / units, "s")
    return metrics, detail


def seconds_by(spans, key, units: int) -> dict[str, tuple[float, str]]:
    """Self seconds per unit of work, summed under ``key(span)``;
    spans for which ``key`` returns None are skipped."""
    sums: dict[str, float] = {}
    for span, seconds in self_seconds(spans):
        name = key(span)
        if name is not None:
            sums[name] = sums.get(name, 0.0) + seconds
    return {name: (total / units, "s") for name, total in sums.items()}


# ----------------------------------------------------------------------
# Batch workloads: rounds of a fixed list of operations
# ----------------------------------------------------------------------
@dataclass
class Round:
    #: operation label -> its wall seconds, in the order they ran.
    walls: dict[str, float]
    #: output label -> output every round must reproduce.
    records: dict
    #: label -> (permutation, node count), for the permutation check.
    perms: dict
    attempted: int
    failed: int
    traced: bool = False

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def fastest_total(rounds: list[Round]) -> float:
    """The sum, over a round's operations, of each one's fastest wall
    time across ``rounds``.

    On a shared host, other tenants slow a run down in bursts of up to
    a second; a short operation timed in several rounds is seldom
    caught by a burst every time, so this is the round's time without
    them.
    """
    return sum(
        min(rnd.walls[label] for rnd in rounds) for label in rounds[0].walls
    )


def timed(walls: dict, label: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, its wall time stored in ``walls``."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    walls[label] = time.perf_counter() - start
    return result


class BatchWorkload:
    """A workload whose unit is a fixed list of library calls, each
    timed on its own."""

    name = ""
    #: Set-ups per untraced run, each in a fresh interpreter;
    #: ``setup_s`` is their median.
    setups = 5
    #: Whether ``--trace`` runs rounds through the benchmark's own
    #: layer pipeline; if not, every round already makes one layer call
    #: per operation and is its own traced run.
    separate_trace = True

    def __init__(self, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.tracer = Tracer(self.name)

    def build(self) -> float:
        """Set up the inputs; return the seconds spent building graphs."""
        raise NotImplementedError

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def traced_round(self, index: int) -> Round:
        raise NotImplementedError

    def check_round(self, outcome: Outcome, rnd: Round) -> None:
        """Workload-specific output checks on one round."""

    def detail(self, units: int) -> dict[str, tuple[float, str]]:
        """Workload-specific per-layer numbers from the traced rounds."""
        return {}

    def run(self, started: float) -> Outcome:
        """Set up (the interpreter started at ``started``), measure for
        the time budget, check the outputs."""
        outcome = Outcome()
        build_s = self.build()
        setups = [time.perf_counter() - started]
        if not self.trace:
            setups += [self._setup_in_fresh_interpreter()
                       for _ in range(self.setups - 1)]
        alternate = self.trace and self.separate_trace
        rounds = self._repeat(alternate)
        for rnd in rounds:
            outcome.attempted += rnd.attempted
            outcome.failed += rnd.failed
            self._check(outcome, rnd, rounds[0].records)
        self._check_golden(outcome, rounds[0].records)
        untraced = [rnd for rnd in rounds if not rnd.traced]
        traced = [rnd for rnd in rounds if rnd.traced] or untraced
        outcome.samples = len(untraced)
        if self.trace:
            outcome.metrics, outcome.detail = layer_metrics(
                self.tracer.spans,
                units=len(traced),
                traced_s=sum(rnd.wall for rnd in traced),
                untraced_s=statistics.mean(rnd.wall for rnd in untraced),
                build_s=build_s,
            )
        else:
            outcome.metrics = {
                "setup_s": statistics.median(setups),
                "latency_ms": fastest_total(untraced) * 1e3,
                "peak_rss_mb": self.first_round_rss_mb,
            }
            done = sum(rnd.attempted - rnd.failed for rnd in untraced)
            outcome.detail = {
                "round.median_ms": (
                    statistics.median(rnd.wall for rnd in untraced) * 1e3,
                    "ms",
                ),
                "round.ops_per_s": (
                    done / sum(rnd.wall for rnd in untraced), "1/s"
                ),
            }
        outcome.detail.update(self.detail(len(traced)))
        return outcome

    def _setup_in_fresh_interpreter(self) -> float:
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             self.name, "--seed", str(self.seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=STARTUP_TIMEOUT,
        )
        return float(probe.stdout.split()[-1])

    def _repeat(self, alternate: bool) -> list[Round]:
        """At least two rounds, then more until the next would end past
        the time budget; with ``alternate``, every second round is a
        traced one."""
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            index = len(rounds)
            if alternate and index % 2:
                with self.tracer.span("round", str(index)):
                    rounds.append(self.traced_round(index))
            else:
                rounds.append(self.round(index))
            if index == 0:
                # Peak memory of set-up plus one round: later rounds
                # would make it depend on how many fit in the budget.
                self.first_round_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss / 1024  # KiB on Linux
            elapsed = time.perf_counter() - start
            typical = statistics.median(rnd.wall for rnd in rounds)
            if len(rounds) >= 2 and elapsed + typical > self.seconds:
                return rounds

    def _check(self, outcome: Outcome, rnd: Round, reference: dict) -> None:
        for label, (perm, n) in rnd.perms.items():
            outcome.check(
                is_permutation(perm, n),
                f"{label}: ordering is not a permutation of range({n})",
            )
        differ = sorted(
            label for label in set(reference) | set(rnd.records)
            if rnd.records.get(label) != reference.get(label)
        )
        kind = "traced" if rnd.traced else "untraced"
        outcome.check(
            not differ,
            f"a {kind} round differs from the first untraced round in "
            f"{len(differ)} outputs, e.g. {differ[:3]}",
        )
        self.check_round(outcome, rnd)

    # -- golden outputs ------------------------------------------------
    @property
    def golden_path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.json"

    def _check_golden(self, outcome: Outcome, records: dict) -> None:
        if self.seed != DEFAULT_SEED:
            return
        try:
            with open(self.golden_path, encoding="utf-8") as handle:
                golden = json.load(handle)["records"]
        except FileNotFoundError:
            outcome.check(False, f"golden file {self.golden_path} missing")
            return
        differ = sorted(
            label for label in set(golden) | set(records)
            if golden.get(label) != records.get(label)
        )
        outcome.check(
            not differ,
            f"{len(differ)} outputs differ from golden/"
            f"{self.golden_path.name}, e.g. {differ[:3]}",
        )

    def write_golden(self) -> Path:
        if self.seed != DEFAULT_SEED:
            raise BenchmarkError(
                f"golden outputs are defined at seed {DEFAULT_SEED}"
            )
        self.build()
        body = {
            "workload": self.name,
            "seed": self.seed,
            "records": self.round(0).records,
        }
        GOLDEN_DIR.mkdir(exist_ok=True)
        atomic_write_text(
            self.golden_path,
            json.dumps(body, indent=1, sort_keys=True) + "\n",
        )
        return self.golden_path


def quick_profile(seed: int, **changes):
    return replace(
        PROFILES["quick"], seed=seed, random_seeds=(seed,), **changes
    )


class Fig5Quick(BatchWorkload):
    """The Figure 5/6 sweep of the quick profile on its two smaller
    datasets; its third, wiki, alone takes four times as long.

    The sweep runs as one ``SweepEngine.run`` per (dataset, ordering):
    the same cells, each ordering computed once and shared by the nine
    algorithms as in one whole sweep, but timed in 20 pieces.
    """

    name = "fig5-quick"
    DATASETS = ("epinion", "pokec")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        profile = quick_profile(self.seed, datasets=self.DATASETS)
        self.profile = profile
        self.parts = {
            f"{d}/{o}": replace(profile, datasets=(d,), orderings=(o,))
            for d in self.DATASETS
            for o in profile.orderings
        }
        self.cells = {
            label: [
                (c.dataset, c.algorithm, c.ordering, c.seed)
                for c in enumerate_cells(part)
            ]
            for label, part in self.parts.items()
        }

    def build(self) -> float:
        datasets.load.cache_clear()
        start = time.perf_counter()
        self.graphs = {name: datasets.load(name) for name in self.DATASETS}
        return time.perf_counter() - start

    def round(self, index: int) -> Round:
        walls, records, perms, failed = {}, {}, {}, 0
        for label, part in self.parts.items():
            cache = OrderingCache()
            checkpoint = self.scratch / f"{self.name}-{index}.jsonl"
            sweep = timed(
                walls, label, SweepEngine(cache=cache).run, part,
                checkpoint=checkpoint,
            )
            checkpoint.unlink()
            failed += len(sweep.failures)
            records.update(
                (f"{d}/{a}/{o}", cell_record(result.cost, result.stats))
                for (d, a, o, _), result in sweep.results.items()
            )
            graph = self.graphs[part.datasets[0]]
            perms[label] = (
                cache.permutation(graph, part.orderings[0], self.seed)[0],
                graph.num_nodes,
            )
        attempted = sum(len(cells) for cells in self.cells.values())
        return Round(walls, records, perms, attempted, failed)

    def traced_round(self, index: int) -> Round:
        walls, records, memo = {}, {}, {}
        for label, cells in self.cells.items():
            records.update(timed(
                walls, label, run_traced_cells, self.tracer, self.profile,
                self.graphs, cells, memo,
            ))
        return Round(walls, records, {}, len(records), 0, traced=True)

    def detail(self, units):
        return seconds_by(
            self.tracer.spans,
            lambda s: f"ordering.{s['attrs']['ordering']}_s"
            if s["name"] == "ordering.compute" else None,
            units,
        )


class Fig1Sdarc(BatchWorkload):
    """The Figure 1 execute/stall split on the largest analogue, one
    ``cache_stall_split`` call per (algorithm, ordering)."""

    name = "fig1-sdarc"
    DATASET = "sdarc"
    ORDERINGS = ("original", "gorder")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.profile = quick_profile(self.seed)
        self.parts = {
            algorithm: replace(self.profile, algorithms=(algorithm,))
            for algorithm in self.profile.algorithms
        }

    def build(self) -> float:
        datasets.load.cache_clear()
        start = time.perf_counter()
        self.graph = datasets.load(self.DATASET)
        return time.perf_counter() - start

    def round(self, index: int) -> Round:
        # A fresh process computes Gorder once; so does every round.
        GLOBAL_ORDERING_CACHE.clear()
        walls, records = {}, {}
        for algorithm, part in self.parts.items():
            for ordering in self.ORDERINGS:
                label = f"{self.DATASET}/{algorithm}/{ordering}"
                results = timed(
                    walls, label, cache_stall_split, part, self.DATASET,
                    (ordering,),
                )
                for result in results.values():
                    records[label] = cell_record(result.cost, result.stats)
        perms = {
            f"{self.DATASET}/{o}": (
                GLOBAL_ORDERING_CACHE.permutation(
                    self.graph, o, self.seed
                )[0],
                self.graph.num_nodes,
            )
            for o in self.ORDERINGS
        }
        return Round(walls, records, perms, len(walls),
                     len(walls) - len(records))

    def traced_round(self, index: int) -> Round:
        walls, records, memo = {}, {}, {}
        for algorithm in self.profile.algorithms:
            for ordering in self.ORDERINGS:
                label = f"{self.DATASET}/{algorithm}/{ordering}"
                records.update(timed(
                    walls, label, run_traced_cells, self.tracer,
                    self.profile, {self.DATASET: self.graph},
                    [(self.DATASET, algorithm, ordering, self.seed)], memo,
                ))
        return Round(walls, records, {}, len(records), 0, traced=True)

    def detail(self, units):
        def per_algorithm(span):
            if span["name"] not in ("algorithms.emit", "cache.replay"):
                return None
            layer, _, phase = span["name"].partition(".")
            return f"{layer}.{span['cell'].split('/')[1]}.{phase}_s"

        return seconds_by(self.tracer.spans, per_algorithm, units)


class Table2Social50k(BatchWorkload):
    """Table 2 ordering times on a 700k-edge social graph."""

    name = "table2-social50k"
    # Its graph takes 1.4 s to build; two more set-ups would add 4 s.
    setups = 3
    separate_trace = False
    NODES = 50_000
    #: (label, ordering, parameters), in the order they run.
    ENTRIES = (
        ("rcm", "rcm", {}),
        ("chdfs", "chdfs", {}),
        ("slashburn", "slashburn", {}),
        ("ldg", "ldg", {}),
        ("gorder", "gorder", {}),
        ("bisect", "bisect", {}),
        ("boba", "boba", {}),
        ("dbg", "dbg", {}),
        ("gorder_part_w1", "gorder-part", {"workers": 1}),
        ("gorder_part_w2", "gorder-part", {"workers": WIDTH}),
    )

    def build(self) -> float:
        start = time.perf_counter()
        self.graph = social_graph(
            self.NODES, edges_per_node=10, seed=self.seed
        )
        return time.perf_counter() - start

    def round(self, index: int) -> Round:
        walls, perms = {}, {}
        with self.tracer.span("round", str(index)):
            for label, ordering, params in self.ENTRIES:
                with self.tracer.span(
                    "ordering.compute", label, ordering=ordering
                ):
                    perms[label] = timed(
                        walls, label, compute_ordering, ordering,
                        self.graph, seed=self.seed, **params,
                    )
        records = {
            label: hashlib.sha256(
                np.asarray(perm, dtype="<i8").tobytes()
            ).hexdigest()
            for label, perm in perms.items()
        }
        n = self.graph.num_nodes
        return Round(
            walls, records,
            {label: (perm, n) for label, perm in perms.items()},
            len(self.ENTRIES), 0,
        )

    def check_round(self, outcome: Outcome, rnd: Round) -> None:
        outcome.check(
            rnd.records["gorder_part_w1"] == rnd.records["gorder_part_w2"],
            f"gorder-part orders differently with 1 and {WIDTH} workers",
        )

    def detail(self, units):
        out = seconds_by(
            self.tracer.spans,
            lambda s: f"ordering.{s['cell']}_s"
            if s["name"] == "ordering.compute" else None,
            units,
        )
        out["ordering.gorder_edges_per_s"] = (
            self.graph.num_edges / out["ordering.gorder_s"][0], "1/s"
        )
        # Base: the same partitioned Gorder with one worker.
        out["ordering.part_w2_speedup"] = (
            out["ordering.gorder_part_w1_s"][0]
            / out["ordering.gorder_part_w2_s"][0],
            "x",
        )
        return out


# ----------------------------------------------------------------------
# serve-mixed: a closed loop of clients against the daemon
# ----------------------------------------------------------------------
SERVE_DATASETS = ("epinion", "pokec", "flickr")
SERVE_ORDERINGS = ("original", "gorder", "rcm", "dbg", "hubsort")
STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 20.0
REQUEST_TIMEOUT = 60.0


def _call(conn, method: str, path: str, body=None) -> tuple[int, dict]:
    data = None if body is None else json.dumps(body).encode("utf-8")
    conn.request(
        method, path, body=data,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


class RequestDeck:
    """The request sequence every client draws from, in turn.

    One deck holds each ``/run`` request (dataset x algorithm x
    ordering) four times and each ``/order`` request (dataset x
    ordering) nine times: 540 + 135 cards, exactly 80% ``/run``.  The
    seed shuffles every pass through the deck.  Drawing without
    replacement keeps the mix of a run close to the whole deck's,
    whatever the seed.
    """

    def __init__(self, seed: int) -> None:
        runs = [
            ("/run", {"dataset": d, "algorithm": a, "ordering": o,
                      "seed": seed})
            for d in SERVE_DATASETS
            for a in ALGORITHM_NAMES
            for o in SERVE_ORDERINGS
        ]
        orders = [
            ("/order", {"dataset": d, "ordering": o, "seed": seed,
                        "include_permutation": True})
            for d in SERVE_DATASETS
            for o in SERVE_ORDERINGS
        ]
        self._cards = runs * 4 + orders * 9
        self._rng = random.Random(f"serve-mixed/{seed}")
        self._drawn = len(self._cards)
        self._lock = threading.Lock()
        #: Cards drawn so far, over every pass.
        self.dealt = 0

    def draw(self) -> tuple[str, dict]:
        with self._lock:
            if self._drawn == len(self._cards):
                self._rng.shuffle(self._cards)
                self._drawn = 0
            self._drawn += 1
            self.dealt += 1
            return self._cards[self._drawn - 1]


@dataclass
class Sample:
    path: str
    body: dict
    #: HTTP status; None when the connection failed.
    status: int | None
    seconds: float
    cycles: float | None = None
    simulation_seconds: float | None = None
    permutation_ok: bool = True

    @property
    def request(self) -> str:
        return json.dumps([self.path, self.body], sort_keys=True)


def fastest_median(samples: list[Sample]) -> float:
    """The median, over the requests served, of the fastest latency
    seen for the same request: the latency a request has when no
    burst of host interference catches it."""
    fastest: dict[str, float] = {}
    for s in samples:
        fastest[s.request] = min(s.seconds, fastest.get(s.request, s.seconds))
    return percentile([fastest[s.request] for s in samples], 50)


class Daemon:
    """A ``repro-gorder serve`` subprocess, started until ``/health``
    answers 200; ``setup_s`` is that start-up time and ``setup_rss_mb``
    the peak memory it took."""

    def __init__(self, command: list[str]) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        self.setup_rss_mb = self.peak_rss_mb()

    def _read_port(self) -> int:
        first: list[str] = []
        reader = threading.Thread(
            target=lambda: first.append(self.proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(STARTUP_TIMEOUT)
        match = re.search(r"http://[^\s:]+:(\d+)", "".join(first))
        if match is None:
            raise BenchmarkError(
                "the daemon did not report its port "
                f"(exit code {self.proc.poll()})"
            )
        return int(match.group(1))

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                if self.get("/health")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )

    def get(self, path: str) -> tuple[int, dict]:
        conn = self.connect()
        try:
            return _call(conn, "GET", path)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchmarkError("the daemon's status has no VmHWM line")

    def stop(self) -> int | None:
        """``POST /shutdown`` and wait; a daemon that does not exit in
        time is killed and None is returned."""
        conn = self.connect()
        try:
            _call(conn, "POST", "/shutdown", {})
        except (OSError, http.client.HTTPException):
            pass  # already gone: the wait below reports how it ended
        finally:
            conn.close()
        try:
            return self.proc.wait(SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        finally:
            self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class ServeMixed:
    """80% ``/run`` and 20% ``/order`` requests over three datasets and
    five orderings, from ``WIDTH`` closed-loop clients."""

    name = "serve-mixed"
    setups = 5

    def __init__(self, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.tracer = Tracer(self.name)

    def command(self, spans_path: Path | None = None) -> list[str]:
        args = ["--port", "0", "--preload", ",".join(SERVE_DATASETS),
                "--workers", str(WIDTH)]
        if spans_path is None:
            return [sys.executable, "-m", "repro", "serve", *args]
        return [sys.executable, str(HERE / "run.py"),
                "--traced-daemon", str(spans_path), *args]

    def run(self, started: float) -> Outcome:
        outcome = Outcome()
        if not self.trace:
            spawns = []
            for _ in range(self.setups - 1):
                spawns.append(Daemon(self.command()))
                self._stop(outcome, spawns[-1])
            spawns.append(Daemon(self.command()))
            samples, elapsed, stats, rss = self._serve(
                outcome, spawns[-1], self.seconds
            )
            ok = [s for s in samples if s.status == 200]
            outcome.samples = len(ok)
            outcome.metrics = {
                "setup_s": statistics.median(d.setup_s for d in spawns),
                "latency_ms": fastest_median(ok) * 1e3,
                # Peak memory under load depends on which heavy requests
                # the two workers happen to overlap, and varies by a
                # fifth between runs: it is reported as a detail.
                "peak_rss_mb": statistics.median(
                    d.setup_rss_mb for d in spawns
                ),
            }
            outcome.detail["serve.req_per_s"] = (len(ok) / elapsed, "1/s")
            outcome.detail["serve.peak_rss_mb"] = (rss, "MiB")
        else:
            samples, _, stats, _ = self._serve(
                outcome, Daemon(self.command()), self.seconds / 2
            )
            spans_path = self.scratch / "daemon-spans.jsonl"
            traced, _, _, _ = self._serve(
                outcome, Daemon(self.command(spans_path)), self.seconds / 2
            )
            self.tracer.spans.extend(read_spans(spans_path))
            ok = [s.seconds for s in samples if s.status == 200]
            ok_traced = [s.seconds for s in traced if s.status == 200]
            outcome.samples = len(ok)
            outcome.metrics, outcome.detail = layer_metrics(
                self.tracer.spans,
                units=len(ok_traced),
                traced_s=sum(ok_traced),
                untraced_s=statistics.mean(ok),
                build_s=sum(
                    s["end"] - s["start"] for s in self.tracer.spans
                    if s["name"] == "graph.build"
                ),
            )
        outcome.detail.update(self._serve_detail(samples, stats))
        return outcome

    def _stop(self, outcome: Outcome, daemon: Daemon) -> None:
        code = daemon.stop()
        outcome.check(
            code == 0,
            f"the daemon exited with {code} after POST /shutdown"
            if code is not None
            else "the daemon did not exit after POST /shutdown; killed",
        )

    def _serve(self, outcome: Outcome, daemon: Daemon, seconds: float):
        """Load ``daemon`` for ``seconds``, check the answers, stop it."""
        try:
            samples, elapsed = self._load(daemon, seconds)
            _, stats = daemon.get("/stats")
            rss = daemon.peak_rss_mb()
        finally:
            self._stop(outcome, daemon)
        outcome.attempted += len(samples)
        outcome.failed += sum(s.status != 200 for s in samples)
        cycles: dict[str, set] = {}
        for s in samples:
            outcome.check(
                s.permutation_ok,
                f"/order {s.body} returned a non-permutation",
            )
            if s.cycles is not None:
                cycles.setdefault(s.request, set()).add(s.cycles)
        differ = [key for key, values in cycles.items() if len(values) > 1]
        outcome.check(
            not differ,
            f"identical /run requests returned different cycles: "
            f"{differ[:3]}",
        )
        return samples, elapsed, stats, rss

    def _load(self, daemon: Daemon, seconds: float):
        deck = RequestDeck(self.seed)
        deadline = time.perf_counter() + seconds
        per_client: list[list[Sample]] = [[] for _ in range(WIDTH)]
        clients = [
            threading.Thread(
                target=self._client, args=(daemon, deck, deadline, out)
            )
            for out in per_client
        ]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(seconds + REQUEST_TIMEOUT + 5)
        if any(client.is_alive() for client in clients):
            raise BenchmarkError("a load client did not finish")
        elapsed = time.perf_counter() - start
        return [s for out in per_client for s in out], elapsed

    def _client(self, daemon: Daemon, deck: RequestDeck,
                deadline: float, out: list[Sample]) -> None:
        """One closed-loop client: the next request leaves only when
        the previous answer is in.  Past the deadline it stops once the
        load has the requests a median needs."""
        conn = daemon.connect()
        try:
            while (time.perf_counter() < deadline
                   or deck.dealt < 2 * MIN_BEYOND):
                path, body = deck.draw()
                start = time.perf_counter()
                try:
                    status, payload = _call(conn, "POST", path, body)
                except (OSError, http.client.HTTPException, ValueError):
                    out.append(
                        Sample(path, body, None,
                               time.perf_counter() - start)
                    )
                    return
                sample = Sample(
                    path, body, status, time.perf_counter() - start
                )
                if status == 200 and path == "/run":
                    sample.cycles = payload["cycles"]
                    sample.simulation_seconds = payload[
                        "simulation_seconds"
                    ]
                elif status == 200:
                    sample.permutation_ok = is_permutation(
                        payload["permutation"], payload["nodes"]
                    )
                out.append(sample)
        finally:
            conn.close()

    def _serve_detail(self, samples: list[Sample], stats: dict) -> dict:
        counters = stats["counters"]
        hits = counters.get("serve.store_memory_hits", 0)
        computed = counters.get("serve.store_computed", 0)
        ok = [s for s in samples if s.status == 200]
        runs = [s for s in ok if s.path == "/run"]
        detail = {
            "serve.req_count": (len(samples), "count"),
            "serve.store_hit_frac": (
                hits / (hits + computed) if hits + computed else 0.0,
                "frac",
            ),
            "serve.rejected": (
                sum(s.status in (429, 503) for s in samples), "count"
            ),
            "serve.deadline_exceeded": (
                counters.get("serve.deadline_exceeded", 0), "count"
            ),
        }
        tails = (
            ("serve.req_p50_ms", [s.seconds for s in ok], 50),
            ("serve.req_p95_ms", [s.seconds for s in ok], 95),
            ("serve.order_p50_ms",
             [s.seconds for s in ok if s.path == "/order"], 50),
            ("serve.run_p50_ms", [s.seconds for s in runs], 50),
            ("serve.run_sim_p50_ms",
             [s.simulation_seconds for s in runs], 50),
            ("serve.run_overhead_p50_ms",
             [s.seconds - s.simulation_seconds for s in runs], 50),
        )
        for name, values, q in tails:
            try:
                detail[name] = (percentile(values, q) * 1e3, "ms")
            except BenchmarkError:
                pass  # too few samples for this percentile; omitted
        return detail


WORKLOADS = {
    workload.name: workload
    for workload in (Fig5Quick, Fig1Sdarc, Table2Social50k, ServeMixed)
}
