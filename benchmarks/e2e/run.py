"""End-to-end benchmark of the Gorder reproduction.

Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out PATH] [--write-golden]

Each workload runs in a fresh child interpreter, so module-level
memos (``datasets.load``, the global ordering cache) and the peak RSS
of one workload never leak into the next.  For every workload the
parent prints each metric as ``name value unit`` and then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``; all results
also go to ``--out``.  It exits non-zero when an output check fails.

The default mode has tracing off and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace`` reports its per-layer metrics,
measured by spans around the benchmark's calls into each layer.  The
metric names and units are declared once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_e2e"
DEFAULT_SEED = 7
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT = 160.0


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, spec: dict):
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)"
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default 7, checked against "
                             "the golden outputs)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="time budget of one workload's measurement")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path,
                        default=OUT_DIR / "results.json",
                        help="JSON results file")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the golden outputs at seed 7")
    # Internal: the child, its set-up probes and the traced daemon.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced-daemon", type=Path,
                        help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args(argv)
    if rest and args.traced_daemon is None:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.workload = args.workload or names
    return args, rest


def result_path(scratch: Path, name: str) -> Path:
    """Where a child leaves its workload's result for the parent."""
    return scratch / f"{name}.json"


def run_child(name: str, args) -> int:
    """Inside the child: set up, measure and check one workload; or,
    as a set-up probe, only set it up and print the seconds taken."""
    start = time.perf_counter()
    import workloads
    from repro.ioutil import atomic_write_text

    workload = workloads.WORKLOADS[name](
        args.seed, args.seconds, bool(args.trace), args.scratch
    )
    if args.setup_probe is not None:
        workload.build()
        print(repr(time.perf_counter() - start))
        return 0
    if args.write_golden:
        print(f"wrote {workload.write_golden()}", file=sys.stderr)
        return 0
    outcome = workload.run(start)
    if args.trace:
        workload.tracer.write(args.spans)
    atomic_write_text(result_path(args.scratch, name), json.dumps(
        {"correct": not outcome.problems, **dataclasses.asdict(outcome)}
    ))
    return 0


def run_traced_daemon(spans: Path, serve_args: list[str]) -> int:
    """Inside the traced daemon: ``repro-gorder serve`` with a span
    around every layer call, written to ``spans`` at exit."""
    from tracing import Tracer, install_probes

    from repro.cli import main as repro_main

    tracer = Tracer("serve-mixed")
    install_probes(tracer)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.write(spans)


def spawn_child(name: str, args, scratch: Path, env: dict) -> dict | None:
    """Run one workload in a child interpreter; None if it failed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scratch", str(scratch),
        "--spans", str(args.out.parent / f"spans-{name}.jsonl"),
    ]
    if args.write_golden:
        command.append("--write-golden")
    # The child's stdout joins our stderr: our stdout ends in JSON.
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = child.wait(CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"error: {name} exceeded {CHILD_TIMEOUT:g} s; killed",
              file=sys.stderr)
        return None
    finally:
        if child.poll() is None:
            # SIGTERM first, so the child stops its own daemons and
            # probes on the way out.
            child.terminate()
            try:
                child.wait(10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if code != 0:
        print(f"error: {name} exited with code {code}", file=sys.stderr)
        return None
    if args.write_golden:
        return {}
    with open(result_path(scratch, name), encoding="utf-8") as handle:
        return json.load(handle)


def report(name: str, result: dict, declared: dict[str, str], args) -> bool:
    """Print one workload's metrics and its JSON line; False if the
    workload's metrics are not exactly the declared ones."""
    print(f"# {name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {result['samples']} latency samples")
    emitted = result["metrics"]
    if set(emitted) != set(declared):
        print(f"error: {name} emitted {sorted(emitted)}, BENCHMARK.json "
              f"declares {sorted(declared)}", file=sys.stderr)
        return False
    for metric, unit in declared.items():
        print(f"{metric} {emitted[metric]!r} {unit}")
    detail = {
        metric: pair for metric, pair in result["detail"].items()
        if metric not in declared
    }
    if detail:
        print("# detail (workload-specific, not gated)")
        for metric, (value, unit) in sorted(detail.items()):
            print(f"{metric} {value!r} {unit}")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": emitted[metric], "unit": unit}
            for metric, unit in declared.items()
        },
    }), flush=True)
    return True


def write_results(path: Path, body: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=1)
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    if not SPEC.is_file() or not (SRC / "repro").is_dir():
        print(f"error: run from a checkout of the repository; "
              f"{SPEC.name} or src/repro is missing under {ROOT}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args, rest = parse_args(argv, spec)
    sys.path.insert(0, str(SRC))
    if args.traced_daemon is not None:
        return run_traced_daemon(args.traced_daemon, rest)
    # SIGTERM unwinds like an error, so the cleanup in ``finally``
    # blocks stops the child and the daemons instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.child is not None or args.setup_probe is not None:
        return run_child(args.child or args.setup_probe, args)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in spec[kind]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    args.out = args.out.resolve()
    OUT_DIR.mkdir(exist_ok=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    results, ok = {}, True
    try:
        for name in args.workload:
            if args.write_golden and name == "serve-mixed":
                continue  # its outputs are checked against each other
            result = spawn_child(name, args, scratch, env)
            if result is None:
                ok = False
            elif not args.write_golden:
                results[name] = result
                ok &= report(name, result, declared, args)
                ok &= result["correct"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if results:
        write_results(args.out, {
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workloads": results,
        })
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
