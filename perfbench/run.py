"""Run one workload of the transit benchmark and print its metrics.

    python3 perfbench/run.py --workload games --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout: the program is imported from
`src/`.  One run sets up the workload's inputs, calls `transit.cli.main`
in-process in a closed loop with one caller for whole rounds until
`--seconds` have passed (and at least `workloads.MIN_ROUNDS`
rounds), then checks every output.  Every timing is reported in nominal
seconds, scaled to the reference host's speed by a probe timed around it
(see `nominal`); the wall-clock figures go to stderr.  With `--trace 1` the
run instead wraps the program's public functions in spans and makes exactly
that minimum number of rounds, so that its counts are exact.  The last line
of stdout is the result as JSON; a copy goes to `.perfbench/results/` under a name of its own
(workload, seed, trace flag and a timestamp), and the spans of a
traced run to `.perfbench/traces/<workload>.tsv`.  `--workload all` runs every
workload untraced and traced, each in its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5

# Time of one `probe()` on the reference host in a fast stretch; every timing
# is reported in nominal seconds, scaled by this over the probe's time
# measured around it (see "Host speed" in README.md)
REFERENCE_PROBE_S = 0.0015


def probe():
    """A fixed pure-Python computation of the benchmark's own, 1.5 to 3 ms.

    Fraction arithmetic, tuple keys and dict stores, as in the program's
    game code; it calls nothing of the program, so a change to the program
    never moves it.
    """
    table = {}
    for i in range(250):
        x = Fraction(i % 17 + 1, i % 11 + 3) * Fraction(i % 5 + 1, 7) - Fraction(1, i % 4 + 2)
        table[(i % 13, i % 29)] = (x.numerator, x.denominator)
    return sorted(table.values())


def timed_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def nominal(elapsed: float, before: float, after: float) -> float:
    """`elapsed` seconds on the host scaled to the reference host's speed,
    read from the probes timed just before and just after."""
    return elapsed * REFERENCE_PROBE_S / ((before + after) / 2)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fresh_transit():
    """Import the package anew, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "transit" or n.startswith("transit.")]:
        del sys.modules[name]
    return importlib.import_module("transit.cli")


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    """One CLI call with stdout and stderr captured; -1 if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            print(f"{type(exc).__name__}: {exc}", file=err)
            status = -1
    return status, out.getvalue(), err.getvalue()


def tail_percentile(min_ops: int) -> int:
    """Highest percentile leaving at least ten of min_ops operations above it."""
    return 100 * (min_ops - 10) // min_ops


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def run_workload(bench: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object printed as the last line."""
    import checks
    import workloads
    from spans import Tracer

    build = workloads.WORKLOADS[name]
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import numpy  # noqa: F401 - a dependency, loaded before set-up is timed

        tracer = None
        setups, setups_wall = [], []
        timed_probe()
        for _ in range(1 if trace else SETUP_REPEATS):
            gc.collect()
            before = timed_probe()
            t0 = time.perf_counter()
            cli = fresh_transit()
            if trace:
                tracer = Tracer()
                tracer.install()
            ops = build(seed, work)
            setups_wall.append(time.perf_counter() - t0)
            setups.append(nominal(setups_wall[-1], before, timed_probe()))

        if not trace:
            # one call of each command, so that lazy imports and first-call
            # allocations happen before timing
            for argv in {op.kind: op.argv for op in ops}.values():
                call(cli, argv)
        gc.collect()

        results: list[tuple[int, str, str] | None] = [None] * len(ops)
        mismatched: set[int] = set()
        latencies: list[float] = []
        walls: list[float] = []
        attempted = failed = rounds = 0
        t_start = time.perf_counter()
        before = timed_probe()
        while rounds < workloads.MIN_ROUNDS or (
                not trace and time.perf_counter() - t_start < seconds):
            for k, op in enumerate(ops):
                t0 = time.perf_counter()
                got = call(cli, op.argv)
                walls.append(time.perf_counter() - t0)
                after = timed_probe()
                latencies.append(nominal(walls[-1], before, after))
                before = after
                attempted += 1
                if got[0] < 0 or got[0] >= 2:
                    failed += 1
                if results[k] is None:
                    results[k] = got
                elif results[k] != got:
                    mismatched.add(k)
            rounds += 1
        wall = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()

        t_checks = time.perf_counter()
        problems = []
        cache: dict = {}
        for k, op in enumerate(ops):
            status, out, err = results[k]
            if k in mismatched:
                problems.append(f"{' '.join(op.argv)}: output changed between rounds")
            if status < 0 or status >= 2:
                problems.append(f"{' '.join(op.argv)}: operation failed with status "
                                f"{status}: {err.strip()}")
                continue
            for problem in checks.check(op, status, out, err, cache):
                problems.append(f"{' '.join(op.argv)}: {problem}")
        for line in problems:
            print(f"CHECK FAILED {line}", file=sys.stderr)
        print(f"{name}: set-up {sum(setups_wall):.2f} s, {rounds} rounds in {wall:.2f} s, "
              f"checks {time.perf_counter() - t_checks:.2f} s; wall-clock figures: "
              f"{(attempted - failed) / sum(walls):.4g} ops/s, "
              f"p50 {1000 * statistics.median(walls):.4g} ms, "
              f"set-up {statistics.median(setups_wall):.4g} s", file=sys.stderr)

        completed = attempted - failed
        if trace:
            summary = tracer.summary()
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / "traces" / f"{name}.tsv")
            # per-layer names are "<span>.<statistic>"; trace.ops_per_s is
            # the wall-clock throughput of the traced operations themselves
            metrics = {
                m["name"]: {"value": completed / sum(walls) if m["name"] == "trace.ops_per_s"
                            else layer_value(summary, m["name"], completed),
                            "unit": m["unit"]}
                for m in bench["per_layer"]
            }
        else:
            values = {
                "ops_per_s": completed / sum(latencies),
                "op_p50_ms": 1000 * statistics.median(latencies),
                "op_tail_ms": 1000 * nearest_rank(
                    latencies, tail_percentile(workloads.MIN_ROUNDS * len(ops))),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_value(summary: dict, key: str, ops: int) -> float:
    span, stat = key.rsplit(".", 1)
    row = summary.get(span, {"calls": 0, "op_calls": 0, "s": 0.0, "self_s": 0.0})
    if stat == "calls_per_op":
        return row["op_calls"] / ops
    return row[stat]


def run_all(bench: dict, args) -> int:
    """Every workload, untraced and traced, each in a child process."""
    for name in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"  {key:48s} {metric['value']:14.6g} {metric['unit']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "transit" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'transit'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = load_benchmark()
    if args.workload == "all":
        return run_all(bench, args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    result = run_workload(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    with open(OUT / "results" / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   **result}, fh)
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
