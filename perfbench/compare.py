"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by run.py (`.perfbench/results/`
after a series of runs).  For every workload and every end-to-end metric in
BENCHMARK.json the command prints each side's median and quartiles, the
quartile spread as a share of the median, the change of the median and
whether it exceeds the metric's bound.  A change counts as worse or better by
the metric's direction.  Exits 1 when some metric got
worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values of the untraced runs in a directory."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("trace"):
            continue
        metrics = out.setdefault(doc["workload"], {})
        for key, metric in doc["metrics"].items():
            metrics.setdefault(key, []).append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    change = (quartiles(after)[1] - quartiles(before)[1]) / quartiles(before)[1]
    worse = change > bound if better == "lower" else change < -bound
    improved = change < -bound if better == "lower" else change > bound
    label = "WORSE beyond bound" if worse else ("better beyond bound" if improved else "within bound")
    return f"{change:+8.2%}  {label}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="result files of the first commit")
    parser.add_argument("after", type=Path, help="result files of the second commit")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    sides = [load(args.before), load(args.after)]
    regressed = False
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"{workload}:")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            cells = []
            series = [side.get(workload, {}).get(key) for side in sides]
            if any(not values for values in series):
                print(f"  {key:12s} missing")
                continue
            for values in series:
                q1, q2, q3 = quartiles(values)
                cells.append(f"n={len(values):2d} median {q2:11.5g} [{q1:.5g}, {q3:.5g}] "
                             f"spread {spread(values):6.2%}")
            text = verdict(series[0], series[1], metric["better"], metric["bound"])
            regressed |= "WORSE" in text
            print(f"  {key:12s} " + " | ".join(cells) + f" | {text} (bound {metric['bound']:.0%})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
