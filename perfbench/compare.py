"""Compare two result sets written by sweep.py, one row per metric and workload.

    python3 perfbench/compare.py BASE.json CHANGE.json

For every end-to-end metric of BENCHMARK.json on every workload present in
both sets, prints each side's median and quartiles, each side's failed ops
out of those attempted, and a verdict:

- worse: the change fails a larger share of its ops than the base, or its
  median is worse than the base's by more than the bound;
- improved: the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the base's quartile spread;
- unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every change run beats every base
  run;
- no worse: otherwise.

Pairs are the i-th runs of one workload and seed on each side.  Both sets
must have been run with the same ``seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def metric_values(results: dict, workload: str, metric: str) -> dict[tuple, float]:
    """(seed, repeat) -> value of one metric over the runs of one workload."""
    seen: dict[int, int] = {}
    values = {}
    for run in results["runs"]:
        if run["workload"] != workload or metric not in run["result"]["metrics"]:
            continue
        repeat = seen.get(run["seed"], 0)
        seen[run["seed"]] = repeat + 1
        values[(run["seed"], repeat)] = run["result"]["metrics"][metric]["value"]
    return values


def failures(results: dict, workload: str) -> tuple[int, int]:
    """(failed ops, attempted ops) over the runs of one workload."""
    runs = [run["result"] for run in results["runs"] if run["workload"] == workload]
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_better: bool, base_fails: tuple[int, int],
            change_fails: tuple[int, int]) -> str:
    # a gain bought with failed ops is no gain
    if change_fails[0] * base_fails[1] > base_fails[0] * change_fails[1]:
        return "worse"
    sign = 1.0 if lower_better else -1.0  # sign * value: smaller is better
    base_med, change_med = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if pairs and wins >= 0.9 * len(pairs) and abs(change_med - base_med) > q3 - q1:
        return "improved"
    all_better = max(sign * v for v in change) < min(sign * v for v in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    if sign * (change_med - base_med) > bound * base_med:
        return "worse"
    return "no worse"


def compare(base: dict, change: dict, bench: dict) -> list[dict]:
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        fails = failures(base, workload), failures(change, workload)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = metric_values(base, workload, name)
            c = metric_values(change, workload, name)
            if not b or not c:
                continue
            pairs = [(b[k], c[k]) for k in sorted(b) if k in c]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": quartiles(list(b.values())), "change": quartiles(list(c.values())),
                "runs": (len(b), len(c)), "pairs": len(pairs), "failed": fails,
                "verdict": verdict(list(b.values()), list(c.values()), pairs,
                                   metric["bound"], metric["better"] == "lower", *fails),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bench = json.loads(Path(args.bench).read_text())
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    if base.get("seconds") != change.get("seconds"):
        parser.error(f"run lengths differ: {base.get('seconds')} s and "
                     f"{change.get('seconds')} s")
    rows = compare(base, change, bench)
    print(f"{'workload':<11} {'metric':<12} {'unit':<5} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'runs':>7} {'failed':>15} verdict")
    for r in rows:
        cells = [f"{r[side][1]:.6g} [{r[side][0]:.6g}, {r[side][2]:.6g}]"
                 for side in ("base", "change")]
        failed = " ".join(f"{f}/{a}" for f, a in r["failed"])
        print(f"{r['workload']:<11} {r['metric']:<12} {r['unit']:<5} {cells[0]:<34} "
              f"{cells[1]:<34} {r['runs'][0]:>3}/{r['runs'][1]:<3} {failed:>15} "
              f"{r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
