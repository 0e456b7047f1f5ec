"""Run the benchmark over workloads and seeds; save and print a result set.

    python3 perfbench/sweep.py --seeds 1-10 --out results.json
    python3 perfbench/sweep.py --workloads wave --seeds 1-5 --out wave.json
    python3 perfbench/sweep.py --seeds 1-10 --out base.json --root ../parent \\
        --against . --against-out change.json

Each run is ``run.py --workload W --seed N --seconds S --trace 0`` in a
checkout (``--root``, default this one), one after another, with S the
``run_seconds`` of BENCHMARK.json.  The table lists, per workload, every
end-to-end metric by name and unit with its median, quartiles and quartile
spread as a share of the median next to its bound, plus the failed-op
ratio.  With ``--against`` the runs alternate between two checkouts,
swapping which goes first at each seed, and write one result set per
checkout for compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} in {root}: exit {proc.returncode}")
    meta = next((json.loads(ln[5:]) for ln in lines if ln.startswith("meta ")), {})
    return {"workload": workload, "seed": seed, "root": str(root),
            "result": json.loads(lines[-1]), "meta": meta}


def _row(workload: str, name: str, unit: str, values: list[float], bound) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{workload:<11} {name:<12} {unit:<5} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{spread(values):>8.4f} {bound:>6} {len(values):>5}")


def table(results: dict, bench: dict) -> list[str]:
    """End-to-end metrics, then the failed-op ratio."""
    out = [f"{'workload':<11} {'metric':<12} {'unit':<5} {'median':>12} {'q1':>12} "
           f"{'q3':>12} {'spread':>8} {'bound':>6} {'runs':>5}"]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [r for r in results["runs"] if r["workload"] == workload]
        if not runs:
            continue
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            out.append(_row(workload, metric["name"], metric["unit"], values, metric["bound"]))
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        out.append(f"{workload:<11} {'failed_ratio':<12} {'1':<5} "
                   f"{failed / attempted:>12.6g}   ({failed} of {attempted} ops)")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", help="default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--root", default=str(ROOT), help="checkout to measure")
    parser.add_argument("--out", required=True, help="result set to write")
    parser.add_argument("--against", help="second checkout, run alternately")
    parser.add_argument("--against-out", help="result set of the second checkout")
    args = parser.parse_args(argv)
    if bool(args.against) != bool(args.against_out):
        parser.error("--against and --against-out go together")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sides = [(Path(args.root).resolve(), Path(args.out))]
    if args.against:
        sides.append((Path(args.against).resolve(), Path(args.against_out)))
    sets = {root: {"seconds": seconds, "runs": []} for root, _ in sides}

    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for root, _ in order:
                run = run_once(root, workload, seed, seconds)
                sets[root]["runs"].append(run)
                metrics = run["result"]["metrics"]
                print(f"{root.name}/{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)

    for root, out in sides:
        out.write_text(json.dumps(sets[root], indent=1) + "\n")
        print(f"\n{root} -> {out}")
        print("\n".join(table(sets[root], bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
