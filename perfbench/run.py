"""hdw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hdw is imported from ``src/``.
The load is a closed loop with one client in one process: each op is a
full ``hdw`` CLI command run to completion before the next starts.  The
run writes its seeded model file, times the set-up in fresh processes,
runs the ops in one more fresh process and checks every op's output.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a traced run) with ``--trace 1``.  Earlier lines
give the run's metadata and, when traced, its per-layer table.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in the workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _worker(spec_path: Path, *extra: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--spec",
                           str(spec_path), *extra],
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loadavg() -> list[float]:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def metadata() -> dict:
    import numpy as np
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def good_ops(workload, params, out_dir: Path, ops: list[dict]) -> list[bool]:
    """Per op: it exited 0 and its output is right and the same as every other op's.

    All ops of a run produce the same bytes when the program is
    deterministic, so the content check runs on the output of the last op,
    which is still on disk, and every other op must match its digest.
    """
    last = ops[-1]
    if last["rc"] != 0:
        problems = [f"exit code {last['rc']}"]
    elif last["digest"] is None:
        problems = ["output files missing"]
    else:
        problems = workload.check(params, out_dir, last["stdout"])
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    good = None if problems else last["digest"]
    return [good is not None and op["digest"] == good for op in ops]


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hdw" / "__init__.py").is_file():
        print(f"no hdw sources under {src}", file=sys.stderr)
        return 2

    load_before = _loadavg()
    meta = metadata()
    meta["loadavg_before"] = load_before
    if load_before and load_before[0] > meta["nproc"]:
        print(f"warning: run started at load average {load_before[0]} "
              f"> nproc {meta['nproc']}", file=sys.stderr)
        meta["loaded"] = True

    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench" / args.workload
    out_dir = work_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    params, model, argv_, outputs, steps = workload.make(args.seed)
    model_path = None
    if model is not None:
        model_path = work_dir / "model.json"
        model_path.write_text(json.dumps(model, indent=2, sort_keys=True) + "\n")
        argv_ = argv_ + ["--model", str(model_path), "--out", str(out_dir)]
    spec = {"src": str(src), "model": str(model_path) if model_path else None,
            "argv": argv_, "out_dir": str(out_dir), "outputs": outputs,
            "steps": steps, "spans": str(work_dir / "spans.npz")}
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")

    # the first fresh process compiles bytecode; users pay that once, so drop it
    _worker(spec_path, "--setup-only")
    setups = [_worker(spec_path, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    result = _worker(spec_path, "--seconds", str(args.seconds), "--trace", str(args.trace))
    setups.append(result["setup_s"])

    ops = result["ops"] + result.get("traced_ops", [])
    ok = good_ops(workload, params, out_dir, ops)
    failed = ok.count(False)
    meta.update(loadavg_after=_loadavg(), workload=args.workload, seed=args.seed,
                params=params, ops=len(ops), digest=ops[-1]["digest"],
                failed_ratio=failed / len(ops))

    if args.trace:
        from tracing import per_layer_metric_names
        units = per_layer_metric_names()
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in units.items()}
        for name, unit in units.items():
            if result["layers"][name]:
                print(f"layer {args.workload:<11} {name:<40} "
                      f"{result['layers'][name]:>14.6g} {unit}")
    else:
        times = [op["s"] for op in result["ops"]]
        # a failed op that ends early must not make op_s look faster
        good_times = [t for t, good in zip(times, ok) if good] or times
        values = {"op_s": statistics.median(good_times),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["maxrss_kb"] / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        meta["op_times"] = times
        meta["op_ok"] = ok
        meta["setup_times"] = setups
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
