"""Fresh-process side of the hdw benchmark; started by run.py, not by hand.

Times ``import hdw`` plus ``cli.load_model`` (the set-up), then runs one
workload's CLI command in a closed loop through ``hdw.cli.main`` until the
requested seconds have passed, one op at a time.  With ``--trace 1`` the
first half of the time runs untraced and the second half traced.  Prints
one JSON object on its last stdout line.

    python3 perfbench/worker.py --spec SPEC.json --seconds S --trace 0|1
    python3 perfbench/worker.py --spec SPEC.json --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(spec: dict, stdout: str) -> str | None:
    """Hash of what the op produced: its files, or its stdout for ``verify``.

    None when an output file is missing.
    """
    h = hashlib.sha256()
    if spec["outputs"]:
        for name in spec["outputs"]:
            try:
                h.update((Path(spec["out_dir"]) / name).read_bytes())
            except FileNotFoundError:
                return None
    else:
        h.update(stdout.encode())
    return h.hexdigest()


def run_ops(cli, spec: dict, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: start the next op only after the previous one ended."""
    ops = []
    loop_start = time.perf_counter()
    while not ops or time.perf_counter() - loop_start < seconds:
        # an op is judged only on the files it wrote itself
        for name in spec["outputs"]:
            (Path(spec["out_dir"]) / name).unlink(missing_ok=True)
        buf = io.StringIO()
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(spec["argv"]))
        except Exception:  # an op that crashes is a failed op, not a failed run
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
        ops.append({"s": elapsed, "rc": rc, "stdout": buf.getvalue(),
                    "digest": _digest(spec, buf.getvalue()) if rc == 0 else None})
    return ops


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())

    setup_start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import hdw  # noqa: F401  (the import is what is being timed)
    from hdw import cli
    if spec["model"]:
        cli.load_model(spec["model"])
    setup_s = time.perf_counter() - setup_start
    if not Path(hdw.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"imported hdw from {hdw.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    result["ops"] = run_ops(cli, spec, plain_seconds)
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        traced = run_ops(cli, spec, args.seconds / 2, tracer)
        result["traced_ops"] = traced
        tracer.write(spec["spans"])
        csv = Path(spec["out_dir"]) / "trajectory.csv"
        result["layers"] = layer_metrics(
            tracer, [op["s"] for op in traced], [op["s"] for op in result["ops"]],
            csv.stat().st_size if csv.exists() else 0, spec["steps"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
