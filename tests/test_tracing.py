import os
import subprocess
import sys
from pathlib import Path

import hdw

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_tracer_finds_every_traced_name():
    # perfbench/tracing.py wraps hdw functions and methods by name, so a
    # renamed one fails every traced benchmark run; install() runs in a child
    # process because it replaces functions in the imported package
    src = str(Path(hdw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys; import hdw.cli; sys.path.insert(0, sys.argv[1]); "
            "import tracing; tracing.Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code, str(PERFBENCH)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
