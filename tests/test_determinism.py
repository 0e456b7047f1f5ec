"""Output does not depend on hash randomization.

The canonical order of expressions is a pure function of their
structure, so ``hdw bracket`` and ``hdw simulate`` print and write the
same bytes under any PYTHONHASHSEED.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hdw

SRC = str(Path(hdw.__file__).resolve().parents[1])

BRACKET_MODEL = {
    "name": "mixed",
    "chart": {"m": 2, "n": 2},
    "hamiltonian": "p1_1*p2_2 + sin(u1*x2)*p2_1 + exp(u2/2)*p1_2^2 "
                   "+ u1^2*u2/(1 + x1^2) + ln(2 + u2^2) - sqrt(4 + u1^2)",
    "currents": [
        {"name": "a", "Y": ["u1*u2 + x1", "cos(u2)"], "beta": ["x2*u1^2", "u2/(1 + u1^2)"]},
        {"name": "b", "Y": ["exp(x1)*u2", "u1 - u2"], "beta": ["sin(u1 + u2)", "x1*x2"]},
    ],
}

WAVE_MODEL = {
    "model": "wave",
    "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
    "solver": {"dt": 0.04908738521234052, "t_final": 0.2, "K": 32,
               "dx": 0.19634954084936207},
}


def _run(args, cwd, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "hdw.cli", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_output_is_independent_of_hash_seed(tmp_path):
    (tmp_path / "mixed.json").write_text(json.dumps(BRACKET_MODEL))
    (tmp_path / "wave.json").write_text(json.dumps(WAVE_MODEL))
    outputs = []
    for seed in (0, 1):
        out = tmp_path / f"run{seed}"
        stdout = _run(["bracket", "--model", "mixed.json", "--at",
                       "x1=0.1,x2=0.2,u1=0.3,u2=0.4,p1_1=0.5,p1_2=0.6,p2_1=0.7,p2_2=0.8"],
                      tmp_path, seed)
        stdout += _run(["simulate", "--model", "wave.json", "--out", str(out)], tmp_path, seed)
        outputs.append((stdout.replace(str(out).encode(), b"<out>"),
                        (out / "trajectory.csv").read_bytes(),
                        (out / "manifest.json").read_bytes()))
    assert b"a: " in outputs[0][0] and b"b: " in outputs[0][0]
    assert outputs[0] == outputs[1]


def test_verification_report_is_independent_of_hash_seed(tmp_path):
    # the residuals are composed and evaluated on normal forms; their order
    # of evaluation must not follow set or dict hash order
    reports = []
    for seed in (0, 1):
        out = tmp_path / f"verify{seed}"
        _run(["verify", "--seed", "3", "--out", str(out)], tmp_path, seed)
        reports.append((out / "verification.json").read_bytes())
    assert b'"representation_identity"' in reports[0]
    assert reports[0] == reports[1]
