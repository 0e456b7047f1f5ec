"""README.md is executed: its Python tour runs, and its model file goes
through ``hdw bracket`` and ``hdw simulate``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hdw

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    """The first fenced block of ``language`` in README.md."""
    match = re.search(rf"^```{language}\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert match, f"README.md has no {language} block"
    return match.group(1)


def _run(argv: list[str], cwd) -> subprocess.CompletedProcess:
    src = str(Path(hdw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_the_python_tour_runs(tmp_path):
    proc = _run(["-c", _block("python")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and lines[0] == "p1_1^2 - p2_1^2", proc.stdout


@pytest.mark.parametrize("command", [["bracket", "--at", "x1=0,u1=1,p1_1=2"],
                                     ["simulate", "--out", "run"]], ids=["bracket", "simulate"])
def test_the_model_file_runs(command, tmp_path):
    model = json.loads(_block("json"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    proc = _run(["-m", "hdw.cli", command[0], "--model", str(path), *command[1:]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    if command[0] == "bracket":
        assert proc.stdout.startswith("action: ")
    else:
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "manifest.json", "trajectory.csv"]
