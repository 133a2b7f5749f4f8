"""The benchmark's per-layer tracer must keep running against this package.

bench/traced_op.py looks up layer functions by name on the package's modules
and calls them with fixed signatures, so a rename or a changed signature in
src/ breaks it without breaking any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TRACED_OP = REPO / "bench" / "traced_op.py"

_PROBLEM = ["--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9", "--n", "64",
            "--alpha", "1", "--beta", "-0.5"]


def _env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), path]))}


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_tracer_runs(command):
    argv = [command, *_PROBLEM]
    cli = subprocess.run([sys.executable, "-m", "bvpseries", *argv],
                         capture_output=True, env=_env(), timeout=120)
    traced = subprocess.run([sys.executable, str(TRACED_OP), "1", *argv],
                            capture_output=True, text=True, env=_env(), timeout=120)
    assert traced.returncode == 0, traced.stderr
    trace = json.loads(traced.stdout)
    assert trace["exit"] == cli.returncode == 0
    assert trace["out_bytes"] == len(cli.stdout)
    assert trace["failed_checks"] == []
