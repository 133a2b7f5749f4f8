"""Golden payloads: solve, fundamental and verify output must not change by a byte.

The files under tests/golden/ were written by the scalar, node-by-node
expression evaluation. The coefficients use exp, tanh, log and ^, whose
numpy forms differ from libm in the last bit at some of these nodes, so any
drift in how expressions are evaluated shows up here.

Two failure shapes are forced by patching a module constant, so the real
gate fires on a real problem: a singular solve (exit 3) renders the partial
report with no node table, and a failing verify (exit 5) renders its check
list with ``passed`` false.

Every case runs twice: in process through ``cli.main`` to stdout, and as a
``python -m bvpseries ... --out FILE`` child whose file is compared.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bvpseries import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

_SOLVE = ["--a", "0.6*exp(-x)*tanh(x + 0.3) + 0.1*log(1 + x)^2",
          "--f", "exp(x) - tanh(3*x)^3 + log(2 + x)^1.5",
          "--x1", "1.1", "--alpha", "0.7", "--beta", "-0.4", "--n", "48"]
_FUNDAMENTAL = ["--a", "0.8*tanh(2*x)^2 - 0.2*log(1.5 + x) + 0.1*exp(-x^2)",
                "--f", "exp(-x^2)*(1 + x)^0.5 + log(3 - x)*tanh(x)",
                "--x1", "0.9", "--n", "48"]
_SMALL = ["--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9", "--n", "8"]
_SINGULAR = {"bvp": {"SINGULAR_REL_TOL": 1e300}}
_ORACLE_FAILS = {"checks": {"ORACLE_CONST": 0.0}}

# file name -> (argv, expected exit code, {module: {constant: patched value}})
CASES = {
    "solve.json": (["solve", *_SOLVE], 0, {}),
    "solve.csv": (["solve", *_SOLVE, "--format", "csv"], 0, {}),
    "fundamental.json": (["fundamental", *_FUNDAMENTAL], 0, {}),
    "fundamental.csv": (["fundamental", *_FUNDAMENTAL, "--format", "csv"], 0, {}),
    "verify.json": (["verify", *_SOLVE], 0, {}),
    "verify.csv": (["verify", *_SOLVE, "--format", "csv"], 0, {}),
    "fundamental_neg0.json": (["fundamental", "--a", "-0", "--f", "1",
                               "--x1", "1", "--n", "16"], 0, {}),
    "solve_singular.json": (["solve", *_SMALL], 3, _SINGULAR),
    "solve_singular.csv": (["solve", *_SMALL, "--format", "csv"], 3, _SINGULAR),
    "verify_failed.json": (["verify", *_SMALL], 5, _ORACLE_FAILS),
    "verify_failed.csv": (["verify", *_SMALL, "--format", "csv"], 5, _ORACLE_FAILS),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, capsysbinary, monkeypatch):
    argv, code, patches = CASES[name]
    for module, constants in patches.items():
        for constant, value in constants.items():
            monkeypatch.setattr(f"bvpseries.{module}.{constant}", value)
    assert cli.main(argv) == code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def _child_command(argv, patches):
    """``python -m bvpseries ARGV``, with the patches applied first if any."""
    if not patches:
        return [sys.executable, "-m", "bvpseries", *argv]
    lines = ["import runpy"]
    for module, constants in patches.items():
        lines.append(f"import bvpseries.{module}")
        lines += [f"bvpseries.{module}.{constant} = {value!r}"
                  for constant, value in constants.items()]
    lines.append("runpy.run_module('bvpseries', run_name='__main__', alter_sys=True)")
    return [sys.executable, "-c", "\n".join(lines), *argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_matches_golden(name, tmp_path):
    argv, code, patches = CASES[name]
    target = tmp_path / name
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), path]))}
    r = subprocess.run(_child_command([*argv, "--out", str(target)], patches),
                       capture_output=True, env=env, timeout=120)
    assert r.returncode == code, r.stderr
    assert r.stdout == b""
    assert target.read_bytes() == (GOLDEN / name).read_bytes()
