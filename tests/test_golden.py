"""Golden payloads: solve, fundamental and verify output must not change by a byte.

The files under tests/golden/ were written by the scalar, node-by-node
expression evaluation. The coefficients use exp, tanh, log and ^, whose
numpy forms differ from libm in the last bit at some of these nodes, so any
drift in how expressions are evaluated shows up here.

One failure shape is forced by patching a module constant, so the real
check fails on a real problem: a failing verify (exit 5) renders its check
list with ``passed`` false.

Every case runs twice: in process through ``cli.main`` to file descriptor
1, and as a ``python -m bvpseries ... --out FILE`` child whose file is
compared. Where
numpy links an OpenBLAS that picks its kernels by CPU at run time, all
cases, and a solve that the series scan serves, also run under the default
kernels and under the oldest x86-64 ones (no FMA): no BLAS call may change
a byte.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from launch import command

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
    "verify_failed.json": (["verify", *_SMALL], 5, _ORACLE_FAILS),
    "verify_failed.csv": (["verify", *_SMALL, "--format", "csv"], 5, _ORACLE_FAILS),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, capfdbinary, monkeypatch):
    argv, code, patches = CASES[name]
    for module, constants in patches.items():
        for constant, value in constants.items():
            monkeypatch.setattr(f"bvpseries.{module}.{constant}", value)
    assert cli.main(argv) == code
    assert capfdbinary.readouterr().out == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_matches_golden(name, tmp_path):
    argv, code, patches = CASES[name]
    target = tmp_path / name
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), path]))}
    r = subprocess.run(command("module", [*argv, "--out", str(target)], patches),
                       capture_output=True, env=env, timeout=120)
    assert r.returncode == code, r.stderr
    assert r.stdout == b""
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


def _openblas_dynamic_arch() -> bool:
    """Whether numpy reports an x86-64 OpenBLAS built to choose its kernels
    at run time, which OPENBLAS_CORETYPE then overrides."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


# Runs every case in one interpreter, each to its own --out file, with its
# patches applied only while it runs; prints the exit codes as JSON.
_ALL_CASES = """
import importlib, json, sys
from bvpseries import cli
codes = []
for argv, patches in json.loads(sys.argv[1]):
    saved = []
    for module, constants in patches.items():
        mod = importlib.import_module("bvpseries." + module)
        for constant, value in constants.items():
            saved.append((mod, constant, getattr(mod, constant)))
            setattr(mod, constant, value)
    codes.append(cli.main(argv))
    for mod, constant, value in saved:
        setattr(mod, constant, value)
print(json.dumps(codes))
"""


# A solve at q = 0.99 that the scan serves (three blocks of steps); it has
# no golden file, so each kernel's output is compared with this process's.
_SCANNED = ["solve", "--a", "1.98*cos(3*x)", "--f", "exp(-x)", "--x1", "1", "--n", "9000"]


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="needs numpy on an x86-64 OpenBLAS DYNAMIC_ARCH build")
@pytest.mark.parametrize("coretype", [None, "Prescott"])
def test_goldens_do_not_depend_on_blas_kernels(coretype, tmp_path, capfdbinary):
    names = sorted(CASES)
    cases = [([*CASES[name][0], "--out", str(tmp_path / name)], CASES[name][2])
             for name in names] + [([*_SCANNED, "--out", str(tmp_path / "scanned")], {})]
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), path]))}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    r = subprocess.run([sys.executable, "-c", _ALL_CASES, json.dumps(cases)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [CASES[name][1] for name in names] + [0]
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert cli.main(_SCANNED) == 0
    scanned = capfdbinary.readouterr().out
    assert json.loads(scanned)["terms"] == {"I1": 0, "I2": 0, "F": 0}
    assert (tmp_path / "scanned").read_bytes() == scanned


@pytest.mark.parametrize("name", ["solve.json", "fundamental.csv", "verify_failed.csv"])
def test_stdout_is_the_golden_whatever_the_stream_encoding(name, tmp_path):
    # the payload is written as bytes, past the text layer whose encoding
    # PYTHONIOENCODING sets; through a pipe it equals the --out file
    argv, code, patches = CASES[name]
    target = tmp_path / name
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONIOENCODING": "utf-16",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), path]))}
    piped = subprocess.run(command("module", argv, patches), capture_output=True, env=env,
                           timeout=120)
    written = subprocess.run(command("module", [*argv, "--out", str(target)], patches),
                             capture_output=True, env=env, timeout=120)
    assert (piped.returncode, written.returncode, written.stdout) == (code, code, b"")
    assert piped.stdout == target.read_bytes() == (GOLDEN / name).read_bytes()
