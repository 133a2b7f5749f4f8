"""The node-table writer: byte identity with the plain renderers, and the
paths it takes when the second half cannot be formatted in a forked child.

``cli._render`` formats float columns in whole slices and, on a machine
with two CPUs, hands the second half of the rows to a forked child. The
references below are the plain forms of the same output: ``json.dumps``
with ndarrays converted by ``tolist``, and CSV joined row by row. A new
interpreter imports ``bvpseries.cli`` without ``multiprocessing`` or
``concurrent.futures``, whose import would add to every run's start-up.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bvpseries import cli
from test_golden import CASES, GOLDEN, REPO

# Golden cases that render float columns, and so fork when they can; verify
# renders its check list, and a singular solve's CSV table is empty.
_FORKING = {name for name in CASES
            if not name.startswith("verify") and name != "solve_singular.csv"}

_PROBLEM = ["--a", "0.6*exp(-x)*tanh(x + 0.3)", "--f", "exp(x) - log(2 + x)",
            "--x1", "1.1", "--alpha", "0.7", "--beta", "-0.4"]


def _reference_json(payload):
    return json.dumps(payload, indent=2, allow_nan=False, default=np.ndarray.tolist) + "\n"


def _reference_csv(payload, table):
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines += [f"# {key}_{sub} = {subval}" for sub, subval in value.items()
                      if not isinstance(subval, list)]
        elif isinstance(value, (int, float)):
            lines.append(f"# {key} = {value}")
    header, columns = table
    lines.append(header)
    cells = [map(str, col.tolist() if isinstance(col, np.ndarray) else col)
             for col in columns]
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


def _report_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _payload(command, n):
    args = cli.build_parser().parse_args([command, *_PROBLEM, "--n", str(n)])
    payload, table, code, _ = cli._COMMANDS[command](cli.config_from_args(args))
    assert code == 0
    # One column swapped for values that print in repr's other forms.
    key = "u" if command == "solve" else "I1"
    old = payload[key]
    special = old.copy()
    special[:6] = [-0.0, 1e-05, 1e+16, 5e-324, -1.5e-300, 123456789012345.6]
    special[-3:] = [1e+22, -0.0, 2.5e-07]
    header, columns = table
    return ({**payload, key: special},
            (header, [special if col is old else col for col in columns]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("n", [4096, 4097])
@pytest.mark.parametrize("command", ["fundamental", "solve"])
def test_large_tables_match_references(command, n, cpus, monkeypatch):
    payload, table = _payload(command, n)
    _report_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    assert cli._render(payload, table, "json") == _reference_json(payload)
    assert cli._render(payload, table, "csv") == _reference_csv(payload, table)
    assert len(forks) == (2 if cpus == 2 else 0)
    _assert_no_child_left()


def _run_golden(name, capsysbinary, monkeypatch):
    argv, code, patches = CASES[name]
    for module, constants in patches.items():
        for constant, value in constants.items():
            monkeypatch.setattr(f"bvpseries.{module}.{constant}", value)
    assert cli.main(argv) == code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
    _assert_no_child_left()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_without_fork(name, capsysbinary, monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    _run_golden(name, capsysbinary, monkeypatch)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_on_one_cpu(name, capsysbinary, monkeypatch):
    _report_cpus(monkeypatch, 1)
    forks = _count_forks(monkeypatch) if hasattr(os, "fork") else []
    _run_golden(name, capsysbinary, monkeypatch)
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_with_failing_child(name, capsysbinary, monkeypatch):
    _report_cpus(monkeypatch, 2)
    parent = os.getpid()
    for fmt in ("_json_rows", "_csv_rows"):
        real = getattr(cli, fmt)

        def failing(columns, lo, hi, real=real):
            if os.getpid() != parent:
                raise RuntimeError("formatting child forced to fail")
            return real(columns, lo, hi)

        monkeypatch.setattr(cli, fmt, failing)
    exit_codes = []
    waitpid = os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        exit_codes.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(os, "waitpid", recorded)
    _run_golden(name, capsysbinary, monkeypatch)
    assert exit_codes == ([1] if name in _FORKING else [])


def test_import_loads_no_process_pool():
    code = ("import sys, bvpseries.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
