"""The node-table writer: byte identity with the plain renderers, block by
block, in this process.

``cli._pieces`` formats float columns with ``shortest.rows`` (whose bytes
are repr's for every finite float, and whose blocks and seams
tests/test_shortest.py checks alone) and writes the JSON and CSV syntax
around them. The references below are the plain forms of the same output:
``json.dumps`` with ndarrays converted by ``tolist``, and CSV joined row
by row with ``str``; ``cli.main`` writes, a run of blocks at a time, the
text the pieces join to. A new interpreter imports
``bvpseries.cli`` without ``multiprocessing``, ``concurrent.futures``,
``dataclasses`` or ``csv``, whose import would add to every run's
start-up, and without the kernel, which only runs that render float
columns import.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bvpseries import cli, shortest
from launch import peak_kib
from test_golden import REPO

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


def _rendered(payload, table, output_format):
    """The whole text of ``cli._pieces``, joined."""
    return b"".join(cli._pieces(payload, table, output_format)).decode()


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


@pytest.mark.parametrize("kilorows", [2, 1])
@pytest.mark.parametrize("n", [4096, 4097])
@pytest.mark.parametrize("command", ["fundamental", "solve"])
def test_large_tables_match_references(command, n, kilorows, monkeypatch):
    # blocks of at most 1024 * kilorows cells: a JSON column's n + 1 rows
    # are cut into 3 or 5 blocks of 819 to 1366 rows, odd and even lengths,
    # where blocks of exactly that many rows would end in a tail of one row
    # or two; CSV tables of w columns in blocks of at most BLOCK // w rows
    payload, table = _payload(command, n)
    monkeypatch.setattr(shortest, "BLOCK", 1024 * kilorows)
    assert _rendered(payload, table, "json") == _reference_json(payload)
    assert _rendered(payload, table, "csv") == _reference_csv(payload, table)


@pytest.mark.parametrize("command", ["fundamental", "solve"])
def test_tables_at_the_block_size_match_references(command):
    # n = 65536: a JSON column is 5 blocks, fundamental's CSV table 29
    payload, table = _payload(command, 65536)
    assert _rendered(payload, table, "json") == _reference_json(payload)
    assert _rendered(payload, table, "csv") == _reference_csv(payload, table)


def test_runs_end_on_mebibyte_boundaries():
    # pieces of several sizes, as blocks of JSON and CSV are; every run but
    # the last is a whole number of mebibytes, whatever the pieces' sizes
    rng = np.random.default_rng(5)
    pieces = [bytes([65 + k % 26]) * int(size)
              for k, size in enumerate(rng.integers(1, 3 << 20, size=12))]
    runs = [bytes(run) for run in cli._runs(iter(pieces))]
    assert b"".join(runs) == b"".join(pieces)
    assert len(runs) > 3
    assert all(len(run) % (1 << 20) == 0 and run for run in runs[:-1])
    assert len(runs[-1]) < 1 << 20


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_main_writes_what_render_returns(output_format, capfdbinary):
    # main writes the blocks as they are made, in runs of a megabyte or
    # more: at n = 65536 a fundamental table is several runs of many blocks
    argv = ["fundamental", *_PROBLEM, "--n", "65536", "--format", output_format]
    assert cli.main(argv) == 0
    payload, table, _, _ = cli._COMMANDS["fundamental"](
        cli.config_from_args(cli.build_parser().parse_args(argv)))
    want = _rendered(payload, table, output_format)
    assert len(want) > 5 << 20
    assert capfdbinary.readouterr().out == want.encode()


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_constant_columns_match_references(output_format, capfdbinary):
    # a = f = 0: I2 is all 1.0 and F, dF all 0.0, columns the kernel gives
    # repr's own digits, one call per block
    argv = ["fundamental", "--a", "0", "--f", "0", "--x1", "1", "--n", "4096",
            "--format", output_format]
    assert cli.main(argv) == 0
    payload, table, _, _ = cli._COMMANDS["fundamental"](
        cli.config_from_args(cli.build_parser().parse_args(argv)))
    assert (payload["I2"] == 1.0).all() and not payload["F"].any() and not payload["dF"].any()
    want = (_reference_json(payload) if output_format == "json"
            else _reference_csv(payload, table))
    assert capfdbinary.readouterr().out == want.encode()


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout's
    bvpseries; return its stdout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_import_loads_no_process_pool():
    code = ("import sys, bvpseries.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert _fresh_python(code) == "[]\n"


def test_import_generates_no_code_and_loads_no_csv_reader(tmp_path):
    # the record classes are plain slotted classes, so no dataclass source
    # is built and exec-compiled at start-up; csv is imported by the one
    # reader of tables, which --a-table still reaches
    table = tmp_path / "a.csv"
    table.write_text("x,a\n0,0.5\n1,0.5\n")
    out = tmp_path / "out.json"
    code = ("import sys, bvpseries.cli as cli\n"
            "print(sorted(m for m in ('dataclasses', 'csv') if m in sys.modules))\n"
            "argv = ['solve', '--a-table', sys.argv[1], '--f', '1', '--x1', '1', '--n', '8',\n"
            "        '--out', sys.argv[2]]\n"
            "assert cli.main(argv) == 0\n"
            "print('csv' in sys.modules)")
    assert _fresh_python(code, str(table), str(out)) == "[]\nTrue\n"
    assert out.read_text().startswith("{")


def test_digit_kernel_loads_only_to_render_float_columns():
    # import bvpseries.cli neither imports shortest nor builds its tables;
    # verify, which renders no float columns, leaves it unloaded too
    code = ("import os, sys, bvpseries.cli as cli\n"
            "loaded = ['bvpseries.shortest' in sys.modules]\n"
            "argv = ['--a', 'sin(x)', '--f', '1', '--x1', '1', '--n', '8', '--out', os.devnull]\n"
            "for command in ('verify', 'fundamental'):\n"
            "    assert cli.main([command, *argv]) == 0\n"
            "    loaded.append('bvpseries.shortest' in sys.modules)\n"
            "print(loaded)")
    assert _fresh_python(code) == "[False, False, True]\n"


# README "Caveats": how much each command's peak resident memory grows per
# node, in KiB, from n = 1024 to 2**18. fundamental writes its text block
# by block (whole-table blocks or a joined text were 0.14 KiB or more per
# node in either format); verify frees the oracle's arrays before u and u'
# exist (0.154 KiB per node when it held them all at once, and solve 0.126).
_DOCUMENTED_KIB_PER_NODE = {
    ("fundamental", "json"): 0.09,
    ("fundamental", "csv"): 0.09,
    ("solve", "json"): 0.11,
    ("verify", "json"): 0.12,
}


_PROBLEM = ("--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9")
# solve's long series, scanned: at q = 0.99 at n = 1024, while at 2**18
# the scan's defect bound misses tol and the series are summed after it;
# at q = 0.8 at both n
_SCANNED = {"q0.99": ("--a", "1.98", "--f", "exp(-x)", "--x1", "1"),
            "q0.8": ("--a", "1.6*cos(3*x)", "--f", "exp(-x)", "--x1", "1")}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("command, output_format, problem", [
    *(pytest.param(*key, _PROBLEM, id="-".join(key)) for key in _DOCUMENTED_KIB_PER_NODE),
    *(pytest.param("solve", "json", problem, id=f"solve-json-{q}")
      for q, problem in _SCANNED.items()),
])
def test_peak_memory_stays_at_the_documented_figure(command, output_format, problem):
    # the growth from n = 1024 to 2**18 leaves out the interpreter's own
    peaks = [peak_kib([command, *problem, "--n", str(n), "--format", output_format,
                       "--out", os.devnull])
             for n in (1024, 2**18)]
    per_node = (peaks[1] - peaks[0]) / (2**18 - 1024)
    assert per_node <= 1.1 * _DOCUMENTED_KIB_PER_NODE[command, output_format], peaks


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_odd_n_copies_no_oracle_coefficients():
    # the oracle's pair steps read a and f through views at odd n as at even
    # n, and its odd step is a block of its own: a gathered copy of a and f
    # and an appended midpoint array would add about 3 MiB at n = 2**18 + 1
    peaks = [peak_kib(["verify", "--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9",
                       "--n", str(n), "--out", os.devnull]) for n in (2**18, 2**18 + 1)]
    assert abs(peaks[1] - peaks[0]) <= 1024, peaks
