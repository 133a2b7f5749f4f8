"""The process entry point, ``bvpseries.__main__.main``: ``python -m
bvpseries`` has glibc keep freed heap for reuse (``mallopt``, before numpy
is imported; importing bvpseries or calling ``cli.main`` does not), runs
``cli.main`` and exits with its code through ``os._exit``, skipping the
interpreter's teardown. Nothing a caller sees may change, whether or not
the C library has ``mallopt``: every exit code and stderr line, every
output byte through a pipe or a file, the exit code a reader that hangs up
early sees, and no child left unreaped. A closed stdout is output that
cannot be written, and a closed or full stderr loses only the messages.
The tests of these streams, of the exit codes and of --help run through
every launcher of ``launch.LAUNCHERS``: ``python -m bvpseries``,
``sys.exit(cli.main())`` and, where pip has installed it, the
``bvpseries`` script.

The exit codes and messages in ``_CASES`` were recorded from
``python -m bvpseries`` when it still left through ``sys.exit(main())`` and
sampled a and f one at a time. The error cases pin which of a and f is
blamed now that the two are sampled at the nodes as one program. The
``*_at_midpoints*`` cases fail only between nodes, where verify's RK4
oracle once sampled a and f; it steps on node pairs now and samples
nothing, so they were re-recorded as passing runs.
"""

import errno
import os
import subprocess
import sys

import pytest
from launch import LAUNCHERS, command, param
from test_golden import CASES, GOLDEN

from bvpseries import cli

_EVERY_LAUNCHER = [param(launcher=launcher) for launcher in LAUNCHERS]
# the same with ids by index, "launcher0" and on, which the tests of
# --help and of a full stdout keep
_LAUNCHER_BY_INDEX = [param(launcher=launcher, id=f"launcher{i}")
                      for i, launcher in enumerate(LAUNCHERS)]

# table name -> its rows; "short" stops at 0.5, short of x1 = 1
_TABLES = {"short": "x,v\n0,1\n0.5,2\n", "long": "x,v\n0,1\n2,2\n"}

_N8 = ["--x1", "1", "--n", "8"]

# name -> (argv, exit code, stderr); "{short}" and "{long}" are tables,
# in argv and in stderr.
# With n = 8 on [0, 1] the old RK4 midpoints are 0.0625, 0.1875, ..., 0.9375,
# where log(abs(x - 0.0625)) and 1/(x - 0.1875) fail; no node is there.
_CASES = {
    "a_fails_beside_short_f_table": (
        ["solve", "--a", "log(x - 0.5)", "--f-table", "{short}", *_N8], 4,
        "bvpseries: 'log(x - 0.5)' at x = 0.0: log(-0.5) is undefined: math domain error\n"),
    "short_a_table_beside_failing_f": (
        ["verify", "--a-table", "{short}", "--f", "log(x - 0.5)", *_N8], 4,
        "bvpseries: {short}: table spans [0.0, 0.5] but must cover [0, 1.0]\n"),
    # the error names the table that fails, not only that some table did
    "short_f_table_beside_a_table": (
        ["solve", "--a-table", "{long}", "--f-table", "{short}", *_N8], 4,
        "bvpseries: {short}: table spans [0.0, 0.5] but must cover [0, 1.0]\n"),
    "both_fail": (
        ["verify", "--a", "log(x - 0.5)", "--f", "1/(x - 0.25)", *_N8], 4,
        "bvpseries: 'log(x - 0.5)' at x = 0.0: log(-0.5) is undefined: math domain error\n"),
    "only_f_fails": (
        ["solve", "--a", "sin(x)", "--f", "1/(x - 0.25)", *_N8], 4,
        "bvpseries: '1/(x - 0.25)' at x = 0.25: division by zero at x = 0.25\n"),
    "f_fails_at_x1": (
        ["solve", "--a", "sin(x)", "--f", "1/(x-1)", "--x1", "1", "--n", "64"], 4,
        "bvpseries: '1/(x-1)' at x = 1.0: division by zero at x = 1.0\n"),
    "only_a_fails": (
        ["verify", "--a", "1/(x - 0.25)", "--f", "sin(x)", *_N8], 4,
        "bvpseries: '1/(x - 0.25)' at x = 0.25: division by zero at x = 0.25\n"),
    "both_fail_at_midpoints_a_first": (
        ["verify", "--a", "0.1*log(abs(x - 0.0625))^0", "--f", "1/(x - 0.1875)", *_N8],
        0, ""),
    "both_fail_at_midpoints_f_first": (
        ["verify", "--a", "0.1*(1/(x - 0.1875))^0", "--f", "log(abs(x - 0.0625))", *_N8],
        0, ""),
    # a fails at the last old midpoint, f at the first
    "both_fail_at_midpoints_a_later": (
        ["verify", "--a", "0.1*(1/(x - 0.9375))^0", "--f", "log(abs(x - 0.0625))", *_N8],
        0, ""),
    "only_f_fails_at_midpoints_beside_a_table": (
        ["verify", "--a-table", "{long}", "--f", "log(abs(x - 0.0625))", *_N8],
        0, ""),
    "f_overflows": (
        ["solve", "--a", "0.5", "--f", "1e308*(1+x)", *_N8], 4,
        "bvpseries: '1e308*(1+x)' at x = 0.875: non-finite intermediate value inf at x = 0.875\n"),
    "verify_passes": (
        ["verify", "--a", "0.5", "--f", "1", "--x1", "1", "--n", "16"], 0, ""),
    "not_contractive": (
        ["solve", "--a", "3", "--f", "1", "--x1", "1"], 2,
        "bvpseries: series not certified to converge: q = sup|a|*x1^2/2 = 1.5 >= 1; "
        "right endpoint must satisfy x1 < 0.816497 for sup|a| = 3\n"),
    # a bound below 1e-5, printed in significant digits
    "not_contractive_below_1e-5": (
        ["solve", "--a", "1e12", "--f", "1", *_N8], 2,
        "bvpseries: series not certified to converge: q = sup|a|*x1^2/2 = 5e+11 >= 1; "
        "right endpoint must satisfy x1 < 1.41421e-06 for sup|a| = 1e+12\n"),
    # at tol 5e-324 the terms stall at the smallest subnormals
    "term_cap": (
        ["solve", "--a", "1.98", "--f", "1", "--x1", "1", "--n", "3", "--tol", "5e-324"], 2,
        "bvpseries: series tail not certified within the term cap (cap 10000, q = 0.99; "
        "a-priori count 74599); relax the tolerance\n"),
    "verify_fails": (
        ["verify", "--a", "1.9*cos(120*x)", "--f", "1", "--x1", "1", "--n", "512"], 5,
        "bvpseries: verification failed: 3 of 21 checks: "
        "ode_residual:I1, ode_residual:I2, ode_residual:F\n"),
    "parse_error": (
        ["solve", "--a", "sin(", "--f", "1", "--x1", "1"], 4,
        "bvpseries: parse error at byte 4: expected a number, 'x', a function call, or '('\n"),
    "bad_n": (
        ["solve", "--a", "1", "--f", "1", "--x1", "1", "--n", "1"], 4,
        "bvpseries: interval count must be >= 2, got 1\n"),
}


# Children run with stdout block-buffered, as it is by default, so output
# left in the buffer at os._exit would be lost.
_ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def _run(args):
    return subprocess.run(args, capture_output=True, text=True, env=_ENV, timeout=120)


# a case through python -m bvpseries keeps the bare name of the case
@pytest.mark.parametrize("name, launcher", [
    param(name, launcher=launcher, id=name if launcher == "module" else f"{name}-{launcher}")
    for name in sorted(_CASES) for launcher in LAUNCHERS])
def test_exit_code_and_stderr_are_unchanged(name, launcher, tmp_path):
    argv, code, stderr = _CASES[name]
    tables = {}
    for key, text in _TABLES.items():
        tables[key] = tmp_path / f"{key}.csv"
        tables[key].write_text(text)
    r = _run(command(launcher, [arg.format(**tables) for arg in argv]))
    assert (r.returncode, r.stderr) == (code, stderr.format(**tables))
    assert (r.stdout == "") == (code in (2, 4))


def test_usage_error_is_unchanged():
    r = _run(command("module", ["solve", "--a", "1", "--f", "1"]))
    assert r.returncode == 4
    assert r.stderr.splitlines()[-1] == (
        "bvpseries solve: error: the following arguments are required: --x1")


def test_a_child_fails_on_a_runtime_warning():
    # conftest exports pyproject.toml's filter to every child process
    r = _run([sys.executable, "-c", "import warnings; warnings.warn('w', RuntimeWarning)"])
    assert r.returncode == 1
    assert r.stderr.endswith("RuntimeWarning: w\n")


_BULK = ["fundamental", "--a", "0.5*sin(x)", "--f", "cos(x)", "--x1", "1", "--n", "65536"]


@pytest.mark.parametrize("argv", [
    _BULK,  # 11 MB of JSON
    # 2 KB, less than the stdout buffer: only the flush sends it
    ["solve", "--a", "0.5", "--f", "1", "--x1", "1", "--n", "4"],
])
def test_payload_arrives_whole_through_a_pipe_and_a_file(argv, tmp_path):
    code, text = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    assert code == 0
    r = _run(command("module", argv))
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == text
    out = tmp_path / "out.txt"
    r = _run(command("module", [*argv, "--out", str(out)]))
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")
    assert out.read_text() == text


def _hang_up(launcher, read_first):
    """Exit code and last stderr line of a run whose reader closes stdout
    after ``read_first`` bytes (None: before the run starts)."""
    read_fd, write_fd = os.pipe()
    if read_first is None:
        os.close(read_fd)
    proc = subprocess.Popen(command(launcher, [*_BULK, "--format", "csv"]), stdout=write_fd,
                            stderr=subprocess.PIPE, env=_ENV)
    os.close(write_fd)
    if read_first is not None:
        os.read(read_fd, read_first)
        os.close(read_fd)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=120), err.strip().splitlines()[-1:]


def _cannot_write(code):
    return f"bvpseries: cannot write stdout: [Errno {code}] {os.strerror(code)}"


@pytest.mark.parametrize("read_first", [None, 10])
def test_reader_that_hangs_up_sees_the_old_exit_code(read_first):
    want = (4, [_cannot_write(errno.EPIPE)])
    assert _hang_up("module", read_first) == _hang_up("sys_exit", read_first) == want


# A full device fails the first write (the 11 MB payload) or only the flush
# (2 KB, less than the stdout buffer, or fundamental's CSV or verify's JSON
# on 48 intervals): either way one line and exit 4, as for --out, and
# nothing printed when the interpreter flushes stdout at exit.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("launcher", _LAUNCHER_BY_INDEX)
@pytest.mark.parametrize("argv", [
    _BULK,
    ["solve", "--a", "0.5", "--f", "1", "--x1", "1", "--n", "4"],
    CASES["fundamental.csv"][0],
    CASES["verify.json"][0],
])
def test_stdout_on_a_full_device_exits_4_with_one_line(launcher, argv):
    with open("/dev/full", "wb") as full:
        r = subprocess.run(command(launcher, argv), stdout=full,
                           stderr=subprocess.PIPE, text=True, env=_ENV, timeout=120)
    assert (r.returncode, r.stderr) == (4, _cannot_write(errno.ENOSPC) + "\n")


# -h and --help: the help text goes to the same sink as any output, so a
# stdout that cannot take it is one line and exit 4, through every
# launcher; a writable stdout gets argparse's text, exit 0.
@pytest.mark.parametrize("launcher", _LAUNCHER_BY_INDEX)
@pytest.mark.parametrize("argv", [["--help"], ["solve", "-h"]])
@pytest.mark.parametrize("stdout", ["pipe", "full", "closed"])
def test_help_goes_to_the_one_sink(launcher, argv, stdout, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the text to it
    args, env = command(launcher, argv), {**_ENV, "COLUMNS": "80"}
    if stdout == "pipe":
        r = subprocess.run(args, capture_output=True, env=env, timeout=120)
        with pytest.raises(cli._Help) as text:  # argparse's format_help
            cli.build_parser().parse_args(argv)
        assert (r.returncode, r.stderr, r.stdout) == (0, b"", text.value.args[0].encode())
        return
    if stdout == "closed":
        r = subprocess.run(args, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                           env=env, timeout=120)
        want = errno.EBADF
    elif not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    else:
        with open("/dev/full", "wb") as full:
            r = subprocess.run(args, stdout=full, stderr=subprocess.PIPE, env=env,
                               timeout=120)
        want = errno.ENOSPC
    assert (r.returncode, r.stderr.decode()) == (4, _cannot_write(want) + "\n")


# q = 1.125 >= 1: exit 2 before any output
_Q_ABOVE_1 = ["solve", "--a", "1", "--f", "1", "--x1", "1.5", "--n", "4"]
_NOT_CONTRACTIVE = ("bvpseries: series not certified to converge: q = sup|a|*x1^2/2 = 1.125 "
                    ">= 1; right endpoint must satisfy x1 < 1.41421 for sup|a| = 1\n")
_SOLVE = CASES["solve.json"][0]


@pytest.mark.parametrize("launcher", _EVERY_LAUNCHER)
@pytest.mark.parametrize("case", ["q_above_1", "out_file", "stdout", "fundamental.csv",
                                  "verify.json"])
def test_closed_stdout(launcher, case, tmp_path):
    out = tmp_path / "solve.json"
    closed = _cannot_write(errno.EBADF) + "\n"
    argv, code, stderr = {
        "q_above_1": (_Q_ABOVE_1, 2, _NOT_CONTRACTIVE),
        "out_file": ([*_SOLVE, "--out", str(out)], 0, ""),
        "stdout": (_SOLVE, 4, closed),
        "fundamental.csv": (CASES["fundamental.csv"][0], 4, closed),
        "verify.json": (CASES["verify.json"][0], 4, closed),
    }[case]
    r = subprocess.run(command(launcher, argv), stderr=subprocess.PIPE, text=True,
                       preexec_fn=lambda: os.close(1), env=_ENV, timeout=120)
    assert (r.returncode, r.stderr) == (code, stderr)
    if case == "out_file":
        assert out.read_bytes() == (GOLDEN / "solve.json").read_bytes()


# name -> (argv, exit code, patches); a golden case's stdout is its file.
# A case with patches runs only through the launchers that can apply them.
_STDERR_CASES = {
    "usage": (["solve", "--a", "1", "--f", "1"], 4, {}),
    "q_above_1": (_Q_ABOVE_1, 2, {}),
    "verify_failed.json": CASES["verify_failed.json"],
    "solve.json": CASES["solve.json"],
    "fundamental.csv": CASES["fundamental.csv"],
    "verify.json": CASES["verify.json"],
}


@pytest.mark.parametrize("case, stderr, launcher", [
    param(case, stderr, launcher=launcher, id=f"{case}-{stderr}-{launcher}")
    for case, (_, _, patches) in sorted(_STDERR_CASES.items())
    for stderr in ("closed", "full")
    for launcher in LAUNCHERS if not (patches and launcher == "script")])
def test_closed_or_full_stderr_loses_only_the_messages(case, stderr, launcher):
    argv, code, patches = _STDERR_CASES[case]
    args = command(launcher, argv, patches)
    if stderr == "closed":
        r = subprocess.run(args, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2),
                           env=_ENV, timeout=120)
    elif not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    else:
        with open("/dev/full", "wb") as full:
            r = subprocess.run(args, stdout=subprocess.PIPE, stderr=full, env=_ENV,
                               timeout=120)
    want = (GOLDEN / case).read_bytes() if case in CASES else b""
    assert (r.returncode, r.stdout) == (code, want)


# Runs the CLI with os._exit replaced by a check that no child of this
# process is left, running or unreaped.
_REAPED = """
import os, runpy, sys
_exit = os._exit
def checked(code):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        _exit(code)
    _exit(99)
os._exit = checked
sys.argv[0] = "bvpseries"
runpy.run_module("bvpseries", run_name="__main__")
"""


@pytest.mark.parametrize("argv, code", [
    (["verify", "--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9", "--n", "4096"], 0),
    (["fundamental", "--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9", "--n", "4096"], 0),
    # verify fails at a node while sampling, before any output
    (["verify", "--a", "0.01/(x - 0.125)", "--f", "1", "--x1", "1", "--n", "8"], 4),
])
def test_no_child_is_left_unreaped(argv, code):
    r = _run([sys.executable, "-c", _REAPED, *argv])
    assert r.returncode == code, r.stderr


# The heap policy: the process entry, and only the entry, has glibc keep
# freed memory for reuse through mallopt, before main runs. Each script
# below replaces ctypes.CDLL with a stand-in C library.
# CDLL(None), then M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3) from malloc.h
_MALLOPT_CALLS = [("CDLL", None), (-1, 1 << 30), (-3, 1 << 25)]

_LIBC = """
import ctypes, numpy, sys
calls = []
class Mallopt:
    def __call__(self, param, value):
        calls.append((param, value))
        return 1
class Libc:
    def __init__(self, name):
        calls.append(("CDLL", name))
        self.mallopt = Mallopt()
ctypes.CDLL = Libc
"""

# main replaced by one that prints the calls made before it and returns 7
_ENTRY_WITH_RECORDER = _LIBC + """
from bvpseries import __main__ as entry, cli
def main():
    print(calls, flush=True)
    return 7
cli.main = main
entry.main()
"""


def test_entry_sets_the_heap_policy_before_main_and_keeps_its_exit_code():
    r = _run([sys.executable, "-c", _ENTRY_WITH_RECORDER])
    assert (r.returncode, r.stderr) == (7, "")
    assert r.stdout == f"{_MALLOPT_CALLS}\n"


_IMPORT_AND_MAIN = _LIBC + """
import bvpseries, bvpseries.cli as cli
code = cli.main(["fundamental", "--a", "0.5", "--f", "1", "--x1", "1", "--n", "8",
                 "--out", sys.argv[1]])
print(code, open(sys.argv[1]).read().startswith("{"), calls)
"""


# python -m bvpseries from a launcher that has not imported numpy; the
# stand-in C library writes each call to stderr, with whether numpy was
# loaded when it was made
_BARE_LIBC = """
import ctypes, runpy, sys
def record(*call):
    print((*call, "numpy" in sys.modules), file=sys.stderr)
class Libc:
    def __init__(self, name):
        record("CDLL", name)
        self.mallopt = lambda param, value: record(param, value)
ctypes.CDLL = Libc
runpy.run_module("bvpseries", run_name="__main__", alter_sys=True)
"""


def test_entry_sets_the_heap_policy_before_numpy_is_imported():
    name = "fundamental.csv"
    argv, code, patches = CASES[name]
    assert (code, patches) == (0, {})
    r = subprocess.run([sys.executable, "-c", _BARE_LIBC, *argv], capture_output=True,
                       env=_ENV, timeout=120)
    assert r.returncode == 0
    assert r.stderr.decode() == "".join(f"{(*call, False)}\n" for call in _MALLOPT_CALLS)
    assert r.stdout == (GOLDEN / name).read_bytes()


def test_import_loads_no_numpy_and_every_name_resolves():
    code = ("import sys, bvpseries\n"
            "print('numpy' in sys.modules)\n"
            "from bvpseries import *\n"
            "names = bvpseries.__all__\n"
            "print(len(names), all(globals()[n] is getattr(bvpseries, n) for n in names),\n"
            "      set(names) <= set(dir(bvpseries)), 'numpy' in sys.modules)")
    r = _run([sys.executable, "-c", code])
    assert (r.returncode, r.stderr, r.stdout) == (0, "", "False\n32 True True True\n")


def test_import_and_main_leave_the_allocator_alone(tmp_path):
    r = _run([sys.executable, "-c", _IMPORT_AND_MAIN, str(tmp_path / "out.json")])
    assert (r.returncode, r.stderr, r.stdout) == (0, "", "0 True []\n")


# python -m bvpseries with a C library that has no mallopt, or that cannot
# be loaded: sys.argv[1] picks which
_WITHOUT_MALLOPT = """
import ctypes, numpy, runpy, sys
class NoMallopt:
    def __init__(self, name):
        pass
def unloadable(name):
    raise OSError("no C library")
ctypes.CDLL = {"no_mallopt": NoMallopt, "oserror": unloadable}[sys.argv.pop(1)]
runpy.run_module("bvpseries", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("libc", ["no_mallopt", "oserror"])
def test_without_mallopt_the_output_and_exit_code_are_unchanged(libc):
    argv = _CASES["verify_fails"][0]
    want = subprocess.run(command("module", argv), capture_output=True, env=_ENV,
                          timeout=120)
    got = subprocess.run([sys.executable, "-c", _WITHOUT_MALLOPT, libc, *argv],
                         capture_output=True, env=_ENV, timeout=120)
    assert want.returncode == 5 and want.stdout.startswith(b"{")
    assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout,
                                                        want.stderr)
