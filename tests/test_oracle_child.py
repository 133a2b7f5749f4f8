"""verify's oracle child: the RK4 oracle runs in a forked child while the
parent sums the series, and every outcome matches the unforked run.

If the child fails, the parent runs the oracle itself, so an oracle error
surfaces with its usual exit code and message; if the parent fails first,
it kills the child. Either way no child is left unreaped.
"""

import os
import signal
import time

import pytest

from bvpseries import cli
from test_golden import CASES
from test_render import _assert_no_child_left, _count_forks, _report_cpus, _run_golden

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

_VERIFY_GOLDENS = sorted(name for name in CASES if name.startswith("verify"))

_SMALL = ["--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9", "--n", "8"]

# name -> (argv, env, {module: {constant: value}}, expected exit code)
_FAILURES = {
    # a is finite at every node but divides by zero at the midpoint 0.0625,
    # which only the oracle evaluates
    "eval_error": (["verify", "--a", "0.01/(x - 0.0625)", "--f", "1",
                    "--x1", "1", "--n", "8"], {}, {}, 4),
    "diverged": (["verify", *_SMALL], {}, {"oracle": {"OVERFLOW_GUARD": 0.5}}, 5),
    # the series stop at the cap while the child shoots
    "max_terms": (["verify", "--a", "0.9", "--f", "1", "--x1", "1.4", "--n", "64"],
                  {"SOLVER_MAX_TERMS": "2"}, {}, 2),
}


def _record_exit_codes(monkeypatch):
    codes = []
    waitpid = os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(os, "waitpid", recorded)
    return codes


def _oracle_in_child_only(monkeypatch, replacement):
    """Make the child's ``cli.oracle_fundamental`` call ``replacement``."""
    parent = os.getpid()
    real = cli.oracle_fundamental

    def oracle(*args, **kwargs):
        if os.getpid() != parent:
            return replacement(real, *args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "oracle_fundamental", oracle)


def _fail(real, *args, **kwargs):
    raise RuntimeError("oracle child forced to fail")


@pytest.mark.parametrize("name", _VERIFY_GOLDENS)
def test_golden_with_failing_oracle_child(name, capsysbinary, monkeypatch):
    _report_cpus(monkeypatch, 2)
    _oracle_in_child_only(monkeypatch, _fail)
    codes = _record_exit_codes(monkeypatch)
    _run_golden(name, capsysbinary, monkeypatch)
    assert codes == [1]


def _run_failure(name, capsys, monkeypatch):
    argv, env, patches, code = _FAILURES[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    for module, constants in patches.items():
        for constant, value in constants.items():
            monkeypatch.setattr(f"bvpseries.{module}.{constant}", value)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    _assert_no_child_left()
    return captured.out, captured.err


@pytest.mark.parametrize("name", sorted(_FAILURES))
def test_failure_is_the_same_with_and_without_the_child(name, capsys):
    results = {}
    for mode in ("fork", "no_fork", "one_cpu"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if mode == "no_fork":
                monkeypatch.delattr(os, "fork")
            else:
                _report_cpus(monkeypatch, 2 if mode == "fork" else 1)
            forks = _count_forks(monkeypatch) if mode != "no_fork" else []
            codes = _record_exit_codes(monkeypatch)
            results[mode] = _run_failure(name, capsys, monkeypatch)
            assert len(forks) == (mode == "fork")
            if mode == "fork" and name != "max_terms":
                assert codes == [1]  # the child raised; the parent raised again
    out, err = results["fork"]
    assert out == ""
    assert err.startswith("bvpseries: ") and err.count("\n") == 1
    assert results["no_fork"] == results["one_cpu"] == results["fork"]


def test_parent_failure_kills_the_running_child(capsys, monkeypatch):
    def stall(real, *args, **kwargs):
        time.sleep(60)
        return real(*args, **kwargs)

    _report_cpus(monkeypatch, 2)
    _oracle_in_child_only(monkeypatch, stall)
    codes = _record_exit_codes(monkeypatch)
    start = time.monotonic()
    _run_failure("max_terms", capsys, monkeypatch)
    assert codes == [-signal.SIGKILL]
    assert time.monotonic() - start < 30
