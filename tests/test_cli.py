"""Command-line interface tests: exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bvpseries import cli
from bvpseries.bvp import SolveReport
from bvpseries.errors import SingularI2
from bvpseries.grid import MAX_INTERVALS


def run_cli(*args, env=None):
    """Run the CLI in a child process; ``env`` is layered over ``os.environ``.

    Merging rather than replacing keeps ``PYTHONPATH`` and the like, so the
    child imports the same (possibly uninstalled) package as the tests do.
    """
    cmd = [sys.executable, "-m", "bvpseries", *args]
    return subprocess.run(cmd, capture_output=True, text=True,
                          env={**os.environ, **(env or {})}, timeout=120)


def run_main(capsys, *args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_linear_problem(self):
        r = run_cli("solve", "--a", "0", "--f", "0", "--x1", "1",
                    "--alpha", "2", "--beta", "3", "--n", "8")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        nodes = np.array(payload["nodes"])
        assert np.array_equal(payload["u"], 2.0 + 3.0 * nodes)
        assert payload["c1"] == 3.0
        assert payload["c2"] == 2.0
        assert payload["report"]["boundary_err"] == [0.0, 0.0]
        assert all(c["passed"] for c in payload["report"]["bound_checks"])

    def test_default_boundary_data(self, capsys):
        code, out, _ = run_main(capsys, "solve", "--a", "1", "--f", "1",
                                "--x1", "1", "--n", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["u"][0] == 0.0
        assert payload["du"][-1] == 0.0

    def test_deterministic_output(self):
        args = ("solve", "--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9",
                "--alpha", "0.25", "--beta", "-1.5", "--n", "128")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_csv_format(self, capsys):
        code, out, _ = run_main(capsys, "solve", "--a", "0", "--f", "0",
                                "--x1", "1", "--beta", "1", "--n", "4",
                                "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "x,u,du"
        assert lines[1] == "0.0,0.0,1.0"
        assert lines[-1] == "1.0,1.0,1.0"
        assert any(l.startswith("# q = ") for l in out.splitlines())

    def test_out_file(self, tmp_path):
        target = tmp_path / "run.json"
        r = run_cli("solve", "--a", "0", "--f", "1", "--x1", "1",
                    "--n", "16", "--out", str(target))
        assert r.returncode == 0
        assert r.stdout == ""
        payload = json.loads(target.read_text())
        assert payload["n"] == 16

    def test_stops_at_measured_tail(self, capsys):
        # q = 0.99: the a-priori count assumes every term shrinks by q, the
        # measured terms shrink by about 0.8
        code, out, _ = run_main(capsys, "solve", "--a", "1.98", "--f", "1",
                                "--x1", "1", "--n", "1024")
        assert code == 0
        payload = json.loads(out)
        assert payload["terms_apriori"] == {"I1": 2819, "I2": 2819, "F": 2750}
        assert all(t <= 130 for t in payload["terms"].values())
        assert all(t <= 1e-10 for t in payload["tails"].values())
        assert list(payload)[:6] == ["x1", "n", "tol", "q", "terms", "terms_apriori"]

    def test_table_coefficient(self, tmp_path, capsys):
        table = tmp_path / "a.csv"
        table.write_text("x,a\n0.0,1.0\n1.0,1.0\n")
        code, out, _ = run_main(capsys, "solve", "--a-table", str(table),
                                "--f", "0", "--x1", "1", "--beta", "1",
                                "--n", "64")
        assert code == 0
        code2, out2, _ = run_main(capsys, "solve", "--a", "1", "--f", "0",
                                  "--x1", "1", "--beta", "1", "--n", "64")
        assert json.loads(out)["u"] == json.loads(out2)["u"]


class TestFundamental:
    def test_payload_columns(self, capsys):
        code, out, _ = run_main(capsys, "fundamental", "--a", "0", "--f", "1",
                                "--x1", "1", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["I1"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert payload["I2"] == [1.0] * 5
        assert payload["dI1"] == [1.0] * 5
        nodes = np.array(payload["nodes"])
        assert np.allclose(payload["F"], nodes ** 2 / 2.0 - nodes, atol=1e-15)

    def test_csv_header(self, capsys):
        code, out, _ = run_main(capsys, "fundamental", "--a", "1", "--f", "0",
                                "--x1", "1", "--n", "8", "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "x,I1,I2,F,dI1,dI2,dF"


class TestVerify:
    def test_fine_grid_passes(self):
        # the second difference at n = 65536 is dominated by rounding, which
        # the ode_residual limit must admit
        r = run_cli("verify", "--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9",
                    "--n", "65536")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["passed"] is True

    def test_long_interval_passes(self):
        # x1 > 1: sup|I1| is bounded by x1 / (1 - q), not 1 / (1 - q)
        r = run_cli("verify", "--a", "0.1", "--f", "1", "--x1", "1.3")
        assert r.returncode == 0, r.stderr
        checks = {c["name"]: c for c in json.loads(r.stdout)["checks"]}
        assert checks["sup_bound:I1"]["passed"]

    def test_smooth_problem_passes(self):
        r = run_cli("verify", "--a", "sin(x)", "--f", "1", "--x1", "0.9",
                    "--n", "512", "--alpha", "1", "--beta", "-0.5")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["passed"] is True
        assert payload["max_rel_err"] < 1e-5
        assert len(payload["checks"]) == 23
        names = {c["name"] for c in payload["checks"]}
        assert "fixed_point" in names
        assert "oracle_agreement" in names
        assert "wronskian_constant" in names

    def test_verify_csv(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--a", "0.5", "--f", "x",
                                "--x1", "1", "--n", "256", "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "name,passed,value,limit"
        assert len(rows) == 24


class TestExitCodes:
    def test_not_contractive(self):
        r = run_cli("solve", "--a", "1", "--f", "0", "--x1", "1.5")
        assert r.returncode == 2
        assert "1.41421" in r.stderr

    def test_max_terms_env_cap(self):
        r = run_cli("solve", "--a", "1.98", "--f", "0", "--x1", "1", "--n", "64",
                    env={"SOLVER_MAX_TERMS": "5"})
        assert r.returncode == 2
        assert "cap 5" in r.stderr

    def test_env_cap_counts_summed_terms(self):
        # q = 0.99: the a-priori count is 2819, but the measured tail meets
        # tol after about 128 terms, so a cap of 200 is enough
        r = run_cli("solve", "--a", "1.98", "--f", "1", "--x1", "1", "--n", "64",
                    env={"SOLVER_MAX_TERMS": "200"})
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["terms_apriori"]["I1"] == 2819
        assert all(t <= 200 for t in payload["terms"].values())

    @pytest.mark.parametrize("command", ["solve", "fundamental", "verify"])
    def test_overflowing_forcing_prints_one_line(self, command):
        # f = 1e308 overflows the first trapezoid pass of g; numpy must not
        # warn about it, since compute_g reports it
        r = run_cli(command, "--a", "0.5", "--f", "1e308", "--x1", "1", "--n", "8")
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr == ("bvpseries: the forcing's double integral g overflowed, "
                            "although every node of f is finite\n")

    @pytest.mark.parametrize("x1, n, square", [
        ("1e-160", "1024", "x1*x1 = 1e-320"),
        ("1.5e154", "8", "x1*x1 = inf"),
        ("1e160", "8", "x1*x1 = inf"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_extreme_x1_is_refused_in_every_format(self, x1, n, square, fmt):
        # once a crash on nan in JSON, a nan residual in CSV, or a blamed
        # forcing for f = 0
        r = run_cli("solve", "--a", "1", "--f", "0", "--x1", x1, "--n", n, "--format", fmt)
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr.startswith(f"bvpseries: {square} is not a normal finite float")
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("flags", [["--alpha", "1e308"], ["--alpha", "8e307", "--n", "4096"],
                                       ["--beta=-1e308"]])
    def test_overflowing_boundary_data_prints_one_line(self, command, flags):
        # u = beta*I1 + alpha*I2 + F overflows (or B u in the residual does);
        # numpy must not warn, and the message names alpha and beta
        r = run_cli(command, "--a", "1", "--f", "1", "--x1", "1", *flags)
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr.startswith("bvpseries: alpha = ")
        assert r.stderr.endswith(" are too large: the solution or its residual overflows\n")
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--tol", "5e-324"], ["--f", "1e300", "--tol", "1e-300"]])
    def test_tiny_tol_or_huge_forcing(self, capsys, flags):
        # the a-priori budget tol*(1-q)/(2*seed_sup) underflows to 0 here
        code, out, err = run_main(capsys, "solve", "--a", "1", "--f", "1", "--x1", "1",
                                  "--n", "8", *flags)
        assert code == 0, err
        payload = json.loads(out)
        for name in ("I1", "I2", "F"):
            assert payload["terms"][name] <= payload["terms_apriori"][name]
            assert payload["tails"][name] <= payload["tol"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flags, named", [
        (["--tol", "1e308"], "--tol = 1e+308, --alpha = 0.0, --beta = 0.0"),
        (["--tol", "1e300", "--alpha", "1e9"],
         "--tol = 1e+300, --alpha = 1000000000.0, --beta = 0.0"),
    ])
    def test_overflowing_check_limit(self, capsys, flags, named, fmt):
        # a limit of inf once crashed the JSON renderer and printed inf in CSV
        args = ("--a", "1", "--f", "1", "--x1", "1", "--n", "8", *flags, "--format", fmt)
        code, out, err = run_main(capsys, "verify", *args)
        assert code == 4
        assert out == ""
        assert err == f"bvpseries: the limit of fixed_point overflows at {named}\n"
        # solve has no such limits: it still succeeds
        code, out, err = run_main(capsys, "solve", *args)
        assert code == 0, err
        assert out

    def test_bad_env_cap(self):
        r = run_cli("solve", "--a", "1", "--f", "0", "--x1", "1",
                    env={"SOLVER_MAX_TERMS": "abc"})
        assert r.returncode == 4

    def test_n_beyond_memory_budget(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated for a refused n")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_main(capsys, "solve", "--a", "1", "--f", "0",
                                  "--x1", "1", "--n", str(MAX_INTERVALS + 1))
        assert code == 4
        assert out == ""
        assert "memory budget" in err

    def test_singular_solve(self, capsys, monkeypatch):
        report = SolveReport(u=None, du=None, c1=1.0, c2=1.0,
                             boundary_err=None, residual_max=None,
                             wronskian_dev=0.0, i2_at_x1=0.0,
                             bound_checks=(), fixedpoint_err=None)

        def fake_solve(sol, prob):
            raise SingularI2(0.0, 1e-8, report=report)

        monkeypatch.setattr(cli, "solve_problem_d", fake_solve)
        code, out, err = run_main(capsys, "solve", "--a", "1", "--f", "0",
                                  "--x1", "1", "--n", "16")
        assert code == 3
        payload = json.loads(out)
        assert payload["u"] is None
        assert "cannot be certified" in err

    @pytest.mark.parametrize("args", [
        ("solve", "--a", "2*", "--f", "0", "--x1", "1"),
        ("solve", "--a", "tan(x)", "--f", "0", "--x1", "1"),
        ("solve", "--a", "1", "--f", "0", "--x1", "-3"),
        ("solve", "--a", "1", "--f", "0", "--x1", "0"),
        ("solve", "--a", "1", "--f", "0", "--x1", "nan"),
        ("solve", "--a", "1/(x - 0.5)", "--f", "0", "--x1", "1"),
        ("verify", "--a", "1", "--f", "0", "--x1", "1", "--n", "1"),
    ])
    def test_bad_input(self, args):
        assert run_cli(*args).returncode == 4

    @pytest.mark.parametrize("args", [
        ("solve", "--f", "0", "--x1", "1"),
        ("solve", "--a", "1", "--x1", "1"),
        ("solve", "--a", "1", "--f", "0"),
        ("frobnicate", "--a", "1", "--f", "0", "--x1", "1"),
        (),
        ("solve", "--a", "--f", "1", "--x1", "1"),  # an option is never a value
    ])
    def test_usage_errors(self, args):
        assert run_cli(*args).returncode == 4

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("flag, value", [
        ("--a", "-x"), ("--f", "-sin(x)"), ("--x1", "-1e-3"), ("--alpha", "-2.5e+3"),
        ("--beta", "-1e-3"), ("--tol", "-1e-3"), ("--n", "-8"),
    ])
    def test_option_values_may_start_with_minus(self, capsys, command, flag, value):
        # argparse alone takes -1e-3, -x and -sin(x) for options and refuses
        # them as values; the split and the = form must agree
        base = {"--a": "1", "--f": "1", "--x1": "1", "--n": "8"}
        base.pop(flag, None)
        args = [command, *(item for pair in base.items() for item in pair)]
        split = run_main(capsys, *args, flag, value)
        joined = run_main(capsys, *args, f"{flag}={value}")
        assert split == joined
        assert "expected one argument" not in split[2]
        if flag == "--tol":
            assert split[0] == 4
            assert split[2] == "bvpseries: --tol must be positive, got -0.001\n"
        if flag in ("--a", "--f", "--alpha", "--beta"):
            assert split[0] == 0, split[2]

    def test_conflicting_sources(self, tmp_path):
        table = tmp_path / "a.csv"
        table.write_text("0,1\n1,1\n")
        r = run_cli("solve", "--a", "1", "--a-table", str(table),
                    "--f", "0", "--x1", "1")
        assert r.returncode == 4

    def test_table_not_covering_domain(self, tmp_path):
        table = tmp_path / "a.csv"
        table.write_text("0,1\n0.5,1\n")
        r = run_cli("solve", "--a-table", str(table), "--f", "0", "--x1", "1")
        assert r.returncode == 4

    def test_unreadable_table(self):
        r = run_cli("solve", "--a-table", "/nonexistent/a.csv",
                    "--f", "0", "--x1", "1")
        assert r.returncode == 4

    def test_out_to_bad_path(self):
        r = run_cli("solve", "--a", "0", "--f", "0", "--x1", "1",
                    "--out", "/nonexistent/dir/run.json")
        assert r.returncode == 4
