"""Command-line interface tests: exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bvpseries import cli, expr, grid
from bvpseries.bvp import ProblemD, solve_problem_d
from bvpseries.grid import MAX_INTERVALS
from bvpseries.series_core import contraction_ratio, fundamental_system
from test_grid import MALFORMED_TABLES


def run_cli(*args):
    """Run the CLI in a child process. It inherits ``os.environ``, and with
    it ``PYTHONPATH`` and the like, so it imports the same (possibly
    uninstalled) package as the tests do."""
    cmd = [sys.executable, "-m", "bvpseries", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def run_main(capfd, *args):
    """In-process invocation; returns (exit_code, stdout, stderr), captured
    at file descriptors 1 and 2, where ``cli.main`` writes."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out = capfd.readouterr()
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

    def test_default_boundary_data(self, capfd):
        code, out, _ = run_main(capfd, "solve", "--a", "1", "--f", "1",
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

    def test_csv_format(self, capfd):
        code, out, _ = run_main(capfd, "solve", "--a", "0", "--f", "0",
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

    def test_long_series_are_scanned(self, capfd):
        # q = 0.99, a-priori counts of 2,750 and more: solve takes the
        # scan, which sums no term, and reports its defect bounds as tails
        args = ["--a", "1.98", "--f", "1", "--x1", "1", "--n", "1024"]
        code, out, _ = run_main(capfd, "solve", *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == {"I1": 0, "I2": 0, "F": 0}
        assert payload["terms_apriori"] == {"I1": 2819, "I2": 2819, "F": 2750}
        assert all(t <= 1e-10 for t in payload["tails"].values())
        assert [c["value"] for c in payload["report"]["bound_checks"]][::2] == [0.0] * 3
        config = cli.config_from_args(cli.build_parser().parse_args(["solve", *args]))
        a, f = grid.sample_together((config.a_spec, config.f_spec), grid.make_grid(1.0, 1024))
        summed = fundamental_system(a, f, contraction_ratio(a.sup, 1.0))
        u = solve_problem_d(summed, ProblemD(0.0, 0.0)).u.values
        assert np.max(np.abs(np.array(payload["u"]) - u)) <= 1e-11

    def test_a_missed_scan_keeps_the_term_cap_refusal(self, capfd):
        # the scan's defect bound misses tol 5e-324; the sums then stop at
        # the cap, as verify's do
        argv, _, code, message = _VERIFY_FAILURES["max_terms"]
        assert run_main(capfd, "solve", *argv[1:]) == (code, "", message)

    def test_table_coefficient(self, tmp_path, capfd):
        table = tmp_path / "a.csv"
        table.write_text("x,a\n0.0,1.0\n1.0,1.0\n")
        code, out, _ = run_main(capfd, "solve", "--a-table", str(table),
                                "--f", "0", "--x1", "1", "--beta", "1",
                                "--n", "64")
        assert code == 0
        code2, out2, _ = run_main(capfd, "solve", "--a", "1", "--f", "0",
                                  "--x1", "1", "--beta", "1", "--n", "64")
        assert json.loads(out)["u"] == json.loads(out2)["u"]


class TestFundamental:
    def test_payload_columns(self, capfd):
        code, out, _ = run_main(capfd, "fundamental", "--a", "0", "--f", "1",
                                "--x1", "1", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["I1"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert payload["I2"] == [1.0] * 5
        assert payload["dI1"] == [1.0] * 5
        nodes = np.array(payload["nodes"])
        assert np.allclose(payload["F"], nodes ** 2 / 2.0 - nodes, atol=1e-15)

    def test_csv_header(self, capfd):
        code, out, _ = run_main(capfd, "fundamental", "--a", "1", "--f", "0",
                                "--x1", "1", "--n", "8", "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "x,I1,I2,F,dI1,dI2,dF"


_SMALL = ["--a", "sin(x)", "--f", "exp(-x)", "--x1", "0.9", "--n", "8"]

# name -> (argv, {attribute: patched value}, exit code, stderr)
_VERIFY_FAILURES = {
    # the oracle's state passes a lowered guard at the first step end
    "diverged": (["verify", *_SMALL], {"bvpseries.oracle.OVERFLOW_GUARD": 0.5}, 5,
                 "bvpseries: verification aborted: initial-value state exceeded 0.5 "
                 "times its scale at x = 0.225\n"),
    # the oracle runs before the solve, but the solve's failure comes first
    "diverged_and_overflowing": (["verify", *_SMALL, "--alpha", "1e308"],
                                 {"bvpseries.oracle.OVERFLOW_GUARD": 0.5}, 4,
                                 "bvpseries: alpha = 1e+308, beta = 0.0 are too large: "
                                 "the solution or its residual overflows\n"),
    # the series stop at the cap before the oracle runs: at tol 5e-324 the
    # terms stall at the smallest subnormals, short of the a-priori count
    "max_terms": (["verify", "--a", "1.98", "--f", "1", "--x1", "1", "--n", "3",
                   "--tol", "5e-324"], {}, 2,
                  "bvpseries: series tail not certified within the term cap (cap 10000, "
                  "q = 0.99; a-priori count 74599); relax the tolerance\n"),
}


class TestVerify:
    def test_stops_at_measured_tail(self, capfd):
        # q = 0.99: the a-priori count assumes every term shrinks by q, the
        # measured terms shrink by about 0.8
        code, out, _ = run_main(capfd, "verify", "--a", "1.98", "--f", "1",
                                "--x1", "1", "--n", "1024")
        assert code == 0
        payload = json.loads(out)
        assert payload["terms_apriori"] == {"I1": 2819, "I2": 2819, "F": 2750}
        assert all(t <= 130 for t in payload["terms"].values())
        assert all(t <= 1e-10 for t in payload["tails"].values())
        assert list(payload)[:6] == ["x1", "n", "tol", "q", "terms", "terms_apriori"]

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
        assert len(payload["checks"]) == 21
        names = {c["name"] for c in payload["checks"]}
        assert "fixed_point" in names
        assert "oracle_agreement" in names
        assert "wronskian_constant" in names

    @pytest.mark.parametrize("n", [8, 9, 4096])
    def test_samples_a_and_f_at_the_nodes_only(self, n, capfd, monkeypatch):
        # the oracle steps on node pairs: a and f are evaluated, as one
        # program, at the n + 1 nodes and nowhere else
        sizes = []
        joint = grid._eval_each

        def spy(exprs, xs):
            sizes.append((len(exprs), len(xs)))
            return joint(exprs, xs)

        monkeypatch.setattr(grid, "_eval_each", spy)
        # nothing else evaluates, at a point or over an array
        monkeypatch.setattr(expr, "_eval_each", None)
        code, out, _ = run_main(capfd, "verify", "--a", "sin(x)", "--f", "exp(-x)",
                                "--x1", "0.9", "--n", str(n))
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert sizes == [(2, n + 1)]

    @pytest.mark.parametrize("name", sorted(_VERIFY_FAILURES))
    def test_failure_exit_code_and_message(self, name, capfd, monkeypatch):
        argv, patches, code, message = _VERIFY_FAILURES[name]
        for target, value in patches.items():
            monkeypatch.setattr(target, value)
        assert run_main(capfd, *argv) == (code, "", message)

    @pytest.mark.parametrize("argv", [
        # the forced shot reaches 5e199, far past an absolute 1e100 guard
        ["--a", "1", "--f", "1e200", "--x1", "1", "--n", "64"],
        # psi'(x1) is near 1, but sup|psi| is near 1e13: psi has units of length
        ["--a", "1e-30*sin(x)", "--f", "1e-30", "--x1", "1e13", "--n", "8"],
    ])
    def test_oracle_gates_hold_at_any_scale(self, argv, capfd):
        code, out, err = run_main(capfd, "verify", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    # Known false verdicts (ROADMAP items 2, 15 and 18), each failing by a
    # margin of 2x or more; a change that mends one must drop its xfail.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="false rejection: ROADMAP items 2 and 15")
    @pytest.mark.parametrize("argv", [
        # ode_residual:I1, I2 and F fail at 3.96, 4.01 and 2.48 times their limits
        ["--a", "1.9*cos(120*x)", "--f", "1", "--x1", "1", "--n", "256"],
        # derivative_consistency:I2 and F fail at 6.73 and 7.79 times their limits
        ["--a", "100000000.0*cos(x/0.0001)", "--f", "100000000.0", "--x1", "0.0001",
         "--n", "64"],
    ], ids=["oscillating_coefficient", "rescaled_interval"])
    def test_correct_solution_passes(self, argv, capfd):
        code, _, err = run_main(capfd, "verify", *argv)
        assert (code, err) == (0, "")

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="false acceptance: ROADMAP item 18")
    def test_coefficient_aliased_to_zero_at_the_nodes_fails(self, capfd):
        # a's period is 2h and its zeros fall on the nodes: every node
        # sample of a is about 0, so q = 1.6e-14 and u(x1) = -0.5 pass all
        # 21 checks, where the true u(x1) is about -0.4963
        code, _, _ = run_main(capfd, "verify", "--a", "1.5*sin(201.06192982974676*x)",
                              "--f", "1", "--x1", "1", "--n", "64")
        assert code != 0

    def test_verify_csv(self, capfd):
        code, out, _ = run_main(capfd, "verify", "--a", "0.5", "--f", "x",
                                "--x1", "1", "--n", "256", "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "name,passed,value,limit"
        assert len(rows) == 22


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("command", ["solve", "fundamental", "verify"])
def test_no_command_forks(command, output_format, capfd, monkeypatch):
    # the series, the oracle and the rendering all run in this process
    monkeypatch.setattr(os, "fork", None, raising=False)  # a fork would raise
    code, out, _ = run_main(capfd, command, "--a", "sin(x)", "--f", "exp(-x)",
                            "--x1", "0.9", "--n", "4096", "--format", output_format)
    assert code == 0
    assert out


class TestExitCodes:
    def test_not_contractive(self):
        r = run_cli("solve", "--a", "1", "--f", "0", "--x1", "1.5")
        assert r.returncode == 2
        assert "1.41421" in r.stderr

    @pytest.mark.parametrize("command", ["solve", "fundamental", "verify"])
    def test_overflowing_forcing_prints_one_line(self, command):
        # f = 1e308 overflows the first trapezoid pass of g; numpy must not
        # warn about it, since compute_g reports it
        r = run_cli(command, "--a", "0.5", "--f", "1e308", "--x1", "1", "--n", "8")
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr == ("bvpseries: the forcing's double integral g overflowed, "
                            "although every node of f is finite\n")

    @pytest.mark.parametrize("command", ["solve", "fundamental", "verify"])
    def test_overflowing_derivative_names_it(self, command):
        # f, g and the three series are finite, but a*F overflows in dF
        r = run_cli(command, "--a", "1.9", "--f", "5e307", "--x1", "1", "--n", "8")
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr == ("bvpseries: the forced series' derivative dF overflowed, "
                            "although F is finite\n")

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
                                       ["--beta=-1e308"],
                                       # u is finite, but its residual is inf
                                       ["--alpha", "1e30", "--beta", "1e180", "--x1", "1e-150",
                                        "--n", "4096"]])
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
    def test_tiny_tol_or_huge_forcing(self, capfd, flags):
        # the a-priori budget tol*(1-q)/(2*seed_sup) underflows to 0 here
        code, out, err = run_main(capfd, "solve", "--a", "1", "--f", "1", "--x1", "1",
                                  "--n", "8", *flags)
        assert code == 0, err
        payload = json.loads(out)
        for name in ("I1", "I2", "F"):
            assert payload["terms"][name] <= payload["terms_apriori"][name]
            assert payload["tails"][name] <= payload["tol"]

    def test_subnormal_tol_verifies(self, capfd):
        # the fixed-point limit admits the rounding of a defect with a large g
        code, out, err = run_main(capfd, "verify", "--a", "1", "--f", "1e10", "--x1", "1",
                                  "--n", "64", "--tol", "1e-318")
        assert code == 0, err
        check = {c["name"]: c for c in json.loads(out)["checks"]}["fixed_point"]
        assert check["passed"] and check["limit"] > 10 * 1e-318

    def test_term_rates_leave_out_subnormal_terms(self, capfd):
        # at tol 5e-324 the terms stall at the smallest subnormals, whose
        # rounding is absolute: with them the worst rates read 0.8346
        # against a limit of 0.8339, and verify exited 5
        code, out, err = run_main(capfd, "verify", "--a", "2*sin(x)*cos(x)", "--f", "1",
                                  "--x1", "1.3", "--n", "3", "--tol", "5e-324")
        assert (code, err) == (0, "")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("I1", "I2", "F"):
            assert checks[f"term_bound:{name}"]["value"] < 0.64

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flags, named", [
        (["--tol", "1e308"], "--tol = 1e+308, --alpha = 0.0, --beta = 0.0"),
        (["--tol", "1e300", "--alpha", "1e9"],
         "--tol = 1e+300, --alpha = 1000000000.0, --beta = 0.0"),
    ])
    def test_overflowing_check_limit(self, capfd, flags, named, fmt):
        # a limit of inf once crashed the JSON renderer and printed inf in CSV
        args = ("--a", "1", "--f", "1", "--x1", "1", "--n", "8", *flags, "--format", fmt)
        code, out, err = run_main(capfd, "verify", *args)
        assert code == 4
        assert out == ""
        assert err == f"bvpseries: the limit of fixed_point overflows at {named}\n"
        # solve's limits, the bound checks', have no term in tol: it succeeds
        code, out, err = run_main(capfd, "solve", *args)
        assert code == 0, err
        assert out

    @pytest.mark.parametrize("args, named, scale", [
        # h^2 = 62,500 times sup|F| = 5e305 overflows whatever the tol, so
        # the message does not blame --tol
        *(pytest.param(("--a", "0", "--f", "1e300", "--x1", "1e3", "--n", "4", "--tol", tol),
                       "ode_residual:F, derivative_consistency:F, oracle_agreement",
                       "h = 250.0, sup|F| = 4.999999999999999e+305", id=tol)
          for tol in ("1e-10", "1e-300")),
        # (1 + sup|a|)^2 overflows; it once raised OverflowError (exit 1)
        pytest.param(("--a", "1e300", "--f", "0", "--x1", "1e-150", "--n", "4"),
                     "ode_residual:I1, ode_residual:I2, ode_residual:F",
                     "h = 2.5e-151, sup|a| = 1e+300", id="a-squared"),
        # so does the tail term 10 (1 + sup|a|) tail, through its coefficient
        pytest.param(("--a", "2e307", "--f", "0", "--x1", "3e-154", "--n", "2"),
                     "ode_residual:I1, ode_residual:I2, ode_residual:F, "
                     "derivative_consistency:I1, derivative_consistency:I2, "
                     "derivative_consistency:F, wronskian_constant",
                     "h = 1.5e-154, sup|a| = 2e+307", id="a-tail"),
    ])
    def test_check_limit_overflowing_at_every_tol_names_the_scale(self, capfd, args, named,
                                                                   scale):
        code, out, err = run_main(capfd, "verify", *args)
        assert code == 4
        assert out == ""
        assert err == (f"bvpseries: the limit of {named} overflows at every --tol: the "
                       f"problem's scale is too large ({scale})\n")
        code, out, err = run_main(capfd, "solve", *args)
        assert code == 0, err
        assert out

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("args", [
        # 3,315 terms of F, sup|F| = 2.6e305
        ("--a", "1.98", "--f", "1e305", "--x1", "1", "--n", "1024"),
        ("--a", "cos(x)", "--f", "1e306*sin(x)", "--x1", "1", "--n", "64"),
        # the F floors formed 20 x1^2 sup|f| = 2e308 before u scaled it:
        # verify exited 4, "ode_residual:F overflows at every --tol"
        ("--a", "0.1", "--f", "1e307", "--x1", "1", "--n", "8"),
    ])
    def test_rounding_sums_overflow_only_where_their_bound_does(self, capfd, command, args):
        # sum_k sum_{j<=k} s_j, summed before the unit roundoff scaled it,
        # overflowed: solve crashed on an inf limit and verify refused
        code, out, err = run_main(capfd, command, *args)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        checks = payload["checks"] if command == "verify" else payload["report"]["bound_checks"]
        assert all(c["passed"] for c in checks)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_solve_refuses_an_overflowing_bound_limit(self, capfd, fmt):
        # s_0 / (1 - q) passes the float range: solve once wrote 5 MB of
        # JSON before it crashed, or a CSV without the bound checks
        code, out, err = run_main(capfd, "solve", "--a", "1.98", "--f", "1e307", "--x1", "1",
                                  "--n", "65536", "--format", fmt)
        assert (code, out) == (4, "")
        assert err == ("bvpseries: the limit of sup_bound:F overflows at every --tol: the "
                       "problem's scale is too large (h = 1.52587890625e-05, "
                       "sup|F| = 2.594525052981698e+307)\n")

    def test_n_beyond_memory_budget(self, capfd, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated for a refused n")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_main(capfd, "solve", "--a", "1", "--f", "0",
                                  "--x1", "1", "--n", str(MAX_INTERVALS + 1))
        assert code == 4
        assert out == ""
        assert "memory budget" in err

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
    def test_option_values_may_start_with_minus(self, capfd, command, flag, value):
        # argparse alone takes -1e-3, -x and -sin(x) for options and refuses
        # them as values; the split and the = form must agree
        base = {"--a": "1", "--f": "1", "--x1": "1", "--n": "8"}
        base.pop(flag, None)
        args = [command, *(item for pair in base.items() for item in pair)]
        split = run_main(capfd, *args, flag, value)
        joined = run_main(capfd, *args, f"{flag}={value}")
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

    def test_table_with_one_data_row(self, tmp_path, capfd):
        table = tmp_path / "a.csv"
        table.write_text("x,value\n0,1\n")
        code, out, err = run_main(capfd, "solve", "--a-table", str(table),
                                  "--f", "0", "--x1", "1")
        assert (code, out, err) == (4, "", f"bvpseries: {table}: need at least two data rows\n")

    @pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
    def test_malformed_table(self, name, tmp_path, capfd):
        table = tmp_path / "a.csv"
        table.write_bytes(MALFORMED_TABLES[name])
        code, out, err = run_main(capfd, "solve", "--a-table", str(table),
                                  "--f", "0", "--x1", "1")
        assert (code, out) == (4, "")
        assert err.startswith(f"bvpseries: {table}: ") and err.count("\n") == 1

    def test_unreadable_table(self):
        r = run_cli("solve", "--a-table", "/nonexistent/a.csv",
                    "--f", "0", "--x1", "1")
        assert r.returncode == 4

    def test_out_to_bad_path(self):
        r = run_cli("solve", "--a", "0", "--f", "0", "--x1", "1",
                    "--out", "/nonexistent/dir/run.json")
        assert r.returncode == 4
