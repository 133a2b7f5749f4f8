"""Assembly and two-point solve tests, including the diagnostic checks."""

import dataclasses
import math

import numpy as np
import pytest

from bvpseries.bvp import (
    ProblemD,
    general_solution,
    residual_report,
    solve_problem_d,
    wronskian_check,
)
from bvpseries.checks import boundary_checks, bound_checks, consistency_checks, residual_checks
from bvpseries.errors import InvalidDomain, SingularI2
from bvpseries.grid import CoefficientSpec, SampledFn, make_grid, sample, sup_norm
from bvpseries.series_core import compute_g, contraction_ratio, fundamental_system


def _const(grid, value):
    return SampledFn(grid, np.full(grid.n + 1, float(value)))


def _free_solution(n=64, x1=1.0):
    g = make_grid(x1, n)
    return fundamental_system(_const(g, 0.0), _const(g, 0.0),
                              contraction_ratio(0.0, x1))


def _unit_solution(n=2048, x1=1.0, f_value=0.0):
    g = make_grid(x1, n)
    return fundamental_system(_const(g, 1.0), _const(g, f_value),
                              contraction_ratio(1.0, x1))


class TestGeneralSolution:
    def test_linear_exact(self):
        sol = _free_solution()
        u, du = general_solution(sol, 3.0, 2.0)
        assert np.array_equal(u.values, 3.0 * sol.grid.nodes + 2.0)
        assert np.array_equal(du.values, 3.0 * np.ones(65))

    def test_zero_constants_give_forced_part(self):
        g = make_grid(1.0, 64)
        sol = fundamental_system(_const(g, 0.0), _const(g, 1.0),
                                 contraction_ratio(0.0, 1.0))
        u, du = general_solution(sol, 0.0, 0.0)
        assert np.array_equal(u.values, sol.F.values)
        assert np.array_equal(du.values, sol.dF.values)

    def test_unit_coefficient_endpoint(self):
        sol = _unit_solution()
        u, _ = general_solution(sol, 1.0, 0.0)
        assert abs(u.values[-1] - math.tan(1.0)) < 1e-6


class TestWronskian:
    def test_free_problem_identically_constant(self):
        sol = _free_solution()
        w, dev = wronskian_check(sol)
        assert np.array_equal(w.values, -np.ones(65))
        assert dev == 0.0

    def test_unit_coefficient(self):
        sol = _unit_solution(n=1024)
        _, dev = wronskian_check(sol)
        assert dev < 1e-6

    def test_left_endpoint_value(self):
        # at x = 0 the Wronskian reduces to -dI1(0) * I2(0) = -dI1(0)
        sol = _unit_solution(n=1024)
        w, _ = wronskian_check(sol)
        assert w.values[0] == -sol.dI1.values[0]

    def test_second_order_decay(self, random_suite):
        p = random_suite[2]
        _, dev_c = wronskian_check(p.solve(n=512))
        _, dev_f = wronskian_check(p.solve(n=1024))
        if dev_f > 1e-12:
            assert dev_c / dev_f == pytest.approx(4.0, rel=0.5)


class TestResidualReport:
    def test_linear_solution_is_exact(self):
        g = make_grid(1.0, 64)
        a = _const(g, 0.0)
        f = _const(g, 0.0)
        u = SampledFn(g, 3.0 * g.nodes + 2.0)
        du = _const(g, 3.0)
        diag = residual_report(u, du, a, f, 3.0, 2.0, compute_g(f))
        assert diag.residual_max == 0.0
        assert diag.fixedpoint_err == 0.0

    def test_detects_corruption(self):
        g = make_grid(1.0, 64)
        a = _const(g, 0.0)
        f = _const(g, 0.0)
        vals = 3.0 * g.nodes + 2.0
        vals[31] += 1.0
        diag = residual_report(SampledFn(g, vals), _const(g, 3.0),
                               a, f, 3.0, 2.0, compute_g(f))
        assert diag.residual_max >= 0.5 / g.h ** 2

    def test_series_residual_second_order(self):
        errs = []
        for n in (1024, 2048):
            sol = _unit_solution(n=n)
            u, du = general_solution(sol, 1.0, 1.0)
            diag = residual_report(u, du, sol.a, sol.f, 1.0, 1.0, sol.g)
            errs.append(diag.residual_max)
            assert diag.fixedpoint_err < 1e-9
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)


class TestProblemD:
    def test_validation(self):
        with pytest.raises(InvalidDomain):
            ProblemD(math.inf, 0.0)
        with pytest.raises(InvalidDomain):
            ProblemD(0.0, math.nan)

    def test_linear_solve(self):
        report = solve_problem_d(_free_solution(), ProblemD(alpha=2.0, beta=3.0))
        nodes = report.u.grid.nodes
        assert np.array_equal(report.u.values, 2.0 + 3.0 * nodes)
        assert report.boundary_err == (0.0, 0.0)
        assert report.c1 == 3.0
        assert report.c2 == 2.0
        assert report.residual_max == 0.0
        assert report.fixedpoint_err == 0.0
        assert report.wronskian_dev == 0.0

    def test_normalized_slope_solve(self):
        # alpha = 0, beta = 1 picks out I1 itself
        sol = _unit_solution()
        report = solve_problem_d(sol, ProblemD(alpha=0.0, beta=1.0))
        assert np.array_equal(report.u.values, sol.I1.values)

    def test_forced_solve(self):
        g = make_grid(1.0, 64)
        sol = fundamental_system(_const(g, 0.0), _const(g, 1.0),
                                 contraction_ratio(0.0, 1.0))
        report = solve_problem_d(sol, ProblemD(alpha=0.0, beta=0.0))
        assert np.max(np.abs(report.u.values - (g.nodes ** 2 / 2.0 - g.nodes))) < 1e-15

    def test_boundary_data_exact(self, suite_solutions):
        for p, sol in suite_solutions:
            report = solve_problem_d(sol, ProblemD(p.alpha, p.beta))
            assert report.u.values[0] == p.alpha
            assert report.du.values[-1] == p.beta
            assert report.c1 == p.beta
            assert report.c2 == p.alpha

    def test_linearity(self, suite_solutions):
        p, sol = suite_solutions[0]
        r1 = solve_problem_d(sol, ProblemD(1.0, 0.25))
        r2 = solve_problem_d(sol, ProblemD(-0.5, 1.5))
        r12 = solve_problem_d(sol, ProblemD(0.5, 1.75))
        combined = r1.u.values + r2.u.values - sol.F.values
        assert np.max(np.abs(r12.u.values - combined)) < 1e-12

    def test_report_checks_populated(self, suite_solutions):
        _, sol = suite_solutions[1]
        report = solve_problem_d(sol, ProblemD(0.3, -0.7))
        assert len(report.bound_checks) == 8
        assert all(c.passed for c in report.bound_checks)

    def test_singular_gate(self):
        sol = _unit_solution(n=256)
        shifted = SampledFn(sol.grid, sol.I2.values - sol.i2_at_x1)
        doctored = dataclasses.replace(sol, I2=shifted)
        with pytest.raises(SingularI2) as info:
            solve_problem_d(doctored, ProblemD(1.0, 1.0))
        exc = info.value
        assert exc.i2_at_x1 == 0.0
        assert exc.report is not None
        assert exc.report.u is None
        assert exc.report.du is None
        assert exc.report.boundary_err is None
        assert exc.report.wronskian_dev >= 0.0
        assert len(exc.report.bound_checks) == 8


class TestCheckFunctions:
    def test_all_pass_on_suite_member(self, suite_solutions):
        _, sol = suite_solutions[3]
        for check in bound_checks(sol) + boundary_checks(sol):
            assert check.passed, check.name
        for check in residual_checks(sol) + consistency_checks(sol):
            assert check.passed, (check.name, check.value, check.limit)

    def test_sup_bound_scales_with_x1(self):
        # x1 = 1.3 > 1: the bound is x1 / (1 - q); a 1.5x larger I1 breaks it
        g = make_grid(1.3, 1024)
        sol = fundamental_system(_const(g, 0.1), _const(g, 1.0),
                                 contraction_ratio(0.1, 1.3))
        check = {c.name: c for c in bound_checks(sol)}["sup_bound:I1"]
        assert check.passed, (check.value, check.limit)
        inflated = dataclasses.replace(sol, I1=SampledFn(g, 1.5 * sol.I1.values))
        check = {c.name: c for c in bound_checks(inflated)}["sup_bound:I1"]
        assert not check.passed

    def test_residual_rounding_floor(self):
        # at n = 65536 rounding dominates the second difference; the limit
        # admits it, yet a node moved by a tenth of the series tolerance fails
        g = make_grid(0.9, 65536)
        a = sample(CoefficientSpec.expression("sin(x)"), g)
        f = sample(CoefficientSpec.expression("exp(-x)"), g)
        sol = fundamental_system(a, f, contraction_ratio(sup_norm(a), 0.9))
        for check in residual_checks(sol):
            assert check.passed, (check.name, check.value, check.limit)
        for name in ("I1", "I2", "F"):
            values = getattr(sol, name).values.copy()
            values[40000] += 1e-11
            corrupted = dataclasses.replace(sol, **{name: SampledFn(g, values)})
            check = {c.name: c for c in residual_checks(corrupted)}[f"ode_residual:{name}"]
            assert not check.passed, name

    def test_consistency_rounding_floor(self):
        # at n = 2^20 rounding dominates the central difference; the limit
        # admits it for this correct solution (q = 0.88)
        g = make_grid(1.4, 2**20)
        sol = fundamental_system(_const(g, 0.9), _const(g, 1.0),
                                 contraction_ratio(0.9, 1.4))
        for check in consistency_checks(sol):
            assert check.passed, (check.name, check.value, check.limit)

    def test_consistency_floor_still_detects(self):
        # small q, x1 and tol keep the whole limit below 1e-9 at n = 2^19,
        # so a derivative moved by 1e-9 at one node, either way, fails
        g = make_grid(0.5, 2**19)
        sol = fundamental_system(_const(g, 0.1), _const(g, 1.0),
                                 contraction_ratio(0.1, 0.5), tol=1e-13)
        for check in consistency_checks(sol):
            assert check.passed, (check.name, check.value, check.limit)
        for name in ("dI1", "dF"):
            for shift in (1e-9, -1e-9):
                values = getattr(sol, name).values.copy()
                values[300000] += shift
                corrupted = dataclasses.replace(sol, **{name: SampledFn(g, values)})
                check = {c.name: c for c in consistency_checks(corrupted)}[
                    f"derivative_consistency:{name[1:]}"]
                assert not check.passed, (name, shift, check.value, check.limit)

    def test_check_fields(self, suite_solutions):
        _, sol = suite_solutions[4]
        names = [c.name for c in bound_checks(sol)]
        assert "sup_bound:I1" in names
        assert "geometric_decay:F" in names
        for check in bound_checks(sol):
            assert check.value <= check.limit
