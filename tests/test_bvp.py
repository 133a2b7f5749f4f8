"""Assembly and two-point solve tests, including the diagnostic checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bvpseries.bvp import ProblemD, general_solution, solve_problem_d
from bvpseries.checks import (
    _pass_rounding,
    _term_sums,
    boundary_checks,
    bound_checks,
    consistency_checks,
    fixed_point_entry,
    fixed_point_rounding,
    residual_checks,
    residual_report,
    verify,
    wronskian_check,
)
from bvpseries.errors import InvalidDomain
from bvpseries.grid import (
    CoefficientSpec,
    SampledFn,
    make_grid,
    prefix_trapz,
    sample,
    sup_norm,
    tail_trapz,
)
from bvpseries.oracle import compare, oracle_fundamental
from bvpseries.series_core import (
    SeriesSolution,
    compute_g,
    contraction_ratio,
    fundamental_system,
)

from conftest import i2_at_x1


def _const(grid, value):
    return SampledFn(grid, np.full(grid.n + 1, float(value)))


def _replaced(sol, **changes):
    """A copy of ``sol`` with the given fields replaced."""
    fields = {name: getattr(sol, name) for name in SeriesSolution.__slots__}
    return SeriesSolution(**{**fields, **changes})


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
        assert residual_report(u, a, f, 3.0, 2.0, compute_g(f)) == (0.0, 0.0)

    def test_detects_corruption(self):
        g = make_grid(1.0, 64)
        a = _const(g, 0.0)
        f = _const(g, 0.0)
        vals = 3.0 * g.nodes + 2.0
        vals[31] += 1.0
        residual_max, _ = residual_report(SampledFn(g, vals), a, f, 3.0, 2.0,
                                          compute_g(f))
        assert residual_max >= 0.5 / g.h ** 2

    def test_series_residual_second_order(self):
        errs = []
        for n in (1024, 2048):
            sol = _unit_solution(n=n)
            u, _ = general_solution(sol, 1.0, 1.0)
            residual_max, fixedpoint_err = residual_report(u, sol.a, sol.f, 1.0, 1.0, sol.g)
            errs.append(residual_max)
            assert fixedpoint_err < 1e-9
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)


class TestProblemD:
    def test_validation(self):
        with pytest.raises(InvalidDomain):
            ProblemD(math.inf, 0.0)
        with pytest.raises(InvalidDomain):
            ProblemD(0.0, math.nan)
        with pytest.raises(InvalidDomain):
            ProblemD(alpha="1", beta=0.0)
        with pytest.raises(InvalidDomain):
            ProblemD(alpha=0.0, beta=-math.inf)

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
        assert len(report.bound_checks) == 6
        assert all(c.passed for c in report.bound_checks)

    def test_i2_at_x1_is_least_at_a_equal_minus_sup(self):
        # c1 = beta and c2 = alpha divide by nothing, and I2(x1), the
        # Wronskian's constant, stays away from 0: over adversarial a with
        # sup|a| <= A = 2q on [0, 1] it is never below its value at a = -A
        # on the same grid, which tends to 1/cosh(sqrt(2q)) and is above
        # 0.43 even at n = 2.
        rng = np.random.default_rng(21)
        for q in (0.5, 0.9, 0.999):
            big = 2.0 * q
            for n in (2, 3, 4, 16, 256):
                least = i2_at_x1(np.full(n + 1, -big))
                assert 0.43 <= least < 1.0 / math.cosh(math.sqrt(2.0 * q)), (q, n)
                if n <= 4:
                    candidates = itertools.product((-big, 0.0, big), repeat=n + 1)
                else:
                    signs = [big * rng.choice((-1.0, 1.0), n + 1) for _ in range(8)]
                    walks = [np.clip(np.cumsum(rng.normal(0.0, big / 2, n + 1)), -big, big)
                             for _ in range(8)]
                    candidates = signs + walks
                for values in candidates:
                    assert i2_at_x1(values) >= least - 1e-12, (q, n, values)


_BOUND_FAMILY = [f"{kind}:{name}" for name in ("I1", "I2", "F")
                 for kind in ("term_bound", "sup_bound")]


class TestCheckFunctions:
    def test_all_pass_on_suite_member(self, suite_solutions):
        _, sol = suite_solutions[3]
        for check in bound_checks(sol) + boundary_checks(sol):
            assert check.passed, check.name
        for check in residual_checks(sol) + consistency_checks(sol):
            assert check.passed, (check.name, check.value, check.limit)

    @pytest.mark.parametrize("check", _BOUND_FAMILY)
    def test_sup_bound_scales_with_x1(self, check):
        # x1 = 1.3 > 1: the I1 bounds scale with x1. One term sup raised to
        # 1.01 s_0 q^k, or one series scaled to 1.01 s_0 / (1 - q), fails its
        # own check and none of the other five
        g = make_grid(1.3, 1024)
        sol = fundamental_system(_const(g, 0.1), _const(g, 1.0),
                                 contraction_ratio(0.1, 1.3))
        for c in bound_checks(sol):
            assert c.passed, (c.name, c.value, c.limit)
        kind, name = check.split(":")
        q = sol.certificate.q
        s_0 = {"I1": 1.3, "I2": 1.0, "F": sup_norm(sol.g)}[name]
        if kind == "term_bound":
            sups = list(sol.term_sups[name])
            k = len(sups) // 2
            sups[k] = 1.01 * s_0 * q**k
            corrupted = _replaced(sol, term_sups={**sol.term_sups, name: sups})
        else:
            values = getattr(sol, name).values
            scaled = values * (1.01 * s_0 / (1.0 - q) / np.max(np.abs(values)))
            corrupted = _replaced(sol, **{name: SampledFn(g, scaled)})
        assert [c.name for c in bound_checks(corrupted) if not c.passed] == [check]

    @pytest.mark.parametrize("a_value, f_value", [(0.7, 0.0), (0.0, 1.0), (1.9, 1.0)])
    def test_bound_checks_at_the_edges(self, a_value, f_value):
        # f = 0 gives s_0 = 0 for F, a = 0 one term per series, and constant
        # a the first I2 term q exactly: each passes with finite values
        g = make_grid(1.0, 4096)
        sol = fundamental_system(_const(g, a_value), _const(g, f_value),
                                 contraction_ratio(a_value, 1.0))
        checks = {c.name: c for c in bound_checks(sol)}
        assert list(checks) == _BOUND_FAMILY
        for c in checks.values():
            assert c.passed and math.isfinite(c.value) and math.isfinite(c.limit), c.name
        q = sol.certificate.q
        if f_value == 0.0:
            assert checks["term_bound:F"].value == 0.0
            assert checks["sup_bound:F"].value == 0.0
        if a_value == 0.0:
            assert [checks[f"term_bound:{name}"].value for name in ("I1", "I2", "F")] == [0.0] * 3
        else:
            assert checks["term_bound:I2"].value == pytest.approx(q, rel=1e-13)

    def test_term_bound_admits_pass_rounding(self):
        # constant a: the first I2 term is q exactly in exact arithmetic; at
        # n = 2^20 rounding took it 7.3e-12 above q (x86-64), past a fixed
        # 1e-12 slack, within the derived (3n + 8) u x1^2 sup|a| of a pass
        g = make_grid(1.7, 2**20)
        sol = fundamental_system(_const(g, 0.3), _const(g, 1.0),
                                 contraction_ratio(0.3, 1.7))
        for check in bound_checks(sol):
            assert check.passed, (check.name, check.value, check.limit)

    @pytest.mark.parametrize("x1, n, plain", [(3e-154, 2, 14.0), (6e-154, 4, 20.0),
                                              (1e-148, 1024, 3080.0)])
    def test_pass_rounding_at_small_x1(self, x1, n, plain):
        # constant a at q near 0.5: with u multiplied in first, (3n + 8) x1^2
        # went subnormal before sup|a| scaled it back, and read 13.845,
        # 20.026 and 3079.9999999999977; on sup|a| it keeps the bits of the
        # plain product taken left to right
        g = make_grid(x1, n)
        a_value = 1.0 / (x1 * x1)
        sol = fundamental_system(_const(g, a_value), _const(g, 0.0),
                                 contraction_ratio(a_value, x1))
        assert _pass_rounding(sol) == (3.0 * n + 8.0) * x1 * x1 * sol.certificate.a_sup
        assert _pass_rounding(sol) == pytest.approx(plain, rel=1e-15)

    def test_term_sums_round_once_below_the_normal_range(self):
        # F's 29 term sups start at 3.8e-301, so every u s_k is subnormal;
        # rounded one by one, the partial-sum total read 3.0e-8 relative
        # above its exact value; now each sum rounds once, at the end
        x1 = 1e-150
        g = make_grid(x1, 64)
        a = sample(CoefficientSpec.expression(repr(0.5 / (x1 * x1))), g)
        f = sample(CoefficientSpec.expression(f"cos(x/{x1!r})"), g)
        sol = fundamental_system(a, f, contraction_ratio(a.sup, x1), tol=1e-320)
        s = [Fraction(sup) for sup in sol.term_sups["F"]]
        assert len(s) == 29 and float(s[0]) == pytest.approx(3.82e-301, rel=1e-3)
        u = Fraction(1, 2**53)
        exact = (u * s[0], u * sum(s), u * sum(s[:-1]),
                 u * sum(sum(s[:k + 1]) for k in range(1, len(s))))
        for got, want in zip(_term_sums(sol, "F"), exact):
            assert abs(Fraction(got) - want) <= Fraction(math.ulp(0.0)) / 2 + want / 10**15

    def test_only_the_boundary_check_catches_a_constant_offset(self):
        # I1 shifted by a constant 1e-9 keeps its differences, and so its
        # residual, derivative identity and Wronskian, and moves the oracle
        # agreement by 1e-9 against a limit near 1e-3: boundary:I1(0) alone fails
        g = make_grid(1.0, 1024)
        a = sample(CoefficientSpec.expression("1.5*cos(3*x)"), g)
        f = sample(CoefficientSpec.expression("cos(x)"), g)
        sol = fundamental_system(a, f, contraction_ratio(sup_norm(a), 1.0))
        shifted = _replaced(sol, I1=SampledFn(g, sol.I1.values + 1e-9))
        report = solve_problem_d(shifted, ProblemD(0.3, 0.0))
        checks = verify(shifted, report, compare(shifted, oracle_fundamental(a, f)), 1e-10)
        assert [c.name for c in checks if not c.passed] == ["boundary:I1(0)"]

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
            corrupted = _replaced(sol, **{name: SampledFn(g, values)})
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
                corrupted = _replaced(sol, **{name: SampledFn(g, values)})
                check = {c.name: c for c in consistency_checks(corrupted)}[
                    f"derivative_consistency:{name[1:]}"]
                assert not check.passed, (name, shift, check.value, check.limit)

    def test_fixed_point_rounding_floor(self):
        # a subnormal tol leaves 10 tol far below the rounding of a defect
        # with sup|g| near 5e9; the rounding bound admits it, yet u moved by
        # a thousand times that bound fails
        g = make_grid(1.0, 64)
        sol = fundamental_system(_const(g, 1.0), _const(g, 1e10),
                                 contraction_ratio(1.0, 1.0), tol=1e-318)
        report = solve_problem_d(sol, ProblemD(0.0, 0.0))
        rounding = fixed_point_rounding(sol, report)
        check = fixed_point_entry(report.fixedpoint_err, 1e-318, 0.0, 0.0, rounding)
        assert report.fixedpoint_err > 10 * 1e-318
        assert check.passed, (check.value, check.limit)
        assert check.limit == 1e-318 + rounding
        bump = 1e3 * rounding * np.sin(np.pi * g.nodes) ** 2
        u = SampledFn(g, report.u.values + bump)
        _, err = residual_report(u, sol.a, sol.f, report.c1, report.c2, sol.g)
        assert not fixed_point_entry(err, 1e-318, 0.0, 0.0, rounding).passed

    def test_fixed_point_limit_without_rounding(self):
        # four arguments, as the benchmark tracer calls it: the plain 10 T
        check = fixed_point_entry(1e-9, 1e-10, 0.7, -0.4)
        assert check.limit == 10.0 * 1e-10 * (1.0 + 0.7 + 0.4)

    def test_check_fields(self, suite_solutions):
        _, sol = suite_solutions[4]
        names = [c.name for c in bound_checks(sol)]
        assert "sup_bound:I1" in names
        assert "term_bound:F" in names
        for check in bound_checks(sol):
            assert check.value <= check.limit


def _plain_b(w, h):
    """B_h w with the allocating passes, as the series were first summed."""
    return prefix_trapz(tail_trapz(w, h), h)


@pytest.mark.parametrize("n", [64, 65])
def test_in_place_passes_keep_the_bits_of_the_plain_expressions(random_suite, n):
    # the stages write their node arrays with out=, in the operation order
    # of these allocating expressions, so every value keeps its bits
    p = random_suite[3]
    sol = p.solve(n=n)
    a, f, h, nodes = sol.a.values, sol.f.values, sol.grid.h, sol.grid.nodes
    g = 0.0 - _plain_b(f, h)
    assert np.array_equal(sol.g.values, g)
    for name, seed in (("I1", nodes), ("I2", np.ones(n + 1)), ("F", g)):
        term, total = seed, seed.copy()
        for _ in range(sol.terms_used[name] - 1):
            term = _plain_b(a * term, h)
            total = total + term
        assert np.array_equal(getattr(sol, name).values, total)
    I1, I2, F = sol.I1.values, sol.I2.values, sol.F.values
    assert np.array_equal(sol.dI1.values, 1.0 + tail_trapz(a * I1, h))
    assert np.array_equal(sol.dI2.values, tail_trapz(a * I2, h))
    assert np.array_equal(sol.dF.values, tail_trapz(a * F, h) - tail_trapz(f, h))

    c1, c2 = p.beta, p.alpha
    u, du = general_solution(sol, c1, c2)
    assert np.array_equal(u.values, c1 * I1 + c2 * I2 + F)
    assert np.array_equal(du.values, c1 * sol.dI1.values + c2 * sol.dI2.values + sol.dF.values)
    w = I1 * sol.dI2.values - sol.dI1.values * I2
    w_nodes, dev = wronskian_check(sol)
    assert np.array_equal(w_nodes.values, w)
    assert dev == float(np.max(np.abs(w + I2[-1])))

    v = u.values
    residual = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h) + a[1:-1] * v[1:-1] - f[1:-1]
    defect = v - _plain_b(a * v, h) - g - c1 * nodes - c2
    assert residual_report(u, sol.a, sol.f, c1, c2, sol.g) == (
        float(np.max(np.abs(residual))), float(np.max(np.abs(defect))))
    for check, (fn, dfn) in zip(consistency_checks(sol), ((I1, sol.dI1), (I2, sol.dI2),
                                                          (F, sol.dF))):
        assert check.value == float(np.max(np.abs(dfn.values[1:-1]
                                                  - (fn[2:] - fn[:-2]) / (2.0 * h))))

    shot = oracle_fundamental(sol.a, sol.f)
    assert compare(sol, shot) == max(
        float(np.max(np.abs(getattr(sol, name).values[shot.index] - getattr(shot, name))
                     / (1.0 + np.abs(getattr(shot, name)))))
        for name in ("I1", "I2", "F"))
