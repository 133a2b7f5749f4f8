"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "criterion NN PASS/FAIL" line (visible under
pytest -s) and pins the tolerance it enforces. Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bvpseries.bvp import ProblemD, solve_problem_d, wronskian_check
from bvpseries.checks import bound_checks, boundary_checks
from bvpseries.errors import ContractionViolation
from bvpseries.grid import CoefficientSpec, SampledFn, make_grid, nested_trapz, sample, sup_norm
from bvpseries.oracle import compare, oracle_fundamental
from bvpseries.series_core import contraction_ratio, fundamental_system

from b_reference import apply_B_reference
from conftest import i2_at_x1, make_suite


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:02d} FAIL: {label}")
        raise
    print(f"\ncriterion {num:02d} PASS: {label}")


def _const_problem(a_value, n, x1=1.0, f_value=0.0):
    g = make_grid(x1, n)
    a = SampledFn(g, np.full(n + 1, float(a_value)))
    f = SampledFn(g, np.full(n + 1, float(f_value)))
    return g, fundamental_system(a, f, contraction_ratio(abs(a_value), x1))


def test_criterion_01_unit_coefficient_closed_forms():
    with criterion(1, "a = 1 fundamental pair matches closed forms to 1e-6, "
                      "built in under a second"):
        start = time.perf_counter()
        g, sol = _const_problem(1.0, 2048)
        elapsed = time.perf_counter() - start
        want_i1 = np.sin(g.nodes) / math.cos(1.0)
        want_i2 = np.cos(g.nodes) + math.tan(1.0) * np.sin(g.nodes)
        assert np.max(np.abs(sol.I1.values - want_i1)) <= 1e-6
        assert np.max(np.abs(sol.I2.values - want_i2)) <= 1e-6
        assert abs(sol.I1.values[-1] - math.tan(1.0)) <= 1e-6
        assert abs(sol.i2_at_x1 - 1.0 / math.cos(1.0)) <= 1e-6
        assert elapsed < 1.0


def test_criterion_02_negative_coefficient_closed_forms():
    with criterion(2, "a = -1 fundamental pair matches hyperbolic closed "
                      "forms to 1e-6"):
        g, sol = _const_problem(-1.0, 2048)
        want_i1 = np.sinh(g.nodes) / math.cosh(1.0)
        want_i2 = np.cosh(g.nodes) - math.tanh(1.0) * np.sinh(g.nodes)
        assert np.max(np.abs(sol.I1.values - want_i1)) <= 1e-6
        assert np.max(np.abs(sol.I2.values - want_i2)) <= 1e-6
        assert abs(sol.i2_at_x1 - 1.0 / math.cosh(1.0)) <= 1e-6


def test_criterion_03_oracle_equivalence():
    with criterion(3, "series and shooting oracle agree to 1e-5 for two "
                      "variable coefficients"):
        for text in ("sin(x)", "1/(1 + x^2)"):
            spec = CoefficientSpec.expression(text)
            g = make_grid(1.0, 2048)
            a = sample(spec, g)
            f = SampledFn(g, np.ones(2049))
            sol = fundamental_system(a, f, contraction_ratio(sup_norm(a), 1.0))
            oc = oracle_fundamental(a, f, a_eval=spec.evaluate,
                                    f_eval=lambda x: 1.0)
            assert compare(sol, oc) <= 1e-5


def test_criterion_04_boundary_identities(suite_solutions):
    with criterion(4, "all six boundary normalizations hold to 1e-12 across "
                      "the random suite"):
        for _, sol in suite_solutions:
            for check in boundary_checks(sol):
                assert check.passed, (check.name, check.value)
                assert check.value <= 1e-12


def test_criterion_05_series_bounds(suite_solutions):
    with criterion(5, "every computed term decays at most at rate q and "
                      "every series obeys sup|S| <= s_0/(1-q), with derived "
                      "rounding limits"):
        for _, sol in suite_solutions:
            for check in bound_checks(sol):
                assert check.passed, (check.name, check.value)


def test_criterion_06_wronskian_constancy(random_suite):
    with criterion(6, "Wronskian deviation <= 1e-6 at n=1024, <= 2.5e-7 at "
                      "n=2048, shrinking second order"):
        observed_ratio = False
        for p in random_suite:
            _, dev_c = wronskian_check(p.solve(n=1024))
            _, dev_f = wronskian_check(p.solve(n=2048))
            assert dev_c <= 1e-6, p.label
            assert dev_f <= 2.5e-7, p.label
            if dev_f > 1e-12:
                assert 4.0 / 1.5 <= dev_c / dev_f <= 4.0 * 1.5, p.label
                observed_ratio = True
        assert observed_ratio


def test_criterion_07_contraction_gate():
    with criterion(7, "sup|a| x1^2 >= 2 is refused; 1.98 converges with the "
                      "same guarantees"):
        with pytest.raises(ContractionViolation):
            contraction_ratio(2.0, 1.0)
        with pytest.raises(ContractionViolation):
            contraction_ratio(0.5, 2.0)
        g, sol = _const_problem(1.98, 512)
        assert sol.certificate.q == pytest.approx(0.99)
        for check in bound_checks(sol) + boundary_checks(sol):
            assert check.passed, check.name


def test_criterion_08_fixed_point(suite_solutions):
    with criterion(8, "two-point solutions satisfy the integral fixed-point "
                      "identity within 10x the series tolerance"):
        for p, sol in suite_solutions:
            report = solve_problem_d(sol, ProblemD(p.alpha, p.beta))
            assert report.fixedpoint_err <= 10.0 * 1e-10, p.label


def test_criterion_09_boundary_data(suite_solutions):
    with criterion(9, "u(0) = alpha and u'(x1) = beta to 1e-12, with "
                      "c1 = beta and c2 = alpha exactly"):
        for p, sol in suite_solutions:
            report = solve_problem_d(sol, ProblemD(p.alpha, p.beta))
            err0, err1 = report.boundary_err
            assert err0 <= 1e-12 and err1 <= 1e-12, p.label
            assert report.c1 == p.beta
            assert report.c2 == p.alpha


def test_criterion_10_nonsingular_regime(random_suite):
    # ||t_k|| <= q^k gives I2(x1) >= 1 - q/(1-q) = (1-2q)/(1-q); for any q < 1,
    # I2(x1) is at least its value at a = -sup|a| on the same grid
    with criterion(10, "q < 1/2 guarantees I2(x1) >= (1-2q)/(1-q), and I2(x1) "
                       "is at least its value at a = -sup|a|"):
        candidates = [p for p in random_suite if p.q_target < 0.49]
        candidates += make_suite(size=6, seed=777, q_low=0.02, q_high=0.49)
        assert len(candidates) >= 8
        for p in candidates:
            sol = p.solve(n=512)
            q = sol.certificate.q
            assert q < 0.49
            assert sol.i2_at_x1 >= (1.0 - 2.0 * q) / (1.0 - q) - 1e-9, p.label
            least = i2_at_x1(np.full(sol.grid.n + 1, -sol.certificate.a_sup), sol.grid.x1)
            assert sol.i2_at_x1 >= least - 1e-12, p.label


def test_criterion_11_fast_operator_matches_reference():
    with criterion(11, "O(n) operator equals the nested-trapezoid reference "
                       "to 1e-13 and is at least 10x faster at n=4096"):
        rng = np.random.default_rng(2024)
        for n in (16, 64, 256):
            g = make_grid(1.0, n)
            w = rng.standard_normal(n + 1) * rng.standard_normal(n + 1)
            fast = nested_trapz(w, g.h)
            ref = apply_B_reference(w, g.h)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(fast - ref)) / scale <= 1e-13

        n = 4096
        g = make_grid(1.0, n)
        w = rng.standard_normal(n + 1) * rng.standard_normal(n + 1)
        nested_trapz(w, g.h)
        fast_time = min(_timed(nested_trapz, w, g.h) for _ in range(5))
        ref_time = _timed(apply_B_reference, w, g.h)
        assert ref_time / fast_time >= 10.0


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
