"""Shooting-oracle tests: the independent check on the series construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvpseries.checks import ORACLE_CONST
from bvpseries.errors import Diverged, GridMismatch, OracleSingular
from bvpseries.grid import SampledFn, make_grid, sup_norm
from bvpseries.oracle import SCAN_BLOCK, compare, oracle_fundamental, rk4_ivp
from bvpseries.series_core import contraction_ratio, fundamental_system
from rk4_loop import loop_fundamental, rk4_loop


def _const(grid, value):
    return SampledFn(grid, np.full(grid.n + 1, float(value)))


def _free(grid):
    return _const(grid, 0.0)


class TestRk4:
    def test_cosine(self):
        g = make_grid(1.0, 1024)
        t = rk4_ivp(_const(g, 1.0), _free(g), 1.0, 0.0,
                    a_eval=lambda x: 1.0, f_eval=lambda x: 0.0)
        assert abs(t.u[-1] - math.cos(1.0)) < 1e-8
        assert abs(t.du[-1] + math.sin(1.0)) < 1e-8

    def test_sine(self):
        g = make_grid(1.0, 1024)
        t = rk4_ivp(_const(g, 1.0), _free(g), 0.0, 1.0,
                    a_eval=lambda x: 1.0, f_eval=lambda x: 0.0)
        assert abs(t.u[-1] - math.sin(1.0)) < 1e-8

    def test_linear_solution_exact(self):
        g = make_grid(1.0, 128)
        t = rk4_ivp(_free(g), _free(g), 2.0, 3.0)
        assert np.max(np.abs(t.u - (2.0 + 3.0 * g.nodes))) < 1e-13
        assert np.max(np.abs(t.du - 3.0)) < 1e-14

    def test_interpolated_coefficients(self):
        # without callables the scheme falls back to midpoint interpolation
        g = make_grid(1.0, 1024)
        t = rk4_ivp(_const(g, 1.0), _free(g), 1.0, 0.0)
        assert abs(t.u[-1] - math.cos(1.0)) < 1e-7

    def test_fourth_order(self):
        errs = []
        for n in (64, 128):
            g = make_grid(1.0, n)
            t = rk4_ivp(_const(g, 1.0), _free(g), 1.0, 0.0,
                        a_eval=lambda x: 1.0, f_eval=lambda x: 0.0)
            errs.append(abs(t.u[-1] - math.cos(1.0)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)

    def test_divergence_guard(self):
        g = make_grid(1.0, 64)
        with pytest.raises(Diverged):
            rk4_ivp(_const(g, -1e6), _free(g), 1.0, 0.0,
                    a_eval=lambda x: -1e6, f_eval=lambda x: 0.0)


class TestOracleFundamental:
    def test_free_problem_exact(self):
        g = make_grid(1.0, 128)
        oc = oracle_fundamental(_free(g), _free(g))
        assert np.max(np.abs(oc.I1.values - g.nodes)) < 1e-13
        assert np.max(np.abs(oc.I2.values - 1.0)) < 1e-13
        assert np.max(np.abs(oc.F.values)) < 1e-13

    def test_unit_coefficient_closed_forms(self):
        g = make_grid(1.0, 1024)
        oc = oracle_fundamental(_const(g, 1.0), _free(g),
                                a_eval=lambda x: 1.0, f_eval=lambda x: 0.0)
        assert np.max(np.abs(oc.I1.values - np.sin(g.nodes) / math.cos(1.0))) < 1e-6
        want_i2 = np.cos(g.nodes) + math.tan(1.0) * np.sin(g.nodes)
        assert np.max(np.abs(oc.I2.values - want_i2)) < 1e-6

    def test_boundary_normalization(self):
        g = make_grid(0.9, 512)
        a = SampledFn(g, np.sin(g.nodes))
        f = SampledFn(g, np.cos(g.nodes))
        oc = oracle_fundamental(a, f, a_eval=np.sin, f_eval=np.cos)
        assert abs(oc.I1.values[0]) < 1e-10
        assert abs(oc.I2.values[0] - 1.0) < 1e-10
        assert abs(oc.F.values[0]) < 1e-10
        assert abs(oc.dI1.values[-1] - 1.0) < 1e-10
        assert abs(oc.dI2.values[-1]) < 1e-10
        assert abs(oc.dF.values[-1]) < 1e-10

    def test_abel_identity(self):
        # the Wronskian constant ties the series endpoint to the shooting
        # slope: I2(x1) * psi'(x1) = 1 for psi shot from (0, 1)
        gaps = []
        for n in (1024, 4096):
            g = make_grid(0.8, n)
            a = SampledFn(g, np.cos(g.nodes))
            f = _free(g)
            sol = fundamental_system(a, f, contraction_ratio(1.0, 0.8))
            psi = rk4_ivp(a, f, 0.0, 1.0, a_eval=np.cos, f_eval=lambda x: 0.0)
            gaps.append(abs(sol.i2_at_x1 * psi.du[-1] - 1.0))
        assert gaps[-1] < 1e-8
        # the defect is the series quadrature error, second order in h
        assert gaps[0] / gaps[1] == pytest.approx(16.0, rel=0.5)

    def test_singular_gate(self):
        # a = (pi/2)^2 on [0, 1] makes the shooting denominator vanish
        k2 = (math.pi / 2.0) ** 2
        g = make_grid(1.0, 1024)
        with pytest.raises(OracleSingular):
            oracle_fundamental(_const(g, k2), _free(g),
                               a_eval=lambda x: k2, f_eval=lambda x: 0.0)


class TestCompare:
    def test_self_comparison_is_zero(self):
        g = make_grid(1.0, 256)
        oc = oracle_fundamental(_free(g), _const(g, 1.0))
        assert compare(oc, oc) == 0.0

    def test_series_against_oracle(self):
        g = make_grid(1.0, 1024)
        a = _const(g, 1.0)
        f = _const(g, 1.0)
        sol = fundamental_system(a, f, contraction_ratio(1.0, 1.0))
        oc = oracle_fundamental(a, f, a_eval=lambda x: 1.0, f_eval=lambda x: 1.0)
        assert compare(sol, oc) < 1e-5

    def test_grid_mismatch(self):
        oc1 = oracle_fundamental(_free(make_grid(1.0, 64)), _free(make_grid(1.0, 64)))
        oc2 = oracle_fundamental(_free(make_grid(1.0, 128)), _free(make_grid(1.0, 128)))
        with pytest.raises(GridMismatch):
            compare(oc1, oc2)


def _shaped(shape, scale):
    """A coefficient callable that takes a float or an ndarray of points."""
    if shape == "const":
        return lambda x: scale
    return lambda x: scale * np.cos(3.0 * x + 0.5)


def _sampled(fn, grid):
    return SampledFn(grid, np.broadcast_to(fn(grid.nodes), grid.nodes.shape))


class TestScanAgainstLoop:
    """The prefix scan against the step-by-step loop it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.floats(0.001, 0.99),
        x1=st.floats(0.2, 2.0),
        shape=st.sampled_from(["const", "cos"]),
        n=st.sampled_from([2, 3, 17, 1000, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
                           3 * SCAN_BLOCK + 5, 65536]),
    )
    def test_agrees_within_oracle_limit(self, q, x1, shape, n):
        grid = make_grid(x1, n)
        a_sup = 2.0 * q / (x1 * x1)
        a_eval = _shaped(shape, a_sup)
        f_eval = lambda x: 1.0 + 0.5 * np.sin(2.0 * x)  # noqa: E731
        a, f = _sampled(a_eval, grid), _sampled(f_eval, grid)
        scan = oracle_fundamental(a, f, a_eval=a_eval, f_eval=f_eval)
        loop = loop_fundamental(a, f, a_eval=a_eval, f_eval=f_eval)
        biggest = max(sup_norm(loop.I1), sup_norm(loop.I2), sup_norm(loop.F))
        limit = ORACLE_CONST * grid.h ** 2 * (1.0 + a_sup) * (1.0 + biggest)
        assert compare(scan, loop) <= 1e-3 * limit

    @settings(max_examples=40, deadline=None)
    @given(
        log_k=st.floats(2.0, 7.0),
        shape=st.sampled_from(["const", "cos"]),
        n=st.integers(2, 300),
        start=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.3, -2.0)]),
        forced=st.booleans(),
    )
    def test_diverges_at_the_same_node(self, log_k, shape, n, start, forced):
        grid = make_grid(1.0, n)
        a_eval = _shaped(shape, -(10.0 ** log_k))
        f_eval = (lambda x: 1.0 + x) if forced else (lambda x: 0.0)
        a, f = _sampled(a_eval, grid), _sampled(f_eval, grid)
        outcomes = []
        for integrate in (rk4_ivp, rk4_loop):
            try:
                outcomes.append(integrate(a, f, *start, a_eval=a_eval, f_eval=f_eval))
            except Diverged as exc:
                outcomes.append(str(exc))
        scan, loop = outcomes
        if isinstance(loop, str):
            assert scan == loop
        else:
            assert not isinstance(scan, str), scan
            # unstable steps amplify rounding, so scale by the largest |u| so far
            scale = 1.0 + np.maximum.accumulate(np.abs(loop.u))
            assert np.max(np.abs(scan.u - loop.u) / scale) < 1e-10
