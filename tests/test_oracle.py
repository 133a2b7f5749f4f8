"""Shooting-oracle tests: the independent check on the series construction."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvpseries.checks import ORACLE_CONST
from bvpseries.errors import Diverged, GridMismatch, OracleSingular
from bvpseries.grid import CoefficientSpec, SampledFn, make_grid, sample
from bvpseries.oracle import SCAN_BLOCK, compare, oracle_fundamental, rk4_ivp, step_ends
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
        assert np.max(np.abs(t.u - (2.0 + 3.0 * g.nodes[t.index]))) < 1e-13
        assert np.max(np.abs(t.du - 3.0)) < 1e-14

    def test_interpolated_coefficients(self):
        # without callables the step midpoints take the odd nodes' samples,
        # and the odd last interval's midpoint is interpolated
        g = make_grid(1.0, 1025)
        t = rk4_ivp(_const(g, 1.0), _free(g), 1.0, 0.0)
        assert abs(t.u[-1] - math.cos(1.0)) < 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    def test_states_at_the_step_ends(self, n):
        g = make_grid(0.2, n)
        t = rk4_ivp(_const(g, 1.0), _free(g), 1.0, 0.0)
        want = [*range(0, n + 1, 2), *([n] if n % 2 else [])]
        assert t.index.tolist() == step_ends(n).tolist() == want
        assert t.u.shape == t.du.shape == (len(want),)
        assert np.max(np.abs(t.u - np.cos(g.nodes[t.index]))) < 1e-5

    def test_midpoint_callables_see_the_step_midpoints(self):
        g = make_grid(1.0, 5)
        seen = []

        def a_eval(x):
            seen.append(x.copy())
            return 1.0

        rk4_ivp(_const(g, 1.0), _free(g), 1.0, 0.0, a_eval=a_eval)
        (mids,) = seen
        assert mids.tolist() == [g.nodes[1], g.nodes[3], g.nodes[4] + g.h / 2.0]

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

    @pytest.mark.parametrize("n", [64, 65])
    def test_divergence_names_the_step_end(self, n):
        # the state first passes the guard at a step end, never at an odd node
        g = make_grid(1.0, n)
        with pytest.raises(Diverged) as info:
            rk4_ivp(_const(g, -1e6), _free(g), 1.0, 0.0)
        x = float(str(info.value).rsplit("x = ", 1)[1])
        ends = g.nodes[step_ends(n)]
        assert x in ends.tolist() and x < g.x1
        with pytest.raises(Diverged) as loop_info:
            rk4_loop(_const(g, -1e6), _free(g), 1.0, 0.0)
        assert str(loop_info.value) == str(info.value)


class TestOracleFundamental:
    def test_free_problem_exact(self):
        g = make_grid(1.0, 128)
        oc = oracle_fundamental(_free(g), _free(g))
        assert np.max(np.abs(oc.I1 - g.nodes[oc.index])) < 1e-13
        assert np.max(np.abs(oc.I2 - 1.0)) < 1e-13
        assert np.max(np.abs(oc.F)) < 1e-13

    def test_unit_coefficient_closed_forms(self):
        g = make_grid(1.0, 1024)
        oc = oracle_fundamental(_const(g, 1.0), _free(g),
                                a_eval=lambda x: 1.0, f_eval=lambda x: 0.0)
        x = g.nodes[oc.index]
        assert np.max(np.abs(oc.I1 - np.sin(x) / math.cos(1.0))) < 1e-6
        want_i2 = np.cos(x) + math.tan(1.0) * np.sin(x)
        assert np.max(np.abs(oc.I2 - want_i2)) < 1e-6

    def test_boundary_normalization(self):
        g = make_grid(0.9, 512)
        a = SampledFn(g, np.sin(g.nodes))
        f = SampledFn(g, np.cos(g.nodes))
        oc = oracle_fundamental(a, f, a_eval=np.sin, f_eval=np.cos)
        assert abs(oc.I1[0]) < 1e-10
        assert abs(oc.I2[0] - 1.0) < 1e-10
        assert abs(oc.F[0]) < 1e-10
        assert abs(oc.dI1[-1] - 1.0) < 1e-10
        assert abs(oc.dI2[-1]) < 1e-10
        assert abs(oc.dF[-1]) < 1e-10

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

    @pytest.mark.parametrize("s, c", [(1e-100, 1e-100), (1e13, 1e200), (1e100, 1e200)])
    def test_gates_do_not_depend_on_scale(self, s, c):
        # x -> s x with a -> a / s^2 maps I1 to s I1 and leaves I2 as it
        # is; f -> c f / s^2 then maps F to c F. Neither gate fires.
        n = 64
        base = make_grid(1.0, n)
        g = make_grid(s, n)
        a0, f0 = np.cos(base.nodes), 1.0 + base.nodes
        want = oracle_fundamental(SampledFn(base, a0), SampledFn(base, f0))
        got = oracle_fundamental(SampledFn(g, a0 / s / s), SampledFn(g, f0 * c / s / s))
        assert np.allclose(got.I1 / s, want.I1, rtol=1e-12, atol=0.0)
        assert np.allclose(got.I2, want.I2, rtol=1e-12, atol=0.0)
        assert np.allclose(got.F / c, want.F, rtol=1e-12, atol=0.0)

    @staticmethod
    def _assert_singular(n):
        # a = (pi/2)^2 on [0, 1] makes the shooting denominator vanish
        k2 = (math.pi / 2.0) ** 2
        g = make_grid(1.0, n)
        with pytest.raises(OracleSingular):
            oracle_fundamental(_const(g, k2), _free(g),
                               a_eval=lambda x: k2, f_eval=lambda x: 0.0)

    def test_singular_gate(self):
        for n in (1024, 2048, 4096):
            self._assert_singular(n)

    # ROADMAP item 11: the gate, 1e-12 times the scale of psi', lies below
    # the RK4 error of psi'(x1) on coarser grids, so the oracle returns there
    # (sup|I1| 1.3e8, 2.1e9 and 3.4e10). A gate derived from the RK4 error
    # drops the mark.
    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="the singular gate is below the RK4 error at n <= 512")
    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_singular_gate_on_coarse_grids(self, n):
        self._assert_singular(n)

    @pytest.mark.parametrize("n, same", [(8, True), (9, False)])
    def test_midpoint_callables_matter_only_at_odd_n(self, n, same):
        # for even n the step midpoints are the odd nodes, so evaluating the
        # specs there gives the node samples' bits; an odd n's last midpoint
        # lies between two nodes, where the samples are interpolated
        a_spec = CoefficientSpec.expression("cos(x)")
        f_spec = CoefficientSpec.expression("exp(-x)")
        g = make_grid(0.9, n)
        a, f = sample(a_spec, g), sample(f_spec, g)
        plain = oracle_fundamental(a, f)
        evaluated = oracle_fundamental(a, f, a_eval=a_spec.evaluate, f_eval=f_spec.evaluate)
        for name in ("I1", "I2", "F", "dI1", "dI2", "dF"):
            assert (getattr(plain, name).tobytes() == getattr(evaluated, name).tobytes()) is same


class TestCompare:
    def test_self_comparison_is_zero(self):
        # the oracle's own values, at its step ends only
        n = 257
        g = make_grid(1.0, n)
        oc = oracle_fundamental(_free(g), _const(g, 1.0))
        series = {}
        for name in ("I1", "I2", "F"):
            values = np.full(n + 1, 1e6)  # far off everywhere but the step ends
            values[oc.index] = getattr(oc, name)
            series[name] = SampledFn(g, values)
        assert compare(SimpleNamespace(**series), oc) == 0.0

    def test_series_against_oracle(self):
        g = make_grid(1.0, 1024)
        a = _const(g, 1.0)
        f = _const(g, 1.0)
        sol = fundamental_system(a, f, contraction_ratio(1.0, 1.0))
        oc = oracle_fundamental(a, f, a_eval=lambda x: 1.0, f_eval=lambda x: 1.0)
        assert compare(sol, oc) < 1e-5

    def test_grid_mismatch(self):
        g = make_grid(1.0, 64)
        sol = fundamental_system(_free(g), _free(g), contraction_ratio(0.0, 1.0))
        oc = oracle_fundamental(_free(make_grid(1.0, 128)), _free(make_grid(1.0, 128)))
        with pytest.raises(GridMismatch):
            compare(sol, oc)

    def test_ivp_grid_mismatch(self):
        with pytest.raises(GridMismatch, match="a and f must share a grid"):
            rk4_ivp(_free(make_grid(1.0, 64)), _free(make_grid(1.0, 128)), 1.0, 0.0)


def _shaped(shape, scale):
    """A coefficient callable that takes a float or an ndarray of points."""
    if shape == "const":
        return lambda x: scale
    return lambda x: scale * np.cos(3.0 * x + 0.5)


def _sampled(fn, grid):
    return SampledFn(grid, np.broadcast_to(fn(grid.nodes), grid.nodes.shape))


def _gap(scan, loop):
    """Largest relative gap between two shooting results at their step ends."""
    assert scan.index.tolist() == loop.index.tolist()
    return max(float(np.max(np.abs(getattr(scan, name) - getattr(loop, name))
                            / (1.0 + np.abs(getattr(loop, name)))))
               for name in ("I1", "I2", "F"))


class TestScanAgainstLoop:
    """The prefix scan against the step-by-step loop it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.floats(0.001, 0.99),
        x1=st.floats(0.2, 2.0),
        shape=st.sampled_from(["const", "cos"]),
        n=st.sampled_from([2, 3, 17, 1000, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
                           2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK, 2 * SCAN_BLOCK + 1,
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
        biggest = max(np.max(np.abs(getattr(loop, name))) for name in ("I1", "I2", "F"))
        limit = ORACLE_CONST * grid.h ** 2 * (1.0 + a_sup) * (1.0 + biggest)
        assert _gap(scan, loop) <= 1e-3 * limit

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 4097])
    @pytest.mark.parametrize("callables", [False, True])
    def test_matches_the_loop_on_node_pairs(self, n, callables):
        grid = make_grid(1.3, n)
        a_eval = _shaped("cos", 0.9)
        f_eval = lambda x: 1.0 + 0.5 * np.sin(2.0 * x)  # noqa: E731
        a, f = _sampled(a_eval, grid), _sampled(f_eval, grid)
        evals = {"a_eval": a_eval, "f_eval": f_eval} if callables else {}
        scan = oracle_fundamental(a, f, **evals)
        loop = loop_fundamental(a, f, **evals)
        assert _gap(scan, loop) <= 1e-13
        for start in ((1.0, 0.0), (0.3, -2.0)):
            one = rk4_ivp(a, f, *start, **evals)
            ref = rk4_loop(a, f, *start, **evals)
            assert one.index.tolist() == ref.index.tolist()
            assert np.max(np.abs(one.u - ref.u)) <= 1e-13
            assert np.max(np.abs(one.du - ref.du)) <= 1e-13

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
