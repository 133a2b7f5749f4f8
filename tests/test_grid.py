"""Grid construction, sampling, norms, and trapezoid integration tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvpseries.errors import (
    EvalError,
    InvalidDomain,
    TableDomainError,
)
from bvpseries import expr, grid
from bvpseries.expr import EVAL_BLOCK
from bvpseries.grid import (
    MAX_INTERVALS,
    CoefficientSpec,
    SampledFn,
    make_grid,
    prefix_trapz,
    sample,
    same_grid,
    sup_norm,
    tail_trapz,
)


class TestMakeGrid:
    def test_unit_interval(self):
        g = make_grid(1.0, 4)
        assert g.h == 0.25
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoints_exact(self):
        g = make_grid(0.7301, 1024)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 0.7301

    def test_spacing_uniform(self):
        g = make_grid(2.0, 640)
        steps = np.diff(g.nodes)
        assert np.max(np.abs(steps - g.h)) < 1e-15

    @pytest.mark.parametrize("x1", [0.0, -1.0, math.inf, math.nan])
    def test_bad_x1(self, x1):
        with pytest.raises(InvalidDomain):
            make_grid(x1, 8)

    @pytest.mark.parametrize("x1, n, square", [
        (1e-160, 1024, "x1*x1 = 1e-320"),  # underflows to a subnormal
        (1e-150, 2**20, "h*h = "),  # x1*x1 is normal, h*h is not
        (1.5e154, 8, "x1*x1 = inf"),
        (1e160, 8, "x1*x1 = inf"),
    ])
    def test_x1_whose_squares_leave_the_normal_floats(self, x1, n, square, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("make_grid allocated nodes for a refused x1")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(InvalidDomain, match="is not a normal finite float") as info:
            make_grid(x1, n)
        assert str(info.value).startswith(square)

    @pytest.mark.parametrize("x1", [1e-150, 1e150])
    def test_extreme_x1_with_normal_squares(self, x1):
        g = make_grid(x1, 8)
        assert g.nodes[-1] == x1 and g.h * g.h > 0.0

    @pytest.mark.parametrize("n", [1, 0, -4, 2.0, True])
    def test_bad_n(self, n):
        with pytest.raises(InvalidDomain):
            make_grid(1.0, n)

    @pytest.mark.parametrize("n", [MAX_INTERVALS + 1, 10**15])
    def test_n_beyond_memory_budget(self, n, monkeypatch):
        # refused before the node array exists: building it fails the test
        def refuse(*args, **kwargs):
            raise AssertionError("make_grid allocated nodes for a refused n")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(InvalidDomain, match="memory budget"):
            make_grid(1.0, n)
        assert MAX_INTERVALS >= 65536

    def test_nodes_are_read_only(self):
        g = make_grid(1.0, 8)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0

    def test_same_grid(self):
        assert same_grid(make_grid(1.0, 8), make_grid(1.0, 8))
        assert not same_grid(make_grid(1.0, 8), make_grid(1.0, 16))
        assert not same_grid(make_grid(1.0, 8), make_grid(2.0, 8))


class TestSampledFn:
    def test_shape_checked(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidDomain):
            SampledFn(g, np.zeros(4))

    def test_finite_checked(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidDomain):
            SampledFn(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


class TestCoefficientSpec:
    def test_expression_sampling(self):
        g = make_grid(1.0, 4)
        a = sample(CoefficientSpec.expression("x^2"), g)
        assert np.allclose(a.values, g.nodes ** 2, rtol=0, atol=1e-16)

    def test_expression_eval_error_reports_node(self):
        g = make_grid(1.0, 2)
        with pytest.raises(EvalError) as info:
            sample(CoefficientSpec.expression("1/(x - 0.5)"), g)
        assert "x = 0.5" in str(info.value)
        assert info.value.x == 0.5

    def test_eval_error_names_the_node_without_a_second_walk(self, monkeypatch):
        # the failure is at the last node: the array walk has already found
        # it, so sampling must not evaluate every node again point by point
        points = []
        depth = 0
        original = expr.eval_expr

        def counting(e, x):
            nonlocal depth
            if depth == 0:
                points.append(x)
            depth += 1
            try:
                return original(e, x)
            finally:
                depth -= 1

        monkeypatch.setattr(expr, "eval_expr", counting)
        monkeypatch.setattr(grid, "eval_expr", counting)
        g = make_grid(1.0, 65536)
        with pytest.raises(EvalError) as info:
            sample(CoefficientSpec.expression("1/(x-1)"), g)
        assert 0 < len(points) <= 3 * EVAL_BLOCK
        assert str(info.value) == "'1/(x-1)' at x = 1.0: division by zero at x = 1.0"
        assert info.value.x == 1.0

    def test_table_interpolation(self):
        g = make_grid(1.0, 2)
        t = CoefficientSpec.table([0.0, 1.0], [1.0, 3.0])
        assert np.array_equal(sample(t, g).values, [1.0, 2.0, 3.0])
        # sampling goes through evaluate's np.interp, bit for bit
        g = make_grid(1.3, 1000)
        xs = 1.4 * np.linspace(0.0, 1.0, 37) ** 2
        values = np.sin(7.0 * xs)
        t = CoefficientSpec.table(xs, values)
        assert np.array_equal(sample(t, g).values.view(np.int64),
                              np.interp(g.nodes, xs, values).view(np.int64))

    def test_table_must_cover_domain(self):
        t = CoefficientSpec.table([0.0, 0.5], [1.0, 1.0])
        with pytest.raises(TableDomainError):
            t.check_span(1.0)
        t.check_span(0.5)

    def test_table_requires_increasing_xs(self):
        with pytest.raises(TableDomainError):
            CoefficientSpec.table([0.0, 0.5, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(TableDomainError):
            CoefficientSpec.table([0.0], [1.0])

    def test_table_requires_finite_values(self):
        with pytest.raises(TableDomainError):
            CoefficientSpec.table([0.0, 1.0], [1.0, math.inf])

    def test_evaluate(self):
        e = CoefficientSpec.expression("2*x + 1")
        assert e.evaluate(0.5) == 2.0
        t = CoefficientSpec.table([0.0, 2.0], [0.0, 4.0])
        assert t.evaluate(0.5) == 1.0

    def test_evaluate_array(self):
        t = CoefficientSpec.table([0.0, 2.0], [0.0, 4.0])
        assert np.array_equal(t.evaluate(np.array([0.5, 1.5])), [1.0, 3.0])
        with pytest.raises(TableDomainError, match=r"x = 2.5 outside table span \[0.0, 2.0\]"):
            t.evaluate(np.array([0.5, 2.5, 3.0]))
        with pytest.raises(TableDomainError, match=r"x = 3.0 outside"):
            t.evaluate(3.0)

    def test_from_csv(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("x,value\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        t = CoefficientSpec.from_csv(p)
        assert t.evaluate(0.25) == 1.5

    def test_from_csv_without_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0.0,1.0\n1.0,3.0\n")
        assert CoefficientSpec.from_csv(p).evaluate(0.5) == 2.0

    def test_from_csv_bad_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0.0,1.0\n0.5,oops\n")
        with pytest.raises(TableDomainError):
            CoefficientSpec.from_csv(p)

    def test_from_csv_short_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0.0,1.0\n0.5\n")
        with pytest.raises(TableDomainError):
            CoefficientSpec.from_csv(p)


class TestSupNorm:
    def test_constant(self):
        g = make_grid(1.0, 32)
        assert sup_norm(SampledFn(g, np.ones(33))) == 1.0

    def test_sign_insensitive(self):
        g = make_grid(1.0, 32)
        assert sup_norm(SampledFn(g, -3.0 * np.ones(33))) == 3.0

    def test_interior_peak_resolved(self):
        g = make_grid(1.0, 4096)
        u = sample(CoefficientSpec.expression("sin(3*x)"), g)
        assert abs(sup_norm(u) - 1.0) < 1e-6


class TestCumulativeIntegral:
    """grid.prefix_trapz, the running trapezoid integral every integral uses."""

    def test_linear_integrand_exact(self):
        # the trapezoid rule integrates the piecewise-linear interpolant
        # exactly, so node values of int_0^x t dt match x^2/2 to rounding
        g = make_grid(2.0, 64)
        u = SampledFn(g, g.nodes.copy())
        got = prefix_trapz(u.values, g.h)
        assert np.max(np.abs(got - g.nodes ** 2 / 2.0)) < 1e-14

    def test_reference_summation(self):
        # same quadrature, independently accumulated with exact fsum
        rng = np.random.default_rng(7)
        g = make_grid(1.3, 97)
        u = SampledFn(g, rng.standard_normal(98))
        got = prefix_trapz(u.values, g.h)
        for i in (0, 1, 17, 97):
            cells = [g.h * (u.values[j] + u.values[j + 1]) / 2.0 for j in range(i)]
            assert got[i] == pytest.approx(math.fsum(cells), rel=1e-13, abs=1e-15)

    def test_starts_at_zero(self):
        g = make_grid(1.0, 8)
        u = SampledFn(g, np.arange(9.0))
        assert prefix_trapz(u.values, g.h)[0] == 0.0

    @given(st.floats(-5, 5), st.floats(-5, 5), st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, s, t, n):
        g = make_grid(1.0, n)
        rng = np.random.default_rng(n)
        u = SampledFn(g, rng.standard_normal(n + 1))
        v = SampledFn(g, rng.standard_normal(n + 1))
        lhs = prefix_trapz(s * u.values + t * v.values, g.h)
        rhs = s * prefix_trapz(u.values, g.h) + t * prefix_trapz(v.values, g.h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1.0 + abs(s) + abs(t))

    def test_tail_is_total_minus_prefix(self):
        # grid.tail_trapz, the integral over [x_i, x1]: exactly 0 at x1
        rng = np.random.default_rng(5)
        g = make_grid(1.3, 97)
        values = rng.standard_normal(98)
        prefix = prefix_trapz(values, g.h)
        tail = tail_trapz(values, g.h)
        assert tail[-1] == 0.0
        assert tail[0] == prefix[-1]
        assert np.array_equal(tail, prefix[-1] - prefix)

    def test_second_order_convergence(self):
        # integrating sin on [0, 1]: endpoint error shrinks by 4x per halving
        errs = []
        for n in (64, 128, 256):
            g = make_grid(1.0, n)
            u = SampledFn(g, np.sin(g.nodes))
            errs.append(abs(prefix_trapz(u.values, g.h)[-1] - (1.0 - math.cos(1.0))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)
