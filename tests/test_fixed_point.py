"""The shared fixed-point code: ``grid.fixed_point_defect``, the one pass
that forms S - B_h(a S) - seed, and the derivative identities that both
series engines finish with (series_core's docstring)."""

import numpy as np
import pytest

from b_reference import apply_B_reference
from bvpseries.grid import (CoefficientSpec, SampledFn, fixed_point_defect, make_grid, max_abs,
                            sample_together, tail_trapz)
from bvpseries.series_core import contraction_ratio, scan_or_sum

UNIT_ROUNDOFF = 2.0**-53


def _inputs(n, x1=1.3, scalar_seed=False):
    """Random S, a and seed on n intervals of [0, x1], as the read-only
    values of SampledFns, and the grid's h."""
    rng = np.random.default_rng(n)
    grid = make_grid(x1, n)
    S, a, seed = (SampledFn(grid, rng.standard_normal(n + 1)).values for _ in range(3))
    return S, a, (0.7 if scalar_seed else seed), grid.h


@pytest.mark.parametrize("scalar_seed", [False, True])
@pytest.mark.parametrize("n", [2, 3, 64])
def test_defect_agrees_with_the_reference_b(n, scalar_seed):
    # Each side is S - B(a S) - seed with its own rounding: a pass of B on
    # w = a S leaves at most (3n + 8) u x1^2 sup|w| (checks._pass_rounding,
    # which counts the product a S too; the reference's pairwise sums round
    # no more than the prefix sums), and the two subtractions at most
    # 2 u (sup|S| + sup|B w| + sup|seed|)
    S, a, seed, h = _inputs(n, scalar_seed=scalar_seed)
    x1 = n * h
    want_b = apply_B_reference(a * S, h)
    got = fixed_point_defect(S, a, seed, h)
    want = S - want_b - seed
    one_side = ((3 * n + 8) * x1 * x1 * max_abs(a * S)
                + 2.0 * (max_abs(S) + max_abs(want_b) + max_abs(np.asarray(seed))))
    assert max_abs(got - want) <= 2.0 * UNIT_ROUNDOFF * one_side


@pytest.mark.parametrize("n", [2, 3, 64])
def test_scratch_holds_the_tail_pass(n):
    S, a, seed, h = _inputs(n)
    scratch = np.full(n + 1, np.nan)
    fixed_point_defect(S, a, seed, h, scratch=scratch)
    assert np.array_equal(scratch, tail_trapz(a * S, h))


@pytest.mark.parametrize("scalar_seed", [False, True])
@pytest.mark.parametrize("n", [2, 3, 64])
def test_buffered_and_allocating_calls_give_the_same_bits(n, scalar_seed):
    S, a, seed, h = _inputs(n, scalar_seed=scalar_seed)
    out, scratch = np.full(n + 1, np.nan), np.full(n + 1, np.nan)
    buffered = fixed_point_defect(S, a, seed, h, out=out, scratch=scratch)
    assert buffered is out
    assert np.array_equal(buffered, fixed_point_defect(S, a, seed, h))
    assert np.array_equal(buffered, fixed_point_defect(S, a, seed, h, out=np.empty(n + 1)))


def test_the_inputs_are_only_read():
    # read-only arrays: a write into any of them would raise
    S, a, seed, h = _inputs(64)
    before = [S.copy(), a.copy(), seed.copy()]
    fixed_point_defect(S, a, seed, h, out=np.empty(65), scratch=np.empty(65))
    fixed_point_defect(S, a, seed, h)
    assert all(np.array_equal(now, then) for now, then in zip((S, a, seed), before))


@pytest.mark.parametrize("engine", ["summed", "scanned"])
def test_both_engines_finish_with_the_derivative_identities(engine):
    # dI1 = 1 + T_I1, dI2 = T_I2 and dF = T_F - int_x^{x1} f, bit for bit,
    # with T_S = tail_trapz(a S); q = 0.99 is scanned, 0.3 summed
    grid = make_grid(1.0, 1024)
    q = 0.99 if engine == "scanned" else 0.3
    a, f = sample_together((CoefficientSpec.expression(f"{2.0 * q!r}*cos(3*x)"),
                            CoefficientSpec.expression("exp(-x)")), grid)
    sol = scan_or_sum(a, f, contraction_ratio(a.sup, grid.x1))
    assert (sol.terms_used["I1"] == 0) == (engine == "scanned")
    tails = {name: tail_trapz(a.values * getattr(sol, name).values, grid.h)
             for name in ("I1", "I2", "F")}
    assert np.array_equal(sol.dI1.values, 1.0 + tails["I1"])
    assert np.array_equal(sol.dI2.values, tails["I2"])
    assert np.array_equal(sol.dF.values, tails["F"] - tail_trapz(f.values, grid.h))
