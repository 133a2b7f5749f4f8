"""Series construction tests: operator B, seeds, certified summation."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvpseries.errors import (
    ContractionViolation,
    GridMismatch,
    InvalidDomain,
    MaxTermsExceeded,
)
from bvpseries.grid import (
    CoefficientSpec,
    SampledFn,
    make_grid,
    nested_trapz,
    prefix_trapz,
    sample,
    sup_norm,
    tail_trapz,
)
from bvpseries.series_core import (
    _certified_terms,
    compute_g,
    contraction_ratio,
    fundamental_system,
)

from b_reference import apply_B_reference


def _const(grid, value):
    return SampledFn(grid, np.full(grid.n + 1, float(value)))


class TestContractionRatio:
    def test_half(self):
        cert = contraction_ratio(1.0, 1.0)
        assert cert.q == 0.5
        assert cert.margin == 0.5

    def test_zero_coefficient(self):
        assert contraction_ratio(0.0, 10.0).q == 0.0

    def test_violation(self):
        with pytest.raises(ContractionViolation) as info:
            contraction_ratio(1.0, 1.5)
        assert info.value.q == 1.125
        assert info.value.max_x1 == pytest.approx(math.sqrt(2.0))
        assert "1.41421" in str(info.value)

    @pytest.mark.parametrize("a_sup, bound", [(1e12, "1.41421e-06"), (3e5, "0.00258199")])
    def test_violation_prints_the_bound_in_significant_digits(self, a_sup, bound):
        with pytest.raises(ContractionViolation) as info:
            contraction_ratio(a_sup, 1.0)
        assert f"x1 < {bound} for sup|a| = {a_sup:g}" in str(info.value)

    def test_boundary_rejected(self):
        # q = 1 exactly is outside the contraction region
        with pytest.raises(ContractionViolation):
            contraction_ratio(2.0, 1.0)
        with pytest.raises(ContractionViolation):
            contraction_ratio(0.5, 2.0)

    def test_bad_arguments(self):
        with pytest.raises(InvalidDomain):
            contraction_ratio(-1.0, 1.0)
        with pytest.raises(InvalidDomain):
            contraction_ratio(1.0, 0.0)
        with pytest.raises(InvalidDomain):
            contraction_ratio(math.nan, 1.0)


class TestApplyB:
    def test_constant_seed_closed_form(self):
        # a = 1, u = 1: (B u)(x) = x - x^2/2, node-exact because the inner
        # integral is linear in the outer variable
        g = make_grid(1.0, 8)
        got = nested_trapz(np.ones(9), g.h)
        want = g.nodes - g.nodes ** 2 / 2.0
        assert np.max(np.abs(got - want)) < 1e-15
        assert got[4] == 0.375

    def test_identity_seed_discrete_form(self):
        # a = 1, u = t: the quadrature value at x = 1 is 1/3 - h^2/12 exactly
        for n in (8, 16, 64):
            g = make_grid(1.0, n)
            got = nested_trapz(g.nodes, g.h)
            assert got[-1] == pytest.approx(1.0 / 3.0 - g.h ** 2 / 12.0, rel=0, abs=1e-16)

    def test_zero_coefficient(self):
        g = make_grid(1.0, 16)
        got = nested_trapz(0.0 * np.sin(g.nodes), g.h)
        assert np.array_equal(got, np.zeros(17))

    def test_vanishes_at_origin(self):
        g = make_grid(0.9, 32)
        rng = np.random.default_rng(3)
        got = nested_trapz(rng.standard_normal(33) * rng.standard_normal(33), g.h)
        assert got[0] == 0.0

    def test_matches_reference(self):
        # the O(n) evaluation equals the O(n^2) nested-trapezoid transcription
        rng = np.random.default_rng(11)
        for n in (16, 64, 256):
            g = make_grid(1.0, n)
            w = rng.standard_normal(n + 1) * rng.standard_normal(n + 1)
            fast = nested_trapz(w, g.h)
            ref = apply_B_reference(w, g.h)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(fast - ref)) / scale < 1e-13

    @pytest.mark.parametrize("n", [2, 7, 256, 4099])
    @pytest.mark.parametrize("shape", ["smooth", "random"])
    def test_second_difference_identity(self, n, shape):
        # the nested trapezoid rule's discrete identity
        #   (B w)[i-1] - 2 (B w)[i] + (B w)[i+1] = -h^2 (w[i-1] + 2 w[i] + w[i+1]) / 4
        # up to rounding, in units of u x1^2 sup|w|: at most 4.75 from the
        # pass (checks._rounding_floor), 3.5 from the stencil and 1 from the
        # right side, so 10 in all
        x1 = 1.3
        g = make_grid(x1, n)
        if shape == "smooth":
            w = np.cos(3.0 * g.nodes) + g.nodes
        else:
            w = np.random.default_rng(n).standard_normal(n + 1)
        b = nested_trapz(w, g.h)
        d2 = b[:-2] - 2.0 * b[1:-1] + b[2:]
        want = -g.h * g.h * (w[:-2] + 2.0 * w[1:-1] + w[2:]) / 4.0
        unit_roundoff = np.finfo(float).eps / 2.0
        bound = 10.0 * unit_roundoff * x1 * x1 * np.max(np.abs(w))
        assert np.max(np.abs(d2 - want)) <= bound


class TestComputeG:
    def test_unit_forcing(self):
        # f = 1 on [0, 1]: g(x) = x^2/2 - x, node-exact
        g = make_grid(1.0, 64)
        got = compute_g(_const(g, 1.0))
        assert np.max(np.abs(got.values - (g.nodes ** 2 / 2.0 - g.nodes))) < 1e-15

    def test_constant_forcing_long_interval(self):
        # f = 2 on [0, 2]: g(x) = x^2 - 4x, so g(1) = -3
        g = make_grid(2.0, 512)
        got = compute_g(_const(g, 2.0))
        assert got.values[256] == pytest.approx(-3.0, rel=0, abs=1e-13)

    def test_zero_forcing_gives_positive_zeros(self):
        g = make_grid(1.0, 16)
        got = compute_g(_const(g, 0.0))
        assert np.array_equal(got.values, np.zeros(17))
        assert not np.signbit(got.values).any()

    def test_second_difference_recovers_linear_forcing(self):
        # g'' = f holds exactly on the grid when f is linear
        g = make_grid(1.0, 64)
        f = SampledFn(g, 2.0 + 3.0 * g.nodes)
        gg = compute_g(f).values
        d2 = (gg[:-2] - 2.0 * gg[1:-1] + gg[2:]) / g.h ** 2
        assert np.max(np.abs(d2 - f.values[1:-1])) < 1e-10

    def test_second_difference_discrete_identity(self):
        # for any f, the discrete second difference of g is exactly
        # f + (second difference of f) / 4; the defect is pure rounding
        g = make_grid(1.0, 128)
        f = SampledFn(g, np.cos(g.nodes))
        gg = compute_g(f).values
        d2 = (gg[:-2] - 2.0 * gg[1:-1] + gg[2:]) / g.h ** 2
        fv = f.values
        pred = fv[1:-1] + (fv[:-2] - 2.0 * fv[1:-1] + fv[2:]) / 4.0
        assert np.max(np.abs(d2 - pred)) < 1e-10

    def test_boundary_values(self):
        g = make_grid(1.0, 32)
        got = compute_g(SampledFn(g, np.exp(g.nodes)))
        assert got.values[0] == 0.0

    def test_overflow_names_g(self):
        # f is finite at every node, but f_0 + f_1 in the first pass is not
        g = make_grid(1.0, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidDomain, match="double integral g overflowed"):
                compute_g(_const(g, 1e308))


class TestCertifiedTerms:
    @pytest.mark.parametrize("seed_sup, q, tol", [
        (1.0, 0.5, 5e-324),       # the budget underflows to 0
        (0.5e300, 0.5, 1e-300),   # a huge forcing's seed
        (1.7e308, 0.99, 1e-300),  # 2 * seed_sup overflows
        (1e-300, 0.5, 1e300),     # the budget overflows: one term
        (1.0, 0.5, 1e-10),
        (2.0, 0.99, 1e-10),
    ])
    def test_count_meets_apriori_inequality(self, seed_sup, q, tol):
        # the smallest count with 2 seed_sup q^terms / (1 - q) <= tol, checked
        # in logarithms, where the products under- or overflow
        terms, tail = _certified_terms(seed_sup, q, tol)
        assert isinstance(terms, int) and terms >= 1

        def log_bound(k):
            return math.log(2.0) + math.log(seed_sup) + k * math.log(q) - math.log(1.0 - q)

        slack = 1e-12 * abs(math.log(tol))
        assert log_bound(terms) <= math.log(tol) + slack
        assert terms == 1 or log_bound(terms - 1) > math.log(tol) - slack
        assert tail <= tol

    def test_count_rounded_below_the_bound_is_raised(self):
        # ceil(log_budget / log q) gives 34, but at 34 terms the bound
        # exceeds tol by a factor 1 + 2e-16 in exact arithmetic: the loop
        # after the ceil raises the count to 35
        seed_sup, q, tol = 0.04465995664899696, 0.42449258586904914, 3.455262817445901e-14
        log_budget = (math.log(tol) + math.log(1.0 - q) - math.log(2.0)
                      - math.log(seed_sup))
        assert math.ceil(log_budget / math.log(q)) == 34
        terms, tail = _certified_terms(seed_sup, q, tol)
        assert terms == 35 and tail <= tol

        def bound(k):
            return 2 * Fraction(seed_sup) * Fraction(q) ** k / (1 - Fraction(q))

        assert bound(34) > Fraction(tol) >= bound(35)

    def test_known_counts(self):
        assert _certified_terms(0.0, 0.5, 1e-10) == (1, 0.0)
        assert _certified_terms(1.0, 0.0, 1e-10) == (1, 0.0)
        assert _certified_terms(1.0, 0.5, 5e-324)[0] == 1076
        assert _certified_terms(0.5e300, 0.5, 1e-300)[0] == 1995

    @pytest.mark.parametrize("seed_sup, q, tol, want", [
        # 2 * 1.0 * 0.5^1076 / 0.5 = 2^-1074, the smallest positive float
        (1.0, 0.5, 5e-324, 5e-324),
        # 0.5e300 * 0.5^1995 * 4 = 2e300 * 2^-1995 = 4.9e-301; 0.5^1995 underflows
        (0.5e300, 0.5, 1e-300, 2e300 * 2.0 ** -997 * 2.0 ** -998),
    ])
    def test_tail_stays_positive_when_the_power_underflows(self, seed_sup, q, tol, want):
        _, tail = _certified_terms(seed_sup, q, tol)
        assert 0.0 < tail <= tol
        assert tail == pytest.approx(want, rel=1e-9)


class TestSumSeries:
    """The sums of ``fundamental_system``, each from its seed: x (I1), 1
    (I2) or g = compute_g(f) (F)."""

    def test_zero_coefficient_returns_seed(self):
        g = make_grid(1.0, 16)
        sol = fundamental_system(_const(g, 0.0), _const(g, 0.0), contraction_ratio(0.0, 1.0))
        assert np.array_equal(sol.I1.values, g.nodes)
        assert sol.terms_used["I1"] == 1
        assert sol.tail_bound["I1"] == 0.0

    def test_unit_coefficient_closed_forms(self):
        # a = 1 on [0, 1]: summing from the identity seed gives
        # sin(x)/cos(1), from the constant seed cos(x) + tan(1) sin(x)
        g = make_grid(1.0, 2048)
        sol = fundamental_system(_const(g, 1.0), _const(g, 0.0), contraction_ratio(1.0, 1.0))
        i1, i2 = sol.I1, sol.I2
        assert abs(i1.values[-1] - math.tan(1.0)) < 1e-6
        assert abs(i2.values[-1] - 1.0 / math.cos(1.0)) < 1e-6
        want_i1 = np.sin(g.nodes) / math.cos(1.0)
        want_i2 = np.cos(g.nodes) + math.tan(1.0) * np.sin(g.nodes)
        assert np.max(np.abs(i1.values - want_i1)) < 1e-6
        assert np.max(np.abs(i2.values - want_i2)) < 1e-6

    def test_tail_bound_controls_refinement(self):
        # tightening tol moves the sum by less than the coarser tail bound
        g = make_grid(0.9, 256)
        a = SampledFn(g, 1.5 * np.cos(g.nodes))
        cert = contraction_ratio(sup_norm(a), 0.9)
        coarse = fundamental_system(a, _const(g, 0.0), cert, tol=1e-6)
        fine = fundamental_system(a, _const(g, 0.0), cert, tol=1e-12)
        tail_c, tail_f = coarse.tail_bound["I2"], fine.tail_bound["I2"]
        gap = np.max(np.abs(coarse.I2.values - fine.I2.values))
        assert gap <= tail_c + tail_f
        assert tail_c <= 1e-6
        assert tail_f <= 1e-12

    def test_max_terms_exceeded(self):
        g = make_grid(1.0, 64)
        a = _const(g, 1.98)
        cert = contraction_ratio(1.98, 1.0)
        with pytest.raises(MaxTermsExceeded) as info:
            fundamental_system(a, _const(g, 0.0), cert, max_terms=100)
        assert info.value.cap == 100
        assert info.value.needed > 1000
        assert "0.99" in str(info.value)

    def test_cap_counts_summed_terms(self):
        # the cap refuses only a sum that reaches it before the measured
        # tail meets tol, whatever the a-priori count
        g = make_grid(1.0, 64)
        a = _const(g, 1.98)
        f = SampledFn(g, np.cos(g.nodes))
        cert = contraction_ratio(1.98, 1.0)
        sol = fundamental_system(a, f, cert)
        name = max(sol.terms_used, key=sol.terms_used.get)
        terms = sol.terms_used[name]
        assert terms < sol.terms_apriori[name]
        capped = fundamental_system(a, f, cert, max_terms=terms)
        for series in ("I1", "I2", "F", "dI1", "dI2", "dF"):
            assert np.array_equal(getattr(capped, series).values, getattr(sol, series).values)
        assert ((capped.terms_used, capped.terms_apriori, capped.tail_bound)
                == (sol.terms_used, sol.terms_apriori, sol.tail_bound))
        with pytest.raises(MaxTermsExceeded) as info:
            fundamental_system(a, f, cert, max_terms=terms - 1)
        assert info.value.cap == terms - 1
        assert f"cap {terms - 1}" in str(info.value)

    def test_stalled_terms_stop_at_the_apriori_count(self):
        # at tol 5e-324 the term sups stall at the smallest subnormals, so
        # the measured tail never meets tol: the sum stops at the a-priori
        # count, and the a-priori bound is its tail
        g = make_grid(1.0, 3)
        cert = contraction_ratio(1.8, 1.0)
        assert cert.q == 0.9
        sol = fundamental_system(_const(g, 1.8), _const(g, 0.0), cert, tol=5e-324)
        assert sol.term_sups["I2"][-1] == 5e-324
        assert ((sol.terms_used["I2"], sol.terms_apriori["I2"], sol.tail_bound["I2"])
                == (7095, 7095, 5e-324))

    def test_certificate_mismatch(self):
        g = make_grid(1.0, 16)
        f = _const(g, 1.0)
        with pytest.raises(InvalidDomain):
            fundamental_system(_const(g, 1.0), f, contraction_ratio(1.0, 0.5))
        with pytest.raises(InvalidDomain):
            # certificate understates the actual coefficient bound
            fundamental_system(_const(g, 1.5), f, contraction_ratio(1.0, 1.0))

    def test_bad_tol(self):
        g = make_grid(1.0, 16)
        cert = contraction_ratio(1.0, 1.0)
        with pytest.raises(InvalidDomain):
            fundamental_system(_const(g, 1.0), _const(g, 1.0), cert, tol=0.0)


def _reference_sum(seed, a, q, tol):
    """The sum's loop with the allocating nested rule, one fresh array per
    pass, from the seed's values: the sum and the term sups."""
    h = a.grid.h
    term = np.array(seed, dtype=float)
    total = term.copy()
    sups = [float(np.max(np.abs(term)))]
    while q * sups[-1] / (1.0 - q) > tol:
        term = prefix_trapz(tail_trapz(a.values * term, h), h)
        total += term
        sups.append(float(np.max(np.abs(term))))
    return total, sups


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestInPlaceSum:
    """fundamental_system computes each term in place, into preallocated
    buffers, bit for bit as the allocating nested rule."""

    @pytest.mark.parametrize("n", [2, 3, 4097, 65536])
    @pytest.mark.parametrize("q", [0.05, 0.99])
    def test_matches_the_allocating_loop(self, n, q):
        g = make_grid(1.0, n)
        a = SampledFn(g, 2.0 * q * np.cos(3.0 * g.nodes + 0.2))
        cert = contraction_ratio(sup_norm(a), 1.0)
        assert cert.q == pytest.approx(q, rel=0.05)
        f = SampledFn(g, 1.0 + np.sin(2.0 * g.nodes))
        sol = fundamental_system(a, f, cert)
        for name, seed in (("I1", g.nodes), ("I2", np.ones(n + 1)), ("F", compute_g(f).values)):
            want_total, want_sups = _reference_sum(seed, a, cert.q, 1e-10)
            assert sol.terms_used[name] == len(want_sups) > 1
            assert np.array_equal(_bits(getattr(sol, name).values), _bits(want_total))
            assert np.array_equal(_bits(sol.term_sups[name]), _bits(want_sups))

    def test_peak_memory_does_not_grow_with_terms(self):
        # the same buffers, however many terms: within the 8.5 arrays of
        # the test below
        g = make_grid(1.0, 65536)
        a = SampledFn(g, np.cos(g.nodes))
        f = SampledFn(g, 1.0 + np.sin(2.0 * g.nodes))
        cert = contraction_ratio(1.0, 1.0)
        array = 8 * (g.n + 1)
        runs = {}
        for tol in (1e-4, 1e-14):
            tracemalloc.start()
            try:
                terms = fundamental_system(a, f, cert, tol=tol).terms_used["I1"]
                runs[tol] = terms, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (coarse_terms, coarse_peak), (fine_terms, fine_peak) = runs[1e-4], runs[1e-14]
        assert fine_terms > 2 * coarse_terms
        assert abs(fine_peak - coarse_peak) <= array
        assert fine_peak < 8.5 * array

    def test_fundamental_system_holds_one_buffer_beyond_its_results(self):
        # g, the three limits and their derivatives, plus the one term
        # buffer the sums and the derivatives share (10 arrays when each
        # sum took buffers of its own and the seeds were kept)
        g = make_grid(1.0, 65536)
        a = SampledFn(g, np.cos(g.nodes))
        f = SampledFn(g, 1.0 + np.sin(2.0 * g.nodes))
        cert = contraction_ratio(sup_norm(a), 1.0)
        tracemalloc.start()
        try:
            fundamental_system(a, f, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * 8 * (g.n + 1)


class TestMeasuredTruncation:
    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
           x1=st.floats(min_value=0.3, max_value=2.0),
           shape=st.sampled_from(["const", "cos"]),
           tol=st.sampled_from([1e-6, 1e-10]))
    def test_against_apriori_partial_sum(self, q, x1, shape, tol):
        # every seed, summed to the a-priori count, lies within the returned
        # tail bound (+ tol for rounding) of the sum stopped by measurement
        g = make_grid(x1, 64)
        profile = np.ones(65) if shape == "const" else np.cos(3.0 * g.nodes)
        a = SampledFn(g, 2.0 * q / (x1 * x1) * profile)
        f = SampledFn(g, np.exp(-g.nodes))
        sol = fundamental_system(a, f, contraction_ratio(sup_norm(a), x1), tol=tol)
        seeds = {"I1": g.nodes.copy(), "I2": np.ones(65), "F": compute_g(f).values}
        q = sol.certificate.q
        for name, term in seeds.items():
            assert sol.terms_used[name] <= sol.terms_apriori[name]
            assert sol.tail_bound[name] <= tol
            # stopped at the first term whose measured bound meets tol
            sups = sol.term_sups[name]
            assert q * sups[-1] / (1.0 - q) == sol.tail_bound[name]
            assert all(q * s / (1.0 - q) > tol for s in sups[:-1])
            reference = term.copy()
            for _ in range(sol.terms_apriori[name] - 1):
                term = nested_trapz(a.values * term, g.h)
                reference += term
            gap = np.max(np.abs(getattr(sol, name).values - reference))
            assert gap <= sol.tail_bound[name] + tol, name


class TestDerivativeOf:
    def test_forced_seed_zero_coefficient(self):
        # a = 0, f = 1: the forced sum is g itself and its derivative x - 1
        g = make_grid(1.0, 32)
        sol = fundamental_system(_const(g, 0.0), _const(g, 1.0),
                                 contraction_ratio(0.0, 1.0))
        assert np.array_equal(sol.F.values, compute_g(_const(g, 1.0)).values)
        assert np.max(np.abs(sol.dF.values - (g.nodes - 1.0))) < 1e-15

    def test_identity_seed_unit_coefficient(self):
        g = make_grid(1.0, 2048)
        sol = fundamental_system(_const(g, 1.0), _const(g, 0.0),
                                 contraction_ratio(1.0, 1.0))
        # I1' = cos(x)/cos(1)
        want = np.cos(g.nodes) / math.cos(1.0)
        assert np.max(np.abs(sol.dI1.values - want)) < 1e-6
        assert sol.dI1.values[-1] == 1.0


class TestFundamentalSystem:
    def test_grid_mismatch(self):
        a, f = _const(make_grid(1.0, 16), 0.5), _const(make_grid(1.0, 32), 1.0)
        with pytest.raises(GridMismatch, match="a and f must share a grid"):
            fundamental_system(a, f, contraction_ratio(0.5, 1.0))

    def test_free_problem_is_exact(self):
        # a = 0, f = 0: I1 = x, I2 = 1, F = 0, all bit-exact
        g = make_grid(1.0, 64)
        sol = fundamental_system(_const(g, 0.0), _const(g, 0.0),
                                 contraction_ratio(0.0, 1.0))
        assert np.array_equal(sol.I1.values, g.nodes)
        assert np.array_equal(sol.I2.values, np.ones(65))
        assert np.array_equal(sol.F.values, np.zeros(65))
        assert np.array_equal(sol.dI1.values, np.ones(65))
        assert np.array_equal(sol.dI2.values, np.zeros(65))
        assert np.array_equal(sol.dF.values, np.zeros(65))
        assert sol.terms_used == {"I1": 1, "I2": 1, "F": 1}

    def test_unforced_particular_solution(self):
        # a = 0, f = 1: F(x) = x^2/2 - x with F(0) = 0 and F'(x1) = 0
        g = make_grid(1.0, 64)
        sol = fundamental_system(_const(g, 0.0), _const(g, 1.0),
                                 contraction_ratio(0.0, 1.0))
        assert np.max(np.abs(sol.F.values - (g.nodes ** 2 / 2.0 - g.nodes))) < 1e-15
        assert np.max(np.abs(sol.dF.values - (g.nodes - 1.0))) < 1e-15

    def test_boundary_normalization_exact(self, suite_solutions):
        for _, sol in suite_solutions:
            assert sol.I1.values[0] == 0.0
            assert sol.I2.values[0] == 1.0
            assert sol.F.values[0] == 0.0
            assert sol.dI1.values[-1] == 1.0
            assert sol.dI2.values[-1] == 0.0
            assert sol.dF.values[-1] == 0.0

    def test_tails_below_tol(self, suite_solutions):
        for _, sol in suite_solutions:
            for name in ("I1", "I2", "F"):
                assert sol.tail_bound[name] <= 1e-10

    def test_term_counts_recorded(self, suite_solutions):
        for _, sol in suite_solutions:
            for name in ("I1", "I2", "F"):
                assert sol.terms_used[name] >= 1
                assert len(sol.term_sups[name]) == sol.terms_used[name]

    def test_expression_driven(self):
        g = make_grid(0.8, 512)
        a = sample(CoefficientSpec.expression("sin(x)"), g)
        f = sample(CoefficientSpec.expression("1"), g)
        sol = fundamental_system(a, f, contraction_ratio(sup_norm(a), 0.8))
        assert sol.i2_at_x1 == sol.I2.values[-1]
        assert sol.certificate.q < 0.5
