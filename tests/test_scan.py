"""The scanned limits of ``series_core.scan_or_sum``: agreement with the
sums, the defect certificate, the exact endpoint values, and the fallback
to ``fundamental_system``."""

import numpy as np
import pytest

from bvpseries import series_core
from bvpseries.errors import MaxTermsExceeded
from bvpseries.grid import (CoefficientSpec, fixed_point_defect, make_grid, max_abs, nested_trapz,
                            sample_together)
from bvpseries.series_core import contraction_ratio, fundamental_system, scan_or_sum

UNIT_ROUNDOFF = 2.0**-53
_NAMES = ("I1", "I2", "F")
_FIELDS = ("I1", "I2", "F", "dI1", "dI2", "dF")


def _problem(shape, forcing, q, n, table=False):
    """a = c * shape, with c setting q on [0, 1] (or keeping it below q for a
    table), and f = forcing, on n intervals; with ``table``, a is read from
    a 33-row table of c * shape."""
    grid = make_grid(1.0, n)
    if table:
        xs = np.linspace(0.0, 1.0, 33)
        values = CoefficientSpec.expression(shape).evaluate(xs)
        a_spec = CoefficientSpec.table(xs, values * (2.0 * q / max_abs(values)))
    else:
        shape_sup = sample_together((CoefficientSpec.expression(shape),), grid)[0].sup
        a_spec = CoefficientSpec.expression(f"{2.0 * q / shape_sup!r}*({shape})")
    a, f = sample_together((a_spec, CoefficientSpec.expression(forcing)), grid)
    return a, f, contraction_ratio(a.sup, grid.x1)


def _scanned(a, f, cert, tol=np.inf):
    """The scan's limits whatever their certificate (tol inf)."""
    g = series_core.compute_g(f)
    sups = {"I1": a.grid.x1, "I2": 1.0, "F": g.sup}
    return series_core._scanned(a, f, g, cert, tol, sups, {})


def _same(one, other):
    return all(np.array_equal(getattr(one, k).values, getattr(other, k).values) for k in _FIELDS)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 4097, 16384])
@pytest.mark.parametrize("shape, forcing, table", [
    ("1", "exp(-x)", False),
    ("cos(3*x)", "1 + x", False),
    ("-1 + sin(4*x)", "cos(2*x)", True),
])
def test_scan_agrees_with_the_sums(shape, forcing, table, n, q):
    # both approximate the grid's fixed point S*: the scan within its
    # defect bound, the sums within their tail plus their rounding, taken
    # as (n + 1) u (1 + sup|S|) (at most 0.15 of it was used over this
    # matrix); a derivative differs by a tail pass of a times the gap,
    # at most 2q times it. The scan's bound is its rounding: at most 5e-9
    # over this matrix (n = 16384, q = 0.999)
    a, f, cert = _problem(shape, forcing, q, n, table)
    summed = fundamental_system(a, f, cert, tol=1e-14)
    scanned = _scanned(a, f, cert)
    assert max(scanned.tail_bound.values()) <= 1e-8
    for name in _FIELDS:
        base = name.lstrip("d")
        tails = scanned.tail_bound[base] + summed.tail_bound[base]
        if name != base:
            tails *= 2.0 * cert.q
        rounding = (n + 1) * UNIT_ROUNDOFF * (1.0 + getattr(summed, base).sup)
        gap = max_abs(getattr(scanned, name).values - getattr(summed, name).values)
        assert gap <= tails + rounding, name


@pytest.mark.parametrize("shape, q, n", [("1", 0.99, 1024), ("cos(3*x)", 0.9, 4097),
                                         ("-1 + sin(4*x)", 0.8, 16384), ("1", 0.99, 2)])
def test_certificate_is_the_defect_bound(shape, q, n):
    a, f, cert = _problem(shape, "exp(-x)", q, n)
    sol = scan_or_sum(a, f, cert)
    assert sol.terms_used == {"I1": 0, "I2": 0, "F": 0}
    assert sol.terms_apriori == fundamental_system(a, f, cert).terms_apriori
    for name, seed in zip(_NAMES, (a.grid.nodes, 1.0, sol.g.values)):
        values = getattr(sol, name).values
        defect = values - nested_trapz(a.values * values, a.grid.h) - seed
        assert sol.tail_bound[name] == max_abs(defect) / (1.0 - cert.q) <= 1e-10
        assert sol.term_sups[name] == [max_abs(np.broadcast_to(seed, values.shape))]
    assert [sol.I1.values[0], sol.I2.values[0], sol.F.values[0]] == [0.0, 1.0, 0.0]
    assert [sol.dI1.values[-1], sol.dI2.values[-1], sol.dF.values[-1]] == [1.0, 0.0, 0.0]


def test_short_series_are_summed():
    a, f, cert = _problem("cos(3*x)", "exp(-x)", 0.5, 64)
    assert max(fundamental_system(a, f, cert).terms_apriori.values()) < series_core.SCAN_TERMS
    assert _same(scan_or_sum(a, f, cert), fundamental_system(a, f, cert))
    assert scan_or_sum(a, f, cert).terms_used["I1"] > 0


def test_a_missed_certificate_falls_back_to_the_sums():
    # the defect bound is above 5e-324; the sums take the term cap
    a, f, cert = _problem("1", "exp(-x)", 0.99, 3)
    with pytest.raises(MaxTermsExceeded) as scanned:
        scan_or_sum(a, f, cert, tol=5e-324)
    with pytest.raises(MaxTermsExceeded) as summed:
        fundamental_system(a, f, cert, tol=5e-324)
    assert str(scanned.value) == str(summed.value)
    # at q = 0.5 and tol 5e-324 the sums stall at the a-priori count
    a, f, cert = _problem("1", "1", 0.5, 8)
    sol = scan_or_sum(a, f, cert, tol=5e-324)
    assert sol.terms_used["I1"] > 0
    assert _same(sol, fundamental_system(a, f, cert, tol=5e-324))


def test_a_huge_forcing_falls_back_to_the_sums():
    # sup|F| = 2.6e305: the defect bound of F is far above tol
    a, f, cert = _problem("1", "1e305", 0.99, 1024)
    sol = scan_or_sum(a, f, cert)
    assert sol.terms_used["F"] > 0
    assert _same(sol, fundamental_system(a, f, cert))


def test_a_scan_that_is_not_finite_falls_back_to_the_sums(monkeypatch):
    step_maps = series_core._step_maps

    def broken(*args):
        maps = step_maps(*args)
        maps[2, -1] = np.nan
        return maps

    a, f, cert = _problem("cos(3*x)", "exp(-x)", 0.99, 1024)
    monkeypatch.setattr(series_core, "_step_maps", broken)
    sol = scan_or_sum(a, f, cert)
    assert sol.terms_used["I1"] > 0
    assert _same(sol, fundamental_system(a, f, cert))


def test_a_scan_whose_homogeneous_start_misses_g_n_falls_back_to_the_sums(monkeypatch):
    # with the G row of every block's last step zeroed, G_n is 0 from every
    # start, so no G_0 meets G_n = 0: the scan returns before its defects
    step_maps = series_core._step_maps
    defects = []

    def broken(*args):
        maps = step_maps(*args)
        maps[4:, -1] = 0.0
        return maps

    def counted(*args, **kwargs):
        defects.append(args)
        return fixed_point_defect(*args, **kwargs)

    a, f, cert = _problem("cos(3*x)", "exp(-x)", 0.99, 1024)
    monkeypatch.setattr(series_core, "_step_maps", broken)
    monkeypatch.setattr(series_core, "fixed_point_defect", counted)
    sol = scan_or_sum(a, f, cert)
    assert not defects
    assert sol.terms_used["I1"] > 0
    assert _same(sol, fundamental_system(a, f, cert))


def test_a_certified_scan_whose_dF_overflows_falls_back_to_the_sums(monkeypatch):
    # F's tail pass, the third, made infinite after its defect: every
    # certificate holds, dF is refused, and the scan gives way to the sums
    defects = []

    def overflowing(*args, scratch, **kwargs):
        defect = fixed_point_defect(*args, scratch=scratch, **kwargs)
        defects.append(args)
        if len(defects) == 3:
            scratch[0] = np.inf
        return defect

    a, f, cert = _problem("cos(3*x)", "exp(-x)", 0.99, 1024)
    monkeypatch.setattr(series_core, "fixed_point_defect", overflowing)
    sol = scan_or_sum(a, f, cert)
    assert len(defects) == 3
    assert sol.terms_used["F"] > 0
    assert _same(sol, fundamental_system(a, f, cert))


def test_the_input_checks_are_fundamental_systems():
    a, f, cert = _problem("1", "exp(-x)", 0.99, 64)
    f_elsewhere = sample_together((CoefficientSpec.expression("1"),), make_grid(2.0, 64))[0]
    for args, kwargs in [((a, f, contraction_ratio(a.sup, 0.5)), {}),
                         ((a, f, contraction_ratio(0.5 * a.sup, 1.0)), {}),
                         ((a, f, cert), {"tol": 0.0}),
                         ((a, f_elsewhere, cert), {}),
                         (_problem("1", "1e308", 0.99, 64), {})]:
        refusals = []
        for solver in (fundamental_system, scan_or_sum):
            with pytest.raises(Exception) as refused:
                solver(*args, **kwargs)
            refusals.append((type(refused.value), str(refused.value)))
        assert refusals[0] == refusals[1]
