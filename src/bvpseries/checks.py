"""Verification checks for a converged series solution.

Each check compares a measured quantity against a limit and reports the pair,
so failures show how far off the measurement was. Three limit regimes appear:

* Analytic bounds (term decay rates against q, series sups against seed
  sup / (1 - q)) hold in exact arithmetic; their limits add the derived
  rounding of the passes of B and of the additions, and a relative 1e-12.
* Constructive identities (boundary values) hold exactly on the grid and get
  an absolute 1e-12 slack.
* Discretization diagnostics (ODE residuals, derivative consistency,
  Wronskian constancy, oracle agreement) shrink like h^2; their limits are
  scale-aware O(h^2) envelopes, with empirically calibrated constants and a
  tolerance term covering series truncation. The ODE residual divides by
  h^2 and so also gets a derived rounding floor that grows like 1/h^2; the
  derivative consistency check divides by h and gets one that grows like
  1/h.

Each measurement is taken here, beside its limit: the Wronskian's deviation
(``wronskian_check``) and u's residual and fixed-point defect
(``residual_report``), which ``bvp.solve_problem_d`` reports, as well as
those of the series. u's defect is taken by ``grid.fixed_point_defect``,
the one defect pass, which also certifies the scanned limits; the
derivatives checked here come from the identities in series_core's
docstring. ``overflowing`` names the checks whose limit
overflows, and ``overflowing_at_every_tol`` those that overflow at every
tol.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record
from .grid import SampledFn, fixed_point_defect, max_abs, sup_norm
from .series_core import SeriesSolution

if TYPE_CHECKING:  # bvp imports this module
    from .bvp import SolveReport

BOUND_SLACK = 1e-12
BOUNDARY_TOL = 1e-12

RESIDUAL_CONST = 100.0
CONSISTENCY_CONST = 50.0
WRONSKIAN_CONST = 50.0
ORACLE_CONST = 200.0

UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0
# Bounds on the rounding one pass of B_h (grid.nested_trapz) leaves, in
# units of UNIT_ROUNDOFF * x1^2 * sup|w|: in its second difference (at most
# 4.75, _rounding_floor) and in h times its central difference (4.25,
# _slope_rounding_floor); kept at their earlier values, as are verify's limits.
B_ROUNDING_CONST = 20.0
B_SLOPE_CONST = 7.0


class Check(Record):
    """One named verification result.

    ``value`` is the measured quantity, ``limit`` what it must not exceed;
    ``passed`` is value <= limit. The fields are ``__slots__``, in the order
    of verify's CSV columns.
    """

    __slots__ = ("name", "passed", "value", "limit")


def _check(name: str, value: float, limit: float) -> Check:
    value = float(value)
    limit = float(limit)
    return Check(name=name, passed=bool(value <= limit), value=value, limit=limit)


def _pass_rounding(sol: SeriesSolution) -> float:
    """(3n + 8) x1^2 sup|a|: the rounding one pass of B on a t adds, in
    units of u sup|t| (derived in ``fixed_point_rounding``). u goes on the
    largest factor (``_times_u``): where x1 is large, so that (3n + 8) x1^2
    does not overflow before sup|a| scales it down, and where x1 is small,
    on sup|a|, so that (3n + 8) x1^2 does not pass through a subnormal
    before sup|a| scales it up. u is divided out at the end, exactly."""
    grid = sol.grid
    return _times_u(3.0 * grid.n + 8.0, grid.x1, grid.x1, sol.certificate.a_sup) / UNIT_ROUNDOFF


def _times_u(*factors: float) -> float:
    """The unit roundoff u times the product of ``factors``, taken left to
    right with u multiplied into the largest factor first. u is a power of
    two, so this has the bits of the product times u wherever neither order
    over- or underflows, and a product that overflows only before u scales
    it stays finite."""
    big = max(range(len(factors)), key=lambda k: abs(factors[k]))
    product = 1.0
    for k, factor in enumerate(factors):
        product *= UNIT_ROUNDOFF * factor if k == big else factor
    return product


def _term_sums(sol: SeriesSolution, name: str) -> tuple:
    """For s_k = term_sups[name][k], k = 0..m, each times the unit roundoff
    u: u s_0, sum_k u s_k, sum_{k<m} u s_k (the terms B was applied to) and
    sum_{k>=1} sum_{j<=k} u s_j (bounds on the partial sums |S_k| that the
    additions total += t_k round). The sums are taken over s_k 2^-e, with
    2^e just above the largest s_k, and scaled back by u 2^e once: the
    powers of two round nothing where every u s_k is normal, no addend is
    subnormal unless it is 2^-1022 below the largest, and a sum stays
    finite where the unscaled one would overflow."""
    e = math.frexp(max(sol.term_sups[name]))[1]
    sups = np.ldexp(sol.term_sups[name], -e)
    sums = sups[0], sups.sum(), sups[:-1].sum(), np.cumsum(sups)[1:].sum()
    return tuple(math.ldexp(UNIT_ROUNDOFF * total, e) for total in sums)


# A limit past the float range is inf, which ``cli`` refuses with its own
# message, so numpy need not warn about it too.
@np.errstate(over="ignore", invalid="ignore")
def bound_checks(sol: SeriesSolution) -> list[Check]:
    """Per series, the decay of its terms and the sup of its sum.

    B_h contracts by q node by node, so with seed sup s_0 (x1, 1, sup|g|)
    the terms obey ||t_k|| <= s_0 q^k and the sum sup|S| <= s_0 / (1 - q).
    A pass adds at most u p (p = ``_pass_rounding``) times its input's sup,
    so the computed s_k = term_sups[S][k], s_0 among them, obey
    s_k <= (q + u p) s_{k-1}.
    ``term_bound:S`` checks the worst rate max_{k>=1} (s_k / s_0)^(1/k), 0.0
    with no such k or s_0 = 0, against q + u p; ``sup_bound:S`` checks sup|S|
    against (s_0 + u p sum_{k<m} s_k) / (1 - q), the passes' rounding carried
    on by later passes, plus u sum_{k>=1} |S_k| for the additions. Both
    limits take a relative BOUND_SLACK for their own arithmetic.

    The rate is taken only over the terms whose sup is a normal float. A
    subnormal term carries absolute rounding, not the relative u p, so once
    the terms stall at the smallest subnormals (a tol near 5e-324) their
    rates climb toward 1; ``sup_bound`` still bounds the sum they add to.
    """
    q = sol.certificate.q
    p = _pass_rounding(sol)
    rate_limit = (q + UNIT_ROUNDOFF * p) * (1.0 + BOUND_SLACK)
    checks = []
    for name, series in (("I1", sol.I1), ("I2", sol.I2), ("F", sol.F)):
        _, _, passed, partial = _term_sums(sol, name)
        sups = sol.term_sups[name]
        s_0 = sups[0]
        rates = ([(s / s_0) ** (1.0 / k) for k, s in enumerate(sups[1:], 1)
                  if s >= sys.float_info.min] if s_0 > 0.0 else [])
        checks.append(_check(f"term_bound:{name}", max(rates, default=0.0), rate_limit))
        checks.append(_check(
            f"sup_bound:{name}", sup_norm(series),
            (s_0 + p * passed) / (1.0 - q) * (1.0 + BOUND_SLACK) + partial,
        ))
    return checks


def boundary_checks(sol: SeriesSolution) -> list[Check]:
    """The six endpoint normalizations, exact by construction on the grid."""
    targets = [
        ("boundary:I1(0)", sol.I1.values[0], 0.0),
        ("boundary:I2(0)", sol.I2.values[0], 1.0),
        ("boundary:F(0)", sol.F.values[0], 0.0),
        ("boundary:dI1(x1)", sol.dI1.values[-1], 1.0),
        ("boundary:dI2(x1)", sol.dI2.values[-1], 0.0),
        ("boundary:dF(x1)", sol.dF.values[-1], 0.0),
    ]
    return [_check(name, abs(got - want), BOUNDARY_TOL) for name, got, want in targets]


def _tol_term(sol: SeriesSolution) -> float:
    """Truncation contribution to discretization diagnostics."""
    worst_tail = max(sol.tail_bound.values())
    return 10.0 * (1.0 + sol.certificate.a_sup) * worst_tail


def _rounding_floor(sol: SeriesSolution, name: str) -> float:
    """Bound on the rounding in the second difference of a summed series, / h^2.

    A node error that varies smoothly from node to node (everything B
    carries forward from an earlier term) leaves a second difference of
    order h^2 times itself; only rounding that changes from node to node is
    amplified by 1/h^2. To first order in the unit roundoff u, with
    s_k = term_sups[name][k] and m + 1 summed terms, that rounding is:

    * the stencil fl(u[i-1] - 2 u[i] + u[i+1]): at most 2u times
      |u[i-1]| + 2|u[i]| + |u[i+1]| <= 4 sup|S| (recursive summation,
      Higham (4.4)), so 8u sum_k s_k; plus 4u s_0 for the seed's own node
      rounding;
    * each pass of B on w = a t_{k-1}, sup|w| <= sup|a| s_{k-1}: the tail
      G = P_n - P of the prefix sum P of w, then the prefix sum of G. A
      prefix sum rounds each increment (h/2) (v_j + v_{j-1}) twice and each
      partial sum once, a second difference of its error is a difference of
      two such roundings, and the outer pass turns G's error into h/2 times
      its central difference. With |P|, |G| <= x1 sup|w|, r = 1/n and
      |B w| <= x1^2 sup|w| / 2, in units of u x1^2 sup|w|: the product
      a t_{k-1} r^2, the inner increments 2 r^2, its partial sums and the
      subtraction 2r, the outer increments 4r, its partial sums 1; in all
      1 + 6r + 3r^2 <= 4.75 for n >= 2, below B_ROUNDING_CONST;
    * each addition total += t_k: at most u |S_k| <= u sum_{j<=k} s_j per
      node, so 4u times that in the second difference;
    * for F, the pass of B that builds the seed g from f: 20 u x1^2 sup|f|.
    """
    grid = sol.grid
    s_0, total, passed, partial = _term_sums(sol, name)
    x1_sq = grid.x1 * grid.x1
    stencil = 8.0 * total + 4.0 * s_0
    passes = B_ROUNDING_CONST * x1_sq * sol.certificate.a_sup * passed
    additions = 4.0 * partial
    seed = _times_u(B_ROUNDING_CONST, x1_sq, sup_norm(sol.f)) if name == "F" else 0.0
    return (stencil + passes + additions + seed) / (grid.h * grid.h)


def _slope_rounding_floor(sol: SeriesSolution, name: str) -> float:
    """Bound on the rounding in derivative - central difference, for a series.

    The derivative is computed from the summed series S itself, so rounding
    that B carries from one term into the next satisfies the derivative
    identity and cancels; what remains is the rounding each step adds on
    its own. A per-node error e contributes at most 2 max|e| / (2h) to the
    central difference. With s_k = term_sups[name][k], m + 1 summed terms
    and w the integrand of a pass:

    * the seed's own node rounding: u s_0 / h;
    * each pass of B on w = a t_{k-1}, sup|w| <= sup|a| s_{k-1}, in units
      of u x1^2 sup|w| / h with r = 1/n: the outer pass turns an error e of
      G into at most max|e| here, and the tail G = P_n - P carries the walk
      of its prefix sum, 2r for the increments and (1 + r) / 2 for the partial
      sums, plus r for the subtraction; the outer increments add 2r, its
      partial sums 0.5, the product a t_{k-1} r: 1 + 6.5r <= 4.25 < 7;
    * each addition total += t_k: at most u |S_k| <= u sum_{j<=k} s_j per
      node, so that over h;
    * in the derivative identity (series_core's docstring), the tail
      pass of a S: u x1^2 sup|a| sum_k s_k / h;
    * for F, the pass of B that builds the seed g from f and the tail pass
      of f in the derivative identity: (7 + 1) u x1^2 sup|f| / h.

    The central difference's own two roundings are O(u |S'|) and dropped.
    """
    grid = sol.grid
    s_0, total, passed, partial = _term_sums(sol, name)
    x1_sq = grid.x1 * grid.x1
    a_sup = sol.certificate.a_sup
    passes = B_SLOPE_CONST * x1_sq * a_sup * passed
    derivative = x1_sq * a_sup * total
    forcing = _times_u(B_SLOPE_CONST + 1.0, x1_sq, sup_norm(sol.f)) if name == "F" else 0.0
    return (s_0 + passes + partial + derivative + forcing) / grid.h


def ode_residual(u: np.ndarray, a: np.ndarray, f: np.ndarray | None, h: float) -> float:
    """Largest interior-node residual of u'' + a u = f, with f None for 0.

    u'' is the central second difference (u[i-1] - 2 u[i] + u[i+1]) / h^2;
    the endpoints carry no stencil.
    """
    r = np.multiply(2.0, u[1:-1])
    np.subtract(u[:-2], r, out=r)
    np.add(r, u[2:], out=r)
    np.divide(r, h * h, out=r)
    np.add(r, np.multiply(a[1:-1], u[1:-1]), out=r)
    if f is not None:
        np.subtract(r, f[1:-1], out=r)
    return max_abs(r)


def residual_report(u: SampledFn, a: SampledFn, f: SampledFn,
                    c1: float, c2: float, g: SampledFn) -> tuple[float, float]:
    """Measure how well an assembled solution satisfies the equation.

    a, f and g must share u's grid (``bvp.solve_problem_d`` passes the
    series' own). A Bu that overflows leaves a non-finite fixedpoint_err.

    Returns
    -------
    (residual_max, fixedpoint_err) : float, float
        The largest interior-node residual of the differential equation
        (``ode_residual``) and the largest node defect in the integral
        fixed-point form u = Bu + g + c1*x + c2, whose rounding
        ``fixed_point_rounding`` bounds.
    """
    grid = u.grid
    # the defect u - Bu - g, then minus c1*x (in the tail pass's buffer) and c2
    scratch = np.empty(grid.n + 1)
    defect = fixed_point_defect(u.values, a.values, g.values, grid.h, scratch=scratch)
    np.subtract(defect, np.multiply(c1, grid.nodes, out=scratch), out=defect)
    np.subtract(defect, c2, out=defect)
    fixedpoint_err = max_abs(defect)
    del defect, scratch  # ode_residual's buffers take their place
    return ode_residual(u.values, a.values, f.values, grid.h), fixedpoint_err


def residual_checks(sol: SeriesSolution) -> list[Check]:
    """Interior-node second-difference residuals of the three limits.

    I1 and I2 solve the homogeneous equation, F the forced one; the central
    second difference of each should cancel a*u (minus f for F) to O(h^2).
    Endpoints carry no stencil; their behaviour is covered by the boundary
    checks instead. The limit adds the rounding floor of _rounding_floor.
    """
    h = sol.grid.h
    a = sol.a.values
    f = sol.f.values
    try:
        a_scale = (1.0 + sol.certificate.a_sup) ** 2
    except OverflowError:  # pow, kept for its bits, raises where the square overflows
        a_scale = math.inf
    extra = _tol_term(sol)
    checks = []
    for name, fn, rhs in (("I1", sol.I1, None), ("I2", sol.I2, None), ("F", sol.F, f)):
        scale = a_scale * (1.0 + sup_norm(fn)) + (0.0 if rhs is None else sup_norm(sol.f))
        checks.append(_check(
            f"ode_residual:{name}",
            ode_residual(fn.values, a, rhs, h),
            RESIDUAL_CONST * h * h * scale + extra + _rounding_floor(sol, name),
        ))
    return checks


def consistency_checks(sol: SeriesSolution) -> list[Check]:
    """Central differences of each limit against its integral-form derivative.

    The limit adds the rounding floor of _slope_rounding_floor.
    """
    grid = sol.grid
    h = grid.h
    a_sup = sol.certificate.a_sup
    f_sup = sup_norm(sol.f)
    extra = _tol_term(sol)
    gap = np.empty(grid.n - 1)
    checks = []
    for name, fn, dfn in (("I1", sol.I1, sol.dI1), ("I2", sol.I2, sol.dI2),
                          ("F", sol.F, sol.dF)):
        u = fn.values
        np.subtract(u[2:], u[:-2], out=gap)
        np.divide(gap, 2.0 * h, out=gap)  # the central difference
        np.subtract(dfn.values[1:-1], gap, out=gap)
        dev = max_abs(gap)
        scale = (1.0 + a_sup) * (1.0 + sup_norm(fn)) + (1.0 + f_sup)
        checks.append(_check(
            f"derivative_consistency:{name}",
            dev,
            CONSISTENCY_CONST * h * h * scale + extra + _slope_rounding_floor(sol, name),
        ))
    return checks


def wronskian_check(sol: SeriesSolution):
    """Node-wise Wronskian of (I1, I2) and its deviation from -I2(x1).

    Returns
    -------
    (w_nodes, dev) : SampledFn, float
        w_nodes[i] = I1*dI2 - dI1*I2 at node i; dev = max |w_nodes + I2(x1)|.
    """
    w = np.multiply(sol.I1.values, sol.dI2.values)
    scratch = np.multiply(sol.dI1.values, sol.I2.values)
    np.subtract(w, scratch, out=w)
    dev = max_abs(np.add(w, sol.i2_at_x1, out=scratch))
    return SampledFn(sol.grid, w), dev


def wronskian_entry(sol: SeriesSolution, dev: float) -> Check:
    """Constancy of I1*dI2 - dI1*I2 at the value -I2(x1)."""
    h = sol.grid.h
    a_sup = sol.certificate.a_sup
    scale = (1.0 + a_sup) * (1.0 + sup_norm(sol.I1)) * (1.0 + sup_norm(sol.I2))
    limit = WRONSKIAN_CONST * h * h * scale + _tol_term(sol) * (1.0 + sup_norm(sol.I1))
    return _check("wronskian_constant", dev, limit)


def fixed_point_rounding(sol: SeriesSolution, report: SolveReport) -> float:
    """Bound on the rounding in the computed defect of u = B u + g + c1 x + c2.

    To first order in the unit roundoff eps, on a grid of n intervals, with
    c = x1^2 sup|a| / 2 < 1 (so |B w| <= c sup|w|), s_k = term_sups[S][k]
    for the m + 1 summed terms of each series S and weights |c1|, |c2|, 1
    for I1, I2, F:

    * one pass of B on w, in units of eps x1^2 sup|w|: the product a t,
      1/2; the inner prefix sum rounds each increment twice (2 eps x1
      sup|w| in all) and its n partial sums, |P| <= x1 sup|w|, once each
      (n eps x1 sup|w|, Higham (4.4)); the tail P_n - P doubles that and
      adds one rounding, 2n + 5 after the outer integral; the outer prefix
      sum adds n + 2: at most 3n + 8;
    * a summed series: its passes leave (3n + 8) eps x1^2 sup|a|
      sum_{k<m} s_k of defect, and its additions total += t_k at most
      eps sum_k |S_k| <= eps sum_{k>=1} sum_{j<=k} s_j at a node, which the
      defect carries as (1 + c) times that, below 2;
    * u = c1 I1 + c2 I2 + F itself: 3 eps (|c1| sup|I1| + |c2| sup|I2| +
      sup|F|), twice over for the same reason;
    * the check's own pass of B on a u: (3n + 8) eps x1^2 sup|a| sup|u|;
      its product c1 x and four subtractions: 5 eps (2 sup|u| + sup|g| +
      |c1| x1 + |c2|).

    The truncation of each series is not rounding: ``fixed_point_entry``
    covers it with tol.
    """
    grid = sol.grid
    c1, c2 = abs(report.c1), abs(report.c2)
    p = _pass_rounding(sol)
    series = 0.0
    for name, weight in (("I1", c1), ("I2", c2), ("F", 1.0)):
        _, _, passed, partial = _term_sums(sol, name)
        series += weight * (p * passed + 2.0 * partial)
    u_sup = sup_norm(report.u)
    sizes = c1 * sup_norm(sol.I1) + c2 * sup_norm(sol.I2) + sup_norm(sol.F)
    chain = 2.0 * u_sup + sup_norm(sol.g) + c1 * grid.x1 + c2
    return float(series + (6.0 * (UNIT_ROUNDOFF * sizes) + 5.0 * (UNIT_ROUNDOFF * chain))
                 + UNIT_ROUNDOFF * p * u_sup)


def fixed_point_entry(err: float, tol: float, alpha: float, beta: float,
                      rounding: float = 0.0) -> Check:
    """Defect of u in the integral fixed-point form.

    The truncation of the series bounds it by T = tol (1 + |alpha| + |beta|)
    and the rounding of computing it by ``rounding``
    (``fixed_point_rounding``); the limit is max(10 T, T + rounding), so
    10 T unless rounding outgrows 9 T (a subnormal tol, say).
    """
    scale = 1.0 + abs(alpha) + abs(beta)
    return _check("fixed_point", err, max(10.0 * tol * scale, tol * scale + rounding))


def oracle_entry(max_rel_err: float, sol: SeriesSolution) -> Check:
    """Agreement with the independent initial-value integration."""
    h = sol.grid.h
    biggest = max(sup_norm(sol.I1), sup_norm(sol.I2), sup_norm(sol.F))
    scale = (1.0 + sol.certificate.a_sup) * (1.0 + biggest)
    limit = ORACLE_CONST * h * h * scale + 10.0 * max(sol.tail_bound.values())
    return _check("oracle_agreement", max_rel_err, limit)


@np.errstate(over="ignore", invalid="ignore")  # as for bound_checks
def verify(sol: SeriesSolution, report: SolveReport, max_rel_err: float,
           tol: float) -> tuple[Check, ...]:
    """Every check of a solved two-point problem, in reporting order.

    Bound checks (from the report), boundary, residual, consistency, then
    the Wronskian (``report.wronskian_dev``), the fixed-point defect at
    ``tol`` and the oracle agreement ``max_rel_err`` (``oracle.compare``).
    """
    return (
        *report.bound_checks,
        *boundary_checks(sol),
        *residual_checks(sol),
        *consistency_checks(sol),
        wronskian_entry(sol, report.wronskian_dev),
        fixed_point_entry(report.fixedpoint_err, tol, report.c2, report.c1,
                          fixed_point_rounding(sol, report)),
        oracle_entry(max_rel_err, sol),
    )


def overflowing(checks) -> list[str]:
    """The names of the checks whose limit overflows."""
    return [c.name for c in checks if not math.isfinite(c.limit)]


def overflowing_at_every_tol(sol: SeriesSolution, report: SolveReport,
                             max_rel_err: float) -> list[str]:
    """The names of the checks of ``verify`` whose limit overflows even with
    every series tail and tol at 0. A limit is a term in tol (the tails,
    and tol itself for fixed_point) plus a term set by the problem's
    scale; these overflow in the scale's term, so no tol avoids them."""
    fields = {name: getattr(sol, name) for name in SeriesSolution.__slots__}
    fields["tail_bound"] = dict.fromkeys(sol.tail_bound, 0.0)
    return overflowing(verify(SeriesSolution(**fields), report, max_rel_err, 0.0))
