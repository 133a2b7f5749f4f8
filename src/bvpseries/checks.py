"""Verification checks for a converged series solution.

Each check compares a measured quantity against a limit and reports the pair,
so failures show how far off the measurement was. Three limit regimes appear:

* Analytic bounds (decay rates, sup bounds) hold with margin in exact
  arithmetic; they are asserted with a fixed 1e-12 slack for rounding.
* Constructive identities (boundary values) hold exactly on the grid and get
  the same 1e-12 slack.
* Discretization diagnostics (ODE residuals, derivative consistency,
  Wronskian constancy, oracle agreement) shrink like h^2; their limits are
  scale-aware O(h^2) envelopes, with empirically calibrated constants and a
  tolerance term covering series truncation. The ODE residual divides by
  h^2 and so also gets a derived rounding floor that grows like 1/h^2; the
  derivative consistency check divides by h and gets one that grows like
  1/h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import sup_norm
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
# Bounds on the rounding one pass of series_core._apply_B_values leaves, in
# units of UNIT_ROUNDOFF * x1^2 * sup|w|: in its second difference (at most
# 4.75, _rounding_floor) and in h times its central difference (4.25,
# _slope_rounding_floor); kept at their earlier values, as are verify's limits.
B_ROUNDING_CONST = 20.0
B_SLOPE_CONST = 7.0


@dataclass(frozen=True)
class Check:
    """One named verification result.

    ``value`` is the measured quantity, ``limit`` what it must not exceed;
    ``passed`` is value <= limit.
    """

    name: str
    passed: bool
    value: float
    limit: float


def _check(name: str, value: float, limit: float) -> Check:
    value = float(value)
    limit = float(limit)
    return Check(name=name, passed=bool(value <= limit), value=value, limit=limit)


def _worst_excess(sups, bound_at) -> float:
    """Largest amount by which a term sup exceeds its per-index bound."""
    return max(s - bound_at(k) for k, s in enumerate(sups))


def bound_checks(sol: SeriesSolution) -> list[Check]:
    """Decay-rate and sup-norm bounds for every computed series term.

    For each series the k-th term is bounded by 2*||seed||*q^k; the
    homogeneous iterates obey the sharper ||B^k t|| <= q^k*x1 and
    ||B^k 1|| <= 2*q^k; and with c = sup|a|*x1^2 = 2q the limits obey
    sup|I1| <= x1/(1-q) = 2*x1/(2-c) (the sum of the iterate bounds),
    sup|I2| <= (2+c)/(2-c), sup|F| <= ||g||*(2+c)/(2-c).
    Values reported are worst-case excesses over the bound (negative means
    margin); the limit is the rounding slack.
    """
    cert = sol.certificate
    q, x1 = cert.q, cert.x1
    c = cert.a_sup * x1 * x1
    g_sup = sup_norm(sol.g)
    seed_sups = {"I1": x1, "I2": 1.0, "F": g_sup}
    checks = []
    for name in ("I1", "I2", "F"):
        seed = seed_sups[name]
        checks.append(_check(
            f"geometric_decay:{name}",
            _worst_excess(sol.term_sups[name], lambda k, s=seed: 2.0 * s * q**k),
            BOUND_SLACK,
        ))
    checks.append(_check(
        "iterate_bound:a_k",
        _worst_excess(sol.term_sups["I1"], lambda k: q**k * x1),
        BOUND_SLACK,
    ))
    checks.append(_check(
        "iterate_bound:b_k",
        _worst_excess(sol.term_sups["I2"], lambda k: 2.0 * q**k),
        BOUND_SLACK,
    ))
    checks.append(_check(
        "sup_bound:I1", sup_norm(sol.I1) - 2.0 * x1 / (2.0 - c), BOUND_SLACK))
    checks.append(_check(
        "sup_bound:I2", sup_norm(sol.I2) - (2.0 + c) / (2.0 - c), BOUND_SLACK))
    checks.append(_check(
        "sup_bound:F", sup_norm(sol.F) - g_sup * (2.0 + c) / (2.0 - c), BOUND_SLACK))
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
      prefix sum rounds each increment h (v_j + v_{j-1}) / 2 twice and each
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
    sups = np.asarray(sol.term_sups[name])
    x1_sq = grid.x1 * grid.x1
    stencil = 8.0 * sups.sum() + 4.0 * sups[0]
    passes = B_ROUNDING_CONST * x1_sq * sol.certificate.a_sup * sups[:-1].sum()
    additions = 4.0 * np.cumsum(sups)[1:].sum()
    seed = B_ROUNDING_CONST * x1_sq * sup_norm(sol.f) if name == "F" else 0.0
    return UNIT_ROUNDOFF * (stencil + passes + additions + seed) / (grid.h * grid.h)


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
    * in the derivative identity (series_core.fundamental_system), the tail
      pass of a S: u x1^2 sup|a| sum_k s_k / h;
    * for F, the pass of B that builds the seed g from f and the tail pass
      of f in the derivative identity: (7 + 1) u x1^2 sup|f| / h.

    The central difference's own two roundings are O(u |S'|) and dropped.
    """
    grid = sol.grid
    sups = np.asarray(sol.term_sups[name])
    x1_sq = grid.x1 * grid.x1
    a_sup = sol.certificate.a_sup
    seed = sups[0]
    passes = B_SLOPE_CONST * x1_sq * a_sup * sups[:-1].sum()
    additions = np.cumsum(sups)[1:].sum()
    derivative = x1_sq * a_sup * sups.sum()
    forcing = (B_SLOPE_CONST + 1.0) * x1_sq * sup_norm(sol.f) if name == "F" else 0.0
    return UNIT_ROUNDOFF * (seed + passes + additions + derivative + forcing) / grid.h


def ode_residual(u: np.ndarray, a: np.ndarray, f: np.ndarray | None, h: float) -> float:
    """Largest interior-node residual of u'' + a u = f, with f None for 0.

    u'' is the central second difference (u[i-1] - 2 u[i] + u[i+1]) / h^2;
    the endpoints carry no stencil.
    """
    r = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h) + a[1:-1] * u[1:-1]
    if f is not None:
        r = r - f[1:-1]
    return float(np.max(np.abs(r)))


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
    a_sup = sol.certificate.a_sup
    extra = _tol_term(sol)
    checks = []
    for name, fn, rhs in (("I1", sol.I1, None), ("I2", sol.I2, None), ("F", sol.F, f)):
        scale = (1.0 + a_sup) ** 2 * (1.0 + sup_norm(fn)) + (0.0 if rhs is None else sup_norm(sol.f))
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
    checks = []
    for name, fn, dfn in (("I1", sol.I1, sol.dI1), ("I2", sol.I2, sol.dI2),
                          ("F", sol.F, sol.dF)):
        u = fn.values
        central = (u[2:] - u[:-2]) / (2.0 * h)
        dev = float(np.max(np.abs(dfn.values[1:-1] - central)))
        scale = (1.0 + a_sup) * (1.0 + sup_norm(fn)) + (1.0 + f_sup)
        checks.append(_check(
            f"derivative_consistency:{name}",
            dev,
            CONSISTENCY_CONST * h * h * scale + extra + _slope_rounding_floor(sol, name),
        ))
    return checks


def wronskian_entry(sol: SeriesSolution, dev: float) -> Check:
    """Constancy of I1*dI2 - dI1*I2 at the value -I2(x1)."""
    h = sol.grid.h
    a_sup = sol.certificate.a_sup
    scale = (1.0 + a_sup) * (1.0 + sup_norm(sol.I1)) * (1.0 + sup_norm(sol.I2))
    limit = WRONSKIAN_CONST * h * h * scale + _tol_term(sol) * (1.0 + sup_norm(sol.I1))
    return _check("wronskian_constant", dev, limit)


def fixed_point_entry(err: float, tol: float, alpha: float, beta: float) -> Check:
    """Defect of u in the integral fixed-point form, bounded by truncation."""
    return _check("fixed_point", err, 10.0 * tol * (1.0 + abs(alpha) + abs(beta)))


def oracle_entry(max_rel_err: float, sol: SeriesSolution) -> Check:
    """Agreement with the independent initial-value integration."""
    h = sol.grid.h
    biggest = max(sup_norm(sol.I1), sup_norm(sol.I2), sup_norm(sol.F))
    scale = (1.0 + sol.certificate.a_sup) * (1.0 + biggest)
    limit = ORACLE_CONST * h * h * scale + 10.0 * max(sol.tail_bound.values())
    return _check("oracle_agreement", max_rel_err, limit)


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
        fixed_point_entry(report.fixedpoint_err, tol, report.c2, report.c1),
        oracle_entry(max_rel_err, sol),
    )
