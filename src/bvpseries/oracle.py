"""Independent cross-check: Runge-Kutta shooting for the same equation.

The series pipeline is verified against a deliberately different method:
integrate u'' + a(x)u = f(x) as the first-order system (u' = v,
v' = f - a*u) with the classic fourth-order one-step scheme, then recombine
initial-value solutions by shooting so the mixed endpoint normalizations of
I1, I2, F come out by construction. Nothing here touches the trapezoid
quadrature of the series path; independence is the point.

The system is linear, so each RK4 step is an affine map of the state
z = (u, u'): z_{i+1} = M_i z_i + b_i. In homogeneous coordinates (u, u', w),
with w weighting the forcing, the step is the 3x3 matrix [[M_i, b_i],
[0, 0, 1]]. The maps of all steps are built at once from the node and
midpoint samples, and the states are their prefix products, computed by a
Hillis-Steele doubling scan (log2 of the block length passes of stacked 3x3
products; Blelloch 1990, "Prefix Sums and Their Applications"). The scan
runs over blocks of SCAN_BLOCK steps and carries each block's end state into
the next, so its temporaries stay small. The starts (1, 0, 0), (0, 1, 0)
and (0, 0, 1) give phi, psi and the forced p from one scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Diverged, GridMismatch, OracleSingular
from .grid import Grid, SampledFn, same_grid

OVERFLOW_GUARD = 1e100
SHOOTING_REL_TOL = 1e-12

# Steps per block of the prefix scan.
SCAN_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class IvpTrajectory:
    """Node-aligned initial-value solution: u and its derivative."""

    grid: Grid
    u: np.ndarray
    du: np.ndarray


def _midpoint_values(fn: SampledFn, fn_eval) -> np.ndarray:
    grid = fn.grid
    if fn_eval is None:
        return (fn.values[:-1] + fn.values[1:]) / 2.0
    mids = grid.nodes[:-1] + grid.h / 2.0
    return np.broadcast_to(np.asarray(fn_eval(mids), dtype=float), mids.shape)


def _rk4_step(u, v, w, h, an, am, an1, fn, fm, fn1):
    """One classic RK4 step of u' = v, v' = w*f - a*u, elementwise."""
    k1u = v
    k1v = w * fn - an * u
    k2u = v + 0.5 * h * k1v
    k2v = w * fm - am * (u + 0.5 * h * k1u)
    k3u = v + 0.5 * h * k2v
    k3v = w * fm - am * (u + 0.5 * h * k2u)
    k4u = v + h * k3v
    k4v = w * fn1 - an1 * (u + h * k3u)
    return (u + h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def _shoot(a: SampledFn, f: SampledFn, starts: np.ndarray, a_eval, f_eval):
    """States of the RK4 scheme from each column of ``starts`` at every node.

    ``starts`` is 3 x k: columns (u0, u0', w), with w = 1 for the forced
    equation and 0 for the homogeneous one. Returns u and u' as k x (n+1)
    arrays.

    Raises
    ------
    GridMismatch
        If a and f live on different grids.
    Diverged
        At the first node where some state leaves the finite reals or
        reaches 1e100 in magnitude.
    """
    if not same_grid(a.grid, f.grid):
        raise GridMismatch("a and f must share a grid")
    grid = a.grid
    h = grid.h
    an, fn = a.values, f.values
    am = _midpoint_values(a, a_eval)
    fm = _midpoint_values(f, f_eval)
    n = grid.n
    k = starts.shape[1]
    u_out = np.empty((k, n + 1))
    du_out = np.empty((k, n + 1))
    u_out[:, 0], du_out[:, 0] = starts[0], starts[1]
    carry = starts
    with np.errstate(all="ignore"):
        for lo in range(0, n, SCAN_BLOCK):
            hi = min(lo + SCAN_BLOCK, n)
            coeffs = (h, an[lo:hi], am[lo:hi], an[lo + 1:hi + 1],
                      fn[lo:hi], fm[lo:hi], fn[lo + 1:hi + 1])
            maps = np.zeros((hi - lo, 3, 3))
            for col, (u, v, w) in enumerate(np.eye(3)):  # column = image of a unit start
                maps[:, 0, col], maps[:, 1, col] = _rk4_step(u, v, w, *coeffs)
            maps[:, 2, 2] = 1.0
            d = 1
            while d < hi - lo:  # maps[i] becomes the product of maps[i], ..., maps[0]
                maps[d:] = maps[d:] @ maps[:-d]
                d *= 2
            states = maps @ carry
            bad = ~((np.abs(states[:, :2]) < OVERFLOW_GUARD).all(axis=(1, 2)))
            if bad.any():
                node = lo + 1 + int(np.argmax(bad))
                raise Diverged(
                    f"initial-value state exceeded {OVERFLOW_GUARD:g} at x = {grid.nodes[node]}"
                )
            u_out[:, lo + 1:hi + 1] = states[:, 0].T
            du_out[:, lo + 1:hi + 1] = states[:, 1].T
            carry = states[-1]
    return u_out, du_out


def rk4_ivp(a: SampledFn, f: SampledFn, u0: float, du0: float, *,
            a_eval=None, f_eval=None) -> IvpTrajectory:
    """Integrate the equation from x = 0 with the classic 4-stage scheme.

    Half-step coefficient values come from ``a_eval``/``f_eval`` when given,
    e.g. exact expression evaluation, and from linear interpolation of the
    node samples otherwise, which keeps the scheme's accuracy limited by the
    representation, not the stepping. Each is called once, with the ndarray
    of the n midpoints, and returns an array of their values or a scalar,
    which is taken as constant.

    This is the one-start form of the prefix scan in the module docstring.

    Raises
    ------
    GridMismatch
        If a and f live on different grids.
    Diverged
        If the state exceeds 1e100 in magnitude or stops being finite.
    """
    starts = np.array([[float(u0)], [float(du0)], [1.0]])
    u, du = _shoot(a, f, starts, a_eval, f_eval)
    return IvpTrajectory(grid=a.grid, u=u[0], du=du[0])


@dataclass(frozen=True, eq=False)
class OracleFundamental:
    """Shooting reconstruction of the fundamental system and its derivatives."""

    I1: SampledFn
    I2: SampledFn
    F: SampledFn
    dI1: SampledFn
    dI2: SampledFn
    dF: SampledFn


def oracle_fundamental(a: SampledFn, f: SampledFn, *,
                       a_eval=None, f_eval=None) -> OracleFundamental:
    """Rebuild I1, I2, F by shooting from x = 0.

    With phi, psi the homogeneous solutions started from (u, u')(0) = (1, 0)
    and (0, 1), and p the forced solution started from (0, 0):

        I1 = psi / psi'(x1)
        I2 = phi - (phi'(x1) / psi'(x1)) * psi
        F  = p   - (p'(x1)   / psi'(x1)) * psi

    each of which satisfies the endpoint normalizations by construction.

    All three come from one prefix scan (see the module docstring), which
    calls ``a_eval`` and ``f_eval`` once each with the ndarray of midpoints,
    as ``rk4_ivp`` does.

    Raises
    ------
    OracleSingular
        If |psi'(x1)| <= 1e-12 * (1 + sup|psi|), making the recombination
        denominators uncertifiable.
    Diverged
        At the first node where phi, psi or p exceeds 1e100 in magnitude
        or stops being finite.
    """
    grid = a.grid
    (phi, psi, p), (dphi, dpsi, dp) = _shoot(a, f, np.eye(3), a_eval, f_eval)
    dpsi_x1 = float(dpsi[-1])
    if abs(dpsi_x1) <= SHOOTING_REL_TOL * (1.0 + float(np.max(np.abs(psi)))):
        raise OracleSingular(
            f"shooting denominator |psi'(x1)| = {abs(dpsi_x1):.3e} is numerically zero"
        )
    c_phi = float(dphi[-1]) / dpsi_x1
    c_p = float(dp[-1]) / dpsi_x1
    return OracleFundamental(
        I1=SampledFn(grid, psi / dpsi_x1),
        I2=SampledFn(grid, phi - c_phi * psi),
        F=SampledFn(grid, p - c_p * psi),
        dI1=SampledFn(grid, dpsi / dpsi_x1),
        dI2=SampledFn(grid, dphi - c_phi * dpsi),
        dF=SampledFn(grid, dp - c_p * dpsi),
    )


def compare(series, oracle) -> float:
    """Largest node-wise relative gap between series and oracle limits.

    The gap for each of I1, I2, F is |series - oracle| / (1 + |oracle|),
    maximized over nodes and over the three functions.

    Raises
    ------
    GridMismatch
    """
    worst = 0.0
    for name in ("I1", "I2", "F"):
        s: SampledFn = getattr(series, name)
        o: SampledFn = getattr(oracle, name)
        if not same_grid(s.grid, o.grid):
            raise GridMismatch("series and oracle must share a grid")
        gap = np.max(np.abs(s.values - o.values) / (1.0 + np.abs(o.values)))
        worst = max(worst, float(gap))
    return worst
