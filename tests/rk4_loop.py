"""Step-by-step RK4 shooting: the reference the oracle's prefix scan must match.

It integrates u' = v, v' = f - a*u from x = 0 one step at a time, in the
order the scheme is written, and calls the half-step callables once per
point, so it shares no arithmetic order with the scan.
"""

from types import SimpleNamespace

import numpy as np

from bvpseries.errors import Diverged
from bvpseries.grid import SampledFn
from bvpseries.oracle import OVERFLOW_GUARD, IvpTrajectory


def _midpoint_values(fn, fn_eval):
    grid = fn.grid
    if fn_eval is None:
        return (fn.values[:-1] + fn.values[1:]) / 2.0
    mids = grid.nodes[:-1] + grid.h / 2.0
    return np.array([float(fn_eval(float(x))) for x in mids])


def rk4_loop(a, f, u0, du0, *, a_eval=None, f_eval=None) -> IvpTrajectory:
    grid = a.grid
    h = grid.h
    an, fn = a.values, f.values
    am = _midpoint_values(a, a_eval)
    fm = _midpoint_values(f, f_eval)
    n = grid.n
    u_out = np.empty(n + 1)
    du_out = np.empty(n + 1)
    u, v = float(u0), float(du0)
    u_out[0], du_out[0] = u, v
    for i in range(n):
        k1u = v
        k1v = fn[i] - an[i] * u
        k2u = v + 0.5 * h * k1v
        k2v = fm[i] - am[i] * (u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = fm[i] - am[i] * (u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = fn[i + 1] - an[i + 1] * (u + h * k3u)
        u += h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if not (abs(u) < OVERFLOW_GUARD and abs(v) < OVERFLOW_GUARD):
            raise Diverged(
                f"initial-value state exceeded {OVERFLOW_GUARD:g} at x = {grid.nodes[i + 1]}"
            )
        u_out[i + 1], du_out[i + 1] = u, v
    return IvpTrajectory(grid=grid, u=u_out, du=du_out)


def loop_fundamental(a, f, *, a_eval=None, f_eval=None) -> SimpleNamespace:
    """I1, I2, F recombined from three loop shots, as oracle_fundamental does."""
    grid = a.grid
    zero = SampledFn(grid, np.zeros(grid.n + 1))
    phi = rk4_loop(a, zero, 1.0, 0.0, a_eval=a_eval, f_eval=lambda x: 0.0)
    psi = rk4_loop(a, zero, 0.0, 1.0, a_eval=a_eval, f_eval=lambda x: 0.0)
    p = rk4_loop(a, f, 0.0, 0.0, a_eval=a_eval, f_eval=f_eval)
    dpsi_x1 = psi.du[-1]
    return SimpleNamespace(
        I1=SampledFn(grid, psi.u / dpsi_x1),
        I2=SampledFn(grid, phi.u - phi.du[-1] / dpsi_x1 * psi.u),
        F=SampledFn(grid, p.u - p.du[-1] / dpsi_x1 * psi.u),
    )
