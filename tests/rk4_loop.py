"""Step-by-step RK4 shooting: the reference the oracle's prefix scan must match.

It integrates u' = v, v' = f - a*u from x = 0 one step at a time, in the
order the scheme is written, on node pairs: steps of 2h from x_2i to x_2i+2
whose midpoint is the node x_2i+1, then, for odd n, one step of h from
x_n-1 to x_n whose midpoint value is interpolated linearly. It calls the
midpoint callables once per point, so it shares no arithmetic order with
the scan. Its divergence guard is the scan's rule, written out for one
start (u0, u0', 1): see the oracle module docstring.
"""

import sys
from types import SimpleNamespace

import numpy as np

from bvpseries.errors import Diverged
from bvpseries.grid import SampledFn
from bvpseries.oracle import OVERFLOW_GUARD, IvpTrajectory


def _steps(fn, fn_eval):
    """(start node, end node, midpoint value) of every step."""
    grid = fn.grid
    n, v = grid.n, fn.values
    steps = []
    for i in range(0, n - 1, 2):
        mid = v[i + 1] if fn_eval is None else float(fn_eval(float(grid.nodes[i + 1])))
        steps.append((i, i + 2, mid))
    if n % 2:
        x = float(grid.nodes[n - 1] + grid.h / 2.0)
        mid = (v[n - 1] + v[n]) / 2.0 if fn_eval is None else float(fn_eval(x))
        steps.append((n - 1, n, mid))
    return steps


def rk4_loop(a, f, u0, du0, *, a_eval=None, f_eval=None) -> IvpTrajectory:
    grid = a.grid
    an, fn = a.values, f.values
    u, v = float(u0), float(du0)
    index, u_out, du_out = [0], [u], [v]
    a_steps, f_steps = _steps(a, a_eval), _steps(f, f_eval)
    forcing = max(max(abs(fn[i]), abs(fn[j]), abs(fm)) for i, j, fm in f_steps)
    scale = abs(u) + abs(v) * grid.x1 + forcing * grid.x1 * grid.x1
    u_limit = min(OVERFLOW_GUARD * scale, sys.float_info.max)
    du_limit = min(OVERFLOW_GUARD * scale / grid.x1, sys.float_info.max)
    for (i, j, am), (_, _, fm) in zip(a_steps, f_steps):
        h = (j - i) * grid.h
        k1u = v
        k1v = fn[i] - an[i] * u
        k2u = v + 0.5 * h * k1v
        k2v = fm - am * (u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = fm - am * (u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = fn[j] - an[j] * (u + h * k3u)
        u += h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if not (abs(u) <= u_limit and abs(v) <= du_limit):
            raise Diverged(f"initial-value state exceeded {OVERFLOW_GUARD:g} times "
                           f"its scale at x = {grid.nodes[j]}")
        index.append(j)
        u_out.append(u)
        du_out.append(v)
    return IvpTrajectory(grid=grid, index=np.array(index), u=np.array(u_out),
                         du=np.array(du_out))


def loop_fundamental(a, f, *, a_eval=None, f_eval=None) -> SimpleNamespace:
    """I1, I2, F recombined from three loop shots, as oracle_fundamental does."""
    grid = a.grid
    zero = SampledFn(grid, np.zeros(grid.n + 1))
    phi = rk4_loop(a, zero, 1.0, 0.0, a_eval=a_eval, f_eval=lambda x: 0.0)
    psi = rk4_loop(a, zero, 0.0, 1.0, a_eval=a_eval, f_eval=lambda x: 0.0)
    p = rk4_loop(a, f, 0.0, 0.0, a_eval=a_eval, f_eval=f_eval)
    dpsi_x1 = psi.du[-1]
    return SimpleNamespace(
        grid=grid,
        index=psi.index,
        I1=psi.u / dpsi_x1,
        I2=phi.u - phi.du[-1] / dpsi_x1 * psi.u,
        F=p.u - p.du[-1] / dpsi_x1 * psi.u,
    )
