"""Direct O(n^2) nested-trapezoid transcription of B: the reference apply_B must match.

It computes the inner integral G(y) = int_y^{x1} a*u separately for every
node, then the outer integral int_0^x G for every node, each with a fresh
trapezoid pass, so it shares no summation order with the O(n) evaluation.
"""

import numpy as np

from bvpseries.errors import GridMismatch
from bvpseries.grid import SampledFn, same_grid


def apply_B_reference(u: SampledFn, a: SampledFn) -> SampledFn:
    if not same_grid(u.grid, a.grid):
        raise GridMismatch("u and a must share a grid")
    grid = u.grid
    w = a.values * u.values
    m = grid.n + 1
    inner = np.empty(m)
    for j in range(m):
        inner[j] = np.trapezoid(w[j:], dx=grid.h)
    out = np.empty(m)
    for i in range(m):
        out[i] = np.trapezoid(inner[: i + 1], dx=grid.h)
    return SampledFn(grid, out)
