"""Direct O(n^2) nested-trapezoid transcription of B: the reference
``grid.nested_trapz`` must match.

It computes the inner integral G(y) = int_y^{x1} w separately for every
node, then the outer integral int_0^x G for every node, each with a fresh
trapezoid pass, so it shares no summation order with the O(n) evaluation.
"""

import numpy as np


def _trapezoid(y, h):
    """numpy's trapezoid rule, written out: numpy < 2 has no np.trapezoid."""
    return np.add.reduce(h * (y[1:] + y[:-1]) / 2.0)


def apply_B_reference(w: np.ndarray, h: float) -> np.ndarray:
    m = w.size
    inner = np.empty(m)
    for j in range(m):
        inner[j] = _trapezoid(w[j:], h)
    out = np.empty(m)
    for i in range(m):
        out[i] = _trapezoid(inner[: i + 1], h)
    return out
