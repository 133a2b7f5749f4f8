"""Independent cross-check: Runge-Kutta shooting for the same equation.

The series pipeline is verified against a deliberately different method:
integrate u'' + a(x)u = f(x) as the first-order system (u' = v,
v' = f - a*u) with the classic fourth-order one-step scheme, then recombine
initial-value solutions by shooting so the mixed endpoint normalizations of
I1, I2, F come out by construction. Nothing here touches the trapezoid
quadrature of the series path; independence is the point.

The scheme steps on node pairs: each step spans 2h, from x_2i to x_2i+2,
and its midpoint is the node x_2i+1, so the node samples of a and f are
all it needs, read as strided views of them. When n is odd the last step
spans one h, from x_n-1 to x_n, with its midpoint values interpolated
linearly, and is stepped as a block of its own. The states come out at the
step ends, the even nodes and x_n (``step_ends``).

The system is linear, so each RK4 step is an affine map of the state
z = (u, u'): z_{i+1} = M_i z_i + c_i. The maps of a block of steps are
built at once and held as six float arrays, the rows (m00, m01, c0) and
(m10, m11, c1) of [M_i | c_i]. The states are the maps' prefix
compositions, computed by a Hillis-Steele doubling scan (log2 of the block
length passes; Blelloch 1990, "Prefix Sums and Their Applications"): each
pass composes A_i with A_{i-d} elementwise, M_i M_{i-d} and
M_i c_{i-d} + c_i, in plain ufunc products and sums, so no BLAS call is
made and the bits do not depend on the CPU. The scan runs over blocks of
SCAN_BLOCK steps and carries each block's end state into the next, so its
temporaries stay small. A start (u0, u0', w), with w weighting the forcing,
maps to (m00 u0 + m01 u0' + c0 w, m10 u0 + m11 u0' + c1 w); the starts
(1, 0, 0), (0, 1, 0) and (0, 0, 1) give phi, psi and the forced p from one
scan. That scan is ``affine_scan``, written for maps of a pair (x, y)
with any number k of affine columns; ``series_core`` runs it with k = 2
on the recurrence of the nested trapezoid rule.

Both gates are relative, so that they hold for any scale of the problem.
A shot diverges where its state leaves OVERFLOW_GUARD times its own scale:
s = |u0| + |u0'| x1 + |w| sup|f| x1^2 for u (sup|f| over the forcing
values the steps use), s / x1 for u' (each capped at the largest float,
so an infinite or NaN state always fails). The shooting denominator psi'(x1)
is numerically zero at SHOOTING_REL_TOL times the scale of psi',
sup|psi'| + sup|psi| / x1 over the step ends.
"""

from __future__ import annotations

import sys

import numpy as np

from ._record import Record
from .errors import Diverged, GridMismatch, OracleSingular
from .grid import SampledFn, max_abs, same_grid

OVERFLOW_GUARD = 1e100
SHOOTING_REL_TOL = 1e-12

# Steps per block of the prefix scan.
SCAN_BLOCK = 4096


class IvpTrajectory(Record):
    """Initial-value solution at the step ends: u and its derivative at
    ``grid.nodes[index]``.

    Attributes
    ----------
    grid : Grid
        The grid the solution was stepped on.
    index : numpy.ndarray
        Node indices of the step ends (``step_ends``).
    u, du : numpy.ndarray
        u and u' at ``grid.nodes[index]``.
    """

    __slots__ = ("grid", "index", "u", "du")


def step_ends(n: int) -> np.ndarray:
    """Node indices of the scheme's step ends: 0, 2, 4, ..., and n."""
    ends = np.arange(0, n + 2, 2)
    ends[-1] = n  # n + 1 for odd n
    return ends


def _step_midpoint_values(fn: SampledFn, fn_eval):
    """fn at the steps' midpoints, as (pair steps, odd step): the values at
    the odd nodes, and for odd n a 1-element array of the value at the last
    interval's middle (None for even n). From ``fn_eval`` when given, else
    from the node values: the odd nodes as a view, the last midpoint
    interpolated linearly."""
    grid, n = fn.grid, fn.grid.n
    if fn_eval is None:
        last = (fn.values[-2:-1] + fn.values[-1:]) / 2.0 if n % 2 else None
        return fn.values[1:n:2], last
    mids = grid.nodes[1:n:2]
    if n % 2:
        mids = np.append(mids, grid.nodes[-2] + grid.h / 2.0)
    values = np.broadcast_to(np.asarray(fn_eval(mids), dtype=float), mids.shape)
    return values[:n // 2], (values[-1:] if n % 2 else None)


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


def _rk4_maps(coeffs) -> np.ndarray:
    """The affine maps of a block of RK4 steps, as the six rows
    m00 m01 c0 m10 m11 c1 (``affine_scan``'s layout, k = 1)."""
    maps = np.empty((6, len(coeffs[1])))
    for col, (u, v, w) in enumerate(np.eye(3)):  # column = image of a unit start
        maps[col], maps[3 + col] = _rk4_step(u, v, w, *coeffs)
    return maps


def _compose(maps: np.ndarray, width: int) -> None:
    """Replace each column of ``maps`` (``affine_scan``'s rows, 2 + k =
    ``width``) with the composition of its map and every map before it,
    A_i o ... o A_0, in log2(steps) doubling passes. The passes write into
    two buffers of the block's size, which are freed on return."""
    steps = maps.shape[1]
    composed, product = np.empty_like(maps), np.empty((width, steps))
    d = 1
    while d < steps:
        later, earlier = maps[:, d:], maps[:, :-d]
        new, prod = composed[:, :steps - d], product[:, :steps - d]
        for row in (0, width):  # rows of M_i times [M | C]_{i-d}
            np.multiply(later[row], earlier[:width], out=new[row:row + width])
            new[row:row + width] += np.multiply(later[row + 1], earlier[width:], out=prod)
            new[row + 2:row + width] += later[row + 2:row + width]  # + C_i
        later[:] = new
        d *= 2


def affine_scan(blocks, starts: np.ndarray):
    """States of a chain of affine maps of (x, y), from each start column.

    Each item of ``blocks`` is the maps of a block of consecutive steps,
    step i's map z_{i+1} = M_i z_i + C_i w written as the 2 (2 + k) rows
    (m00 m01 c_1 .. c_k) and (m10 m11 c'_1 .. c'_k) of [M_i | C_i], one
    column per step; the array is composed in place. ``starts`` is
    (2 + k) x s: columns (x0, y0, w_1 .. w_k), w weighting the k affine
    columns. Yields, per block, x and y after each of its steps, each an
    s x len array, from the states the block before ended in (see the
    module docstring for the scan).
    """
    width = len(starts)
    carry = starts
    for maps in blocks:
        _compose(maps, width)
        x = np.multiply.outer(carry[0], maps[0])
        y = np.multiply.outer(carry[0], maps[width])
        for j in range(1, width):
            x += np.multiply.outer(carry[j], maps[j])
            y += np.multiply.outer(carry[j], maps[width + j])
        yield x, y
        carry = np.array([x[:, -1], y[:, -1], *carry[2:]])


def _shoot(a: SampledFn, f: SampledFn, starts: np.ndarray, a_eval, f_eval):
    """States of the RK4 scheme from each column of ``starts`` at the step ends.

    ``starts`` is 3 x k: columns (u0, u0', w), with w = 1 for the forced
    equation and 0 for the homogeneous one. Returns the step-end node
    indices (``step_ends``) and u and u' there, as k x len(index) arrays.

    Raises
    ------
    GridMismatch
        If a and f live on different grids.
    Diverged
        At the first step end where some state leaves OVERFLOW_GUARD times
        its start's scale (see the module docstring).
    """
    if not same_grid(a.grid, f.grid):
        raise GridMismatch("a and f must share a grid")
    grid = a.grid
    n = grid.n
    ends = step_ends(n)
    # the pair steps' coefficients are views: their ends are the even nodes
    an, fn = a.values[::2], f.values[::2]
    am, a_last = _step_midpoint_values(a, a_eval)
    fm, f_last = _step_midpoint_values(f, f_eval)
    # (first step, end step, coefficients): blocks of 2h steps, then the odd
    # h step from node n - 1 to node n
    pairs = n // 2
    blocks = []
    for lo in range(0, pairs, SCAN_BLOCK):
        hi = min(lo + SCAN_BLOCK, pairs)
        blocks.append((lo, hi, (2.0 * grid.h, an[lo:hi], am[lo:hi], an[lo + 1:hi + 1],
                                fn[lo:hi], fm[lo:hi], fn[lo + 1:hi + 1])))
    if n % 2:
        blocks.append((pairs, pairs + 1, (grid.h, a.values[-2:-1], a_last, a.values[-1:],
                                          f.values[-2:-1], f_last, f.values[-1:])))
    k = starts.shape[1]
    u_out = np.empty((k, len(ends)))
    du_out = np.empty((k, len(ends)))
    u_out[:, 0], du_out[:, 0] = starts[0], starts[1]
    with np.errstate(all="ignore"):
        # sup|f| over the step ends (f[n] is one at odd n), then over the
        # midpoints, where np.maximum keeps a NaN from f_eval, which the
        # Python max then leaves out
        end_sup = max(max_abs(fn), abs(float(f.values[-1])))
        mid_sup = max_abs(fm) if f_last is None else float(np.maximum(max_abs(fm), abs(f_last[0])))
        forcing = max(end_sup, mid_sup)
        scale = (np.abs(starts[0]) + np.abs(starts[1]) * grid.x1
                 + np.abs(starts[2]) * forcing * grid.x1 * grid.x1)
        u_limit = np.minimum(OVERFLOW_GUARD * scale, sys.float_info.max)[:, None]
        du_limit = np.minimum(OVERFLOW_GUARD * scale / grid.x1, sys.float_info.max)[:, None]
        states = affine_scan((_rk4_maps(coeffs) for _, _, coeffs in blocks), starts)
        for (lo, hi, _), (u, du) in zip(blocks, states):
            bad = ~((np.abs(u) <= u_limit) & (np.abs(du) <= du_limit)).all(axis=0)
            if bad.any():
                node = ends[lo + 1 + int(np.argmax(bad))]
                raise Diverged(f"initial-value state exceeded {OVERFLOW_GUARD:g} times "
                               f"its scale at x = {grid.nodes[node]}")
            u_out[:, lo + 1:hi + 1] = u
            du_out[:, lo + 1:hi + 1] = du
    return ends, u_out, du_out


def rk4_ivp(a: SampledFn, f: SampledFn, u0: float, du0: float, *,
            a_eval=None, f_eval=None) -> IvpTrajectory:
    """Integrate the equation from x = 0 with the classic 4-stage scheme,
    on node pairs (see the module docstring).

    ``a_eval``/``f_eval``, when given, supply the coefficients at the step
    midpoints, e.g. by exact expression evaluation; otherwise the node
    samples do, with the midpoint of an odd last interval interpolated
    linearly. Each is called once, with the ndarray of the step midpoints
    (the odd nodes, and for odd n the middle of the last interval), and
    returns an array of their values or a scalar, which is taken as
    constant.

    This is the one-start form of the prefix scan in the module docstring.

    Raises
    ------
    GridMismatch
        If a and f live on different grids.
    Diverged
        If the state leaves OVERFLOW_GUARD times its scale (see the module
        docstring) or stops being finite.
    """
    starts = np.array([[float(u0)], [float(du0)], [1.0]])
    index, u, du = _shoot(a, f, starts, a_eval, f_eval)
    return IvpTrajectory(grid=a.grid, index=index, u=u[0], du=du[0])


class OracleFundamental(Record):
    """Shooting reconstruction of the fundamental system and its derivatives,
    each an array of values at the step ends ``grid.nodes[index]``.

    Attributes
    ----------
    grid : Grid
        The grid the system was shot on.
    index : numpy.ndarray
        Node indices of the step ends (``step_ends``).
    I1, I2, F : numpy.ndarray
        The shot fundamental pair and particular solution.
    dI1, dI2, dF : numpy.ndarray
        Their first derivatives.
    """

    __slots__ = ("grid", "index", "I1", "I2", "F", "dI1", "dI2", "dF")


def oracle_fundamental(a: SampledFn, f: SampledFn, *,
                       a_eval=None, f_eval=None) -> OracleFundamental:
    """Rebuild I1, I2, F by shooting from x = 0.

    With phi, psi the homogeneous solutions started from (u, u')(0) = (1, 0)
    and (0, 1), and p the forced solution started from (0, 0):

        I1 = psi / psi'(x1)
        I2 = phi - (phi'(x1) / psi'(x1)) * psi
        F  = p   - (p'(x1)   / psi'(x1)) * psi

    each of which satisfies the endpoint normalizations by construction.

    All three come from one prefix scan (see the module docstring), at the
    step ends; ``a_eval`` and ``f_eval`` are called once each with the
    ndarray of step midpoints, as ``rk4_ivp`` does.

    Raises
    ------
    OracleSingular
        If |psi'(x1)| <= 1e-12 * (sup|psi'| + sup|psi| / x1), making the
        recombination denominators uncertifiable.
    Diverged
        At the first step end where phi, psi or p leaves OVERFLOW_GUARD
        times its scale or stops being finite.
    """
    index, (phi, psi, p), (dphi, dpsi, dp) = _shoot(a, f, np.eye(3), a_eval, f_eval)
    dpsi_x1 = float(dpsi[-1])
    psi_scale = max_abs(dpsi) + max_abs(psi) / a.grid.x1
    if abs(dpsi_x1) <= SHOOTING_REL_TOL * psi_scale:
        raise OracleSingular(
            f"shooting denominator |psi'(x1)| = {abs(dpsi_x1):.3e} is numerically zero"
        )
    c_phi = float(dphi[-1]) / dpsi_x1
    c_p = float(dp[-1]) / dpsi_x1
    # recombined in the scan's rows: I2 in phi's, F in p's, I1 in psi's
    scratch = np.empty_like(psi)
    for row, c, base in ((phi, c_phi, psi), (p, c_p, psi), (dphi, c_phi, dpsi), (dp, c_p, dpsi)):
        np.subtract(row, np.multiply(c, base, out=scratch), out=row)
    np.divide(psi, dpsi_x1, out=psi)
    np.divide(dpsi, dpsi_x1, out=dpsi)
    return OracleFundamental(grid=a.grid, index=index, I1=psi, I2=phi, F=p,
                             dI1=dpsi, dI2=dphi, dF=dp)


def compare(series, oracle: OracleFundamental) -> float:
    """Largest relative gap between the series limits and the oracle's, at
    the oracle's step ends.

    The gap for each of I1, I2, F is |series - oracle| / (1 + |oracle|),
    maximized over those nodes and over the three functions. ``series`` is
    anything with SampledFn attributes I1, I2 and F, such as a
    SeriesSolution.

    Raises
    ------
    GridMismatch
    """
    worst = 0.0
    gap, scale = np.empty(len(oracle.index)), np.empty(len(oracle.index))
    for name in ("I1", "I2", "F"):
        s: SampledFn = getattr(series, name)
        o: np.ndarray = getattr(oracle, name)
        if not same_grid(s.grid, oracle.grid):
            raise GridMismatch("series and oracle must share a grid")
        # "clip" gathers straight into gap, where the default mode buffers
        # a copy; the step ends are in range
        np.take(s.values, oracle.index, out=gap, mode="clip")
        np.abs(np.subtract(gap, o, out=gap), out=gap)
        np.add(1.0, np.abs(o, out=scale), out=scale)
        worst = max(worst, float(np.max(np.divide(gap, scale, out=gap))))
    return worst
