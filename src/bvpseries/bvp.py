"""General solution assembly and the two-point problem u(0) = alpha, u'(x1) = beta.

With the fundamental system in hand the general solution is
u = c1*I1 + c2*I2 + F, and the mixed-endpoint normalizations of the series
make the two-point problem trivial to pin: I2 is the only piece with a
nonzero value at 0 and I1 the only one with a nonzero derivative at x1, so
c2 = alpha and c1 = beta: nothing is divided. (I1, I2) stays a genuine
fundamental pair (their Wronskian is the constant -I2(x1)) because I2(x1)
stays away from 0 for q < 1: on every a searched it was at least its value
at a = -sup|a|, which is near 1/cosh(sqrt(2q)) and above 0.43 on every
grid tested (tests/test_bvp.py).

This module assembles u and reports on it; what the report measures (the
Wronskian's deviation and u's residuals, ``checks.wronskian_check`` and
``checks.residual_report``) is taken in ``checks``, beside the limits.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .checks import bound_checks, residual_report, wronskian_check
from .errors import InvalidDomain
from .grid import SampledFn
from .series_core import SeriesSolution


class ProblemD:
    """Two-point data: value at the left end, slope at the right end.

    Raises
    ------
    InvalidDomain
        If alpha or beta is not a finite real.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise InvalidDomain(f"{name} must be a finite real, got {value!r}")
        self.alpha = alpha
        self.beta = beta


class SolveReport(Record):
    """Solution plus every diagnostic a solve produces.

    Attributes
    ----------
    u, du : SampledFn
        The solution u = c1*I1 + c2*I2 + F and its derivative.
    c1, c2 : float
        The series coefficients, beta and alpha.
    boundary_err : tuple of float
        |u(0) - alpha| and |u'(x1) - beta|.
    residual_max : float
        The largest interior-node residual of the equation.
    wronskian_dev : float
        The largest deviation of the Wronskian of (I1, I2) from -I2(x1).
    bound_checks : tuple of Check
        ``checks.bound_checks`` of the series.
    fixedpoint_err : float
        The largest node defect of u = Bu + g + c1*x + c2.
    """

    __slots__ = ("u", "du", "c1", "c2", "boundary_err", "residual_max",
                 "wronskian_dev", "bound_checks", "fixedpoint_err")


def general_solution(sol: SeriesSolution, c1: float, c2: float):
    """Assemble u = c1*I1 + c2*I2 + F and its derivative, node-wise.

    Returns
    -------
    (u, du) : tuple of SampledFn
    """
    grid = sol.grid
    scratch = np.empty(grid.n + 1)

    def combine(i1: SampledFn, i2: SampledFn, fn: SampledFn) -> SampledFn:
        out = np.multiply(c1, i1.values)
        np.add(out, np.multiply(c2, i2.values, out=scratch), out=out)
        return SampledFn(grid, np.add(out, fn.values, out=out))

    return combine(sol.I1, sol.I2, sol.F), combine(sol.dI1, sol.dI2, sol.dF)


def solve_problem_d(sol: SeriesSolution, prob: ProblemD) -> SolveReport:
    """Solve the two-point problem via u = beta*I1 + alpha*I2 + F.

    The boundary data map straight onto the series coefficients (c1 = beta,
    c2 = alpha), so u(0) = alpha and u'(x1) = beta hold exactly on the grid.

    Raises
    ------
    InvalidDomain
        If alpha or beta is so large that u, u' or the residual overflows.
    """
    c1, c2 = prob.beta, prob.alpha
    wronskian_dev = wronskian_check(sol)[1]
    bchecks = tuple(bound_checks(sol))
    # Overflow shows up as a non-finite value, which SampledFn rejects in u
    # and u' and the residuals carry; the only inputs large enough to cause
    # it here are alpha and beta.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u, du = general_solution(sol, c1, c2)
            residuals = residual_report(u, sol.a, sol.f, c1, c2, sol.g)
        except InvalidDomain:
            residuals = (math.inf,)
    if not all(map(math.isfinite, residuals)):
        raise InvalidDomain(
            f"alpha = {prob.alpha!r}, beta = {prob.beta!r} are too large: "
            "the solution or its residual overflows"
        )
    residual_max, fixedpoint_err = residuals
    boundary_err = (
        abs(float(u.values[0]) - prob.alpha),
        abs(float(du.values[-1]) - prob.beta),
    )
    return SolveReport(
        u=u, du=du, c1=c1, c2=c2, boundary_err=boundary_err,
        residual_max=residual_max, wronskian_dev=wronskian_dev,
        bound_checks=bchecks, fixedpoint_err=fixedpoint_err,
    )
