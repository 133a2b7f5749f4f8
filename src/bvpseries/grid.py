"""Uniform grids, node-sampled functions, and trapezoid quadrature primitives.

Every function in the solve pipeline is represented by its values at the
nodes of a uniform grid on [0, x1] and interpreted as the piecewise-linear
interpolant between nodes. All integrals in the package reduce to the single
composite-trapezoid prefix sum implemented here (or its tail), so that the
various quadrature compositions stay mutually consistent.

Norms are computed as node maxima. That is the correct supremum for the
piecewise-linear representatives used here; it under-estimates the essential
supremum of a function with spikes between nodes, which is why coefficients
are restricted to piecewise-continuous inputs.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, InvalidDomain, TableDomainError
from .expr import Expr, eval_arrays, eval_expr, parse_expr

# Largest interval count a grid accepts. A run's peak resident memory,
# counting the child that formats half the output, is about 30 MiB plus
# 0.44 KiB per node at worst (fundamental with JSON output, the largest
# payload: 57.5 MiB at n = 65536, 141 MiB at n = 2**18), so 2**20 intervals
# need about 0.45 GiB (measured: 457 MiB) and stay well within a 2 GiB
# budget. Larger n is refused before anything of size n is allocated.
MAX_INTERVALS = 2**20


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform partition of [0, x1] into n intervals.

    Attributes
    ----------
    x1 : float
        Right endpoint, > 0. nodes[-1] equals it exactly.
    n : int
        Number of intervals, >= 2.
    h : float
        Step size x1/n.
    nodes : numpy.ndarray
        The n+1 node coordinates, strictly increasing from 0.0 to x1.
    """

    x1: float
    n: int
    h: float
    nodes: np.ndarray = field(repr=False)


def make_grid(x1: float, n: int) -> Grid:
    """Build the uniform grid with n intervals on [0, x1].

    Raises
    ------
    InvalidDomain
        If x1 is not a positive finite real, n is not an integer in
        [2, MAX_INTERVALS], or x1*x1 or h*h is not a normal finite float:
        the residual stencil divides by h*h and the series bounds scale with
        x1*x1, so a square that overflows or underflows turns them to inf or
        nan.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidDomain(f"interval count must be an integer, got {n!r}")
    if n < 2:
        raise InvalidDomain(f"interval count must be >= 2, got {n}")
    if n > MAX_INTERVALS:
        raise InvalidDomain(
            f"interval count must be <= {MAX_INTERVALS} (memory budget), got {n}"
        )
    x1 = float(x1)
    if not math.isfinite(x1) or x1 <= 0.0:
        raise InvalidDomain(f"right endpoint must be positive and finite, got {x1!r}")
    h = x1 / n
    for name, square in (("x1*x1", x1 * x1), ("h*h", h * h)):
        if not sys.float_info.min <= square < math.inf:
            raise InvalidDomain(
                f"{name} = {square!r} is not a normal finite float (x1 = {x1!r}, n = {n})"
            )
    nodes = np.linspace(0.0, x1, n + 1)
    nodes.setflags(write=False)
    return Grid(x1=x1, n=int(n), h=h, nodes=nodes)


def same_grid(g1: Grid, g2: Grid) -> bool:
    return g1 is g2 or (g1.n == g2.n and g1.x1 == g2.x1)


@dataclass(frozen=True, eq=False)
class SampledFn:
    """Real function represented by its values at grid nodes.

    Between nodes the function is the piecewise-linear interpolant.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n + 1,):
            raise InvalidDomain(
                f"need {self.grid.n + 1} node values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidDomain("node values must all be finite")
        object.__setattr__(self, "values", values)


class CoefficientSpec:
    """Source of a coefficient function: parsed expression or tabulated data.

    Use the classmethods to construct; ``evaluate`` works at arbitrary points
    in the table span (or anywhere the expression is defined), and ``sample``
    below discretizes onto a grid.
    """

    def __init__(self, expr: Expr | None, source: str,
                 table: tuple[np.ndarray, np.ndarray] | None):
        self._expr = expr
        self._table = table
        self.source = source

    @classmethod
    def expression(cls, text: str) -> "CoefficientSpec":
        """Parse ``text`` with the coefficient grammar. Raises ParseError."""
        return cls(parse_expr(text), text, None)

    @classmethod
    def table(cls, xs, values) -> "CoefficientSpec":
        """Tabulated coefficient with strictly increasing sample abscissae."""
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or len(xs) < 2:
            raise TableDomainError("table needs two same-length columns with >= 2 rows")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(values))):
            raise TableDomainError("table entries must be finite")
        if not np.all(np.diff(xs) > 0):
            raise TableDomainError("table x column must be strictly increasing")
        return cls(None, f"table[{len(xs)} rows]", (xs, values))

    @classmethod
    def from_csv(cls, path) -> "CoefficientSpec":
        """Read a two-column ``x,value`` CSV; a non-numeric first row is a header."""
        xs, values = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 2:
                    raise TableDomainError(f"{path}: expected two columns, got {row!r}")
                try:
                    x, v = float(row[0]), float(row[1])
                except ValueError:
                    if not xs:  # header row
                        continue
                    raise TableDomainError(f"{path}: non-numeric row {row!r}")
                xs.append(x)
                values.append(v)
        if len(xs) < 2:
            raise TableDomainError(f"{path}: need at least two data rows")
        return cls.table(xs, values)

    def check_span(self, x1: float) -> None:
        """Tables must cover [0, x1]; expressions are checked per point."""
        if self._table is not None:
            xs, _ = self._table
            if xs[0] > 0.0 or xs[-1] < x1:
                raise TableDomainError(
                    f"table spans [{xs[0]}, {xs[-1]}] but must cover [0, {x1}]"
                )

    def evaluate(self, x):
        """Value at a point, or values at every point of a 1-D ndarray.

        Tables are interpolated linearly. An expression evaluated over an
        ndarray gives, bit for bit, its values at each point as a float
        (``expr.eval_arrays``).

        Raises
        ------
        EvalError
            If the expression leaves the finite reals at (one of) the points.
        TableDomainError
            If a point lies outside the table span.
        """
        array = isinstance(x, np.ndarray)
        if self._expr is not None:
            return eval_arrays([self._expr], x)[0] if array else eval_expr(self._expr, x)
        xs, values = self._table
        outside = (x < xs[0]) | (x > xs[-1])
        if np.any(outside):
            first = x[outside][0] if array else x
            raise TableDomainError(f"x = {first} outside table span [{xs[0]}, {xs[-1]}]")
        return np.interp(x, xs, values) if array else float(np.interp(x, xs, values))


def sample(spec: CoefficientSpec, grid: Grid) -> SampledFn:
    """Discretize a coefficient spec onto grid nodes.

    Tabulated specs are linearly interpolated onto the nodes; expression
    specs are evaluated over the whole node array at once, each node value
    bit-identical to the scalar evaluation at that node.

    Raises
    ------
    EvalError
        Propagated from expression evaluation, tagged with the first node
        where it fails.
    TableDomainError
        If a table does not span [0, x1].
    """
    spec.check_span(grid.x1)
    try:
        values = spec.evaluate(grid.nodes)
    except EvalError as exc:  # raised at the first node that fails
        raise EvalError(f"{spec.source!r} at x = {exc.x}: {exc}", exc.x) from exc
    return SampledFn(grid, values)


def _evaluate_joint(specs, xs: np.ndarray) -> list[np.ndarray]:
    """Each spec's values at ``xs``, the expressions run as one program."""
    joint = iter(eval_arrays([spec._expr for spec in specs if spec._expr is not None], xs))
    return [spec.evaluate(xs) if spec._expr is None else next(joint) for spec in specs]


def evaluate_together(specs, xs: np.ndarray) -> list[np.ndarray]:
    """``[spec.evaluate(xs) for spec in specs]``, value for value and error
    for error, with the expressions among the specs evaluated as one program
    (``expr.eval_arrays``): a subtree they share runs once per point.

    The joint run only ever supplies values. If it fails anywhere, the specs
    are evaluated one at a time, in order, so the error is the first
    failing spec's, as it would be without the joint run.
    """
    try:
        return _evaluate_joint(specs, xs)
    except (EvalError, TableDomainError):
        return [spec.evaluate(xs) for spec in specs]


def sample_together(specs, grid: Grid) -> list[SampledFn]:
    """``[sample(spec, grid) for spec in specs]``, value for value and error
    for error, with the expressions evaluated as one program, as in
    ``evaluate_together``. If a table does not span [0, x1] or the joint
    run fails anywhere, the specs are sampled one at a time, in order.
    """
    try:
        for spec in specs:
            spec.check_span(grid.x1)
        values = _evaluate_joint(specs, grid.nodes)
    except (EvalError, TableDomainError):
        return [sample(spec, grid) for spec in specs]
    return [SampledFn(grid, v) for v in values]


def sup_norm(u: SampledFn) -> float:
    """Maximum of |u| over the grid nodes."""
    return float(np.max(np.abs(u.values)))


def prefix_trapz(values: np.ndarray, h: float) -> np.ndarray:
    """Running composite-trapezoid integral: out[i] = integral over [0, x_i].

    Exact (to rounding) for the piecewise-linear interpolant of ``values``.
    """
    out = np.empty(len(values))
    out[0] = 0.0
    out[1:] = np.cumsum(h * (values[1:] + values[:-1]) / 2.0)
    return out


def tail_trapz(values: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral toward x1: out[i] = integral over [x_i, x1],
    the total minus the prefix sum; out[-1] is 0.0 exactly."""
    prefix = prefix_trapz(values, h)
    return prefix[-1] - prefix
