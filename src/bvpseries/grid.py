"""Uniform grids, node-sampled functions, and trapezoid quadrature primitives.

Every function in the solve pipeline is represented by its values at the
nodes of a uniform grid on [0, x1] and interpreted as the piecewise-linear
interpolant between nodes. All integrals in the package reduce to the single
composite-trapezoid prefix sum implemented here, so that the various
quadrature compositions stay mutually consistent.

Norms are computed as node maxima. That is the correct supremum for the
piecewise-linear representatives used here; it under-estimates the essential
supremum of a function with spikes between nodes, which is why coefficients
are restricted to piecewise-continuous inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, InvalidDomain, TableDomainError
from .expr import Expr, eval_array, eval_expr, parse_expr

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
        If x1 is not a positive finite real or n is not an integer in
        [2, MAX_INTERVALS].
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
    nodes = np.linspace(0.0, x1, n + 1)
    nodes.setflags(write=False)
    return Grid(x1=x1, n=int(n), h=x1 / n, nodes=nodes)


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
        (``expr.eval_array``).

        Raises
        ------
        EvalError
            If the expression leaves the finite reals at (one of) the points.
        TableDomainError
            If a point lies outside the table span.
        """
        array = isinstance(x, np.ndarray)
        if self._expr is not None:
            return eval_array(self._expr, x) if array else eval_expr(self._expr, x)
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
    except EvalError:
        for x in grid.nodes:  # name the first node that fails
            try:
                spec.evaluate(float(x))
            except EvalError as exc:
                raise EvalError(f"{spec.source!r} at x = {x}: {exc}") from exc
        raise
    return SampledFn(grid, values)


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
