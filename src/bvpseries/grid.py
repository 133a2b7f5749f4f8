"""Uniform grids, node-sampled functions, and trapezoid quadrature primitives.

Every function in the solve pipeline is represented by its values at the
nodes of a uniform grid on [0, x1] and interpreted as the piecewise-linear
interpolant between nodes. All integrals in the package reduce to the single
composite-trapezoid prefix sum implemented here (or its tail), so that the
various quadrature compositions stay mutually consistent.

The operator B of the fixed-point form (``series_core``),
(Bw)(x) = int_0^x int_y^{x1} w(t) dt dy, is on the grid the nested
trapezoid rule B_h, ``nested_trapz``: a tail pass G_i = int_{x_i}^{x1} w
(``tail_trapz``), then a prefix pass (B_h w)_i = int_0^{x_i} G
(``prefix_trapz``); O(n) in all. Its O(n^2) quadrature reference is
tests/b_reference.py. Every series term and g is one such pass, and so is
``fixed_point_defect``, the one pass that forms a defect
d = S - B_h(a S) - seed: the certificate of a scanned limit
(``series_core.scan_or_sum``) and u's fixed-point defect
(``checks.residual_report``). Its tail pass int_x^{x1} a S is what the
derivative identities of the series limits (series_core's docstring) add
to.

Norms are computed as node maxima. That is the correct supremum for the
piecewise-linear representatives used here; it under-estimates the essential
supremum of a function with spikes between nodes, which is why coefficients
are restricted to piecewise-continuous inputs. One reduction, ``max_abs``,
takes every node maximum in the package; a ``SampledFn`` takes it once, as
its finiteness test, and keeps it as its ``sup`` over a read-only array.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._record import Record
from .errors import EvalError, InvalidDomain, TableDomainError
from .expr import _eval_each, eval_arrays, parse_expr
from .expr import eval_expr  # unused here; bench/traced_op.py wraps grid.eval_expr

# Largest interval count a grid accepts. A run's peak resident memory is
# about 30 MiB plus, per node, 0.12 KiB at worst (verify, whose series,
# oracle and checks hold at most about 14.5 arrays of n + 1 floats at once),
# 0.11 KiB for solve and 0.09 KiB for fundamental (README "Caveats"), so
# 2**20 intervals need at most about 149 MiB (measured: verify 149, solve
# 142, fundamental 118 MiB) and stay well within a 2 GiB budget. Larger n
# is refused before anything of size n is allocated.
MAX_INTERVALS = 2**20


class Grid(Record):
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

    __slots__ = ("x1", "n", "h", "nodes")


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


def max_abs(values: np.ndarray) -> float:
    """max |values|, NaN if a value is NaN, in two reads of ``values`` that
    allocate nothing. The final abs is there because the SIMD max and min
    may return -0.0 for an array of zeros."""
    return abs(float(max(values.max(), -values.min())))


class SampledFn:
    """Real function represented by its values at grid nodes.

    Between nodes the function is the piecewise-linear interpolant. ``sup``
    is max |values|, taken once, by ``max_abs``, when the function is made;
    the same reduction is the finiteness test. ``values`` is the array
    given, made read-only (as ``make_grid`` makes ``nodes``), so the sup
    stays its sup.

    Raises
    ------
    InvalidDomain
        If ``values`` is not n+1 finite reals.
    """

    __slots__ = ("grid", "values", "sup")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n + 1,):
            raise InvalidDomain(f"need {grid.n + 1} node values, got shape {values.shape}")
        self.sup = max_abs(values)
        if not math.isfinite(self.sup):
            raise InvalidDomain("node values must all be finite")
        values.setflags(write=False)
        self.grid = grid
        self.values = values


class CoefficientSpec(Record):
    """Source of a coefficient function: parsed expression or tabulated data.

    Use the classmethods to construct; ``evaluate`` works at arbitrary points
    in the table span (or anywhere the expression is defined), and ``sample``
    below discretizes onto a grid. ``source`` is the expression's text, a
    table file's path, or ``table[N rows]`` for a table given as arrays;
    every error that names the coefficient starts with it. ``_expr`` is the
    parsed tree and ``_table`` the (x, value) columns; the other is None.
    """

    __slots__ = ("_expr", "source", "_table")

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
        """Read a two-column ``x,value`` CSV; a non-numeric first row is a header.

        The file is read as UTF-8 whatever the locale, after a byte order
        mark if it starts with one, each undecodable byte read as U+FFFD,
        so such a byte makes its row non-numeric; a file the
        csv module cannot split (a field over its size limit) is a
        ``TableDomainError`` too.
        """
        import csv  # here, not at the top: only tables need it, and every run imports grid

        xs, values = [], []
        with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
            try:
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
            except csv.Error as exc:
                raise TableDomainError(f"{path}: {exc}") from None
        if len(xs) < 2:
            raise TableDomainError(f"{path}: need at least two data rows")
        try:
            return cls(None, str(path), cls.table(xs, values)._table)
        except TableDomainError as exc:
            raise TableDomainError(f"{path}: {exc}") from None

    def check_span(self, x1: float) -> None:
        """Tables must cover [0, x1]; expressions are checked per point."""
        if self._table is not None:
            xs, _ = self._table
            if xs[0] > 0.0 or xs[-1] < x1:
                raise TableDomainError(
                    f"{self.source}: table spans [{xs[0]}, {xs[-1]}] but must cover [0, {x1}]"
                )

    def evaluate(self, x):
        """Value at a point (a float or a 0-d ndarray), or values at every
        point of a 1-D ndarray; a point is evaluated as the array of that
        one point.

        Tables are interpolated linearly. Expressions run as one program
        over the points (``expr.eval_arrays``).

        Raises
        ------
        EvalError
            If the expression leaves the finite reals at (one of) the points.
        TableDomainError
            If a point lies outside the table span or is not finite.
        """
        xs = x if isinstance(x, np.ndarray) and x.ndim else np.array([x], dtype=float)
        if self._expr is not None:
            values = eval_arrays([self._expr], xs)[0]
        else:
            lo, hi = self._table[0][[0, -1]]
            outside = ~((xs >= lo) & (xs <= hi))  # NaN compares False: outside
            if outside.any():
                raise TableDomainError(
                    f"{self.source}: x = {xs[outside][0]} outside table span [{lo}, {hi}]")
            values = np.interp(xs, *self._table)
        return values if xs is x else float(values[0])


def sample(spec: CoefficientSpec, grid: Grid) -> SampledFn:
    """Discretize a coefficient spec onto grid nodes:
    ``sample_together((spec,), grid)[0]``."""
    return sample_together((spec,), grid)[0]


def sample_together(specs, grid: Grid) -> list[SampledFn]:
    """Discretize coefficient specs onto grid nodes, value for value and
    error for error as sampling each alone, with the expressions among them
    evaluated as one program (``expr._eval_each``): a subtree they share
    runs once per node.

    The specs are taken once, in order. A table checks its span and is
    interpolated linearly onto the nodes. An expression takes its values
    from the joint run, or raises the error it would raise alone, so the
    error is the first failing spec's.

    Raises
    ------
    EvalError
        If an expression leaves the finite reals at a node; the message
        names the spec's source and the first node where it fails.
    TableDomainError
        If a table does not span [0, x1].
    """
    joint = iter(_eval_each([spec._expr for spec in specs if spec._expr is not None],
                            grid.nodes))
    sampled = []
    for spec in specs:
        if spec._expr is None:
            spec.check_span(grid.x1)
            values = spec.evaluate(grid.nodes)
        else:
            values = next(joint)
            if isinstance(values, EvalError):
                raise EvalError(f"{spec.source!r} at x = {values.x}: {values}",
                                values.x) from values
        sampled.append(SampledFn(grid, values))
    return sampled


def sup_norm(u: SampledFn) -> float:
    """Maximum of |u| over the grid nodes: ``u.sup``."""
    return u.sup


def prefix_trapz(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Running composite-trapezoid integral: out[i] = integral over [0, x_i].

    Exact (to rounding) for the piecewise-linear interpolant of ``values``.
    Each increment is (h/2) (v_i + v_{i-1}), one add and one multiply; h/2
    itself is exact, as ``make_grid`` keeps h*h normal. Written into ``out``
    when given (same length, not ``values`` itself), one ufunc at a time, so
    the pass allocates nothing.
    """
    if out is None:
        out = np.empty(len(values))
    out[0] = 0.0
    steps = out[1:]
    np.add(values[1:], values[:-1], out=steps)
    np.multiply(h / 2.0, steps, out=steps)
    np.cumsum(steps, out=steps)
    return out


def tail_trapz(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Running trapezoid integral toward x1: out[i] = integral over [x_i, x1],
    the total minus the prefix sum; out[-1] is 0.0 exactly. ``out`` is as
    for ``prefix_trapz``."""
    prefix = prefix_trapz(values, h, out)
    return np.subtract(prefix[-1], prefix, out=prefix)


def nested_trapz(w: np.ndarray, h: float, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """B_h w: the tail pass G = ``tail_trapz(w)``, then ``prefix_trapz(G)``.

    G is written into ``scratch`` and the result into ``out`` when they are
    given (``out`` may be ``w``), so the pass allocates nothing; its
    operations, and so its bits, are the same either way.
    """
    return prefix_trapz(tail_trapz(w, h, out=scratch), h, out=out)


def fixed_point_defect(S: np.ndarray, a: np.ndarray, seed, h: float, out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """d = S - B_h(a S) - seed, the defect of S in the fixed-point form
    S = B_h(a S) + seed (``seed`` an array or a scalar).

    The one pass of B_h is ``nested_trapz`` on a S, with its tail pass
    int_x^{x1} a S left in ``scratch`` and d written into ``out`` when they
    are given; its operations, and so its bits, are the same either way.
    ``S``, ``a`` and ``seed`` are only read.
    """
    defect = np.multiply(a, S, out=out)
    nested_trapz(defect, h, out=defect, scratch=scratch)
    return np.subtract(np.subtract(S, defect, out=defect), seed, out=defect)
