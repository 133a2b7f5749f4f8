"""Seeded manufactured-solution problems for the bvpseries benchmark.

Each problem picks an exact solution u* and a coefficient a from a fixed
sin/cos/exp family, writes the forcing f = u*'' + a u* as an expression
string, and sets alpha = u*(0), beta = u*'(x1). The program under test sees
only the resulting argv; the benchmark keeps u* as a reference that is
independent of both the series and the RK4 oracle.

The coefficient is scaled so that sup|a| * x1^2 / 2 over the nodes of the
drawn grid equals the drawn q, which is the ratio the program certifies.

Draws are stratified, never filtered. Series length grows like 1/(1 - q),
so the q range is cut into Q_STRATA equal slices of log(1 - q); op i draws
uniformly inside slice bitrev(i // cycle), so any prefix of the stream
covers the whole range evenly and medians over a run stay put from seed to
seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

EPS = float(np.finfo(float).eps)
Q_STRATA = 16
_STRATUM_BITS = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """Input ranges of one workload.

    kinds lists (command, format) pairs; ops cycle through ns and kinds
    together, so every stratum of q meets every grid size and command.
    cycle_seconds is the wall time one cycle of a timed run took at seed,
    set-up and host-speed probes and output checks included; op_count sizes
    runs by it.
    """

    q: tuple[float, float]
    x1: tuple[float, float]
    ns: tuple[int, ...]
    kinds: tuple[tuple[str, str], ...]
    a_terms: int
    u_terms: int
    cycle_seconds: float

    @property
    def cycle(self) -> int:
        return len(self.ns) * len(self.kinds)


WORKLOADS = {
    # Long sums on short arrays: 250-2,800 terms per series.
    "solve-stiff": WorkloadSpec(
        q=(0.90, 0.99), x1=(0.5, 1.5), ns=(4096, 16384),
        kinds=(("solve", "json"),), a_terms=1, u_terms=1, cycle_seconds=2.8),
    # Short sums on long arrays, with the RK4 oracle and every check.
    "verify-fine": WorkloadSpec(
        q=(0.05, 0.6), x1=(0.5, 1.5), ns=(16384, 32768, 65536),
        kinds=(("verify", "json"),), a_terms=2, u_terms=2, cycle_seconds=10.0),
    # Short sums on long arrays with multi-megabyte payloads.
    "fundamental-bulk": WorkloadSpec(
        q=(0.05, 0.5), x1=(0.5, 1.5), ns=(65536,),
        kinds=(("fundamental", "json"), ("fundamental", "csv"), ("solve", "json")),
        a_terms=1, u_terms=1, cycle_seconds=6.2),
}


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run of about ``seconds`` at seed speed, in whole cycles.

    The count depends on the arguments alone, not on how fast the program
    or the host is, so every commit runs and ranks the same problems.
    """
    spec = WORKLOADS[workload]
    return spec.cycle * max(1, round(seconds / spec.cycle_seconds))


def num(value: float) -> str:
    """Shortest round-trip decimal, which the expression grammar reads exactly."""
    return repr(float(value))


@dataclass(frozen=True)
class Term:
    """c * sin(k x + p), c * cos(k x + p) or c * exp(k x)."""

    kind: str
    c: float
    k: float
    p: float = 0.0

    def text(self, scale: float = 1.0) -> str:
        if self.kind == "exp":
            return f"{num(scale * self.c)}*exp({num(self.k)}*x)"
        return f"{num(scale * self.c)}*{self.kind}({num(self.k)}*x + {num(self.p)})"

    def deriv(self, x, order: int = 0):
        """Derivative of the given order at x (order 0 is the value)."""
        scale = self.c * self.k ** order
        if self.kind == "exp":
            return scale * np.exp(self.k * x)
        fn = np.sin if self.kind == "sin" else np.cos
        return scale * fn(self.k * x + self.p + order * math.pi / 2.0)

    def curvature_scale(self) -> float:
        """u'' = curvature_scale * u for this term."""
        return self.k * self.k if self.kind == "exp" else -self.k * self.k


def _sum_text(terms) -> str:
    return " + ".join(t.text() for t in terms)


def _sum_deriv(terms, x, order: int = 0):
    return sum(t.deriv(x, order) for t in terms)


def _round6(value: float) -> float:
    return float(f"{value:.6g}")


def _draw_term(rng: random.Random) -> Term:
    kind = rng.choice(("sin", "cos", "exp"))
    c = _round6(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5))
    if kind == "exp":
        return Term(kind, c, _round6(rng.uniform(-1.0, 1.0)))
    return Term(kind, c, _round6(rng.uniform(0.5, 3.0)),
                _round6(rng.uniform(-math.pi, math.pi)))


@dataclass(frozen=True)
class Problem:
    """One CLI op and its exact solution."""

    index: int
    command: str
    fmt: str
    n: int
    x1: float
    q: float
    a_text: str
    f_text: str
    alpha: float
    beta: float
    a_scale: float
    a_shape: tuple[Term, ...]
    u_terms: tuple[Term, ...]

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.x1, self.n + 1)

    def exact(self, x) -> np.ndarray:
        return _sum_deriv(self.u_terms, np.asarray(x, dtype=float))

    def envelope(self, tol: float) -> float:
        """Bound on max|u - u*| / (1 + sup|u*|) for the series solution.

        With e = u_h - u*, e = B_h e + (B_h - B) u* + (g_h - g), and
        ||B_h|| <= q, so ||e|| <= (||(B_h - B) u*|| + ||g_h - g||) / (1 - q).
        The nested trapezoid rule misses int_0^x int_y^x1 w by at most
        h^2/12 (x1^2 sup|w''| + x1 sup|w'|); w = a u* for B and w = f for g,
        with f = u*'' + a u*. Truncation adds (|beta| + |alpha| + 1) tol,
        one tail per series, and prefix-sum rounding adds about
        (n + 1) eps per pass over the same data.
        """
        x = self.nodes
        u = [_sum_deriv(self.u_terms, x, k) for k in range(5)]
        a = [self.a_scale * _sum_deriv(self.a_shape, x, k) for k in range(3)]
        au = a[0] * u[0]
        d1 = a[1] * u[0] + a[0] * u[1]
        d2 = a[2] * u[0] + 2.0 * a[1] * u[1] + a[0] * u[2]
        sup = lambda v: float(np.max(np.abs(v)))
        x1, h, q = self.x1, self.x1 / self.n, self.q
        discretization = h * h / 12.0 * (
            x1 * x1 * (2.0 * sup(d2) + sup(u[4])) + x1 * (2.0 * sup(d1) + sup(u[3])))
        truncation = (1.0 + abs(self.alpha) + abs(self.beta)) * tol
        rounding = (self.n + 1) * EPS * (sup(u[0]) + x1 * x1 * (sup(au) + sup(u[2] + au)))
        return ((discretization + rounding) / (1.0 - q) + truncation) / (1.0 + sup(u[0]))

    def argv(self) -> list[str]:
        """Arguments after ``python -m bvpseries``."""
        return [self.command, "--a", self.a_text, "--f", self.f_text,
                f"--x1={num(self.x1)}", f"--alpha={num(self.alpha)}",
                f"--beta={num(self.beta)}", f"--n={self.n}", f"--format={self.fmt}"]


def _bitrev(i: int) -> int:
    return int(format(i % Q_STRATA, f"0{_STRATUM_BITS}b")[::-1], 2)


def make_problem(spec: WorkloadSpec, rng: random.Random, index: int) -> Problem:
    n = spec.ns[index % len(spec.ns)]
    command, fmt = spec.kinds[index % len(spec.kinds)]
    lo, hi = spec.q
    t = (_bitrev(index // spec.cycle) + rng.random()) / Q_STRATA
    q = 1.0 - (1.0 - lo) * ((1.0 - hi) / (1.0 - lo)) ** t
    x1 = _round6(rng.uniform(*spec.x1))
    shape = [_draw_term(rng) for _ in range(spec.a_terms)]
    u_terms = tuple(_draw_term(rng) for _ in range(spec.u_terms))

    nodes = np.linspace(0.0, x1, n + 1)
    shape_sup = float(np.max(np.abs(_sum_deriv(shape, nodes))))
    scale = 2.0 * q / (x1 * x1 * shape_sup)
    a_text = f"{num(scale)}*({_sum_text(shape)})"
    second = " + ".join(t.text(t.curvature_scale()) for t in u_terms)
    f_text = f"({second}) + ({a_text})*({_sum_text(u_terms)})"
    alpha = float(_sum_deriv(u_terms, 0.0))
    beta = float(_sum_deriv(u_terms, x1, 1))
    return Problem(index, command, fmt, n, x1, q, a_text, f_text, alpha, beta,
                   scale, tuple(shape), u_terms)


def problems(workload: str, seed: int) -> Iterator[Problem]:
    """Endless deterministic problem stream of one workload."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    index = 0
    while True:
        yield make_problem(spec, rng, index)
        index += 1
