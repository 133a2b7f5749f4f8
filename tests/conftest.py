"""Shared fixtures: a reproducible battery of random smooth problems.

Each problem is a pair of trigonometric-combination coefficients held as
plain callables, so it can be resampled onto any grid and handed to the
initial-value oracle for exact half-step evaluation. The coefficient a is
scaled so the contraction ratio q = sup|a| * x1^2 / 2 hits a target drawn
from (0.08, 0.88), safely inside the convergence region but spanning it.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from bvpseries.grid import SampledFn, make_grid, sup_norm
from bvpseries.series_core import SeriesSolution, contraction_ratio, fundamental_system

# pyproject.toml's filterwarnings fails a RuntimeWarning, and a
# DeprecationWarning raised in bvpseries, in this process only; the tests'
# child processes get the same filters from here (a DeprecationWarning from
# any module, since PYTHONWARNINGS matches a module by its exact name). They
# go last, so they win over any filter already in PYTHONWARNINGS.
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning",
                  "error::DeprecationWarning")))

SUITE_SEED = 20240817
SUITE_SIZE = 20


def _trig_combo(rng: np.random.Generator, x1: float, target_sup: float) -> Callable:
    c0, c1, c2 = rng.uniform(-1.0, 1.0, 3)
    w1, w2 = rng.uniform(0.5, 3.0, 2)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)

    def raw(x: float) -> float:
        return c0 + c1 * math.sin(w1 * x + p1) + c2 * math.cos(w2 * x + p2)

    dense = np.linspace(0.0, x1, 4097)
    scale = max(abs(raw(float(x))) for x in dense)
    if scale < 1e-9:
        return lambda x: target_sup
    factor = target_sup / scale
    return lambda x: factor * raw(x)


def i2_at_x1(values, x1: float = 1.0) -> float:
    """I2(x1) for a = ``values`` at the nodes of [0, x1] (and f = 0)."""
    g = make_grid(x1, len(values) - 1)
    a = SampledFn(g, np.asarray(values, dtype=float))
    zero = SampledFn(g, np.zeros(g.n + 1))
    return fundamental_system(a, zero, contraction_ratio(sup_norm(a), x1)).i2_at_x1


@dataclass(frozen=True)
class RandomProblem:
    """One random solve setup, resamplable onto any grid."""

    label: str
    x1: float
    q_target: float
    alpha: float
    beta: float
    a_eval: Callable
    f_eval: Callable

    def sample_onto(self, n: int):
        grid = make_grid(self.x1, n)
        a = SampledFn(grid, np.array([self.a_eval(float(x)) for x in grid.nodes]))
        f = SampledFn(grid, np.array([self.f_eval(float(x)) for x in grid.nodes]))
        return grid, a, f

    def solve(self, n: int = 1024, tol: float = 1e-10) -> SeriesSolution:
        _, a, f = self.sample_onto(n)
        cert = contraction_ratio(sup_norm(a), self.x1)
        return fundamental_system(a, f, cert, tol=tol)


def make_suite(size: int = SUITE_SIZE, seed: int = SUITE_SEED,
               q_low: float = 0.08, q_high: float = 0.88) -> list:
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(size):
        x1 = float(rng.uniform(0.7, 1.0))
        q = float(rng.uniform(q_low, q_high))
        a_eval = _trig_combo(rng, x1, 2.0 * q / (x1 * x1))
        f_eval = _trig_combo(rng, x1, float(rng.uniform(0.2, 2.0)))
        alpha, beta = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        problems.append(RandomProblem(
            label=f"p{i:02d}", x1=x1, q_target=q, alpha=alpha, beta=beta,
            a_eval=a_eval, f_eval=f_eval,
        ))
    return problems


@pytest.fixture(scope="session")
def random_suite() -> list:
    return make_suite()


@pytest.fixture(scope="session")
def suite_solutions(random_suite) -> list:
    """(problem, solution at n=1024) for the whole suite, solved once."""
    return [(p, p.solve(n=1024)) for p in random_suite]
