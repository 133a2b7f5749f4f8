"""Series solver for u'' + a(x)u = f(x) on [0, x1].

Builds the general solution u = c1*I1 + c2*I2 + F and the two-point solution
with u(0) = alpha, u'(x1) = beta from iterated double integrals of the
coefficient, certified to converge whenever sup|a| * x1^2 / 2 < 1, and
cross-checked by an independent Runge-Kutta shooting oracle.
"""

from .bvp import (
    ProblemD,
    SolveReport,
    general_solution,
    solve_problem_d,
    wronskian_check,
)
from .checks import Check, verify
from .errors import (
    ContractionViolation,
    Diverged,
    EvalError,
    GridMismatch,
    InvalidDomain,
    MaxTermsExceeded,
    OracleSingular,
    ParseError,
    SingularI2,
    SolverError,
    TableDomainError,
    UnknownFunction,
)
from .expr import eval_expr, parse_expr, to_text
from .grid import CoefficientSpec, SampledFn, make_grid, sample, sup_norm
from .oracle import compare, oracle_fundamental, rk4_ivp
from .series_core import SeriesSolution, apply_B, contraction_ratio, fundamental_system

__version__ = "0.1.0"

__all__ = [
    "Check",
    "CoefficientSpec",
    "ContractionViolation",
    "Diverged",
    "EvalError",
    "GridMismatch",
    "InvalidDomain",
    "MaxTermsExceeded",
    "OracleSingular",
    "ParseError",
    "ProblemD",
    "SampledFn",
    "SeriesSolution",
    "SingularI2",
    "SolveReport",
    "SolverError",
    "TableDomainError",
    "UnknownFunction",
    "apply_B",
    "compare",
    "contraction_ratio",
    "eval_expr",
    "fundamental_system",
    "general_solution",
    "make_grid",
    "oracle_fundamental",
    "parse_expr",
    "rk4_ivp",
    "sample",
    "solve_problem_d",
    "sup_norm",
    "to_text",
    "verify",
    "wronskian_check",
]
