"""Series solver for u'' + a(x)u = f(x) on [0, x1].

Builds the general solution u = c1*I1 + c2*I2 + F and the two-point solution
with u(0) = alpha, u'(x1) = beta from iterated double integrals of the
coefficient, certified to converge whenever sup|a| * x1^2 / 2 < 1, and
cross-checked by an independent Runge-Kutta shooting oracle.

Each public name is loaded from its module on first use (PEP 562), so
``import bvpseries`` imports no numpy and the process entry (``__main__``)
runs before anything else is imported.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_ORIGIN = {name: module for module, names in (
    ("bvp", "ProblemD SolveReport general_solution solve_problem_d"),
    ("checks", "Check verify wronskian_check"),
    ("errors", "ContractionViolation Diverged EvalError GridMismatch InvalidDomain "
               "MaxTermsExceeded OracleSingular ParseError SolverError TableDomainError "
               "UnknownFunction"),
    ("expr", "eval_expr parse_expr to_text"),
    ("grid", "CoefficientSpec SampledFn make_grid sample sup_norm"),
    ("oracle", "compare oracle_fundamental rk4_ivp"),
    ("series_core", "SeriesSolution contraction_ratio fundamental_system"),
) for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN})
