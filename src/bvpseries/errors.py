"""Exception hierarchy shared by all bvpseries modules."""

from __future__ import annotations


class SolverError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SolverError):
    """Malformed coefficient expression.

    Attributes
    ----------
    offset : int
        Byte offset into the (UTF-8) input at which parsing failed.
    expected : str
        Human-readable description of what would have been accepted there.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at byte {offset}: expected {expected}")


class UnknownFunction(ParseError):
    """Identifier in a coefficient expression is not a supported function."""

    def __init__(self, offset: int, name: str):
        self.name = name
        ParseError.__init__(self, offset, f"a known function, got '{name}'")


class EvalError(SolverError):
    """Expression evaluation left the finite reals at the point ``x`` (None if unknown)."""

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class InvalidDomain(SolverError):
    """Grid or problem parameters outside their admissible range."""


class TableDomainError(SolverError):
    """Tabulated coefficient does not cover the solve interval."""


class GridMismatch(SolverError):
    """Two sampled functions live on different grids."""


class ContractionViolation(SolverError):
    """The convergence condition sup|a|·x1²/2 < 1 fails.

    Carries the offending ratio ``q`` and, when sup|a| > 0, the largest
    admissible right endpoint ``max_x1 = sqrt(2/sup|a|)``.
    """

    def __init__(self, q: float, a_sup: float, x1: float):
        self.q = q
        self.a_sup = a_sup
        self.x1 = x1
        self.max_x1 = (2.0 / a_sup) ** 0.5 if a_sup > 0 else float("inf")
        super().__init__(
            f"series not certified to converge: q = sup|a|*x1^2/2 = {q:.6g} >= 1; "
            f"right endpoint must satisfy x1 < {self.max_x1:.5f} for sup|a| = {a_sup:.6g}"
        )


class MaxTermsExceeded(SolverError):
    """Measured tail still above the tolerance after the term cap was summed.

    ``needed`` is the a-priori count, an upper bound on the terms the
    measured stopping rule would have used.
    """

    def __init__(self, needed: int, cap: int, q: float):
        self.needed = needed
        self.cap = cap
        self.q = q
        super().__init__(
            f"series tail not certified within the term cap (cap {cap}, "
            f"q = {q:.6g}; a-priori count {needed}); raise the cap or relax "
            "the tolerance"
        )


class SingularI2(SolverError):
    """|I2(x1)| is numerically zero, so the boundary-value formula is not certified.

    The partial diagnostic report (without the solution itself) is attached as
    ``report``.
    """

    def __init__(self, i2_at_x1: float, tol: float, report=None):
        self.i2_at_x1 = i2_at_x1
        self.tol = tol
        self.report = report
        super().__init__(
            f"|I2(x1)| = {abs(i2_at_x1):.3e} <= {tol:.3e}; "
            "two-point solution formula cannot be certified"
        )


class OracleSingular(SolverError):
    """Shooting denominator psi'(x1) is numerically zero."""


class Diverged(SolverError):
    """Initial-value integration blew past the overflow guard."""
