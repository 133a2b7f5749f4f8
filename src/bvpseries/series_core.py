"""Iterated-integral series for u'' + a(x)u = f(x) on [0, x1].

Integrating the equation twice, from 0 in the outer variable and toward x1
in the inner one, turns it into the fixed-point form

    u(x) = (Bu)(x) + g(x) + c1*x + c2,

with the operator and forcing term

    (Bu)(x) = integral_0^x integral_y^{x1} a(t) u(t) dt dy,
    g(x)    = -integral_0^x integral_y^{x1} f(t) dt dy,

and c1 = u'(x1), c2 = u(0). When q = sup|a| * x1^2 / 2 < 1 the operator is a
contraction with ||B^k u|| <= 2 ||u|| q^k, so Picard iteration from the three
seeds t, 1, and g converges geometrically to

    I1 = t + B t + B^2 t + ...   (homogeneous, I1(0) = 0, I1'(x1) = 1)
    I2 = 1 + B 1 + B^2 1 + ...   (homogeneous, I2(0) = 1, I2'(x1) = 0)
    F  = g + B g + B^2 g + ...   (particular, F(0) = 0, F'(x1) = 0)

and u = c1*I1 + c2*I2 + F is the general solution. This module builds those
series on a grid, certifies convergence up front, and stops each sum at the
first term t_m = B^m seed whose measured tail bound q ||t_m|| / (1 - q) meets
the tolerance. The a-priori count, the smallest m with
2 ||seed|| q^(m+1) / (1 - q) <= tol, is kept only as the loop's upper
limit; the term cap is tested against the terms actually summed.
``fundamental_system`` is the one entry to the sums: it checks the
coefficient, the certificate and tol once and sums the three seeds.

On the grid B is the nested trapezoid rule B_h, ``grid.nested_trapz``
(described in grid's docstring). The measured bound is rigorous for B_h as
well: the inner trapezoid of a constant is exact and the outer
trapezoid integrates the linear envelope sup|a w| (x1 - y) exactly, so
||B_h w|| <= q ||w|| holds node by node and the omitted terms sum to at most
sum_{k>m} q^(k-m) ||t_m|| = q ||t_m|| / (1 - q).

Everything here is a pure function of its inputs, none of which it changes;
the three series may be summed concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import ContractionViolation, GridMismatch, InvalidDomain, MaxTermsExceeded
from .grid import Grid, SampledFn, max_abs, nested_trapz, same_grid, tail_trapz

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10_000


class ContractionCertificate(Record):
    """Proof token that the series converge for this coefficient and interval.

    Attributes
    ----------
    a_sup : float
        Sup norm of the coefficient a.
    x1 : float
        Right endpoint of the interval.
    q : float
        Contraction ratio a_sup * x1**2 / 2; always < 1 for a constructed
        certificate.
    margin : float
        1 - q, the distance from the convergence boundary.
    """

    __slots__ = ("a_sup", "x1", "q", "margin")


def contraction_ratio(a_sup: float, x1: float) -> ContractionCertificate:
    """Certify q = a_sup * x1^2 / 2 < 1, the series convergence condition.

    Raises
    ------
    InvalidDomain
        If a_sup < 0 or x1 <= 0 or either is not finite.
    ContractionViolation
        If q >= 1; the exception carries q and the largest admissible x1.
    """
    a_sup = float(a_sup)
    x1 = float(x1)
    if not math.isfinite(a_sup) or a_sup < 0.0:
        raise InvalidDomain(f"coefficient sup norm must be finite and >= 0, got {a_sup!r}")
    if not math.isfinite(x1) or x1 <= 0.0:
        raise InvalidDomain(f"right endpoint must be positive and finite, got {x1!r}")
    q = a_sup * x1 * x1 / 2.0
    if q >= 1.0:
        raise ContractionViolation(q, a_sup, x1)
    return ContractionCertificate(a_sup=a_sup, x1=x1, q=q, margin=1.0 - q)


def compute_g(f: SampledFn) -> SampledFn:
    """Double integral carrying the forcing term into the fixed-point form.

    Returns g(x) = -int_0^x int_y^{x1} f(t) dt dy, so that g'' = f and
    g'(x1) = 0: g is itself the particular solution when a vanishes, and
    u = Bu + g + c1*x + c2 holds for every solution of the equation.

    Raises
    ------
    InvalidDomain
        If g overflows, as it can for a finite f near the float limit.
    """
    g = nested_trapz(f.values, f.grid.h)
    return _finite(f.grid, np.subtract(0.0, g, out=g), "the forcing's double integral g "
                   "overflowed, although every node of f is finite")


def _finite(grid: Grid, values: np.ndarray, overflow: str) -> SampledFn:
    """SampledFn(grid, values), refused with the message ``overflow``, which
    names the array, where a value is not finite."""
    try:
        return SampledFn(grid, values)
    except InvalidDomain:
        raise InvalidDomain(overflow) from None


def _certified_terms(seed_sup: float, q: float, tol: float) -> tuple[int, float]:
    """Smallest term count whose a-priori geometric tail bound meets tol.

    Returns (terms, tail) where terms counts the partial sum's terms
    including the seed and tail = 2*seed_sup*q^terms/(1-q) bounds everything
    omitted. Both come from logarithms, since the products under- or
    overflow for a tiny tol or a huge seed; the tail is kept within
    [smallest positive float, tol], so a bound that underflows stays
    positive.
    """
    if seed_sup == 0.0 or q == 0.0:
        return 1, 0.0
    log_budget = math.log(tol) + math.log(1.0 - q) - math.log(2.0) - math.log(seed_sup)
    log_q = math.log(q)
    terms = max(1, math.ceil(log_budget / log_q))
    while terms * log_q > log_budget:
        terms += 1
    log_tail = math.log(seed_sup) + terms * log_q + math.log(2.0) - math.log(1.0 - q)
    return terms, min(tol, max(math.exp(log_tail), math.ulp(0.0)))


def _sum(term: np.ndarray, scratch: np.ndarray, a: SampledFn, cert: ContractionCertificate,
         tol: float, max_terms: int):
    """Sum the operator series sum_k B^k seed, the seed's values in ``term``,
    to a certified tolerance.

    Terms t_m = B^m seed are added until the measured tail bound
    q * ||t_m|| / (1 - q) meets tol, the Banach fixed-point a-posteriori
    estimate; the a-priori count caps the loop, so the sum never runs
    longer than that count.

    Each term is computed in place: a * t_m overwrites t_m, and the pass of
    B_h (``grid.nested_trapz``) writes its tail pass into ``scratch`` and its
    prefix pass back into ``term``. The sum is the one array this
    allocates, and its passes keep the operation order, and so the bits, of
    the allocating ones.

    Returns
    -------
    (numpy.ndarray, int, int, float, list)
        The sum's values, the number of terms used (seed included), the
        a-priori count, the certified tail bound (always <= tol), and the
        sup of every summed term, seed first.

    Raises
    ------
    MaxTermsExceeded
        If ``max_terms`` terms are summed and the measured tail bound still
        exceeds tol; q is too close to 1 for the requested tolerance.
    """
    q = cert.q
    term_sups = [max_abs(term)]
    apriori, apriori_tail = _certified_terms(term_sups[0], q, float(tol))
    limit = min(apriori, max_terms)
    h = a.grid.h
    a_values = a.values
    total = term.copy()
    tail = q * term_sups[0] / (1.0 - q)
    while tail > tol and len(term_sups) < limit:
        np.multiply(a_values, term, out=term)
        nested_trapz(term, h, out=term, scratch=scratch)  # term <- B_h(a * term)
        total += term
        term_sups.append(max_abs(term))
        tail = q * term_sups[-1] / (1.0 - q)
    if tail > tol:
        if limit < apriori:
            raise MaxTermsExceeded(apriori, max_terms, q)
        tail = apriori_tail  # only rounding can get here; the a-priori bound holds
    return total, len(term_sups), apriori, tail, term_sups


class SeriesSolution(Record):
    """Converged fundamental system and particular solution with derivatives.

    Attributes
    ----------
    I1, I2, F : SampledFn
        Series limits; I1(0) = 0, I2(0) = 1, F(0) = 0 hold exactly.
    dI1, dI2, dF : SampledFn
        First derivatives; dI1(x1) = 1, dI2(x1) = 0, dF(x1) = 0 hold exactly.
    terms_used : dict
        Term count per series, keyed "I1", "I2", "F".
    terms_apriori : dict
        The a-priori count per series, 2*||seed||*q^terms/(1-q) <= tol; an
        upper bound on ``terms_used``.
    tail_bound : dict
        Certified truncation bound per series; each <= the requested tol.
    certificate : ContractionCertificate
    a, f, g : SampledFn
        The inputs and the computed forcing double integral.
    term_sups : dict
        Sup norm of every summed term per series, seed first; feeds the
        term_bound and sup_bound checks and the rounding floors of checks.
    """

    __slots__ = ("I1", "I2", "F", "dI1", "dI2", "dF", "terms_used", "terms_apriori",
                 "tail_bound", "certificate", "a", "f", "g", "term_sups")

    @property
    def grid(self) -> Grid:
        return self.I1.grid

    @property
    def i2_at_x1(self) -> float:
        return float(self.I2.values[-1])


# Overflow in g or in the sums shows up as a non-finite value, which
# compute_g or SampledFn rejects with its own message, so numpy need not
# warn about it too.
@np.errstate(over="ignore", invalid="ignore")
def fundamental_system(a: SampledFn, f: SampledFn, cert: ContractionCertificate,
                       tol: float = DEFAULT_TOL,
                       max_terms: int = DEFAULT_MAX_TERMS) -> SeriesSolution:
    """Sum all three series and their derivatives into a SeriesSolution.

    The derivatives come from the integral forms of the limits,

        I1'(x) = 1 + int_x^{x1} a*I1,
        I2'(x) =     int_x^{x1} a*I2,
        F'(x)  = -int_x^{x1} f + int_x^{x1} a*F,

    each tail integral the inner pass of B_h (grid.tail_trapz), which is 0.0
    at x1: I1'(x1) = 1, I2'(x1) = 0, F'(x1) = 0 hold exactly.

    The seeds are written, one after another, into one term buffer, which
    with one scratch buffer serves every sum and then the derivatives (the
    scratch becomes dI1): past g and the six limits, the term is the one
    array of size n this allocates, and every pass keeps the operation
    order, and so the bits, of the allocating one.

    Raises
    ------
    GridMismatch
        If a and f live on different grids.
    InvalidDomain
        If the certificate is for another x1 or a smaller sup|a|, tol is
        not positive and finite, g overflows (``compute_g``), or dF does.
    MaxTermsExceeded
        If a series reaches ``max_terms`` terms before its measured tail
        bound meets tol (``_sum``).
    """
    if not same_grid(a.grid, f.grid):
        raise GridMismatch("a and f must share a grid")
    grid, h = a.grid, a.grid.h
    g = compute_g(f)
    if cert.x1 != grid.x1:
        raise InvalidDomain(f"certificate is for x1 = {cert.x1}, grid ends at {grid.x1}")
    if a.sup > cert.a_sup:
        raise InvalidDomain(
            f"certificate covers sup|a| = {cert.a_sup}, but the coefficient reaches {a.sup}"
        )
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise InvalidDomain(f"tolerance must be positive and finite, got {tol!r}")
    term, scratch = np.empty(grid.n + 1), np.empty(grid.n + 1)
    sums, terms_used, terms_apriori, tail_bound, term_sups = {}, {}, {}, {}, {}
    for name, seed in (("I1", grid.nodes), ("I2", 1.0), ("F", g.values)):
        np.copyto(term, seed)
        (sums[name], terms_used[name], terms_apriori[name], tail_bound[name],
         term_sups[name]) = _sum(term, scratch, a, cert, tol, max_terms)
    dI1 = np.add(1.0, tail_trapz(np.multiply(a.values, sums["I1"], out=term), h, out=scratch),
                 out=scratch)
    dI2 = tail_trapz(np.multiply(a.values, sums["I2"], out=term), h)
    dF = tail_trapz(np.multiply(a.values, sums["F"], out=term), h)
    np.subtract(dF, tail_trapz(f.values, h, out=term), out=dF)
    return SeriesSolution(
        **{name: SampledFn(grid, values) for name, values in sums.items()},
        dI1=SampledFn(grid, dI1), dI2=SampledFn(grid, dI2),
        dF=_finite(grid, dF, "the forced series' derivative dF overflowed, although F is finite"),
        terms_used=terms_used, terms_apriori=terms_apriori, tail_bound=tail_bound,
        certificate=cert, a=a, f=f, g=g, term_sups=term_sups,
    )
