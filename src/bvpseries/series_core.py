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

On the grid B is the nested trapezoid rule B_h: a tail pass
G_i = int_{x_i}^{x1} w, which the derivatives of the limits share, then a
prefix pass (B_h w)_i = int_0^{x_i} G. The measured bound is rigorous for
B_h as well: the inner trapezoid of a constant is exact and the outer
trapezoid integrates the linear envelope sup|a w| (x1 - y) exactly, so
||B_h w|| <= q ||w|| holds node by node and the omitted terms sum to at most
sum_{k>m} q^(k-m) ||t_m|| = q ||t_m|| / (1 - q).

Everything here is a pure function of immutable inputs; the three series may
be summed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractionViolation, GridMismatch, InvalidDomain, MaxTermsExceeded
from .grid import Grid, SampledFn, prefix_trapz, same_grid, sup_norm, tail_trapz

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10_000


@dataclass(frozen=True)
class ContractionCertificate:
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

    a_sup: float
    x1: float
    q: float
    margin: float


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


def _check_certificate(cert: ContractionCertificate, a: SampledFn) -> None:
    if cert.x1 != a.grid.x1:
        raise InvalidDomain(
            f"certificate is for x1 = {cert.x1}, grid ends at {a.grid.x1}"
        )
    if sup_norm(a) > cert.a_sup:
        raise InvalidDomain(
            f"certificate covers sup|a| = {cert.a_sup}, "
            f"but the coefficient reaches {sup_norm(a)}"
        )


def _apply_B_values(w: np.ndarray, grid: Grid) -> np.ndarray:
    """Nested trapezoid rule for x -> int_0^x int_y^{x1} w(t) dt dy: a tail
    pass G(y) = int_y^{x1} w, then a prefix pass int_0^x G; O(n) in all."""
    return prefix_trapz(tail_trapz(w, grid.h), grid.h)


def apply_B(u: SampledFn, a: SampledFn) -> SampledFn:
    """Apply the double-integral operator B to u, in O(n), as the nested
    trapezoid rule: node-wise identical, to rounding, to the direct O(n^2)
    transcription that takes a fresh trapezoid pass for every integral.

    Raises
    ------
    GridMismatch
        If u and a live on different grids.
    """
    if not same_grid(u.grid, a.grid):
        raise GridMismatch("u and a must share a grid")
    return SampledFn(u.grid, _apply_B_values(a.values * u.values, u.grid))


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
    g = 0.0 - _apply_B_values(f.values, f.grid)
    if not np.all(np.isfinite(g)):
        raise InvalidDomain(
            "the forcing's double integral g overflowed, although every node of f is finite"
        )
    return SampledFn(f.grid, g)


def _certified_terms(seed_sup: float, q: float, tol: float) -> tuple[int, float]:
    """Smallest term count whose a-priori geometric tail bound meets tol.

    Returns (terms, tail) where terms counts the partial sum's terms
    including the seed and tail = 2*seed_sup*q^terms/(1-q) bounds everything
    omitted. The count comes from logarithms, since the products underflow
    for a tiny tol or a huge seed.
    """
    if seed_sup == 0.0 or q == 0.0:
        return 1, 0.0
    log_budget = math.log(tol) + math.log(1.0 - q) - math.log(2.0) - math.log(seed_sup)
    log_q = math.log(q)
    terms = max(1, math.ceil(log_budget / log_q))
    while terms * log_q > log_budget:
        terms += 1
    return terms, seed_sup * q ** terms * 2.0 / (1.0 - q)  # 2 * seed_sup may overflow


def sum_series(seed: SampledFn, a: SampledFn, cert: ContractionCertificate,
               tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """Sum the operator series sum_k B^k seed to a certified tolerance.

    Terms t_m = B^m seed are added until the measured tail bound
    q * ||t_m|| / (1 - q) meets tol, the Banach fixed-point a-posteriori
    estimate. The a-priori count, the smallest m with
    2 * ||seed|| * q^(m+1) / (1 - q) <= tol, caps the loop, so the sum never
    runs longer than that count. Seeds t, 1, and g = compute_g(f) produce
    I1, I2, and F respectively.

    Returns
    -------
    (SampledFn, int, int, float, list)
        The partial sum, the number of terms used (seed included), the
        a-priori count, the certified tail bound (always <= tol), and the
        sup of every summed term, seed first.

    Raises
    ------
    GridMismatch, InvalidDomain
        If inputs are inconsistent with each other or the certificate.
    MaxTermsExceeded
        If ``max_terms`` terms are summed and the measured tail bound still
        exceeds tol; q is too close to 1 for the requested tolerance.
    """
    if not same_grid(seed.grid, a.grid):
        raise GridMismatch("seed and a must share a grid")
    _check_certificate(cert, a)
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise InvalidDomain(f"tolerance must be positive and finite, got {tol!r}")
    q = cert.q
    apriori, apriori_tail = _certified_terms(sup_norm(seed), q, float(tol))
    limit = min(apriori, max_terms)
    grid = seed.grid
    a_values = a.values
    term = seed.values.copy()
    total = seed.values.copy()
    term_sups = [float(np.max(np.abs(term)))]
    tail = q * term_sups[0] / (1.0 - q)
    while tail > tol and len(term_sups) < limit:
        term = _apply_B_values(a_values * term, grid)
        total += term
        term_sups.append(float(np.max(np.abs(term))))
        tail = q * term_sups[-1] / (1.0 - q)
    if tail > tol:
        if limit < apriori:
            raise MaxTermsExceeded(apriori, max_terms, q)
        tail = apriori_tail  # only rounding can get here; the a-priori bound holds
    return SampledFn(grid, total), len(term_sups), apriori, tail, term_sups


@dataclass(frozen=True, eq=False)
class SeriesSolution:
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
        decay-rate checks.
    """

    I1: SampledFn
    I2: SampledFn
    F: SampledFn
    dI1: SampledFn
    dI2: SampledFn
    dF: SampledFn
    terms_used: dict
    terms_apriori: dict
    tail_bound: dict
    certificate: ContractionCertificate
    a: SampledFn = field(repr=False)
    f: SampledFn = field(repr=False)
    g: SampledFn = field(repr=False)
    term_sups: dict = field(repr=False)

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

    Raises
    ------
    GridMismatch, InvalidDomain, MaxTermsExceeded
    """
    if not same_grid(a.grid, f.grid):
        raise GridMismatch("a and f must share a grid")
    grid, h = a.grid, a.grid.h
    seeds = {
        "I1": SampledFn(grid, grid.nodes.copy()),
        "I2": SampledFn(grid, np.ones(grid.n + 1)),
        "F": compute_g(f),
    }
    sums, terms_used, terms_apriori, tail_bound, term_sups = {}, {}, {}, {}, {}
    for name, seed in seeds.items():
        (sums[name], terms_used[name], terms_apriori[name], tail_bound[name],
         term_sups[name]) = sum_series(seed, a, cert, tol, max_terms)
    return SeriesSolution(
        I1=sums["I1"],
        I2=sums["I2"],
        F=sums["F"],
        dI1=SampledFn(grid, 1.0 + tail_trapz(a.values * sums["I1"].values, h)),
        dI2=SampledFn(grid, tail_trapz(a.values * sums["I2"].values, h)),
        dF=SampledFn(grid, tail_trapz(a.values * sums["F"].values, h)
                     - tail_trapz(f.values, h)),
        terms_used=terms_used,
        terms_apriori=terms_apriori,
        tail_bound=tail_bound,
        certificate=cert,
        a=a,
        f=f,
        g=seeds["F"],
        term_sups=term_sups,
    )
