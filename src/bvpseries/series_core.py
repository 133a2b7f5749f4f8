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
2 ||seed|| q^(m+1) / (1 - q) <= tol, is kept only as the term-cap pre-check
and as the loop's upper limit.

The measured bound is rigorous for the discrete operator B_h as well: the
inner trapezoid of a constant is exact and the outer trapezoid integrates
the linear envelope sup|a w| (x1 - y) exactly, so ||B_h w|| <= q ||w|| holds
node by node and the omitted terms sum to at most
sum_{k>m} q^(k-m) ||t_m|| = q ||t_m|| / (1 - q).

Everything here is a pure function of immutable inputs; the three series may
be summed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractionViolation,
    GridMismatch,
    InvalidDomain,
    MaxTermsExceeded,
    MissingForcing,
)
from .grid import Grid, SampledFn, prefix_trapz, same_grid, sup_norm

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 10_000

SERIES_NAMES = ("I1", "I2", "F")


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
    """Trapezoid discretization of x -> int_0^x int_y^{x1} w(t) dt dy.

    Swapping the integration order collapses the double integral to

        int_0^x t*w(t) dt  +  x * int_x^{x1} w(t) dt,

    two prefix-trapezoid passes, O(n) in total. The final term restores the
    exact value of the nested trapezoid rule applied to the double integral
    directly: discrete summation by parts of the prefix sums leaves the
    boundary mismatch h^2 (w_0 - w_i) / 4, nothing else.
    """
    h = grid.h
    weighted = prefix_trapz(grid.nodes * w, h)
    prefix = prefix_trapz(w, h)
    total = prefix[-1]
    return weighted + grid.nodes * (total - prefix) + h * h * (w[0] - w) / 4.0


def apply_B(u: SampledFn, a: SampledFn) -> SampledFn:
    """Apply the double-integral operator B to u, in O(n).

    Node-wise identical (to rounding) to ``apply_B_reference``; the grid's
    piecewise-linear quadrature is shared by both paths.

    Raises
    ------
    GridMismatch
        If u and a live on different grids.
    """
    if not same_grid(u.grid, a.grid):
        raise GridMismatch("u and a must share a grid")
    return SampledFn(u.grid, _apply_B_values(a.values * u.values, u.grid))


def apply_B_reference(u: SampledFn, a: SampledFn) -> SampledFn:
    """Direct O(n^2) nested-trapezoid transcription of B, kept as an oracle.

    Computes the inner integral G(y) = int_y^{x1} a*u separately for every
    node, then the outer integral int_0^x G for every node, each with a
    fresh trapezoid pass.
    """
    if not same_grid(u.grid, a.grid):
        raise GridMismatch("u and a must share a grid")
    grid = u.grid
    w = a.values * u.values
    m = grid.n + 1
    inner = np.empty(m)
    for j in range(m):
        inner[j] = np.trapezoid(w[j:], dx=grid.h)
    out = np.empty(m)
    for i in range(m):
        out[i] = np.trapezoid(inner[: i + 1], dx=grid.h)
    return SampledFn(grid, out)


def compute_g(f: SampledFn) -> SampledFn:
    """Double integral carrying the forcing term into the fixed-point form.

    Returns g(x) = -int_0^x int_y^{x1} f(t) dt dy, so that g'' = f and
    g'(x1) = 0: g is itself the particular solution when a vanishes, and
    u = Bu + g + c1*x + c2 holds for every solution of the equation.
    """
    return SampledFn(f.grid, 0.0 - _apply_B_values(f.values, f.grid))


def _certified_terms(seed_sup: float, q: float, tol: float,
                     max_terms: int) -> tuple[int, float]:
    """Smallest term count whose a-priori geometric tail bound meets tol.

    Returns (terms, tail) where terms counts the partial sum's terms
    including the seed and tail = 2*seed_sup*q^terms/(1-q) bounds everything
    omitted.

    Raises
    ------
    MaxTermsExceeded
        If that count exceeds ``max_terms``.
    """
    if seed_sup == 0.0 or q == 0.0:
        return 1, 0.0
    budget = tol * (1.0 - q) / (2.0 * seed_sup)
    if budget >= q:
        m = 0
    else:
        m = max(0, math.ceil(math.log(budget) / math.log(q)) - 1)
        while 2.0 * seed_sup * q ** (m + 1) / (1.0 - q) > tol:
            m += 1
    terms = m + 1
    if terms > max_terms:
        raise MaxTermsExceeded(terms, max_terms, q)
    return terms, 2.0 * seed_sup * q ** terms / (1.0 - q)


def _sum_series(seed: SampledFn, a: SampledFn, cert: ContractionCertificate,
                tol: float, max_terms: int):
    """Partial sum of sum_k B^k seed, stopped at its measured tail bound.

    Adds t_m = B^m seed until q*||t_m||/(1-q) <= tol, at most the a-priori
    count of terms. Returns the sum, the terms used, the a-priori count,
    the tail bound, and the sup of every summed term.
    """
    if not same_grid(seed.grid, a.grid):
        raise GridMismatch("seed and a must share a grid")
    _check_certificate(cert, a)
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise InvalidDomain(f"tolerance must be positive and finite, got {tol!r}")
    q = cert.q
    apriori, apriori_tail = _certified_terms(sup_norm(seed), q, float(tol), max_terms)
    grid = seed.grid
    a_values = a.values
    term = seed.values.copy()
    total = seed.values.copy()
    term_sups = [float(np.max(np.abs(term)))]
    tail = q * term_sups[0] / (1.0 - q)
    while tail > tol and len(term_sups) < apriori:
        term = _apply_B_values(a_values * term, grid)
        total += term
        term_sups.append(float(np.max(np.abs(term))))
        tail = q * term_sups[-1] / (1.0 - q)
    if tail > tol:  # only rounding can get here; the a-priori bound then holds
        tail = apriori_tail
    return SampledFn(grid, total), len(term_sups), apriori, tail, term_sups


def sum_series(seed: SampledFn, a: SampledFn, cert: ContractionCertificate,
               tol: float = DEFAULT_TOL,
               max_terms: int = DEFAULT_MAX_TERMS) -> tuple[SampledFn, int, float]:
    """Sum the operator series sum_k B^k seed to a certified tolerance.

    Terms t_k = B^k seed are added until the measured tail bound
    q * ||t_m|| / (1 - q) meets tol, the Banach fixed-point a-posteriori
    estimate. The a-priori count, the smallest m with
    2 * ||seed|| * q^(m+1) / (1 - q) <= tol, only gates ``max_terms`` and
    caps the loop, so the sum never runs longer than that count.
    Seeds t, 1, and g = compute_g(f) produce I1, I2, and F respectively.

    Returns
    -------
    (SampledFn, int, float)
        The partial sum, the number of terms used (seed included), and the
        certified tail bound (always <= tol).

    Raises
    ------
    GridMismatch, InvalidDomain
        If inputs are inconsistent with each other or the certificate.
    MaxTermsExceeded
        If the a-priori term count exceeds ``max_terms``; q is too close
        to 1 for the requested tolerance.
    """
    total, terms, _, tail, _ = _sum_series(seed, a, cert, tol, max_terms)
    return total, terms, tail


SEED_KINDS = ("identity", "one", "g")


def derivative_of(series_sum: SampledFn, seed_kind: str, a: SampledFn,
                  f: SampledFn | None = None) -> SampledFn:
    """First derivative of a converged series limit, from its integral form.

    The limits obey
        I1'(x) = 1 + int_x^{x1} a*I1,
        I2'(x) =     int_x^{x1} a*I2,
        F'(x)  = -int_x^{x1} f + int_x^{x1} a*F,
    so each derivative costs one cumulative-integral pass, with the tail
    integral taken as total minus prefix. At x1 every tail integral vanishes
    identically, which pins I1'(x1) = 1, I2'(x1) = 0, F'(x1) = 0 exactly.

    Parameters
    ----------
    series_sum : SampledFn
        A converged I1, I2, or F.
    seed_kind : {"identity", "one", "g"}
        Which seed produced ``series_sum``.
    a, f : SampledFn
        Coefficient and forcing term; f is required exactly when
        seed_kind == "g".

    Raises
    ------
    GridMismatch, MissingForcing
    """
    if seed_kind not in SEED_KINDS:
        raise ValueError(f"seed_kind must be one of {SEED_KINDS}, got {seed_kind!r}")
    if not same_grid(series_sum.grid, a.grid):
        raise GridMismatch("series and a must share a grid")
    prefix = prefix_trapz(a.values * series_sum.values, series_sum.grid.h)
    tail = prefix[-1] - prefix
    if seed_kind == "identity":
        return SampledFn(series_sum.grid, 1.0 + tail)
    if seed_kind == "one":
        return SampledFn(series_sum.grid, tail)
    if f is None:
        raise MissingForcing("the derivative of F needs the forcing term f")
    if not same_grid(series_sum.grid, f.grid):
        raise GridMismatch("series and f must share a grid")
    f_prefix = prefix_trapz(f.values, series_sum.grid.h)
    return SampledFn(series_sum.grid, tail - (f_prefix[-1] - f_prefix))


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
        upper bound on ``terms_used`` and the figure the term cap is tested
        against.
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


def fundamental_system(a: SampledFn, f: SampledFn, cert: ContractionCertificate,
                       tol: float = DEFAULT_TOL,
                       max_terms: int = DEFAULT_MAX_TERMS) -> SeriesSolution:
    """Sum all three series and their derivatives into a SeriesSolution.

    Raises
    ------
    GridMismatch, InvalidDomain, MaxTermsExceeded
    """
    if not same_grid(a.grid, f.grid):
        raise GridMismatch("a and f must share a grid")
    grid = a.grid
    seeds = {
        "I1": SampledFn(grid, grid.nodes.copy()),
        "I2": SampledFn(grid, np.ones(grid.n + 1)),
        "F": compute_g(f),
    }
    sums, terms_used, terms_apriori, tail_bound, term_sups = {}, {}, {}, {}, {}
    for name, seed in seeds.items():
        (sums[name], terms_used[name], terms_apriori[name], tail_bound[name],
         term_sups[name]) = _sum_series(seed, a, cert, tol, max_terms)
    return SeriesSolution(
        I1=sums["I1"],
        I2=sums["I2"],
        F=sums["F"],
        dI1=derivative_of(sums["I1"], "identity", a),
        dI2=derivative_of(sums["I2"], "one", a),
        dF=derivative_of(sums["F"], "g", a, f),
        terms_used=terms_used,
        terms_apriori=terms_apriori,
        tail_bound=tail_bound,
        certificate=cert,
        a=a,
        f=f,
        g=seeds["F"],
        term_sups=term_sups,
    )
