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

Each limit S (seed I1: x, I2: 1, F: g; ``_seeds`` lists them once) is the
fixed point S = B_h(a S) + seed. Its derivative comes from the integral
form, with T_S = int_x^{x1} a S the tail pass of B_h(a S) (grid.tail_trapz):

    I1' = 1 + T_I1,    I2' = T_I2,    F' = T_F - int_x^{x1} f.

Each tail integral is 0.0 at x1, so I1'(x1) = 1, I2'(x1) = 0 and
F'(x1) = 0 hold exactly. ``_solution`` forms the three derivatives and the
SeriesSolution, for the sums and the scan alike.

With G = T_S, (S, G) follows an affine recurrence from node i to node
i + 1:

    S_{i+1} (1 + h^2 a_{i+1}/4) = S_i (1 - h^2 a_i/4) + h G_i + seed_{i+1} - seed_i
    G_{i+1} = G_i - h (a_i S_i + a_{i+1} S_{i+1}) / 2

from S_0 = seed_0, with G_0 fixed by G_n = 0. ``scan_or_sum``, which
``solve`` and ``fundamental`` call, solves it in place of the sums where
they are long (an a-priori count of SCAN_TERMS or more): one prefix scan
of the steps' maps (``oracle.affine_scan``), whose 2 x 2 part the three
series share, gives S from the starts (S_0, G_0) = (1, 0) and (0, 1) and
from the affine columns of I1 and F; each series then adds the (0, 1)
start times the G_0 that meets G_n = 0. Each scanned limit is certified by
its defect d = S - B_h(a S) - seed, one pass of B_h in
``grid.fixed_point_defect``, the one defect pass, which
``checks.residual_report`` runs for u too: S lies within ||d|| / (1 - q) of
the fixed point, the Banach bound the sums read from their last term. The
tail pass of that B_h is T_S; the sums take T_S by a tail pass of their
own. Where a bound misses tol or a value is not finite, the series are
summed as ``fundamental_system`` sums them. ``verify`` and
``fundamental_system`` always sum: verify's rounding floors are derived
for summed terms.

Everything here is a pure function of its inputs, none of which it changes;
the three series may be summed concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import ContractionViolation, GridMismatch, InvalidDomain, MaxTermsExceeded
from .grid import (Grid, SampledFn, fixed_point_defect, max_abs, nested_trapz, same_grid,
                   tail_trapz)
from .oracle import SCAN_BLOCK, affine_scan

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
        Term count per series, keyed "I1", "I2", "F"; 0 for a scanned
        solution (``scan_or_sum``).
    terms_apriori : dict
        The a-priori count per series, 2*||seed||*q^terms/(1-q) <= tol; an
        upper bound on ``terms_used``.
    tail_bound : dict
        Certified truncation bound per series, or for a scanned solution
        its defect bound; each <= the requested tol.
    certificate : ContractionCertificate
    a, f, g : SampledFn
        The inputs and the computed forcing double integral.
    term_sups : dict
        Sup norm of every summed term per series, seed first (for a
        scanned solution the seed's alone); feeds the term_bound and
        sup_bound checks and the rounding floors of checks.
    """

    __slots__ = ("I1", "I2", "F", "dI1", "dI2", "dF", "terms_used", "terms_apriori",
                 "tail_bound", "certificate", "a", "f", "g", "term_sups")

    @property
    def grid(self) -> Grid:
        return self.I1.grid

    @property
    def i2_at_x1(self) -> float:
        return float(self.I2.values[-1])


def _checked_g(a: SampledFn, f: SampledFn, cert: ContractionCertificate, tol) -> SampledFn:
    """g (``compute_g``), after and between the input checks of
    ``fundamental_system``, in its order."""
    if not same_grid(a.grid, f.grid):
        raise GridMismatch("a and f must share a grid")
    g = compute_g(f)
    if cert.x1 != a.grid.x1:
        raise InvalidDomain(f"certificate is for x1 = {cert.x1}, grid ends at {a.grid.x1}")
    if a.sup > cert.a_sup:
        raise InvalidDomain(
            f"certificate covers sup|a| = {cert.a_sup}, but the coefficient reaches {a.sup}"
        )
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise InvalidDomain(f"tolerance must be positive and finite, got {tol!r}")
    return g


# Overflow in g or in the sums shows up as a non-finite value, which
# compute_g or SampledFn rejects with its own message, so numpy need not
# warn about it too.
@np.errstate(over="ignore", invalid="ignore")
def fundamental_system(a: SampledFn, f: SampledFn, cert: ContractionCertificate,
                       tol: float = DEFAULT_TOL,
                       max_terms: int = DEFAULT_MAX_TERMS) -> SeriesSolution:
    """Sum all three series and their derivatives into a SeriesSolution.

    The derivatives come from the integral forms of the limits (see the
    module docstring), each tail integral the inner pass of B_h.

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
    return _summed(a, f, _checked_g(a, f, cert, tol), cert, tol, max_terms)


def _summed(a: SampledFn, f: SampledFn, g: SampledFn, cert: ContractionCertificate,
            tol: float, max_terms: int) -> SeriesSolution:
    """``fundamental_system`` past its input checks and g."""
    grid, h = a.grid, a.grid.h
    term, scratch = np.empty(grid.n + 1), np.empty(grid.n + 1)
    sums, terms_used, terms_apriori, tail_bound, term_sups = {}, {}, {}, {}, {}
    for name, seed in _seeds(grid, g).items():
        np.copyto(term, seed)
        (sums[name], terms_used[name], terms_apriori[name], tail_bound[name],
         term_sups[name]) = _sum(term, scratch, a, cert, tol, max_terms)
    # the tail integrals of a S: I1's in the scratch buffer, I2's and F's fresh
    tails = {name: tail_trapz(np.multiply(a.values, sums[name], out=term), h, out=out)
             for name, out in zip(sums, (scratch, None, None))}
    return _solution(a, f, g, cert, sums, tails, term, terms_used=terms_used,
                     terms_apriori=terms_apriori, tail_bound=tail_bound, term_sups=term_sups)


def _seeds(grid: Grid, g: SampledFn) -> dict:
    """Each series' seed, the array or scalar its terms and its defect
    start from: x for I1, 1 for I2 and g for F."""
    return {"I1": grid.nodes, "I2": 1.0, "F": g.values}


def _solution(a: SampledFn, f: SampledFn, g: SampledFn, cert: ContractionCertificate,
              limits: dict, tails: dict, spare: np.ndarray, **counts) -> SeriesSolution:
    """The SeriesSolution of the ``limits`` and of their derivatives, into
    which their tail integrals int_x^{x1} a S, ``tails``, are turned in
    place by the derivative identities (see the module docstring); the
    tail integral of f is written into ``spare``. ``counts`` are the
    solution's terms_used, terms_apriori, tail_bound and term_sups.

    Raises
    ------
    InvalidDomain
        If a value is not finite; for dF, which can overflow where F is
        finite, with a message that names it.
    """
    grid = a.grid
    np.add(1.0, tails["I1"], out=tails["I1"])
    np.subtract(tails["F"], tail_trapz(f.values, grid.h, out=spare), out=tails["F"])
    return SeriesSolution(
        **{name: SampledFn(grid, values) for name, values in limits.items()},
        dI1=SampledFn(grid, tails["I1"]), dI2=SampledFn(grid, tails["I2"]),
        dF=_finite(grid, tails["F"], "the forced series' derivative dF overflowed, although "
                   "F is finite"),
        certificate=cert, a=a, f=f, g=g, **counts,
    )


def _step_maps(a: np.ndarray, nodes: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """The recurrence's steps from node i to node i + 1 (see the module
    docstring), for the values of a and of the seeds x (I1's) and g (F's)
    at nodes i to i + steps, as ``oracle.affine_scan``'s rows on (S, G):
    (m00 m01 c_I1 c_F) and (m10 m11 c_I1' c_F'), one column per step."""
    a_i, a_next = a[:-1], a[1:]
    quarter, half = h * h / 4.0, h / 2.0
    inv = 1.0 / (1.0 + quarter * a_next)
    top = [(1.0 - quarter * a_i) * inv, h * inv, np.diff(nodes) * inv, np.diff(g) * inv]
    # G_{i+1} = G_i - (h/2) (a_i S_i + a_{i+1} S_{i+1}), with S_{i+1} from the top row
    return np.array([*top, -half * (a_i + a_next * top[0]), 1.0 - half * (a_next * top[1]),
                     *(-half * (a_next * c) for c in top[2:])])


def _scanned(a: SampledFn, f: SampledFn, g: SampledFn, cert: ContractionCertificate,
             tol: float, seed_sups: dict, terms_apriori: dict) -> SeriesSolution | None:
    """The three limits from one affine scan of their recurrence, each
    certified by its fixed-point defect, and their derivatives (see the
    module docstring); None where a certificate misses tol or a value is
    not finite."""
    grid, h, n = a.grid, a.grid.h, a.grid.n
    seeds = _seeds(grid, g)
    # S from the starts (S_0, G_0) = (1, 0) and (0, 1), and from the affine
    # columns of I1 and F, whose seeds are 0 at node 0
    i2, homogeneous, i1, forced = rows = [np.empty(n + 1) for _ in range(4)]
    i2[0], homogeneous[0], i1[0], forced[0] = 1.0, 0.0, 0.0, 0.0
    blocks = range(0, n, SCAN_BLOCK)
    maps = (_step_maps(*(values[lo:lo + SCAN_BLOCK + 1] for values in
                         (a.values, seeds["I1"], seeds["F"])), h) for lo in blocks)
    for lo, (x, y) in zip(blocks, affine_scan(maps, np.eye(4))):
        for row, values in zip(rows, x):
            row[lo + 1:lo + 1 + len(values)] = values
    g_end = y[:, -1]  # G_n from each start
    if not g_end[1]:
        return None
    sums = {"I1": i1, "I2": i2, "F": forced}
    tails = {name: np.empty(n + 1) for name in sums}
    # G_0 = -G_n / (G_n of the homogeneous start), so that G_n = 0, with
    # I1's tail buffer as scratch
    for values, end in zip(sums.values(), g_end[[2, 0, 3]]):
        np.subtract(values, np.multiply(end / g_end[1], homogeneous, out=tails["I1"]), out=values)
    # each defect in the homogeneous start's buffer, and each tail pass,
    # the derivative's integral, in its own buffer
    bounds = {name: max_abs(fixed_point_defect(values, a.values, seeds[name], h,
                                               out=homogeneous, scratch=tails[name]))
              / (1.0 - cert.q) for name, values in sums.items()}
    if not all(bound <= tol for bound in bounds.values()):
        return None
    try:
        return _solution(a, f, g, cert, sums, tails, homogeneous, tail_bound=bounds,
                         terms_used=dict.fromkeys(sums, 0), terms_apriori=terms_apriori,
                         term_sups={name: [sup] for name, sup in seed_sups.items()})
    except InvalidDomain:
        return None


# The largest a-priori count from which scan_or_sum scans. Measured with
# four coefficients (1, cos 3x, sin(5x + 1) + 0.3, cos 9x) at n = 4096,
# 16384 and 65536, best of 7: from a count of 58 on, every problem ran
# 1.04-3.5 times faster scanned than summed; at 27-42, cos 9x, whose terms
# shrink fastest, ran 0.84-0.98 times as fast.
SCAN_TERMS = 60


@np.errstate(over="ignore", invalid="ignore")  # as for fundamental_system
def scan_or_sum(a: SampledFn, f: SampledFn, cert: ContractionCertificate,
                tol: float = DEFAULT_TOL) -> SeriesSolution:
    """``fundamental_system``'s limits, from one affine scan where the
    largest a-priori count reaches SCAN_TERMS and every scanned limit's
    defect certifies tol, and otherwise from ``fundamental_system`` with
    its input checks, sums and refusals.

    A scanned solution reports 0 terms used per series, its defect bounds
    as ``tail_bound``, and the seed's sup as each series' one term sup.
    """
    g = _checked_g(a, f, cert, tol)
    seed_sups = {name: max_abs(np.asarray(seed)) for name, seed in _seeds(a.grid, g).items()}
    terms_apriori = {name: _certified_terms(sup, cert.q, tol)[0]
                     for name, sup in seed_sups.items()}
    if max(terms_apriori.values()) >= SCAN_TERMS:
        sol = _scanned(a, f, g, cert, tol, seed_sups, terms_apriori)
        if sol is not None:
            return sol
    return _summed(a, f, g, cert, tol, DEFAULT_MAX_TERMS)
