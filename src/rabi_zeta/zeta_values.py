"""Spectral zeta special values zeta(H; n, lambda) for the four models.

Assembles the Hurwitz-zeta base term and the coupling-series trace terms
(Delta^{2m}/m) d^n R_m / d lambda^n with a proven geometric tail bound, for
the one-photon model, the two-photon model and its Bergman deformation, and
the two-parameter oscillator pair; plus the parity (even minus odd sector)
difference and the confluence-limit scan.  Operator-route terms, and the
integral route's m >= 3 terms, come from operator_oracle.family_rows under
the truncation policy that ZetaRequest states.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import trace_terms
from .errors import DomainError, InvalidDimension, NearPole, RadiusExceeded
from .operator_oracle import (
    EIGEN_FLOOR,
    MIN_TRUNCATION,
    MINUS,
    NEAR_POLE_GUARD,
    PLUS,
    BergmanNu,
    ModelSpec,
    OnePhoton,
    bar_floor_warning,
    family_rows,
    model_geometry,
    truncation_budget,
    zeta_eigen_oracle,
)
from .specfun import (
    SeriesValue,
    alternating_zeta_sum,
    hurwitz_zeta,
    pochhammer,
    require_finite,
    require_integer,
)

_METHODS = ("series_integral", "series_operator", "eigen_oracle")
_WARN_DISTANCE = 1e-4
_SLOW_RATIO = 0.95
_HS_TERMS = 4096


@dataclass(frozen=True)
class ZetaRequest:
    """A single zeta(H; n, lambda) evaluation request; n, max_m and trunc_n
    must be ints (n >= 2, max_m >= 1), and lam and tol finite.

    trunc_n caps the operator truncation N and must be at least
    MIN_TRUNCATION = 8 on every route: the series routes start at a
    coarser N, no less than 106, and double it only while abs_error exceeds
    tol (metadata["truncations"]["tops"]).  A doubling re-sweeps only the
    terms m <= k, k the last term whose scaled bar exceeds an equal share of
    what the base error, the quadrature terms and the series tail leave of
    tol; the terms above k keep the coarser N, which
    metadata["truncations"]["per_m"] shows.  Below 212 the cap is the only
    truncation tried, and below 106 its bars are the looser first-step ones.
    Below 44 no bar is calibrated: the result reads converged False with a
    warning that names the truncation.

    The eigen route climbs its own budget, capped at max(trunc_n, 384) and
    starting at the coarsest top no less than 384, and stops at the first
    top whose truncation bar meets tol (zeta_eigen_oracle).  Its abs_error
    adds a 1e-7 calibration floor, reported as its own source, so below that
    tol it reads converged False with a warning that names the floor.
    """

    model: ModelSpec
    n: int
    lam: complex
    method: str = "series_operator"
    max_m: int = 12
    tol: float = 1e-8
    trunc_n: int = 400

    def __post_init__(self):
        require_integer("n", self.n, 2)
        require_finite("tol", self.tol)
        if self.tol <= 0 or self.max_m < 1:
            raise DomainError("tol must be > 0 and max_m >= 1")
        require_integer("max_m", self.max_m, 1)
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.trunc_n < MIN_TRUNCATION:
            raise InvalidDimension(f"trunc_n must be >= {MIN_TRUNCATION}, got {self.trunc_n}")
        require_integer("trunc_n", self.trunc_n, MIN_TRUNCATION)
        require_finite("lambda", self.lam)


@dataclass(frozen=True)
class ZetaResult:
    """Assembled value with its decomposition into base and m-terms.

    Invariant: value == base_term + sum(per_m_terms) (per_m_terms[i] is the
    m = i+1 contribution).
    """

    value: complex
    abs_error: float
    per_m_terms: tuple
    base_term: complex
    metadata: dict = field(default_factory=dict)


def convergence_radius(model: ModelSpec, lam: complex) -> float:
    """1/C: the allowed coupling radius (for the oscillator pair, the bound
    on |lambda (alpha-beta)/(alpha+beta)|), the distance from the shifts to
    the excluded set.  Within NEAR_POLE_GUARD of it raises NearPole, as
    every zeta route does."""
    dist = model_geometry(model).distance(lam)
    if dist <= NEAR_POLE_GUARD:
        raise NearPole(f"lambda {lam} is within {NEAR_POLE_GUARD} of the excluded set")
    return dist


def _hs_constant_sq(shifts, step, offset) -> float:
    """Upper bound on sum_k 1/(d_+(k) d_-(k)), d(k) = |s + offset + step*k|:
    the Hilbert-Schmidt constant squared used in the geometric tail bound.

    The first K terms are summed exactly.  Beyond them d(k) >= step (k + p)
    with p = (Re s + offset) / step, and the midpoint rule bounds the sum of
    the convex decreasing 1/(step^2 (k + p)(k + q)) by its integral from
    K - 1/2, so the result is never below the infinite sum.
    """
    ps = [(complex(s).real + offset) / step for s in shifts]
    k_head = _HS_TERMS + max(0, math.ceil(-min(ps)))
    ks = np.arange(k_head)
    d = np.ones(k_head)
    for s in shifts:
        d *= np.abs(s + offset + step * ks)
    p, q = (x + k_head - 0.5 for x in ps)
    # int_0^inf dx / ((x + p)(x + q)) = log(p/q) / (p - q)
    tail = math.log1p((p - q) / q) / (p - q) if p != q else 1.0 / p
    return float(np.sum(1.0 / d)) + tail / step**2


def _tail_bound(n: int, m_from: int, q: float, big_c: float, hs_sq: float) -> float:
    """Bound on | sum_{j >= m_from} X^{2j}/j d^n R_j / d lam^n | / (n-1)!,
    using |d^n R_j| <= n! (2j)_n C^{2j+n-2} C'^2 and the geometric ratio q =
    (|X| C)^2.

    Past 2000 terms the ratios q (2j+n)(2j+n+1) / (2(j+1)(2j+1)) fall toward
    q, so the rest is at most t_last rho / (1 - rho), rho the next ratio.
    """
    if q >= 1.0:
        return math.inf

    def term(j, qj):
        return pochhammer(2 * j, n) / j * qj * big_c ** (n - 2) * hs_sq * n / math.factorial(n - 1)

    total = 0.0
    qj = q**m_from
    for j in range(m_from, m_from + 2000):
        t_last = term(j, qj)
        total += t_last
        qj *= q
        if t_last < 1e-18 * max(total, 1.0):
            return total
    rho = term(j + 1, qj) / t_last
    return total + t_last * rho / (1.0 - rho) if rho < 1.0 else math.inf


def _assemble(req: ZetaRequest, minus: bool) -> ZetaResult:
    """zeta(H; n, lam) for `req`, or its parity difference when `minus`.

    The series routes add the base term, the free spectrum's Hurwitz pair
    from ModelGeometry.hurwitz (alternating when `minus`), and the terms
    m = 1..m_last, where m_last is the first m whose geometric tail bound is
    below tol (or max_m, with a warning), found before any term is computed
    so that family_rows can sweep each component once up to m_last; the
    operator terms follow ZetaRequest's truncation policy.  abs_error sums
    the error sources: the base term, the terms' truncation and the series
    tail; or, on the eigen route (zeta_eigen_oracle), its truncation bar and
    calibration floor.  The result reads converged when abs_error meets tol
    and every operator row read converged (its truncation has a calibrated
    bar).  metadata carries m_used (m_last) and tail_bound.  The eigen route
    has no parity difference; parity_difference refuses it before it gets
    here.
    """
    t0 = time.perf_counter()
    n, tol, method = req.n, req.tol, req.method
    lam = complex(req.lam)
    geo = model_geometry(req.model)
    dist = convergence_radius(req.model, lam)
    metadata: dict = {"method": method, "truncations": {"trunc_n": req.trunc_n}}
    warnings = []
    if dist < _WARN_DISTANCE:
        warnings.append(f"ill-conditioned: distance {dist:.3e} to the excluded set")
    big_c = 1.0 / dist
    x = geo.coupling
    # |X| in the geometric ratio (|X| C)^2; lam^(2m) in D_m makes it |X lam|.
    xs = abs(x) * (abs(lam) if geo.lam_power else 1.0)
    q = (xs * big_c) ** 2
    if xs * big_c >= 1.0:
        raise RadiusExceeded(
            f"coupling scale {xs} exceeds the convergence radius {dist} at lambda={lam}"
        )
    if xs * big_c > _SLOW_RATIO:
        warnings.append(f"SlowConvergence: geometric ratio {xs * big_c:.4f} close to 1")
    # m -> (the m-th term of the value, its scaled error bar, the finest
    # operator truncation behind it or None for quadrature), in order of m.
    terms: dict[int, tuple] = {}
    tops = []
    calibrated = True
    if method == "eigen_oracle":
        sv = zeta_eigen_oracle(req.model, n, lam, req.trunc_n, tol=tol)
        value = base = sv.value
        sources = {"truncation": sv.bar, "calibration floor": EIGEN_FLOOR}
        tops = list(sv.tops)
    else:
        # The Delta^0 term: the free spectrum, alternating for the parity difference.
        free = geo.hurwitz(n, lam, zeta=alternating_zeta_sum if minus else hurwitz_zeta)
        base = free.value
        sources = {"base term": free.abs_error, "truncation": 0.0, "series tail": 0.0}
        family = MINUS if minus else geo.family
        hs_sq = _hs_constant_sq(geo.shifts(lam), geo.step, geo.offset)
        prefactor = (-1.0) ** n / math.factorial(n - 1)

        def add_term(m, d, truncation):
            """Tables the m-th term from D_m = d^n [lam^(lam_power m) R_m] / d lam^n."""
            weight = abs(x) ** (2 * m) / m / math.factorial(n - 1)
            terms[m] = (prefactor * x ** (2 * m) / m * d.value, weight * d.abs_error, truncation)

        if abs(x) > 0:
            # The tail bound does not depend on the terms, so m_last is known first.
            for m_last in range(1, req.max_m + 1):
                tail = _tail_bound(n, m_last + 1, q, big_c, hs_sq)
                if tail < tol:
                    break
            sources["series tail"] = tail
            # The integral route's m < 3 come from quadrature, once.
            first_op = 3 if method == "series_integral" else 1
            for m in range(1, min(first_op, m_last + 1)):
                d = trace_terms.dn_r_m_integral(
                    family, lam, geo.g, geo.eps, m, n, lambda_power=geo.lam_power * m
                )
                add_term(m, d, None)
            if method == "series_integral" and m_last >= first_op:
                metadata["notes"] = [f"m{m}_delegated_to_operator" for m in range(3, m_last + 1)]
            sources["truncation"] = sum(bar for _, bar, _ in terms.values())
            # Errors that no truncation reduces already miss tol: try the cap alone.
            fixed = sum(sources.values())
            budget = truncation_budget(req.trunc_n) if fixed < tol else [req.trunc_n]
            m_sweep = m_last
            for top in budget if m_last >= first_op else ():
                rows = family_rows(family.components, geo.g, lam, geo.eps, n, top, m_sweep)
                calibrated &= all(row[n].converged for row in rows)
                for m, row in enumerate(rows[first_op - 1 :], first_op):
                    power = geo.lam_power * m
                    d = trace_terms.leibniz_lambda_power(n, lam, power, row.__getitem__)
                    add_term(m, d, row[n].terms_used)
                tops.append(top)
                sources["truncation"] = sum(bar for _, bar, _ in terms.values())
                if sum(sources.values()) <= tol or top == budget[-1]:
                    break
                # The next top re-sweeps rows first_op..m_sweep only: the rows
                # above keep this top's value, each within an equal share of
                # what the fixed errors leave of tol, and by pigeonhole some
                # row exceeds that share.
                share = (tol - fixed) / (m_last - first_op + 1)
                m_sweep = max(m for m in range(first_op, m_sweep + 1) if terms[m][1] > share)
            if not calibrated:
                warnings.append(bar_floor_warning(tops[-1]))
            if tail >= tol:
                warnings.append(
                    f"m-series truncated at max_m={req.max_m} with tail bound {tail:.3e}"
                )
        value = base + sum(term for term, _, _ in terms.values())
    err = sum(sources.values())
    metadata["truncations"]["per_m"] = [truncation for _, _, truncation in terms.values()]
    metadata["truncations"]["tops"] = tops
    # The series terms summed (m_last) and the bound on the rest; the eigen
    # route has no series.
    metadata["m_used"] = len(terms)
    metadata["tail_bound"] = sources.get("series tail")
    metadata["converged"] = err <= tol and calibrated
    if err > tol:
        worst = max(sources, key=sources.get)
        warnings.append(
            f"tol {tol:.3e} missed: abs_error {err:.3e}, largest source "
            f"{worst} ({sources[worst]:.3e})"
        )
    if warnings:
        metadata["warnings"] = warnings
    metadata["runtime_ms"] = 1000.0 * (time.perf_counter() - t0)
    return ZetaResult(value, err, tuple(term for term, _, _ in terms.values()), base, metadata)


def zeta_value(req: ZetaRequest) -> ZetaResult:
    """zeta(H; n, lambda) = base Hurwitz-zeta pair + coupling-series trace
    terms, by the requested route."""
    return _assemble(req, minus=False)


def parity_difference(
    model: ModelSpec,
    n: int,
    lam: complex,
    method: str = "series_operator",
    max_m: int = 12,
    tol: float = 1e-8,
    trunc_n: int = 400,
) -> ZetaResult:
    """Even-sector minus odd-sector zeta value (TwoPhoton or Ncho):
    alternating base sums and the R_m difference family."""
    if model_geometry(model).family != PLUS:
        raise DomainError("parity difference is defined for TwoPhoton and Ncho only")
    req = ZetaRequest(model, n, lam, method, max_m, tol, trunc_n)
    if method == "eigen_oracle":
        raise DomainError("eigen_oracle does not provide the parity difference")
    return _assemble(req, minus=True)


def confluence_scan(
    g: float,
    delta: float,
    eps: float,
    lam: complex,
    n: int,
    nu_list,
    method: str = "series_operator",
    trunc_n: int = 400,
    threads: int = 1,
) -> list:
    """Rows (nu, 2^n zeta(BergmanNu(nu, g/sqrt(nu), 2 delta, 2 eps); n,
    2 lam - nu), deviation from the one-photon value), on `threads` >= 1
    threads, an int."""
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    require_integer("threads", threads, 1)
    lam, nu_list = complex(lam), list(nu_list)
    bad = [nu for nu in nu_list if not 0 < nu < math.inf]
    if bad:
        raise DomainError(f"confluence scan requires finite nu > 0, got {bad[0]}")
    if lam.real - abs(eps) <= 0:
        raise DomainError("confluence scan requires Re(lam) - |eps| > 0")
    if abs(delta) >= abs(lam - abs(eps)):
        raise DomainError("confluence scan requires |delta| < |lam - |eps||")
    ref = zeta_value(
        ZetaRequest(OnePhoton(g, delta, eps), n, lam, method=method, trunc_n=trunc_n)
    )

    def row(nu):
        model = BergmanNu(float(nu), g / math.sqrt(nu), 2.0 * delta, 2.0 * eps)
        res = zeta_value(
            ZetaRequest(model, n, 2.0 * lam - nu, method=method, trunc_n=trunc_n)
        )
        scaled = 2.0**n * res.value
        return (float(nu), scaled, abs(scaled - ref.value))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(row, nu_list))
    return [row(nu) for nu in nu_list]
