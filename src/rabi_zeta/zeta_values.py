"""Spectral zeta special values zeta(H; n, lambda) for the four models.

Assembles the Hurwitz-zeta base term and the coupling-series trace terms
(Delta^{2m}/m) d^n R_m / d lambda^n with a proven geometric tail bound, for
the one-photon model, the two-photon model and its Bergman deformation, and
the two-parameter oscillator pair; plus the parity (even minus odd sector)
difference and the confluence-limit scan.  Operator-route terms, and the
integral route's m >= 3 terms, come from operator_oracle.FamilyTerms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import trace_terms
from .errors import DomainError, NearPole, PoleError, RadiusExceeded
from .operator_oracle import (
    BergmanNu,
    FamilyTerms,
    ModelSpec,
    OnePhoton,
    model_geometry,
    zeta_eigen_oracle,
)
from .specfun import SeriesValue, alternating_zeta_sum, hurwitz_zeta, pochhammer

_METHODS = ("series_integral", "series_operator", "eigen_oracle")
_WARN_DISTANCE = 1e-4
_RAISE_DISTANCE = 1e-9
_SLOW_RATIO = 0.95
_HS_TERMS = 4096


@dataclass(frozen=True)
class ZetaRequest:
    """A single zeta(H; n, lambda) evaluation request."""

    model: ModelSpec
    n: int
    lam: complex
    method: str = "series_operator"
    max_m: int = 12
    tol: float = 1e-8
    trunc_n: int = 400

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if self.tol <= 0 or self.max_m < 1:
            raise DomainError("tol must be > 0 and max_m >= 1")
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {self.method!r}")


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
    on |lambda (alpha-beta)/(alpha+beta)|)."""
    dist = model_geometry(model).distance(lam)
    if dist <= 1e-12:
        raise PoleError(f"lambda {lam} sits on the excluded set of {model}")
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


def _assemble(
    model: ModelSpec,
    n: int,
    lam: complex,
    method: str,
    max_m: int,
    tol: float,
    trunc_n: int,
    minus: bool,
) -> ZetaResult:
    t0 = time.perf_counter()
    lam = complex(lam)
    geo = model_geometry(model)
    dist = geo.distance(lam)
    if dist <= _RAISE_DISTANCE:
        raise NearPole(f"lambda {lam} is within {_RAISE_DISTANCE} of the excluded set")
    metadata: dict = {"method": method, "truncations": {"trunc_n": trunc_n}}
    warnings = []
    if dist < _WARN_DISTANCE:
        warnings.append(f"ill-conditioned: distance {dist:.3e} to the excluded set")
    big_c = 1.0 / dist
    # |X| in the geometric ratio (|X| C)^2; lam^(2m) in D_m makes it |X lam|.
    xs = abs(geo.coupling) * (abs(lam) if geo.lam_power else 1.0)
    q = (xs * big_c) ** 2
    if xs * big_c >= 1.0:
        raise RadiusExceeded(
            f"coupling scale {xs} exceeds the convergence radius {dist} at lambda={lam}"
        )
    if xs * big_c > _SLOW_RATIO:
        warnings.append(f"SlowConvergence: geometric ratio {xs * big_c:.4f} close to 1")
    per_m = []
    if method == "eigen_oracle":
        if minus:
            raise DomainError("eigen_oracle does not provide the parity difference")
        sv = zeta_eigen_oracle(model, n, lam, max(trunc_n, 400))
        value, err, base = sv.value, sv.abs_error, sv.value
        sources = {"truncation": err}
    else:
        # The Delta^0 term step^-n sum zeta(n, (lam +- eps + offset) / step),
        # alternating for the parity difference.
        zeta = alternating_zeta_sum if minus else hurwitz_zeta
        scale = geo.step ** (-n)
        base, base_err = 0.0 + 0.0j, 0.0
        for s in geo.shifts(lam):
            z = zeta(n, (s + geo.offset) / geo.step)
            base += scale * z.value
            base_err += scale * z.abs_error
        family = trace_terms.MINUS if minus else trace_terms.family_of(geo.components)
        x = geo.coupling
        hs_sq = _hs_constant_sq(geo.shifts(lam), geo.step, geo.offset)
        prefactor = (-1.0) ** n / math.factorial(n - 1)
        err = base_err
        trunc_err = tail = 0.0
        if abs(x) > 0:
            terms = FamilyTerms(
                trace_terms.family_components(family), geo.g, lam, geo.eps, n, trunc_n
            )
            for m in range(1, max_m + 1):
                # D_m = d^n [lam^(lam_power m) R_m] / d lam^n by the requested route.
                power = geo.lam_power * m
                if method == "series_integral" and m < 3:
                    d_m = trace_terms.dn_r_m_integral(
                        family, lam, geo.g, geo.eps, m, n, lambda_power=power
                    )
                else:
                    if method == "series_integral":
                        metadata.setdefault("notes", []).append(f"m{m}_delegated_to_operator")
                    d_m = trace_terms.leibniz_lambda_power(n, lam, power, terms.at(m).__getitem__)
                per_m.append(prefactor * x ** (2 * m) / m * d_m.value)
                term_err = abs(x) ** (2 * m) / m / math.factorial(n - 1) * d_m.abs_error
                err += term_err
                trunc_err += term_err
                tail = _tail_bound(n, m + 1, q, big_c, hs_sq)
                if tail < tol:
                    err += tail
                    break
            else:
                tail = _tail_bound(n, max_m + 1, q, big_c, hs_sq)
                err += tail
                warnings.append(f"m-series truncated at max_m={max_m} with tail bound {tail:.3e}")
        value = base + sum(per_m)
        sources = {"truncation": trunc_err, "series tail": tail, "base term": base_err}
    metadata["converged"] = err <= tol
    if err > tol:
        worst = max(sources, key=sources.get)
        warnings.append(
            f"tol {tol:.3e} missed: abs_error {err:.3e}, largest source "
            f"{worst} ({sources[worst]:.3e})"
        )
    if warnings:
        metadata["warnings"] = warnings
    metadata["runtime_ms"] = 1000.0 * (time.perf_counter() - t0)
    return ZetaResult(value, err, tuple(per_m), base, metadata)


def zeta_value(req: ZetaRequest) -> ZetaResult:
    """zeta(H; n, lambda) = base Hurwitz-zeta pair + coupling-series trace
    terms, by the requested route."""
    return _assemble(
        req.model, req.n, req.lam, req.method, req.max_m, req.tol, req.trunc_n, minus=False
    )


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
    if len(model_geometry(model).components) != 2:
        raise DomainError("parity difference is defined for TwoPhoton and Ncho only")
    if method == "eigen_oracle":
        raise DomainError("eigen_oracle does not provide the parity difference")
    return _assemble(model, n, lam, method, max_m, tol, trunc_n, minus=True)


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
    2 lam - nu), deviation from the one-photon value)."""
    lam = complex(lam)
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
