"""Spectral zeta special values zeta(H; n, lambda) for the four models.

Assembles the Hurwitz-zeta base term and the coupling-series trace terms
(Delta^{2m}/m) d^n R_m / d lambda^n with a proven geometric tail bound, for
the one-photon model, the two-photon model and its Bergman deformation, and
the two-parameter oscillator pair; plus the parity (even minus odd sector)
difference and the confluence-limit scan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import operator_oracle, trace_terms
from .errors import DomainError, NearPole, PoleError, RadiusExceeded
from .operator_oracle import (
    BergmanNu,
    ModelSpec,
    Ncho,
    OnePhoton,
    TwoPhoton,
    _min_progression_distance,
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


def _series_geometry(model: ModelSpec, lam: complex):
    """(shifts, step, offset, X) describing the excluded-set progression
    |shift + offset + step*k| and the coupling-series variable."""
    lam = complex(lam)
    if isinstance(model, OnePhoton):
        return (lam + model.eps, lam - model.eps), 1.0, 0.0, model.delta
    if isinstance(model, TwoPhoton):
        return (lam + model.eps, lam - model.eps), 1.0, 0.5, model.delta
    if isinstance(model, BergmanNu):
        return (lam + model.eps, lam - model.eps), 2.0, model.nu, model.delta
    x = (model.alpha - model.beta) / (model.alpha + model.beta)
    return (lam + 2 * model.eta, lam - 2 * model.eta), 1.0, 0.5, x


def convergence_radius(model: ModelSpec, lam: complex) -> float:
    """1/C: the allowed coupling radius (for the oscillator pair, the bound
    on |lambda (alpha-beta)/(alpha+beta)|)."""
    shifts, step, offset, _ = _series_geometry(model, lam)
    dist = min(_min_progression_distance(s, step, offset) for s in shifts)
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
    (|X| C)^2."""
    if q >= 1.0:
        return math.inf
    total = 0.0
    qj = q**m_from
    for j in range(m_from, m_from + 2000):
        term = pochhammer(2 * j, n) / j * qj * big_c ** (n - 2) * hs_sq * n / math.factorial(n - 1)
        total += term
        qj *= q
        if term < 1e-18 * max(total, 1.0):
            break
    return total


def _ncho_trace_params(model: Ncho):
    g_eff = 0.5 * math.atanh(1.0 / math.sqrt(model.alpha * model.beta))
    return g_eff, 2.0 * model.eta


def _family_components(family):
    if isinstance(family, trace_terms.Flat):
        return (("fock", None, 1.0),)
    if isinstance(family, trace_terms.Nu):
        return (("bergman", family.nu, 1.0),)
    sign = -1.0 if isinstance(family, trace_terms.Minus) else 1.0
    return (("bergman", 0.5, 1.0), ("bergman", 1.5, sign))


class _OperatorTermSource:
    """Sequential supplier of operator-route D_m values for one family.

    Maintains one truncated-Taylor sweep per family component at the top
    derivative order (lower orders come from the same series for free) and
    memoizes each (order, m) result so both series routes share work.
    """

    _cache: dict = {}

    def __init__(self, family, lam, g, eps, n_top, trunc_n):
        self.family = family
        self.lam, self.g, self.eps = complex(lam), float(g), complex(eps)
        self.n_top = n_top
        self.trunc_n = trunc_n
        self._sweeps = None
        self.m = 0

    def _key(self, order, m):
        return (self.family, self.lam, self.g, self.eps, self.trunc_n, order, m)

    def advance(self):
        self.m += 1

    def term(self, order: int):
        """D at derivative order `order` for the current m."""
        key = self._key(order, self.m)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self._sweeps is None:
            self._sweeps = [
                [
                    operator_oracle.TraceDerivativeSweep(
                        basis, self.g, self.lam, self.eps, self.n_top, self.trunc_n, nu
                    ),
                    sign,
                    None,
                ]
                for basis, nu, sign in _family_components(self.family)
            ]
        combined = None
        for entry in self._sweeps:
            sweep, sign = entry[0], entry[1]
            while sweep.m < self.m:
                entry[2] = sweep.next_terms()
            if combined is None:
                combined = {o: [sign * sv.value, sv.abs_error] for o, sv in entry[2].items()}
            else:
                for o, sv in entry[2].items():
                    combined[o][0] += sign * sv.value
                    combined[o][1] += sv.abs_error
        results = {o: SeriesValue(val, err, self.m, True) for o, (val, err) in combined.items()}
        if len(self._cache) > 4096:
            self._cache.clear()
        for o, sv in results.items():
            self._cache[self._key(o, self.m)] = sv
        # Read back from the local results: another thread may clear the
        # shared cache between the writes above and a read.
        return results[order]


def _d_m_term(
    model: ModelSpec,
    source: _OperatorTermSource,
    family,
    m: int,
    n: int,
    lam: complex,
    method: str,
    metadata: dict,
):
    """D_m = d^n R_m / d lam^n (with the lambda^(2m) Leibniz wrapper for the
    oscillator pair), via the requested route."""
    source.advance()
    if isinstance(model, Ncho):
        g_eff, eps_eff = _ncho_trace_params(model)
        lam_power = 2 * m
    else:
        g_eff, eps_eff = model.g, model.eps
        lam_power = 0
    if method == "series_integral" and m >= 3:
        metadata.setdefault("notes", []).append(f"m{m}_delegated_to_operator")
        method = "series_operator"
    if method == "series_integral":
        return trace_terms.dn_r_m_integral(
            family, lam, g_eff, eps_eff, m, n, lambda_power=lam_power
        )
    if lam_power == 0:
        return source.term(n)
    total = 0.0 + 0.0j
    err = 0.0
    lamc = complex(lam)
    for l in range(min(n, lam_power) + 1):
        coeff = math.comb(n, l) * pochhammer(lam_power - l + 1, l) * lamc ** (lam_power - l)
        part = source.term(n - l)
        total += coeff * part.value
        err += abs(coeff) * part.abs_error
    return SeriesValue(total, err, m, True)


def _base_term(model: ModelSpec, n: int, lam: complex, alternating: bool = False):
    """The Delta^0 Hurwitz-zeta pair of the model (alternating for the
    parity difference)."""
    lam = complex(lam)
    if isinstance(model, OnePhoton):
        parts = (lam + model.eps, lam - model.eps)
        scale, shift, halve = 1.0, 0.0, False
    elif isinstance(model, (TwoPhoton, Ncho)):
        e = model.eps if isinstance(model, TwoPhoton) else 2.0 * model.eta
        parts = (lam + e, lam - e)
        scale, shift, halve = 1.0, 0.5, False
    else:
        parts = (lam + model.eps, lam - model.eps)
        scale, shift, halve = 2.0 ** (-n), model.nu, True
    total = 0.0 + 0.0j
    err = 0.0
    for s in parts:
        a = (s + shift) / 2 if halve else s + shift
        z = alternating_zeta_sum(n, a) if alternating else hurwitz_zeta(n, a)
        total += scale * z.value
        err += scale * z.abs_error
    return total, err


def _series_family(model: ModelSpec, minus: bool = False):
    if isinstance(model, OnePhoton):
        if minus:
            raise DomainError("parity difference is defined for TwoPhoton and Ncho only")
        return trace_terms.FLAT
    if isinstance(model, BergmanNu):
        if minus:
            raise DomainError("parity difference is defined for TwoPhoton and Ncho only")
        return trace_terms.Nu(model.nu)
    return trace_terms.MINUS if minus else trace_terms.PLUS


def _coupling_scale(model: ModelSpec, lam: complex) -> float:
    """|X| entering the geometric ratio (|X| C)^2; the oscillator pair's
    series carries an extra lambda^(2m) inside D_m."""
    _, _, _, x = _series_geometry(model, lam)
    if isinstance(model, Ncho):
        return abs(x) * abs(complex(lam))
    return abs(x)


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
    shifts, step, offset, _ = _series_geometry(model, lam)
    dist = min(_min_progression_distance(s, step, offset) for s in shifts)
    if dist <= _RAISE_DISTANCE:
        raise NearPole(f"lambda {lam} is within {_RAISE_DISTANCE} of the excluded set")
    metadata: dict = {"method": method, "truncations": {"trunc_n": trunc_n}}
    if dist < _WARN_DISTANCE:
        metadata.setdefault("warnings", []).append(
            f"ill-conditioned: distance {dist:.3e} to the excluded set"
        )
    big_c = 1.0 / dist
    xs = _coupling_scale(model, lam)
    q = (xs * big_c) ** 2
    if xs * big_c >= 1.0:
        raise RadiusExceeded(
            f"coupling scale {xs} exceeds the convergence radius {dist} at lambda={lam}"
        )
    if xs * big_c > _SLOW_RATIO:
        metadata.setdefault("warnings", []).append(
            f"SlowConvergence: geometric ratio {xs * big_c:.4f} close to 1"
        )
    if method == "eigen_oracle":
        if minus:
            raise DomainError("eigen_oracle does not provide the parity difference")
        sv = zeta_eigen_oracle(model, n, lam, max(trunc_n, 400))
        metadata["runtime_ms"] = 1000.0 * (time.perf_counter() - t0)
        return ZetaResult(sv.value, sv.abs_error, (), sv.value, metadata)
    base, base_err = _base_term(model, n, lam, alternating=minus)
    family = _series_family(model, minus)
    _, _, _, x = _series_geometry(model, lam)
    hs_sq = _hs_constant_sq(shifts, step, offset)
    prefactor = (-1.0) ** n / math.factorial(n - 1)
    per_m = []
    err = base_err
    if abs(x) > 0:
        if isinstance(model, Ncho):
            g_eff, eps_eff = _ncho_trace_params(model)
        else:
            g_eff, eps_eff = model.g, model.eps
        source = _OperatorTermSource(family, lam, g_eff, eps_eff, n, trunc_n)
        for m in range(1, max_m + 1):
            d_m = _d_m_term(model, source, family, m, n, lam, method, metadata)
            term = prefactor * x ** (2 * m) / m * d_m.value
            per_m.append(term)
            err += abs(x) ** (2 * m) / m / math.factorial(n - 1) * d_m.abs_error
            tail = _tail_bound(n, m + 1, q, big_c, hs_sq)
            if tail < tol:
                err += tail
                break
        else:
            tail = _tail_bound(n, max_m + 1, q, big_c, hs_sq)
            err += tail
            metadata.setdefault("warnings", []).append(
                f"m-series truncated at max_m={max_m} with tail bound {tail:.3e}"
            )
    value = base + sum(per_m)
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
    if not isinstance(model, (TwoPhoton, Ncho)):
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
