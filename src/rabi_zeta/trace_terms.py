"""Closed-form machinery for the trace terms R_m.

The Phi and Psi kernels on the 2m-cube, the 2m-dimensional integral
representations of R_m for each family, the log-weighted integrands for the
shift derivatives, and the m=1 series/hypergeometric fast paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import apery, operator_oracle, quadrature
from .errors import DomainError, LengthMismatch, NoConvergence, PoleError
from .operator_oracle import Component
from .specfun import (
    SeriesValue,
    hypergeometric_pfq,
    pochhammer,
    sum_inverse_pair,
)


# ---------------------------------------------------------------------------
# Trace-term families


@dataclass(frozen=True)
class Flat:
    """Fock-basis family (linear-coupling model)."""


@dataclass(frozen=True)
class Nu:
    """Single weighted-Bergman family of parameter nu."""

    nu: float

    def __post_init__(self):
        if self.nu <= 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class Plus:
    """Sum family: R_m for nu=1/2 plus nu=3/2."""


@dataclass(frozen=True)
class Minus:
    """Difference family: R_m for nu=1/2 minus nu=3/2."""


@dataclass(frozen=True)
class Delta:
    """m=1 series family tag; delta is +1 or -1 (alias of Plus/Minus)."""

    delta: int

    def __post_init__(self):
        if self.delta not in (1, -1):
            raise DomainError(f"delta must be +1 or -1, got {self.delta}")


FLAT = Flat()
PLUS = Plus()
MINUS = Minus()

TraceFamily = Flat | Nu | Plus | Minus

_FAMILY_COMPONENTS = {
    FLAT: (Component("fock"),),
    PLUS: (Component("bergman", 0.5), Component("bergman", 1.5)),
    MINUS: (Component("bergman", 0.5), Component("bergman", 1.5, -1.0)),
}
_FAMILY_COMPONENTS[Delta(1)] = _FAMILY_COMPONENTS[PLUS]
_FAMILY_COMPONENTS[Delta(-1)] = _FAMILY_COMPONENTS[MINUS]


def family_components(family) -> tuple[Component, ...]:
    """The signed components whose traces the family sums (Delta(d) is an
    alias of Plus for d = 1 and of Minus for d = -1)."""
    if isinstance(family, Nu):
        return (Component("bergman", family.nu),)
    components = _FAMILY_COMPONENTS.get(family)
    if components is None:
        raise DomainError(f"unknown trace family {family!r}")
    return components


def family_of(components: tuple[Component, ...]) -> TraceFamily:
    """The family whose R_m is the signed sum over `components`, the inverse
    of family_components."""
    for family in (FLAT, PLUS, MINUS):
        if _FAMILY_COMPONENTS[family] == components:
            return family
    (component,) = components
    return Nu(component.nu)


# ---------------------------------------------------------------------------
# Kernels


def _phi_vec(m: int, u: np.ndarray) -> np.ndarray:
    """Vectorized Phi_m on an (npts, 2m) array."""
    d = 2 * m
    prod = np.prod(u, axis=1)
    total = m * (1.0 + prod)
    window = u.copy()  # window[:, k] = prod of the cyclic run of length l from k
    for length in range(1, d):
        total = total + ((-1) ** length) * np.sum(window, axis=1)
        if length < d - 1:
            idx = (np.arange(d) + length) % d
            window = window * u[:, idx]
    return total


def _psi_vec(m: int, g: float, u: np.ndarray) -> np.ndarray:
    """Vectorized Psi_m^g on an (npts, 2m) array: trace of the ordered
    product of 2m two-by-two factors with alternating coupling signs."""
    ch = math.cosh(2 * g)
    sh = math.sinh(2 * g)
    a = np.ones(u.shape[0])
    b = np.zeros(u.shape[0])
    c = np.zeros(u.shape[0])
    dd = np.ones(u.shape[0])
    for j in range(2 * m):
        s = -sh if j % 2 == 0 else sh
        uj = u[:, j]
        inv = 1.0 / uj
        # Right-multiply by [[ch/u, s*u], [s/u, ch*u]].
        na = a * (ch * inv) + b * (s * inv)
        nb = a * (s * uj) + b * (ch * uj)
        nc = c * (ch * inv) + dd * (s * inv)
        nd = c * (s * uj) + dd * (ch * uj)
        a, b, c, dd = na, nb, nc, nd
    return a + dd


def phi(m: int, u) -> float:
    """Phi_m(u) for a length-2m point of the open cube."""
    arr = np.atleast_2d(np.asarray(u, dtype=float))
    if m < 1 or arr.shape[1] != 2 * m:
        raise LengthMismatch(f"expected {2 * m} coordinates, got {arr.shape[1]}")
    return float(_phi_vec(m, arr)[0])


def psi(m: int, g: float, u) -> float:
    """Psi_m^g(u) for a length-2m point of the open cube."""
    arr = np.atleast_2d(np.asarray(u, dtype=float))
    if m < 1 or arr.shape[1] != 2 * m:
        raise LengthMismatch(f"expected {2 * m} coordinates, got {arr.shape[1]}")
    return float(_psi_vec(m, g, arr)[0])


# ---------------------------------------------------------------------------
# Integral route


def _exponent_vector(m: int, lam: complex, eps: complex) -> np.ndarray:
    """Alternating exponents e_j = lam -+ eps - 1 (odd axes carry +eps)."""
    e = np.empty(2 * m, dtype=complex)
    e[0::2] = complex(lam) + complex(eps) - 1.0
    e[1::2] = complex(lam) - complex(eps) - 1.0
    return e


def _integrand(family: TraceFamily, lam: complex, eps: complex, g: float, m: int, n_log: int):
    evec = _exponent_vector(m, lam, eps)

    def f(u: np.ndarray) -> np.ndarray:
        logs = np.log(u)
        weight = np.exp(logs @ evec)
        if isinstance(family, Flat):
            prod = np.prod(u, axis=1)
            one_minus = np.maximum(1.0 - prod, 1e-300)
            kernel = np.exp(-4.0 * g * g * _phi_vec(m, u) / one_minus) / one_minus
        else:
            if m == 1:
                # Factorized forms avoid the catastrophic cancellation of
                # Psi - 2 near the (1, 1) corner:
                #   uv (Psi_1 -+ 2) = (1 -+ uv)^2 + sinh^2(2g)(1-u^2)(1-v^2).
                uu, vv = u[:, 0], u[:, 1]
                sh2 = math.sinh(2.0 * g) ** 2
                cross = sh2 * (1.0 - uu * uu) * (1.0 - vv * vv)
                inv_uv = 1.0 / (uu * vv)
                sp = np.sqrt(((1.0 + uu * vv) ** 2 + cross) * inv_uv)
                sm = np.sqrt(np.maximum(((1.0 - uu * vv) ** 2 + cross) * inv_uv, 1e-300))
            else:
                # Psi is computed as a matrix-product trace, so Psi - 2 is
                # only known to roundoff relative to |Psi|; flooring at that
                # noise scale keeps corner nodes (tiny weights) harmless.
                psi_val = _psi_vec(m, g, u)
                sp = np.sqrt(psi_val + 2.0)
                sm = np.sqrt(np.maximum(psi_val - 2.0, 1e-13 * np.maximum(np.abs(psi_val), 2.0)))
            if isinstance(family, Plus):
                kernel = 1.0 / sm
            elif isinstance(family, Minus):
                kernel = 1.0 / sp
            else:
                # mu = ((sqrt(Psi+2)-sqrt(Psi-2))/2)^2 = (2/(sp+sm))^2, stably.
                mu = (2.0 / (sp + sm)) ** 2
                kernel = np.exp((family.nu - 1.0) * np.log(mu)) / (sp * sm)
        out = kernel * weight
        if n_log:
            out = out * np.sum(logs, axis=1) ** n_log
        return out

    return f


def _default_spec(m: int, spec: quadrature.QuadratureSpec | None) -> quadrature.QuadratureSpec:
    if spec is not None:
        return spec
    if m == 1:
        return quadrature.QuadratureSpec(scheme="tanh_sinh", points_per_axis=7)
    if m == 2:
        return quadrature.QuadratureSpec(scheme="tanh_sinh", points_per_axis=5)
    return quadrature.QuadratureSpec(scheme="monte_carlo")


def dn_r_m_family_operator(
    family: TraceFamily, lam: complex, g: float, eps: complex, m: int, n: int = 0, N: int = 400
) -> SeriesValue:
    """n-th shift derivative of the family's R_m by the operator oracle: the
    signed sum over the family's components (converged at abs_error <= 1e-8)."""
    return operator_oracle.family_term(family_components(family), g, lam, eps, m, n, N, 1e-8)


def leibniz_lambda_power(n: int, lam: complex, power: int, derivative) -> SeriesValue:
    """d^n/d lam^n [lam^power f] by the Leibniz rule, the derivatives of the
    power in closed form; derivative(k) is d^k f / d lam^k."""
    if not power:
        return derivative(n)
    total = 0.0 + 0.0j
    err = 0.0
    terms = 0
    lamc = complex(lam)
    for l in range(min(n, power) + 1):
        coeff = math.comb(n, l) * pochhammer(power - l + 1, l) * lamc ** (power - l)
        part = derivative(n - l)
        total += coeff * part.value
        err += abs(coeff) * part.abs_error
        terms += part.terms_used
    return SeriesValue(total, err, terms, True)


def _integral(family: TraceFamily, lam, g, eps, m: int, n: int, spec) -> SeriesValue:
    """d^n R_m / d lam^n under the integral sign (m <= 3), or by the
    operator oracle for m >= 4."""
    if m >= 4:
        return dn_r_m_family_operator(family, lam, g, eps, m, n)
    margin = complex(lam).real - abs(complex(eps).real)
    if not margin + min(c.offset for c in family_components(family)) > 0:
        raise DomainError(
            f"integral route requires Re(lam) - |Re(eps)| (+ family shift) > 0; "
            f"got lam={lam}, eps={eps} for {family}"
        )
    spec = _default_spec(m, spec)
    f = _integrand(family, lam, eps, g, m, n)
    if spec.scheme == "monte_carlo":
        return quadrature.integrate_monte_carlo(f, 2 * m, spec.samples, spec.rng_seed)
    return quadrature.integrate_tensor(f, 2 * m, spec)


def r_m_integral(
    family: TraceFamily,
    lam: complex,
    g: float,
    eps: complex,
    m: int,
    spec: quadrature.QuadratureSpec | None = None,
) -> SeriesValue:
    """R_m by the 2m-dimensional integral representation of the family.

    m in {1, 2} uses deterministic tanh-sinh tensor quadrature, m = 3 Monte
    Carlo, m >= 4 delegates to the operator oracle.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    return _integral(family, lam, g, eps, m, 0, spec)


def dn_r_m_integral(
    family: TraceFamily,
    lam: complex,
    g: float,
    eps: complex,
    m: int,
    n: int,
    spec: quadrature.QuadratureSpec | None = None,
    lambda_power: int = 0,
) -> SeriesValue:
    """n-th shift derivative of R_m under the integral sign: the r_m_integral
    integrand times (log prod u_j)^n.

    With lambda_power = 2m the Leibniz combination
    d^n/d lam^n [lam^(2m) R_m] is returned instead (used by the NCHO
    assembly); the lam-power derivatives are taken in closed form.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if lambda_power:
        return leibniz_lambda_power(
            n, lam, lambda_power, lambda k: dn_r_m_integral(family, lam, g, eps, m, k, spec)
        )
    if n == 0:
        return r_m_integral(family, lam, g, eps, m, spec)
    return _integral(family, lam, g, eps, m, n, spec)


# ---------------------------------------------------------------------------
# m = 1 fast paths


def r_1_series(family, lam: complex, g: float, eps: complex, tol: float = 1e-10) -> SeriesValue:
    """R_1 by its expansion in the coupling.

    Flat: sum_n (-4 g^2)^n / n! * J_n(flat); Delta(d): sech(2g) *
    sum_n (1/2)_n / n! * tanh(2g)^(2n) * J_{2n}(delta=d).
    """
    components = family_components(family)
    if isinstance(family, Flat):
        total = 0.0 + 0.0j
        x = -4.0 * g * g
        coeff = 1.0
        for n in range(200):
            jn = apery.j_flat(n, lam, eps, method="series", tol=tol * 0.1)
            term = coeff * jn.value
            total += term
            if n > 0 and abs(term) < tol * max(abs(total), 1e-300):
                return SeriesValue(total, abs(term) + tol * abs(total) * 0.1, n + 1, True)
            coeff *= x / (n + 1)
        raise NoConvergence("flat R_1 series did not converge in 200 terms")
    if len(components) != 2:
        raise DomainError(f"r_1_series supports Flat or Delta families, got {family}")
    delta = int(components[1].sign)
    t2 = math.tanh(2 * g) ** 2
    sech = 1.0 / math.cosh(2 * g)
    total = 0.0 + 0.0j
    coeff = 1.0
    for n in range(300):
        jn = apery.j_delta(2 * n, delta, lam, eps, method="series", tol=tol * 0.1)
        term = coeff * jn.value
        total += term
        if n > 0 and abs(term) < tol * max(abs(total), 1e-300):
            bound = abs(term) * t2 / max(1 - t2, 1e-16)
            return SeriesValue(sech * total, sech * (bound + tol * abs(total) * 0.1), n + 1, True)
        coeff *= (0.5 + n) / (n + 1) * t2
    raise NoConvergence("delta R_1 series did not converge in 300 terms")


def r_1_hypergeometric(delta: int, lam: complex, g: float, eps: complex) -> SeriesValue:
    """R_1 for the sum (delta=+1) / difference (delta=-1) family in closed
    hypergeometric form: sech(2g) [ 3F2(1/2, 1/2+lam, 1/2-lam; 1+eps, 1-eps;
    tanh^2 2g) * k-sum + finite correction double sum ]."""
    if delta not in (1, -1):
        raise DomainError(f"delta must be +1 or -1, got {delta}")
    lam = complex(lam)
    eps = complex(eps)
    m_int = round(eps.real)
    if m_int != 0 and abs(eps - m_int) <= 1e-9:
        raise PoleError(f"eps={eps} is within 1e-9 of the nonzero integer {m_int}")
    t2 = math.tanh(2 * g) ** 2
    sech = 1.0 / math.cosh(2 * g)
    front = hypergeometric_pfq([0.5, 0.5 + lam, 0.5 - lam], [1 + eps, 1 - eps], t2)
    ksum = sum_inverse_pair(lam + eps + 0.5, lam - eps + 0.5, alternating=(delta == -1))
    corr = 0.0 + 0.0j
    coeff = 1.0
    last = 0.0
    for n in range(1, 400):
        coeff *= (n - 0.5) / n * t2
        inner = 0.0 + 0.0j
        for l in range(n):
            num = pochhammer(lam - n + 0.5, l) * pochhammer(-lam - n + 0.5, l)
            den = pochhammer(eps - n, l + 1) * pochhammer(-eps - n, l + 1)
            if delta == 1:
                inner += lam * num / ((2 * n - 2 * l - 1) * den)
            else:
                inner += num / (2 * den)
        term = coeff * inner
        corr += term
        last = abs(term)
        if n > 2 and last < 1e-14 * max(abs(corr) + abs(front.value * ksum), 1e-300):
            break
    else:
        if t2 > 0:
            raise NoConvergence("hypergeometric correction sum did not converge in 400 terms")
    value = sech * (front.value * ksum + corr)
    err = sech * (front.abs_error * abs(ksum) + last * t2 / max(1 - t2, 1e-16)) + 1e-15 * abs(value)
    return SeriesValue(value, err, 0, True)
