"""Beukers-type integrals, their closed series, and Apery-like coefficients.

J-integrals of the flat family ((1-u)^n (1-v)^n / (1-uv)^(n+1) moments) and
the delta family ((u - delta v)^n / (1 - delta uv)^(n+1) moments with
half-integer exponents), the A/B coefficient families that decompose them,
the classical Apery numbers in exact arithmetic, and the zeta(2) identity
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from . import quadrature
from .errors import DomainError, HalfIntegerPole, NoConvergence, PoleError
from .specfun import (
    SeriesValue,
    _check_not_nonpositive_integer,
    _digamma,
    binomial,
    pochhammer,
    sum_inverse_pair,
)

_HALF_POLE_GUARD = 1e-9
_BLOCK = 4096
_MAX_SERIES_TERMS = 5_000_000


@dataclass(frozen=True)
class AperyCoefficients:
    """A/B coefficient pair of a J-decomposition at one parameter point.

    Values are complex, or exact Fractions when the inputs were rational.
    family is "flat", "delta(+)" or "delta(-)".
    """

    a: object
    b: object
    n: int
    family: str


@dataclass(frozen=True)
class ExactApery:
    """Exact classical Apery numbers: integers a_list, rationals b_list."""

    a_list: tuple
    b_list: tuple


def _is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _poch_vec(x: np.ndarray, n: int) -> np.ndarray:
    out = np.ones_like(x)
    for i in range(n):
        out = out * (x + i)
    return out


# ---------------------------------------------------------------------------
# Flat family


def j_flat(
    n: int,
    lam: complex,
    eps: complex,
    method: str = "series",
    tol: float = 1e-10,
    spec: quadrature.QuadratureSpec | None = None,
) -> SeriesValue:
    """J_n of the flat family.

    series: sum_k n! (k+1)_n / ((lam+eps+k)_{n+1} (lam-eps+k)_{n+1});
    quadrature: the defining double integral (requires Re lam - |Re eps| > 0).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if method == "quadrature":
        lamc, epsc = complex(lam), complex(eps)
        if lamc.real - abs(epsc.real) <= 0:
            raise DomainError("quadrature route requires Re(lam) - |Re(eps)| > 0")
        spec = spec or quadrature.QuadratureSpec(scheme="tanh_sinh", points_per_axis=7)

        def f(pts):
            u, v = pts[:, 0], pts[:, 1]
            core = ((1 - u) * (1 - v)) ** n / (1 - u * v) ** (n + 1)
            return core * np.exp((lamc + epsc - 1) * np.log(u) + (lamc - epsc - 1) * np.log(v))

        return quadrature.integrate_tensor(f, 2, spec)
    if method != "series":
        raise DomainError(f"unknown method {method!r}")
    lamc, epsc = complex(lam), complex(eps)
    _check_not_nonpositive_integer(lamc + epsc, _HALF_POLE_GUARD)
    _check_not_nonpositive_integer(lamc - epsc, _HALF_POLE_GUARD)
    if n == 0:
        value = sum_inverse_pair(lamc + epsc, lamc - epsc)
        return SeriesValue(value, 1e-13 * max(abs(value), 1.0), 0, True)
    fact = float(math.factorial(n))
    total = 0.0 + 0.0j
    k0 = 0
    while k0 < _MAX_SERIES_TERMS:
        ks = np.arange(k0, k0 + _BLOCK, dtype=float)
        terms = (
            fact
            * _poch_vec(ks + 1, n)
            / (_poch_vec(lamc + epsc + ks, n + 1) * _poch_vec(lamc - epsc + ks, n + 1))
        )
        total += complex(np.sum(terms))
        k0 += _BLOCK
        bound = abs(terms[-1]) * (k0 + n) / (n + 1)
        if bound < tol:
            return SeriesValue(total, bound + 1e-15 * abs(total), k0, True)
    raise NoConvergence(f"flat J series did not reach tol={tol} in {_MAX_SERIES_TERMS} terms")


def _flat_pole_guard(n: int, eps) -> None:
    e = complex(eps)
    for m in range(1, n + 1):
        if abs(e - m / 2) <= _HALF_POLE_GUARD or abs(e + m / 2) <= _HALF_POLE_GUARD:
            raise HalfIntegerPole(f"eps={eps} is within {_HALF_POLE_GUARD} of +-{m}/2")


def _half(m: int, exact: bool):
    return Fraction(m, 2) if exact else m / 2.0


def _ab_flat_forms(n: int, lam, eps, exact: bool):
    """Both displayed forms of the flat A/B coefficients."""
    one = Fraction(1) if exact else 1.0
    two_eps = 2 * eps
    a_form1 = 0 * one
    for l in range(n + 1):
        a_form1 += (
            binomial(n, l)
            * pochhammer(lam + eps - n + l, n)
            / (pochhammer(1 + two_eps, l) * pochhammer(1 - two_eps, n - l))
        )
    a_form2 = 0 * one
    b_form2 = 0 * one
    fact = math.factorial(n)
    for m in range(1, n + 1):
        half_m = _half(m, exact)
        inner_a = 0 * one
        inner_b = 0 * one
        for l in range(m, n + 1):
            base = binomial(n, l) * binomial(n, l - m) * pochhammer(lam - half_m - n + l, n)
            inner_a += base
            for k in range(m):
                inner_b += base / (lam - half_m + k)
        pole_pair_a = one / (eps - half_m) - one / (eps + half_m)
        sign = (-1) ** m
        a_form2 += sign * m * inner_a * pole_pair_a / (2 * fact)
        b_form2 += sign * inner_b * (-pole_pair_a) / (2 * fact)
    b_form1 = None
    if exact or abs(complex(eps)) > 1e-6:
        acc = 0 * one
        for l in range(1, n + 1):
            cpl = binomial(n, l)
            top_p = pochhammer(lam + eps - n + l, n) / (
                pochhammer(1 + two_eps, l) * pochhammer(1 - two_eps, n - l)
            )
            top_m = pochhammer(lam - eps - n + l, n) / (
                pochhammer(1 + two_eps, n - l) * pochhammer(1 - two_eps, l)
            )
            for k in range(l):
                acc += cpl * (top_p / (lam + eps + k) - top_m / (lam - eps + k))
        b_form1 = acc / (2 * eps)
    return a_form1, a_form2, b_form1, b_form2


def apery_ab_flat(n: int, lam, eps) -> AperyCoefficients:
    """Flat-family coefficients (A, B); dual displayed forms cross-checked.

    Exact Fraction arithmetic when lam and eps are rational.  eps must stay
    off the half-integers m/2, 1 <= m <= n.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    _flat_pole_guard(n, eps)
    if n == 0:
        return AperyCoefficients(1, 0, 0, "flat")
    exact = _is_exact(lam, eps)
    if not exact:
        lam, eps = complex(lam), complex(eps)
        if abs(eps) <= 1e-8:
            # The first displayed B-form is 0/0 at eps=0 although B itself is
            # regular; take the even-in-eps Richardson limit from two small
            # offsets of the residue form.
            c1 = _ab_flat_forms(n, lam, 1e-4 + 0j, exact=False)
            c2 = _ab_flat_forms(n, lam, 5e-5 + 0j, exact=False)
            a_val = (4 * c2[1] - c1[1]) / 3
            b_val = (4 * c2[3] - c1[3]) / 3
            return AperyCoefficients(a_val, b_val, n, "flat")
    a1, a2, b1, b2 = _ab_flat_forms(n, lam, eps, exact)
    scale = max(abs(complex(a1)), 1.0)
    if abs(complex(a1) - complex(a2)) > 1e-10 * scale:
        raise AssertionError(f"flat A dual forms disagree: {a1} vs {a2}")
    if b1 is not None:
        bscale = max(abs(complex(b1)), 1.0)
        if abs(complex(b1) - complex(b2)) > 1e-10 * bscale:
            raise AssertionError(f"flat B dual forms disagree: {b1} vs {b2}")
    b = b1 if b1 is not None else b2
    return AperyCoefficients(a1, b, n, "flat")


def reconstruct_j_flat(coeffs: AperyCoefficients, lam, eps) -> complex:
    """(-1)^n (A * sum_k 1/((lam+eps+k)(lam-eps+k)) + B)."""
    ksum = sum_inverse_pair(complex(lam) + complex(eps), complex(lam) - complex(eps))
    return (-1) ** coeffs.n * (complex(coeffs.a) * ksum + complex(coeffs.b))


# ---------------------------------------------------------------------------
# Delta family


def _delta_pole_check(lam: complex, eps: complex) -> None:
    _check_not_nonpositive_integer(lam + eps + 0.5, _HALF_POLE_GUARD)
    _check_not_nonpositive_integer(lam - eps + 0.5, _HALF_POLE_GUARD)


def k_sum_delta(delta: int, n: int, lam: complex, eps: complex) -> complex:
    """sum_k delta^k (1/(lam-eps+k+1/2) - delta^n/(lam+eps+k+1/2)),
    in closed digamma form."""
    a = complex(lam) + complex(eps) + 0.5
    b = complex(lam) - complex(eps) + 0.5
    sigma = delta**n
    if delta == 1:
        return _digamma(a) - _digamma(b)

    def beta(c):
        return (_digamma((c + 1) / 2) - _digamma(c / 2)) / 2

    if sigma == 1:
        return beta(b) - beta(a)
    return beta(b) + beta(a)


def j_delta(
    n: int,
    delta: int,
    lam: complex,
    eps: complex,
    method: str = "series",
    tol: float = 1e-10,
) -> SeriesValue:
    """J_n of the delta family by the closed series or the two-term
    recurrence seeded at n = 0, 1."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if delta not in (1, -1):
        raise DomainError(f"delta must be +1 or -1, got {delta}")
    lamc, epsc = complex(lam), complex(eps)
    _delta_pole_check(lamc, epsc)
    if method == "series":
        return _j_delta_series(n, delta, lamc, epsc, tol)
    if method == "recurrence":
        return _j_delta_recurrence(n, delta, lamc, epsc)
    raise DomainError(f"unknown method {method!r}")


def _j_delta_series(n: int, delta: int, lam: complex, eps: complex, tol: float) -> SeriesValue:
    if n == 0:
        value = sum_inverse_pair(lam + eps + 0.5, lam - eps + 0.5, alternating=(delta == -1))
        return SeriesValue(value, 1e-13 * max(abs(value), 1.0), 0, True)
    # Ratio r_k = (a)_n / (a+k)_{n+1} with a = lam - (n-1)/2, built by the
    # stable recurrence r_{k+1} = r_k (a+k)/(a+k+n+1).  This never forms the
    # astronomically large Pochhammer values separately and handles the
    # removable 0/0 at half-integer lam (r_k becomes exactly 0 once the zero
    # factor leaves the denominator range).
    a = lam - (n - 1) / 2
    sign_n = (-delta) ** n
    ratio = 1.0 / (a + n)
    total = 0.0 + 0.0j
    sign = 1.0
    last = 0.0
    for k in range(_MAX_SERIES_TERMS):
        term = (
            0.5
            * ratio
            * sign
            * (1 / (lam - eps + k + 0.5) + sign_n / (lam + eps + k + 0.5))
        )
        total += term
        last = abs(term)
        bound = last if delta == -1 else last * (k + 1 + n) / (n + 1)
        if k > n and bound < tol:
            return SeriesValue(total, bound + 1e-15 * abs(total), k + 1, True)
        ratio = ratio * (a + k) / (a + k + n + 1)
        sign *= delta
    raise NoConvergence(f"delta J series did not reach tol={tol} in {_MAX_SERIES_TERMS} terms")


def _recurrence_pole_guard(n: int, eps: complex) -> None:
    j = n
    while j >= 1:
        if abs(eps - j / 2) <= _HALF_POLE_GUARD or abs(eps + j / 2) <= _HALF_POLE_GUARD:
            raise HalfIntegerPole(f"recurrence route needs eps away from +-{j}/2, got {eps}")
        j -= 2


def _j_delta_recurrence(n: int, delta: int, lam: complex, eps: complex) -> SeriesValue:
    _recurrence_pole_guard(n, eps)
    if n == 0 or n == 1:
        value = _j_delta_seed(n, delta, lam, eps)
        return SeriesValue(value, 1e-13 * max(abs(value), 1.0), n, True)
    start = 2 if n % 2 == 0 else 3
    prev = _j_delta_seed(start - 2, delta, lam, eps)
    for j in range(start, n + 1, 2):
        denom = (eps + j / 2) * (eps - j / 2)
        lead = (lam + (j - 1) / 2) * (lam - (j - 1) / 2) / denom
        if delta == 1:
            corr = lam / ((j - 1) * denom) if j % 2 == 0 else eps / (j * denom)
        else:
            corr = 1 / (2 * denom)
        prev = lead * prev - corr
    return SeriesValue(prev, 1e-11 * max(abs(prev), 1.0), n, True)


def _j_delta_seed(n: int, delta: int, lam: complex, eps: complex) -> complex:
    if n == 0:
        return sum_inverse_pair(lam + eps + 0.5, lam - eps + 0.5, alternating=(delta == -1))
    ks = k_sum_delta(delta, 1, lam, eps)
    return lam / (2 * (eps - 0.5) * (eps + 0.5)) * ks - 0.5 * (
        1 / (eps - 0.5) + delta / (eps + 0.5)
    )


def _delta_pole_guard_ab(n: int, eps) -> None:
    e = complex(eps)
    for j in range(n + 1):
        if abs(e - (-n / 2 + j)) <= _HALF_POLE_GUARD:
            raise HalfIntegerPole(f"eps={eps} is within {_HALF_POLE_GUARD} of {-n / 2 + j}")


def apery_ab_delta(n: int, delta: int, lam, eps) -> AperyCoefficients:
    """Delta-family coefficients (A, B); Pochhammer-ratio A cross-checked
    against the parity product form, m-sum B against the parity l-sum form."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if delta not in (1, -1):
        raise DomainError(f"delta must be +1 or -1, got {delta}")
    _delta_pole_guard_ab(n, eps)
    exact = _is_exact(lam, eps)
    if not exact:
        lam, eps = complex(lam), complex(eps)
    one = Fraction(1) if exact else 1.0
    nh = _half(n, exact)
    nm1h = _half(n - 1, exact)
    a_form1 = pochhammer(lam - nm1h, n) / pochhammer(eps - nh, n + 1)
    q = n // 2
    if n % 2 == 0:
        a_form2 = (
            pochhammer(_half(1, exact) + lam, q)
            * pochhammer(_half(1, exact) - lam, q)
            / (eps * pochhammer(1 + eps, q) * pochhammer(1 - eps, q))
        )
    else:
        a_form2 = -(
            lam
            * pochhammer(1 + lam, q)
            * pochhammer(1 - lam, q)
            / (pochhammer(_half(1, exact) + eps, q + 1) * pochhammer(_half(1, exact) - eps, q + 1))
        )
    if abs(complex(a_form1) - complex(a_form2)) > 1e-10 * max(abs(complex(a_form1)), 1.0):
        raise AssertionError(f"delta A dual forms disagree: {a_form1} vs {a_form2}")
    if n == 0:
        return AperyCoefficients(a_form1, 0 * one, 0, f"delta({'+' if delta == 1 else '-'})")
    c = pochhammer(lam - nm1h, n)
    b_form1 = 0 * one
    for m in range(0, (n + 1) // 2):
        pole_pair = one / (eps - nh + m) - ((-delta) ** n) / (eps + nh - m)
        inner = 0 * one
        for k in range(0, n - 2 * m):
            inner += (delta**k) * c / (lam + k - nm1h + m)
        b_form1 += ((-1) ** (m + 1)) * pole_pair * inner / (
            math.factorial(m) * math.factorial(n - m)
        )
    b_form1 = b_form1 / 2
    b_form2 = 0 * one
    for l in range((n + 1) // 2):
        num = pochhammer(lam - nm1h, l) * pochhammer(-lam - nm1h, l)
        den = pochhammer(eps - nh, l + 1) * pochhammer(-eps - nh, l + 1)
        if delta == 1 and n % 2 == 0:
            b_form2 += lam * num / ((n - 2 * l - 1) * den)
        elif delta == 1:
            b_form2 += eps * num / ((n - 2 * l) * den)
        else:
            b_form2 += num / (2 * den)
    if abs(complex(b_form1) - complex(b_form2)) > 1e-10 * max(abs(complex(b_form1)), 1.0):
        raise AssertionError(f"delta B dual forms disagree: {b_form1} vs {b_form2}")
    return AperyCoefficients(a_form1, b_form1, n, f"delta({'+' if delta == 1 else '-'})")


def reconstruct_j_delta(coeffs: AperyCoefficients, delta: int, lam, eps) -> complex:
    """(A/2) * k-sum + B: rebuild J_n from its coefficient pair."""
    ks = k_sum_delta(delta, coeffs.n, complex(lam), complex(eps))
    return complex(coeffs.a) / 2 * ks + complex(coeffs.b)


# ---------------------------------------------------------------------------
# Classical Apery numbers and the zeta(2) identity


def apery_classic(n_max: int) -> ExactApery:
    """Exact classical A_n (integers) and B_n (rationals) for n <= n_max,
    verified against the three-term recurrence exactly."""
    if n_max < 0 or n_max > 200:
        raise DomainError(f"n_max must be in 0..200, got {n_max}")
    a_list = []
    b_list = []
    outer = Fraction(0)  # 2 sum_{m<=n} (-1)^(m-1) / m^2, kept running over n
    for n in range(n_max + 1):
        a = 0
        b = Fraction(0)
        inner = Fraction(0)  # sum_{m<=k} (-1)^(n+m-1) / (m^2 C(n,m) C(n+m,m)), running over k
        for k in range(n + 1):
            w = binomial(n, k) ** 2 * binomial(n + k, k)
            a += w
            if k:
                inner += Fraction((-1) ** (n + k - 1), k * k * binomial(n, k) * binomial(n + k, k))
            b += w * (outer + inner)
        a_list.append(a)
        b_list.append(b)
        outer += Fraction(2 * (-1) ** n, (n + 1) ** 2)
    for n in range(2, n_max + 1):
        for xs in (a_list, b_list):
            res = n * n * xs[n] - (11 * n * n - 11 * n + 3) * xs[n - 1] - (n - 1) ** 2 * xs[n - 2]
            if res != 0:
                raise AssertionError(f"recurrence residual {res} at n={n}")
    return ExactApery(tuple(a_list), tuple(b_list))


def beukers_residual(n: int) -> float:
    """|(-1)^n J_n(n+1, 0) - (A_n pi^2/6 - B_n)| with exact A_n, B_n.

    A_n pi^2/6 and B_n are large and nearly cancel (the difference is the
    small J value), so the target is formed in 60-digit arithmetic before
    rounding; in float64 the cancellation alone would cost ~|A_n| * 1e-16.
    """
    if n < 0 or n > 12:
        raise DomainError(f"n must be in 0..12, got {n}")
    exact = apery_classic(n)
    b = exact.b_list[n]
    with mpmath.workdps(60):
        target = float(
            exact.a_list[n] * mpmath.pi**2 / 6
            - mpmath.mpf(b.numerator) / b.denominator
        )
    j = j_flat(n, n + 1, 0.0, method="series", tol=1e-12)
    return abs((-1) ** n * j.value - target)


# ---------------------------------------------------------------------------
# Partial-fraction identities


def partial_fraction_residual(n: int, lam: complex, eps: complex, x: complex) -> float:
    """Residual of the partial-fraction decomposition at the sample x plus
    the residual of the companion finite-sum identity."""
    lam, eps, x = complex(lam), complex(eps), complex(x)
    if abs(eps) <= 1e-12:
        raise PoleError("eps must be nonzero for the decomposition")
    try:
        lhs = (
            math.factorial(n)
            * pochhammer(x + 1, n)
            / (pochhammer(lam + eps + x, n + 1) * pochhammer(lam - eps + x, n + 1))
        )
        rhs = 0.0 + 0.0j
        s1 = 0.0 + 0.0j
        s2 = 0.0 + 0.0j
        for l in range(n + 1):
            cl = binomial(n, l)
            t_plus = pochhammer(lam + eps - n + l, n) / (
                pochhammer(1 + 2 * eps, l) * pochhammer(1 - 2 * eps, n - l)
            )
            t_minus = pochhammer(lam - eps - n + l, n) / (
                pochhammer(1 + 2 * eps, n - l) * pochhammer(1 - 2 * eps, l)
            )
            rhs += cl * (-t_plus / (lam + eps + x + l) + t_minus / (lam - eps + x + l))
            s1 += cl * t_plus
            s2 += cl * t_minus
        rhs *= (-1) ** n / (2 * eps)
    except ZeroDivisionError as exc:
        raise PoleError(f"sampled a pole of the decomposition: {exc}") from exc
    return abs(lhs - rhs) + abs(s1 - s2)
