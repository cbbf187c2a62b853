"""Beukers-type integrals, their closed series, and Apery-like coefficients.

J-integrals of the flat family ((1-u)^n (1-v)^n / (1-uv)^(n+1) moments) and
the delta family ((u - delta v)^n / (1 - delta uv)^(n+1) moments with
half-integer exponents), the A/B coefficient families that decompose them,
the classical Apery numbers in exact arithmetic, and the zeta(2) identity
residual.

Each coefficient is returned from one well-conditioned displayed form (flat
A and B: the residue m-sum, exact at eps = 0; delta A: the parity product;
delta B: the parity l-sum); the other displayed form only cross-checks it.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
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
    progression_distance,
    require_finite,
    require_integer,
    sum_inverse_pair,
)

_HALF_POLE_GUARD = 1e-9
#: Largest n that beukers_residual accepts.
BEUKERS_N_MAX = 12
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


def _require_finite_point(lam, eps) -> None:
    """DomainError unless lam and eps are finite; exact inputs always are."""
    if not _is_exact(lam, eps):
        require_finite("lambda", lam)
        require_finite("eps", eps)


# ---------------------------------------------------------------------------
# Flat family


def j_flat(
    n: int,
    lam: complex,
    eps: complex,
    method: str = "series",
    tol: float = 1e-10,
) -> SeriesValue:
    """J_n of the flat family.

    series: sum_k n! (k+1)_n / ((lam+eps+k)_{n+1} (lam-eps+k)_{n+1});
    quadrature: the defining double integral on the level-7 tanh-sinh rule
    (requires Re lam - |Re eps| > 0).
    """
    require_integer("n", n, 0)
    _require_finite_point(lam, eps)
    if method == "quadrature":
        lamc, epsc = complex(lam), complex(eps)
        if lamc.real - abs(epsc.real) <= 0:
            raise DomainError("quadrature route requires Re(lam) - |Re(eps)| > 0")

        def f(pts):
            u, v = pts[:, 0], pts[:, 1]
            core = ((1 - u) * (1 - v)) ** n / (1 - u * v) ** (n + 1)
            return core * np.exp((lamc + epsc - 1) * np.log(u) + (lamc - epsc - 1) * np.log(v))

        return quadrature.integrate_tensor(f, 2, 7)
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
            * pochhammer(ks + 1, n)
            / (pochhammer(lamc + epsc + ks, n + 1) * pochhammer(lamc - epsc + ks, n + 1))
        )
        total += complex(np.sum(terms))
        k0 += _BLOCK
        bound = float(abs(terms[-1])) * (k0 + n) / (n + 1)
        if bound < tol:
            return SeriesValue(total, bound + 1e-15 * abs(total), k0, True)
    raise NoConvergence(f"flat J series did not reach tol={tol} in {_MAX_SERIES_TERMS} terms")


def _pole_distance(eps, poles) -> float:
    """Distance from eps to the nearest of `poles` (inf for none);
    HalfIntegerPole within _HALF_POLE_GUARD of one."""
    e = complex(eps)
    dist, pole = min(((abs(e - p), p) for p in poles), default=(math.inf, None))
    if dist <= _HALF_POLE_GUARD:
        raise HalfIntegerPole(f"eps={eps} is within {_HALF_POLE_GUARD} of the pole {pole}")
    return dist


def _poch_without(x, n: int, j: int):
    """(x)_n / (x + j) for 0 <= j < n: the product of the other n - 1
    factors, so a zero factor x + j is a removable 0/0, not a division."""
    out = 1
    for i in range(n):
        if i != j:
            out = out * (x + i)
    return out


@contextmanager
def _float_range(family: str, n: int):
    """NoConvergence in place of an OverflowError in float mode (exact mode
    converts nothing to float): a factorial or binomial beyond the float
    range, or a form that left it."""
    try:
        yield
    except OverflowError as exc:
        raise NoConvergence(
            f"{family} coefficients at n={n} overflow in float; pass exact Fractions"
        ) from exc


def _check_dual(what: str, value, terms, dist: float, exact: bool, divisor=1) -> None:
    """AssertionError unless the check form sum(terms) / divisor equals the
    value in exact mode, or in float mode lies within 1e-10 max(|value|, 1)
    of it plus its rounding bound 1e-14 sum |terms| / |divisor| / min(1, dist),
    dist the distance from eps to the nearest pole.  OverflowError when a
    float form is not finite."""
    terms = list(terms)
    check = sum(terms) / divisor
    if exact:
        agree = value == check
    else:
        size = sum(abs(t) for t in terms) / abs(divisor)
        if not all(cmath.isfinite(x) for x in (value, check, size)):
            raise OverflowError(f"{what} forms left the float range: {value} vs {check}")
        agree = abs(value - check) <= 1e-10 * max(abs(value), 1.0) + 1e-14 * size / min(1.0, dist)
    if not agree:
        raise AssertionError(f"{what} dual forms disagree: {value} vs {check}")


def _half(m: int, exact: bool):
    return Fraction(m, 2) if exact else m / 2.0


def _flat_residue(n: int, lam, eps, exact: bool):
    """Residue (m-sum) form of the flat A and B, a sum over the poles
    eps = +-m/2 that is regular at eps = 0 and polynomial in lam, as
    (A, |A terms|, B, |B terms|)."""
    a = b = 0
    a_size = b_size = 0.0
    for m in range(1, n + 1):
        h = _half(m, exact)
        inner_a, inner_b = [], []
        for l in range(m, n + 1):
            x, c = lam - h - n + l, binomial(n, l) * binomial(n, l - m)
            inner_a.append(m * c * pochhammer(x, n))
            # (x)_n / (lam - m/2 + k)
            inner_b.extend(c * _poch_without(x, n, n - l + k) for k in range(m))
        w = (-1) ** m * (1 / (eps - h) - 1 / (eps + h)) / (2 * math.factorial(n))
        a, b = a + w * sum(inner_a), b - w * sum(inner_b)
        if not exact:  # exact sums need no rounding bound
            a_size += abs(w) * sum(abs(t) for t in inner_a)
            b_size += abs(w) * sum(abs(t) for t in inner_b)
    return a, a_size, b, b_size


def apery_ab_flat(n: int, lam, eps) -> AperyCoefficients:
    """Flat-family coefficients (A, B); exact Fractions for rational lam, eps.

    The values are the residue (m-sum) form, polynomial in lam and regular at
    eps = 0: at lam = n + 1, eps = 0 they are exactly A_n and
    A_n sum_{k<=n} 1/k^2 - B_n.  The l-sum form checks A, and B whenever
    eps != 0 (it divides by 2 eps).  NoConvergence when the residue terms
    cancel or overflow in floating point; eps must stay off m/2,
    1 <= |m| <= n.
    """
    require_integer("n", n, 0)
    _require_finite_point(lam, eps)
    dist = _pole_distance(eps, [s * m / 2 for m in range(1, n + 1) for s in (1, -1)])
    if n == 0:
        return AperyCoefficients(1, 0, 0, "flat")
    exact = _is_exact(lam, eps)
    if not exact:
        lam, eps = complex(lam), complex(eps)
    with _float_range("flat", n):
        a, a_size, b, b_size = _flat_residue(n, lam, eps, exact)
        for what, value, size in (("A", a, a_size), ("B", b, b_size)):
            # rounding of the cancelling terms, beyond what the nearest pole amplifies
            if not exact and 1e-16 * size * min(1.0, dist) > 1e-10 * max(abs(value), 1.0):
                raise NoConvergence(f"flat {what} at n={n} cancels in float; pass exact Fractions")
        two_eps = 2 * eps
        # (1 + 2 eps)_l (1 - 2 eps)_{n-l}; the -eps half of the l-sum reads den[n - l]
        den = [pochhammer(1 + two_eps, l) * pochhammer(1 - two_eps, n - l) for l in range(n + 1)]
        a_check = (binomial(n, l) * pochhammer(lam + eps - n + l, n) / den[l] for l in range(n + 1))
        _check_dual("flat A", a, a_check, dist, exact)
        if eps != 0:
            # (lam +- eps - n + l)_n / (lam +- eps + k)
            terms = (
                s * binomial(n, l) * _poch_without(lam + s * eps - n + l, n, n - l + k)
                / den[l if s == 1 else n - l]
                for l in range(n + 1)
                for k in range(l)
                for s in (1, -1)
            )
            _check_dual("flat B", b, terms, dist, exact, two_eps)
        return AperyCoefficients(a, b, n, "flat")


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
    require_integer("n", n, 0)
    if delta not in (1, -1):
        raise DomainError(f"delta must be +1 or -1, got {delta}")
    _require_finite_point(lam, eps)
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
    # The denominators a + n + k vanish where a + n = lam + (n+1)/2 is a
    # nonpositive integer, although J is finite there: at a distance d from
    # one the terms grow like 1/d and cancel.  Each term's own rounding is
    # carried by 2^-52 sum_k |t_k|, which already holds those 1/d-sized
    # terms.  The rounding of a moves the pole that their cancellation
    # relies on, which leaves a relative 2^-52 |a|/d of the value: the bar
    # carries it once, as 2^-52 (1 + |a|/d) |J|.
    a = lam - (n - 1) / 2
    d = progression_distance(a + n)
    if d <= _HALF_POLE_GUARD:
        raise PoleError(
            f"lambda={lam} puts lambda + (n+1)/2 within {_HALF_POLE_GUARD} of a nonpositive "
            f"integer, where the delta J series divides by zero; use method='recurrence'"
        )
    sign_n = (-delta) ** n
    ratio = 1.0 / (a + n)
    total = 0.0 + 0.0j
    mass = 0.0
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
        mass += last
        bound = last if delta == -1 else last * (k + 1 + n) / (n + 1)
        if k > n and bound < tol:
            rounding = 2.0**-52 * (mass + (1 + abs(a) / d) * abs(total))
            return SeriesValue(total, bound + 1e-15 * abs(total) + rounding, k + 1, True)
        ratio = ratio * (a + k) / (a + k + n + 1)
        sign *= delta
    raise NoConvergence(f"delta J series did not reach tol={tol} in {_MAX_SERIES_TERMS} terms")


def _j_delta_recurrence(n: int, delta: int, lam: complex, eps: complex) -> SeriesValue:
    _pole_distance(eps, [s * j / 2 for j in range(n, 0, -2) for s in (1, -1)])
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


def _delta_a_parity(n: int, lam, eps, exact: bool):
    """Parity product form of the delta-family A_n."""
    half, q = _half(1, exact), n // 2
    if n % 2 == 0:
        num = pochhammer(half + lam, q) * pochhammer(half - lam, q)
        return num / (eps * pochhammer(1 + eps, q) * pochhammer(1 - eps, q))
    num = -lam * pochhammer(1 + lam, q) * pochhammer(1 - lam, q)
    return num / (pochhammer(half + eps, q + 1) * pochhammer(half - eps, q + 1))


def _delta_b_lsum(n: int, delta: int, lam, eps, exact: bool):
    """Parity l-sum form of the delta-family B_n, n >= 1."""
    half, nh = _half(1, exact), _half(n, exact)
    total = 0 * half
    for l in range((n + 1) // 2):
        num = pochhammer(lam - nh + half, l) * pochhammer(-lam - nh + half, l)
        den = pochhammer(eps - nh, l + 1) * pochhammer(-eps - nh, l + 1)
        if delta == -1:
            total += num / (2 * den)
        elif n % 2 == 0:
            total += lam * num / ((n - 2 * l - 1) * den)
        else:
            total += eps * num / ((n - 2 * l) * den)
    return total


def apery_ab_delta(n: int, delta: int, lam, eps) -> AperyCoefficients:
    """Delta-family coefficients (A, B).

    A is the parity product form and B the parity l-sum form; both are
    polynomial in lam.  The Pochhammer ratio (lam - (n-1)/2)_n / (eps - n/2)_{n+1}
    checks A and the m-sum form checks B.  Exact Fraction arithmetic when lam
    and eps are rational; NoConvergence when a float form overflows.  eps
    must stay off -n/2, -n/2 + 1, ..., n/2.
    """
    require_integer("n", n, 0)
    if delta not in (1, -1):
        raise DomainError(f"delta must be +1 or -1, got {delta}")
    _require_finite_point(lam, eps)
    dist = _pole_distance(eps, [-n / 2 + j for j in range(n + 1)])
    exact = _is_exact(lam, eps)
    if not exact:
        lam, eps = complex(lam), complex(eps)
    family = f"delta({'+' if delta == 1 else '-'})"
    with _float_range(family, n):
        nh, nm1h = _half(n, exact), _half(n - 1, exact)
        a = _delta_a_parity(n, lam, eps, exact)
        a_check = pochhammer(lam - nm1h, n) / pochhammer(eps - nh, n + 1)
        _check_dual("delta A", a, [a_check], dist, exact)
        if n == 0:
            return AperyCoefficients(a, Fraction(0) if exact else 0.0, 0, family)
        b = _delta_b_lsum(n, delta, lam, eps, exact)
        terms = []
        for m in range((n + 1) // 2):
            # (lam - (n-1)/2)_n / (lam - (n-1)/2 + k + m), summed over k
            inner = sum(delta**k * _poch_without(lam - nm1h, n, k + m) for k in range(n - 2 * m))
            # At n = 1 inner is the empty product 1; the half keeps w exact.
            w = (-1) ** (m + 1) * _half(1, exact) * inner
            w = w / (math.factorial(m) * math.factorial(n - m))
            terms += [w / (eps - nh + m), -w * (-delta) ** n / (eps + nh - m)]
        _check_dual("delta B", b, terms, dist, exact)
        return AperyCoefficients(a, b, n, family)


def reconstruct_j_delta(coeffs: AperyCoefficients, delta: int, lam, eps) -> complex:
    """(A/2) * k-sum + B: rebuild J_n from its coefficient pair."""
    ks = k_sum_delta(delta, coeffs.n, complex(lam), complex(eps))
    return complex(coeffs.a) / 2 * ks + complex(coeffs.b)


# ---------------------------------------------------------------------------
# Classical Apery numbers and the zeta(2) identity


def apery_classic(n_max: int) -> ExactApery:
    """Exact classical A_n (integers) and B_n (rationals) for n <= n_max,
    verified against the three-term recurrence exactly."""
    require_integer("n_max", n_max, 0, 200)
    # B_n = sum_k w_k (outer + sum_{m<=k} t_m) = outer A_n + sum_m t_m W_m,
    # with w_k = C(n,k)^2 C(n+k,k), W_m = sum_{k>=m} w_k and
    # t_m = (-1)^(n+m-1) / (m^2 C(n,m) C(n+m,m)): one integer numerator over
    # the lcm of the t_m denominators, so one Fraction per n.
    a_list = []
    b_list = []
    outer = Fraction(0)  # 2 sum_{m<=n} (-1)^(m-1) / m^2, kept running over n
    for n in range(n_max + 1):
        pairs = [(binomial(n, k), binomial(n + k, k)) for k in range(n + 1)]
        weights = [c * c * cc for c, cc in pairs]
        denominators = [k * k * c * cc for k, (c, cc) in enumerate(pairs)]
        common = math.lcm(*denominators[1:])
        numerator = 0
        suffix = 0  # W_k
        for k in range(n, 0, -1):
            suffix += weights[k]
            numerator += (-1) ** (n + k - 1) * suffix * (common // denominators[k])
        a = sum(weights)
        a_list.append(a)
        b_list.append(outer * a + Fraction(numerator, common))
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
    require_integer("n", n, 0, BEUKERS_N_MAX)
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
