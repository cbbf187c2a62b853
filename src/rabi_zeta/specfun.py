"""Scalar special functions used throughout the library.

Hurwitz zeta values zeta(n, a) = sum_k (k+a)^-n for integer n >= 2, the
alternating analogue, Pochhammer symbols, binomial coefficients, truncated
generalized hypergeometric series, the distance to a progression of poles
(progression_distance), and a private complex digamma helper used by the
closed forms for slowly converging k^-2 tail sums.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NoConvergence, PoleError

# Bernoulli numbers B_2 .. B_20 as exact rationals (odd ones vanish).
BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}

# Euler-Maclaurin coefficients B_2j / (2j)! of hurwitz_zeta's tail, j = 1..10,
# and B_2j / (2j) of _digamma's asymptotic series, j = 1..7.
_EM_COEFFS = tuple(float(BERNOULLI[2 * j] / math.factorial(2 * j)) for j in range(1, 11))
_DIGAMMA_COEFFS = tuple(float(BERNOULLI[2 * j]) / (2 * j) for j in range(1, 8))

_POLE_GUARD = 1e-12
# The abs_error at which a Hurwitz or alternating zeta sum reads converged,
# and the relative size of hypergeometric_pfq's last two terms.
_SERIES_TOL = 1e-12
_HYPERGEOM_TERM_CAP = 100_000
_PAIR_TERM_CAP = 20


@dataclass(frozen=True)
class SeriesValue:
    """A computed complex value with an absolute error estimate.

    converged means the estimate met the tolerance of the routine that made it.
    """

    value: complex
    abs_error: float
    terms_used: int
    converged: bool


def require_finite(name: str, value) -> None:
    """Refuses a parameter that is not finite: the one check of models, zeta
    requests, the trace-term routes and the Apery and J entry points."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def require_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """Refuses a count, order, level or dimension that is not an int from low
    to high: the one check of every such input of the library."""
    if not (isinstance(value, numbers.Integral) and low <= value <= high):
        span = f">= {low}" if high == math.inf else f"from {low} to {high}"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")


def _check_not_nonpositive_integer(a: complex, guard: float = _POLE_GUARD) -> None:
    a = complex(a)
    m = round(a.real)
    if m <= 0 and abs(a - m) <= guard:
        raise PoleError(f"parameter {a} is within {guard} of the nonpositive integer {m}")


def cpow_int(base: complex, n: int) -> complex:
    """base^n via exp(n*log(base)) with the principal log (deterministic)."""
    return cmath.exp(n * cmath.log(base))


def hurwitz_zeta(n: int, a: complex) -> SeriesValue:
    """sum_{k>=0} (k+a)^-n by direct summation plus an Euler-Maclaurin tail.

    Requires n >= 2 and a away from the nonpositive integers; converged
    means abs_error <= _SERIES_TOL.
    """
    if n < 2:
        raise PoleError(f"n must be >= 2, got {n}")
    a = complex(a)
    _check_not_nonpositive_integer(a)
    # Enough direct terms that the Euler-Maclaurin point K + a has Re >= 30.
    K = max(30, math.ceil(10 + abs(a.imag)), math.ceil(30 - a.real))
    partial = 0.0 + 0.0j
    for k in range(K):
        partial += cpow_int(k + a, -n)
    x = K + a
    # Euler-Maclaurin for sum_{k>=K} f(k), f(x) = (x+a)^-n:
    #   integral + f(K)/2 + sum_j B_2j/(2j)! (n)_{2j-1} (K+a)^{-n-2j+1}
    tail = cpow_int(x, -(n - 1)) / (n - 1) + cpow_int(x, -n) / 2
    last = 0.0
    for j, em in enumerate(_EM_COEFFS, 1):
        term = em * pochhammer(n, 2 * j - 1) * cpow_int(x, -(n + 2 * j - 1))
        tail += term
        last = abs(term)
    value = partial + tail
    # Rounding floor.  For Re a < 0 the terms near k = -Re a outweigh the
    # value, and each exp(-w), w = n log(k + a), carries about 1 + |w| units.
    scale = abs(value)
    if a.real < 0:
        logs = [n * cmath.log(k + a) for k in range(K)]
        scale = 5 * sum(math.exp(-w.real) * (1 + abs(w)) for w in logs)
    abs_error = last + 1e-16 * scale
    return SeriesValue(value, abs_error, K, abs_error <= _SERIES_TOL)


def alternating_zeta_sum(n: int, a: complex) -> SeriesValue:
    """sum_{k>=0} (-1)^k (k+a)^-n = 2^-n (zeta(n, a/2) - zeta(n, (a+1)/2));
    converged means abs_error <= _SERIES_TOL."""
    a = complex(a)
    _check_not_nonpositive_integer(a)
    z1 = hurwitz_zeta(n, a / 2)
    z2 = hurwitz_zeta(n, (a + 1) / 2)
    scale = 2.0 ** (-n)
    value = scale * (z1.value - z2.value)
    abs_error = scale * (z1.abs_error + z2.abs_error)
    return SeriesValue(value, abs_error, z1.terms_used + z2.terms_used, abs_error <= _SERIES_TOL)


def pochhammer(x, n: int):
    """Ascending factorial (x)_n = x(x+1)...(x+n-1); (x)_0 = 1.

    Exact for int/Fraction inputs, complex otherwise.
    """
    if n < 0:
        raise PoleError(f"pochhammer order must be >= 0, got {n}")
    result = 1
    for i in range(n):
        result = result * (x + i)
    return result


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k)."""
    return math.comb(n, k)


def hypergeometric_pfq(upper, lower, x: complex) -> SeriesValue:
    """Truncated pFq(upper; lower; x) = sum_k prod(upper)_k/prod(lower)_k x^k/k!,
    summed until two terms in a row fall below _SERIES_TOL of the sum.

    Requires |x| < 1 and no lower parameter at a nonpositive integer.
    """
    x = complex(x)
    if abs(x) >= 1:
        raise PoleError(f"|x| must be < 1, got {abs(x)}")
    for c in lower:
        _check_not_nonpositive_integer(complex(c))
    term = 1.0 + 0.0j
    total = term
    ratio_cap = abs(x)
    small_streak = 0
    for k in range(_HYPERGEOM_TERM_CAP):
        factor = x / (k + 1)
        for u in upper:
            factor *= complex(u) + k
        for c in lower:
            factor /= complex(c) + k
        term = term * factor
        total += term
        if abs(term) < _SERIES_TOL * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                # Geometric bound on the discarded tail (ratio -> |x|).
                bound = abs(term) * ratio_cap / max(1 - ratio_cap, 1e-16)
                return SeriesValue(total, bound + 1e-16 * abs(total), k + 2, True)
        else:
            small_streak = 0
    raise NoConvergence(f"hypergeometric series did not converge in {_HYPERGEOM_TERM_CAP} terms")


def _digamma(z: complex) -> complex:
    """Complex digamma via upward recurrence and the asymptotic series."""
    z = complex(z)
    acc = 0.0 + 0.0j
    while z.real < 32:
        if abs(z) < 1e-14:
            raise PoleError(f"digamma pole at {z}")
        acc -= 1 / z
        z += 1
    inv2 = 1 / (z * z)
    result = cmath.log(z) - 1 / (2 * z)
    # - sum_j B_2j / (2j z^{2j})
    power = inv2
    for coeff in _DIGAMMA_COEFFS:
        result -= coeff * power
        power *= inv2
    return result + acc


def progression_distance(s: complex, step: float = 1.0, offset: float = 0.0) -> float:
    """min over k >= 0 of |s + offset + step*k|: the distance from s to the
    negated progression -(offset + step*k); by default to the nonpositive
    integers."""
    s = complex(s)
    t = -(s.real + offset) / step
    best = math.inf
    for k in (math.floor(t), math.ceil(t), 0):
        k = max(int(k), 0)
        best = min(best, abs(s + offset + step * k))
    return best


def sum_inverse_pair(a: complex, b: complex, alternating: bool = False) -> complex:
    """sum_{k>=0} s^k / ((a+k)(b+k)) with s = -1 if alternating else +1.

    Uses (psi(a)-psi(b))/(a-b) (and the half-argument psi form for the
    alternating case).  When a and b are close against the distance of
    c = (a+b)/2 to the poles, that difference quotient cancels, and the exact
    expansion 1/((c+k)^2 - h^2) = sum_i h^(2i) / (c+k)^(2i+2), h = (a-b)/2,
    gives sum_i h^(2i) zeta(2i+2, c) (alternating: the alternating sums).
    """
    a = complex(a)
    b = complex(b)
    _check_not_nonpositive_integer(a)
    _check_not_nonpositive_integer(b)
    c = (a + b) / 2
    h2 = ((a - b) / 2) ** 2
    if abs(a - b) <= 0.2 * progression_distance(c):
        # Term i is at most (|h| / dist)^(2i) <= 0.01^i times sum_k |c+k|^-2,
        # so the cap leaves no tail worth keeping.
        zeta = alternating_zeta_sum if alternating else hurwitz_zeta
        total = 0.0 + 0.0j
        power = 1.0 + 0.0j
        for i in range(_PAIR_TERM_CAP):
            term = power * zeta(2 * i + 2, c).value
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
            power *= h2
        return total
    if alternating:
        # sum (-1)^k/(c+k) = (psi((c+1)/2) - psi(c/2)) / 2
        fa = (_digamma((a + 1) / 2) - _digamma(a / 2)) / 2
        fb = (_digamma((b + 1) / 2) - _digamma(b / 2)) / 2
        return (fb - fa) / (a - b)
    return (_digamma(a) - _digamma(b)) / (a - b)
