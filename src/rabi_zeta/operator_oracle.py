"""Brute-force truth source built from truncated operator matrices.

Builds the tridiagonal component operators in the Fock and weighted-Bergman
bases and computes traces of products of their inverse powers (the trace
terms R_m and their shift derivatives) with one structured kernel: the
product h_plus^-1 h_minus^-1 is the inverse of the pentadiagonal
h_minus h_plus, factored once per truncation with LAPACK gbtrf and applied
by banded solves.  Spectral zeta values come from direct eigenvalue
summation of the two-by-two block matrices, with the two components
interleaved so that the Hamiltonian is banded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    CombinatorialBlowup,
    DomainError,
    EigenFailure,
    InvalidDimension,
    NearPole,
    SingularOperator,
)
from .specfun import SeriesValue, hurwitz_zeta

_SINGULAR_GUARD = 1e-10
_NEAR_POLE_GUARD = 1e-9
_COMPOSITION_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Model specifications


@dataclass(frozen=True)
class OnePhoton:
    """Linear (one-photon) coupling model: Fock blocks shifted by +-eps,
    off-diagonal coupling delta times identity."""

    g: float
    delta: float
    eps: float


@dataclass(frozen=True)
class TwoPhoton:
    """Quadratic (two-photon) coupling model: direct sum of the nu=1/2 and
    nu=3/2 Bergman blocks."""

    g: float
    delta: float
    eps: float


@dataclass(frozen=True)
class BergmanNu:
    """Single weighted-Bergman block of parameter nu (general-nu deformation
    of the two-photon model)."""

    nu: float
    g: float
    delta: float
    eps: float

    def __post_init__(self):
        if self.nu <= 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class Ncho:
    """Non-commutative harmonic oscillator with parameters alpha, beta
    (alpha*beta > 1) and twist eta."""

    alpha: float
    beta: float
    eta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.alpha * self.beta <= 1:
            raise DomainError(
                f"Ncho requires alpha, beta > 0 and alpha*beta > 1, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


ModelSpec = OnePhoton | TwoPhoton | BergmanNu | Ncho


# ---------------------------------------------------------------------------
# Tridiagonal component operators


@dataclass(frozen=True)
class TridiagonalOperator:
    """Truncated symmetric tridiagonal operator plus a scalar shift.

    The shift is already folded into diag; it is kept as a field so equal
    operators hash equally for factorization caching.  Off-diagonals are
    stored signed (traces and spectra are invariant under the sign flip).
    """

    basis: str  # "fock" or "bergman"
    nu: float | None
    dim: int
    diag: tuple[complex, ...]
    offdiag: tuple[float, ...]
    shift: complex


def build_component_operator(
    basis: str, g: float, shift: complex, sign: int, N: int, nu: float | None = None
) -> TridiagonalOperator:
    """Truncated matrix of the shifted component operator.

    fock: diag[k] = k + g^2 + shift, offdiag[k] = sign*g*sqrt(k+1).
    bergman(nu): diag[k] = cosh(2g)(2k+nu) + shift,
                 offdiag[k] = sign*sinh(2g)*sqrt((k+1)(k+nu)).
    """
    if N < 2:
        raise InvalidDimension(f"N must be >= 2, got {N}")
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    shift = complex(shift)
    ks = np.arange(N, dtype=float)
    if basis == "fock":
        diag = ks + g * g + shift
        off = sign * g * np.sqrt(ks[:-1] + 1.0)
        nu_out = None
    elif basis == "bergman":
        if nu is None or nu <= 0:
            raise DomainError("bergman basis requires nu > 0")
        diag = math.cosh(2 * g) * (2 * ks + nu) + shift
        off = sign * math.sinh(2 * g) * np.sqrt((ks[:-1] + 1.0) * (ks[:-1] + nu))
        nu_out = float(nu)
    else:
        raise DomainError(f"unknown basis {basis!r}")
    return TridiagonalOperator(
        basis=basis,
        nu=nu_out,
        dim=N,
        diag=tuple(complex(d) for d in diag),
        offdiag=tuple(float(o) for o in off),
        shift=shift,
    )


def dense(op: TridiagonalOperator) -> np.ndarray:
    """Dense complex matrix of the operator."""
    a = np.zeros((op.dim, op.dim), dtype=complex)
    idx = np.arange(op.dim)
    a[idx, idx] = op.diag
    a[idx[:-1], idx[:-1] + 1] = op.offdiag
    a[idx[:-1] + 1, idx[:-1]] = op.offdiag
    return a


def _dtype_of(ops) -> type:
    """Real arithmetic unless some shift is complex."""
    return complex if any(np.any(np.imag(op.diag)) for op in ops) else float


def _checked_factor(op: TridiagonalOperator, dtype):
    """(diag, offdiag, gttrf factors) of the operator in `dtype`.

    Raises SingularOperator when gtcon's estimate of the smallest singular
    value, ||A||_1 * rcond, is at or below the guard.
    """
    diag = np.array(op.diag)
    diag = diag if dtype is complex else diag.real
    off = np.array(op.offdiag, dtype=dtype)
    gttrf, gtcon = sla.get_lapack_funcs(("gttrf", "gtcon"), dtype=dtype)
    anorm = float(np.max(np.abs(diag) + np.abs(np.r_[off, 0]) + np.abs(np.r_[0, off])))
    *lu, info = gttrf(off, diag, off)
    rcond = 0.0
    if info == 0:
        rcond, info = gtcon(*lu, anorm)
    if info != 0 or not np.isfinite(rcond) or anorm * rcond <= _SINGULAR_GUARD:
        raise SingularOperator(
            f"operator numerically singular (min-singular estimate "
            f"{anorm * float(rcond):.3e} <= {_SINGULAR_GUARD})"
        )
    return diag, off, lu


def trace_inverse_product(factors) -> complex:
    """Trace of prod_j op_j^(-p_j) for an ordered list of (operator, power).

    All factors must share basis, nu, and dimension; each operator must be
    numerically invertible.  The product is applied to the identity by
    tridiagonal solves, last factor first.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("factor list must be non-empty")
    op0 = factors[0][0]
    for op, p in factors:
        if p < 1:
            raise DomainError(f"powers must be >= 1, got {p}")
        if (op.basis, op.nu, op.dim) != (op0.basis, op0.nu, op0.dim):
            raise DomainError("all factors must share basis and dimension")
    dtype = _dtype_of([op for op, _ in factors])
    (gttrs,) = sla.get_lapack_funcs(("gttrs",), dtype=dtype)
    x = np.eye(op0.dim, dtype=dtype, order="F")
    for op, p in reversed(factors):
        *_, lu = _checked_factor(op, dtype)
        for _ in range(p):
            x, _ = gttrs(*lu, x, overwrite_b=True)
    return complex(np.trace(x))


def _min_progression_distance(s: complex, step: float, offset: float) -> float:
    """min over k >= 0 of |s + offset + step*k|."""
    s = complex(s)
    t = -(s.real + offset) / step
    best = math.inf
    for k in (math.floor(t), math.ceil(t), 0):
        k = max(int(k), 0)
        best = min(best, abs(s + offset + step * k))
    return best


def _check_shift_validity(basis: str, nu: float | None, lam: complex, eps: complex) -> None:
    step, offset = (1.0, 0.0) if basis == "fock" else (2.0, float(nu))
    for s in (complex(lam) + complex(eps), complex(lam) - complex(eps)):
        if _min_progression_distance(s, step, offset) <= _NEAR_POLE_GUARD:
            raise NearPole(f"shift {s} is within {_NEAR_POLE_GUARD} of an excluded point")


def _pair_ops(basis, g, lam, eps, N, nu):
    hp = build_component_operator(basis, g, complex(lam) + complex(eps), +1, N, nu)
    hm = build_component_operator(basis, g, complex(lam) - complex(eps), -1, N, nu)
    return hp, hm


def _richardson(v_fine: complex, v_coarse: complex, p: int) -> tuple[complex, float]:
    corr = (v_fine - v_coarse) / (2**p - 1)
    return v_fine + corr, abs(corr)


def _richardson2(values: tuple[complex, complex, complex], p: int) -> tuple[complex, float]:
    """Two-level Richardson from truncations N, N/2, N/4: eliminates the
    N^-p and N^-(p+1) tail terms.  Returns (value, |last correction|)."""
    v_n, v_h, v_q = values
    w_fine, _ = _richardson(v_n, v_h, p)
    w_coarse, _ = _richardson(v_h, v_q, p)
    return _richardson(w_fine, w_coarse, p + 1)


def _tridiagonal_apply(diag, off, x):
    """S @ x for the symmetric tridiagonal S = (diag, off).  For a pair of
    components with opposite coupling signs S is diagonal."""
    y = diag[:, None] * x
    if np.any(off):
        y[:-1] += off[:, None] * x[1:]
        y[1:] += off[:, None] * x[:-1]
    return y


class _ResolventSeries:
    """Taylor coefficients W_0..W_n of M(t)^-m at one truncation, where
    M(t) = (h_minus + t)(h_plus + t) is pentadiagonal, so M(t)^-1 =
    h_plus(t)^-1 h_minus(t)^-1.

    M_0 = h_minus h_plus is factored once with gbtrf (kl = ku = 2); each
    step m solves M_0 W_j = W_j(previous m) - S W_{j-1} - W_{j-2} with
    S = h_minus + h_plus, so d^j R_m / d lam^j = j! tr W_j.
    """

    def __init__(self, basis, g, lam, eps, n, N, nu):
        hp, hm = _pair_ops(basis, g, lam, eps, N, nu)
        dtype = _dtype_of((hp, hm))
        a, b, _ = _checked_factor(hm, dtype)
        c, d, _ = _checked_factor(hp, dtype)
        # Band storage ab[kl + ku + i - j, j] = M_0[i, j]; rows 0-1 are
        # gbtrf's fill-in.
        band = np.zeros((7, N), dtype=dtype)
        band[4] = a * c
        band[4, :-1] += b * d
        band[4, 1:] += b * d
        band[3, 1:] = a[:-1] * d + b * c[1:]
        band[5, :-1] = b * c[:-1] + a[1:] * d
        band[2, 2:] = b[:-1] * d[1:]
        band[6, :-2] = b[1:] * d[:-1]
        gbtrf, self._gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=dtype)
        self._lu, self._piv, info = gbtrf(band, 2, 2)
        if info != 0:
            raise SingularOperator(f"banded factorization of h_minus h_plus failed (info={info})")
        self._s = (a + c, b + d)
        self._w = [np.eye(N, dtype=dtype, order="F")] + [0.0] * n

    def advance(self) -> list[complex]:
        """Step m -> m + 1 and return [j! tr W_j for j = 0..n]."""
        w = self._w
        for j in range(len(w)):
            rhs = w[j]
            if j >= 1:
                rhs = rhs - _tridiagonal_apply(*self._s, w[j - 1])
            if j >= 2:
                rhs -= w[j - 2]
            w[j], _ = self._gbtrs(self._lu, 2, 2, rhs, self._piv, overwrite_b=True)
        return [math.factorial(j) * complex(np.trace(wj)) for j, wj in enumerate(w)]


class TraceDerivativeSweep:
    """Incremental evaluation of D_m = d^n R_m / d lambda^n for m = 1, 2, ...

    Uses the exact resolvent Taylor expansion in the shift t: F(t) =
    h_plus(t)^-1 h_minus(t)^-1 is the inverse of a pentadiagonal matrix
    polynomial M(t), and each step m costs n + 1 banded solves against one
    LU factorization of M(0) per truncation, O((n + 1) N^2) work, with no
    dense inverse or product.  D_m = n! tr [t^n] F(t)^m, and every lower
    order comes from the same series.  Each term is Richardson-extrapolated
    from truncations N, N/2, N/4.
    """

    def __init__(self, basis, g, lam, eps, n, N=400, nu=None):
        if n < 0:
            raise DomainError(f"n must be >= 0, got {n}")
        _check_shift_validity(basis, nu, lam, eps)
        self.n = n
        self.m = 0
        self._states = [
            _ResolventSeries(basis, g, lam, eps, n, size, nu) for size in (N, N // 2, N // 4)
        ]

    def next_term(self) -> SeriesValue:
        """Advance to the next m and return D_m at the top derivative order."""
        return self.next_terms()[self.n]

    def next_terms(self) -> dict:
        """Advance to the next m and return {order: D_m at that order} for
        every order 0..n (the truncated series holds them all at once)."""
        self.m += 1
        per_truncation = [st.advance() for st in self._states]
        out = {}
        for order, values in enumerate(zip(*per_truncation)):
            value, corr = _richardson2(values, 2 * self.m + order - 1)
            out[order] = SeriesValue(value, corr + 1e-14 * abs(value), self.m, True)
        return out


def _swept_term(basis, g, lam, eps, m, n, N, nu, tol) -> SeriesValue:
    sweep = TraceDerivativeSweep(basis, g, lam, eps, n, N, nu)
    for _ in range(m):
        sv = sweep.next_term()
    return SeriesValue(sv.value, sv.abs_error, N, sv.abs_error <= tol)


def r_m_operator(
    basis: str,
    g: float,
    lam: complex,
    eps: complex,
    m: int,
    N: int = 400,
    nu: float | None = None,
    tol: float = 1e-8,
) -> SeriesValue:
    """R_m = Tr((h_plus^-1 h_minus^-1)^m) by banded solves on the truncations.

    The value is two-level Richardson-extrapolated from the N, N/2 and N/4
    truncations with the known leading truncation order 2m-1; abs_error is
    the last applied correction plus a 1e-14 relative rounding floor.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    return _swept_term(basis, g, lam, eps, m, 0, N, nu, tol)


def dn_r_m_operator(
    basis: str,
    g: float,
    lam: complex,
    eps: complex,
    m: int,
    n: int,
    N: int = 400,
    nu: float | None = None,
    tol: float = 1e-8,
) -> SeriesValue:
    """n-th shift derivative of R_m, equal to the composition sum
    (-1)^n n! sum_{|n|=n} Tr(prod h_plus^{-n_{2j-1}-1} h_minus^{-n_{2j}-1});
    evaluated by the banded sweep, Richardson order 2m+n-1."""
    if m < 1 or n < 0:
        raise DomainError(f"need m >= 1 and n >= 0, got m={m}, n={n}")
    if n == 0:
        return r_m_operator(basis, g, lam, eps, m, N, nu, tol)
    if math.comb(n + 2 * m - 1, n) > _COMPOSITION_CAP:
        raise CombinatorialBlowup(
            f"composition count C({n + 2 * m - 1},{n}) exceeds {_COMPOSITION_CAP}"
        )
    return _swept_term(basis, g, lam, eps, m, n, N, nu, tol)


# ---------------------------------------------------------------------------
# Eigenvalue oracle


def _interleave(x, y, length: int) -> np.ndarray:
    out = np.zeros(2 * len(x))
    out[0::2] = x
    out[1::2][: len(y)] = y
    return out[:length]


def _interleaved_band(a, b, c_diag, c_off=None) -> np.ndarray:
    """Upper band storage of [[A, C], [C^T, B]] in the interleaved basis
    (a_0, b_0, a_1, b_1, ...), for tridiagonal A = (diag, off), B likewise
    and C diagonal, or symmetric tridiagonal when c_off is given.  The
    bandwidth is 2, or 3 with c_off."""
    size = 2 * len(a[0])
    diagonals = [
        _interleave(a[0], b[0], size),
        _interleave(c_diag, () if c_off is None else c_off, size - 1),
        _interleave(a[1], b[1], size - 2),
    ]
    if c_off is not None:
        diagonals.append(_interleave(c_off, (), size - 3))
    u = len(diagonals) - 1
    band = np.zeros((u + 1, size))
    for k, diagonal in enumerate(diagonals):
        band[u - k, k:] = diagonal
    return band


def _component(basis, g, shift, sign, N, nu=None):
    op = build_component_operator(basis, g, shift, sign, N, nu)
    return np.real(op.diag), np.array(op.offdiag)


def _eig_sum(band: np.ndarray, n: int, lam: complex) -> complex:
    try:
        mu = sla.eig_banded(band, lower=False, eigvals_only=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigenFailure(str(exc)) from exc
    z = mu + complex(lam)
    if np.min(np.abs(z)) <= _NEAR_POLE_GUARD:
        raise NearPole("lambda is within the guard radius of a truncated eigenvalue's negative")
    return complex(np.sum(np.exp(-n * np.log(z.astype(complex)))))


def _model_blocks_and_tail(model: ModelSpec, N: int):
    """Banded matrices to diagonalize and the coupling-free tail progressions.

    Returns (list of upper band storages, list of tails) where each tail
    (scale, start_plus, start_minus) contributes scale^-n times the Hurwitz
    zeta pair zeta(n, (start + lam)/scale).
    """
    if isinstance(model, (OnePhoton, BergmanNu)):
        basis, nu = ("fock", None) if isinstance(model, OnePhoton) else ("bergman", model.nu)
        a = _component(basis, model.g, +model.eps, +1, N, nu)
        b = _component(basis, model.g, -model.eps, -1, N, nu)
        band = _interleaved_band(a, b, np.full(N, float(model.delta)))
        if nu is None:
            return [band], [(1.0, N + model.eps, N - model.eps)]
        return [band], [(2.0, 2 * N + nu + model.eps, 2 * N + nu - model.eps)]
    if isinstance(model, TwoPhoton):
        mats = []
        tails = []
        for nu in (0.5, 1.5):
            sub = BergmanNu(nu, model.g, model.delta, model.eps)
            m, t = _model_blocks_and_tail(sub, N)
            mats += m
            tails += t
        return mats, tails
    if isinstance(model, Ncho):
        alpha, beta, eta = model.alpha, model.beta, model.eta
        c = (alpha + beta) / (2 * math.sqrt(alpha * beta * (alpha * beta - 1)))
        ks = np.arange(N, dtype=float)
        mats = []
        tails = []
        for nu in (0.5, 1.5):
            scaling = 2 * ks + nu
            zeros = np.zeros(N - 1)
            off = c * np.sqrt((ks[:-1] + 1.0) * (ks[:-1] + nu))
            c_diag = np.full(N, c * 2 * eta * math.sqrt(alpha * beta - 1))
            a, b = (c * alpha * scaling, zeros), (c * beta * scaling, zeros)
            mats.append(_interleaved_band(a, b, c_diag, off))
            tails.append((2.0, 2 * N + nu + 2 * eta, 2 * N + nu - 2 * eta))
        return mats, tails
    raise DomainError(f"unknown model {model!r}")


def _zeta_eigen_once(model: ModelSpec, n: int, lam: complex, N: int) -> complex:
    mats, tails = _model_blocks_and_tail(model, N)
    value = 0.0 + 0.0j
    for h in mats:
        value += _eig_sum(h, n, lam)
    for scale, start_p, start_m in tails:
        pref = scale ** (-float(n))
        value += pref * hurwitz_zeta(n, (start_p + complex(lam)) / scale).value
        value += pref * hurwitz_zeta(n, (start_m + complex(lam)) / scale).value
    return value


def zeta_eigen_oracle(model: ModelSpec, n: int, lam: complex, N: int = 400) -> SeriesValue:
    """zeta(H; n, lam) by direct eigenvalue summation of the truncated block
    matrix plus a coupling-free asymptotic tail correction.

    After the coupling-free tail model is subtracted the residual decays
    like 1/N, so the value is two-level Richardson-extrapolated from the N,
    N/2, N/4 truncations; abs_error is three times the last applied
    correction (a safety margin over the next-order residual).
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    values = tuple(_zeta_eigen_once(model, n, lam, size) for size in (N, N // 2, N // 4))
    value, corr = _richardson2(values, 1)
    # The 1e-7 term is a calibration floor: the extrapolation model is not
    # trusted below it at desk-scale truncations, so the reported bound stays
    # a genuine upper bound on the oracle error.
    abs_error = 3 * corr + 1e-7
    return SeriesValue(value, abs_error, 2 * N, True)
