"""Brute-force truth source built from truncated operator matrices.

Each Component (Fock or weighted-Bergman basis) owns the entries of its
tridiagonal operator.  Every operator-route trace comes from one structured
kernel, _ProbedBand, and one driver, its traces(m): the m-th power of a
banded inverse, factored once per truncation with LAPACK gbtrf and applied
by banded solves, has its trace read from the series of its ceil(m/2)-th
and floor(m/2)-th powers, so one solve step serves two powers.  For the
trace terms R_m and their shift derivatives that inverse is the product
F = h_plus^-1 h_minus^-1, the inverse of the pentadiagonal h_minus h_plus.
The solves act on P = min(period, N) probe columns: the entries of F^k
decay away from the diagonal, so its band is read from F^k E, E summing the
columns of each class mod P, and a check on the rows halfway between probe
columns widens the period (32, 40, 48, 56, 64, 80, ..., up to P = N, where
E = I) wherever that decay is too slow.  A request learns its period once:
every band starts at the period the bands before it learned, from the
coarsest ladder level up, across components and budget tops, and the
period travels through arguments and return values.
A real pencil (real lam and eps) packs two probe columns into each complex
column of its state, one per lane, so that one complex solve of its real LU
steps both and the per-row cost of the solves is paid once for the pair.
Each term is Richardson-extrapolated from three successive halvings of N,
first N, N/2, N/4, and its error bar comes from the fourth, N/8, where it is
live; once the next-coarser three already meet the rounding floor, the
sweep drops its finest truncation for the later terms.  family_rows serves
every such term at one truncation and keeps one component's sweep alive at
a time; its rows carry their calibration (converged from N >= 44 on).  The
calibration facts live only here: the ladder floor, the zeta budget's start
(truncation_budget), the bar floor's warning (bar_floor_warning), and the
eigen oracle's residual order (Component.eigen_lag), budget start and floor.
Spectral zeta values are the traces tr((H_N + lam)^-n) of the two-by-two
block Hamiltonians, extrapolated on the same ladder; no eigenvalue is
computed.  Where a block's coupling is a scalar (the one-photon, two-photon
and Bergman models) it commutes with the diagonal blocks, so det(H_N + lam
+ t) = det M(t) for the sweep's N-row pencil M(t) = h_minus h_plus - X^2 +
t S + t^2 (Silvester's block determinant), and tr((H_N + lam)^-n) is read
off the diagonal of one solve step of M(t)^-1 on n Taylor orders.  The
oscillator pair's coupling block is tridiagonal and does not commute, so
its blocks are interleaved so that H_N is banded: one banded LU per block
and traces(n) of its inverse, whose probed states are their own transposed
bands (H_N + lam is complex-symmetric).  Either way the near-pole guard
reads gbcon's estimate on the interleaved H_N + lam.  The module keeps no
state between calls.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial

import numpy as np
import scipy.linalg as sla

from .errors import (
    DomainError,
    InvalidDimension,
    NearPole,
    SingularOperator,
)
from .specfun import (
    SeriesValue,
    hurwitz_zeta,
    progression_distance,
    require_finite,
    require_integer,
)

_SINGULAR_GUARD = 1e-10
# Relative rounding floor of an extrapolated trace: added to every sweep
# row's abs_error, the test that lets a sweep drop its finest truncation, and
# the aliased mass a sweep state's probe columns may hold.
_ROUNDING_FLOOR = 1e-14
# The coarsest truncation a sweep adds below N/4.
_LADDER_FLOOR = 24
# The probe period a request's first band starts on: a band steps W(k) on
# min(period, N) probe columns and widens its period (_wider) while the
# halfway-row check finds aliased mass above the rounding floor
# (_ProbedBand).  Every later band of the request starts at the period the
# bands before it learned.
_PROBE_START = 32
# The smallest top truncation at which the two-step bar of every sweep row of
# the calibration grid (tests/test_operator_oracle.py) holds.  The zeta
# budget starts there; a sweep below it takes the first step's correction as
# its bar, which holds on the grid from _MIN_BAR_TOP on.  The rows of a
# coarser sweep have no calibrated bar and read not converged.
_MIN_TOP = 106
_MIN_BAR_TOP = 44
# A bar from the third Richardson step is this multiple of its correction:
# on the calibration grid of the tests the true error of a row reaches 1.8
# times that correction.
_BAR_FACTOR = 2.0
# The smallest truncation cap a request takes, and the smallest fixed top of
# the eigen oracle: its ladder N, N/2, N/4 stays at least 2, the smallest
# operator a component builds.
MIN_TRUNCATION = 8
# A shift or lambda this close to the excluded set, or (by gbcon's estimate of
# the smallest singular value) to the negative of a truncated eigenvalue,
# raises NearPole in every route.
NEAR_POLE_GUARD = 1e-9
# The eigen oracle's budget starts at the coarsest top whose ladder has five
# live levels: on the eigen calibration grid of the tests every bar from
# there on holds, and a four-level ladder's does not (BergmanNu, n = 2, at
# top 200: an error 9 times its bar).
_EIGEN_MIN_TOP = 16 * _LADDER_FLOOR
# Added to every eigen abs_error, and reported apart from the truncation bar:
# the cross-checks compare |series - eigen| with the eigen abs_error alone,
# so it also covers the series route's error.  No truncation reduces it, so
# it does not drive the eigen budget.
EIGEN_FLOOR = 1e-7


# ---------------------------------------------------------------------------
# Model specifications


class _FiniteParams:
    """Refuses a model whose parameters are not all finite."""

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))


def _check_nu(nu) -> None:
    if not 0 < nu < math.inf:
        raise DomainError(f"nu must be finite and > 0, got {nu}")


@dataclass(frozen=True)
class OnePhoton(_FiniteParams):
    """Linear (one-photon) coupling model: Fock blocks shifted by +-eps,
    off-diagonal coupling delta times identity."""

    g: float
    delta: float
    eps: float


@dataclass(frozen=True)
class TwoPhoton(_FiniteParams):
    """Quadratic (two-photon) coupling model: direct sum of the nu=1/2 and
    nu=3/2 Bergman blocks."""

    g: float
    delta: float
    eps: float


@dataclass(frozen=True)
class BergmanNu(_FiniteParams):
    """Single weighted-Bergman block of parameter nu (general-nu deformation
    of the two-photon model)."""

    nu: float
    g: float
    delta: float
    eps: float

    def __post_init__(self):
        super().__post_init__()
        _check_nu(self.nu)


@dataclass(frozen=True)
class Ncho(_FiniteParams):
    """Non-commutative harmonic oscillator with parameters alpha, beta
    (alpha*beta > 1) and twist eta."""

    alpha: float
    beta: float
    eta: float

    def __post_init__(self):
        super().__post_init__()
        if self.alpha <= 0 or self.beta <= 0 or self.alpha * self.beta <= 1:
            raise DomainError(
                f"Ncho requires alpha, beta > 0 and alpha*beta > 1, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


ModelSpec = OnePhoton | TwoPhoton | BergmanNu | Ncho


def coupling_hyperbolics(g: float) -> tuple[float, float]:
    """(cosh 2g, sinh 2g), from which every Bergman matrix element and Psi
    kernel is formed, or DomainError where cosh 2g leaves the float range
    (|g| > 355.2)."""
    try:
        return math.cosh(2 * g), math.sinh(2 * g)
    except OverflowError:
        raise DomainError(f"g={g} is too large: cosh(2g) overflows a float beyond |g| = 355.2") from None


@dataclass(frozen=True)
class Component:
    """One shifted component operator: its basis ("fock" or "bergman"), its
    Bergman parameter nu, and the sign its traces carry in a family's sum.
    It is the one place that knows the operator's matrix elements (entries).

    Without coupling its spectrum is the progression offset + step*k.
    """

    basis: str
    nu: float | None = None
    sign: float = 1.0

    def __post_init__(self):
        if self.basis not in ("fock", "bergman"):
            raise DomainError(f"unknown basis {self.basis!r}")
        if self.basis == "bergman" and (self.nu is None or not 0 < self.nu < math.inf):
            raise DomainError("bergman basis requires finite nu > 0")

    @property
    def step(self) -> float:
        return 1.0 if self.basis == "fock" else 2.0

    @property
    def eigen_lag(self) -> int:
        """How far the eigen oracle's residual order falls below n: after the
        free tail, the truncated spectral sum of power n errs like N^-n on
        Fock components and N^-(n-1) on Bergman ones, whose off-diagonals
        grow as fast as their diagonal (measured at n = 2: each halving of N
        multiplies the error by 4.00 on Fock and by 2.00 on Bergman)."""
        return 0 if self.basis == "fock" else 1

    @property
    def offset(self) -> float:
        return 0.0 if self.basis == "fock" else float(self.nu)

    def entries(self, g: float, shift: complex, sign: int, N: int):
        """(diag, offdiag) arrays of the operator at coupling g, truncated to
        N, with `shift` added to the diagonal and off-diagonals of sign `sign`.

        fock: diag[k] = k + g^2 + shift, offdiag[k] = sign*g*sqrt(k+1).
        bergman(nu): diag[k] = cosh(2g)(2k+nu) + shift,
                     offdiag[k] = sign*sinh(2g)*sqrt((k+1)(k+nu)).
        """
        if N < 2:
            raise InvalidDimension(f"N must be >= 2, got {N}")
        require_integer("N", N, 2)
        if sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {sign}")
        ks = np.arange(N, dtype=float)
        if self.basis == "fock":
            return ks + g * g + shift, sign * g * np.sqrt(ks[:-1] + 1.0)
        ch, sh = coupling_hyperbolics(g)
        root = np.sqrt((ks[:-1] + 1.0) * (ks[:-1] + self.nu))
        return ch * (2 * ks + self.nu) + shift, sign * sh * root


# Trace families: each R_m is the signed sum of its family's component traces.
@dataclass(frozen=True)
class Flat:
    """Fock-basis family (linear-coupling model)."""

    components = (Component("fock"),)


@dataclass(frozen=True)
class Nu:
    """Single weighted-Bergman family of parameter nu."""

    nu: float

    def __post_init__(self):
        _check_nu(self.nu)

    @property
    def components(self) -> tuple[Component, ...]:
        return (Component("bergman", self.nu),)


@dataclass(frozen=True)
class Plus:
    """Sum family: R_m for nu=1/2 plus nu=3/2."""

    components = (Component("bergman", 0.5), Component("bergman", 1.5))


@dataclass(frozen=True)
class Minus:
    """Difference family: R_m for nu=1/2 minus nu=3/2."""

    components = (Component("bergman", 0.5), Component("bergman", 1.5, -1.0))


FLAT = Flat()
PLUS = Plus()
MINUS = Minus()

TraceFamily = Flat | Nu | Plus | Minus


@dataclass(frozen=True)
class ModelGeometry:
    """The one description of a model that the zeta assembly, the series
    routes and the eigen oracle read.

    Without coupling, the spectrum shifted by lam is the pair of
    progressions lam +- eps + offset + step*k (the excluded set and the
    Hurwitz base term): the family's components' progressions interleave, so
    step is a component's step over their number and offset the smallest
    component offset.  The series runs in X^2 = coupling^2; its m-th term
    carries d^n [lam^(lam_power*m) R_m] / d lam^n, R_m the trace term of
    `family` at coupling g and shift eps; PLUS sums the even (nu = 1/2) and
    odd (nu = 3/2) parity sectors.  `blocks(N)` gives the eigen oracle's
    banded Hamiltonians at truncation N in gbtrf storage, one per component,
    and `hurwitz` sums the free spectrum.  With `pencil`, each block is
    [[h_plus, X], [X, h_minus]], h_plus and h_minus its component's entries
    at the shifts +eps and -eps and X = coupling times the identity, which
    commutes with h_minus, so the eigen oracle reads its traces from the
    component's N-row pencil (_pencil_trace); the oscillator pair's coupling
    block is tridiagonal, so its blocks are solved as they are.
    """

    family: TraceFamily
    eps: float
    coupling: float
    g: float
    blocks: Callable[[int], list]
    lam_power: int = 0
    pencil: bool = True

    @property
    def step(self) -> float:
        return self.family.components[0].step / len(self.family.components)

    @property
    def offset(self) -> float:
        return min(c.offset for c in self.family.components)

    def shifts(self, lam: complex) -> tuple[complex, complex]:
        lam = complex(lam)
        return lam + self.eps, lam - self.eps

    def distance(self, lam: complex) -> float:
        """Distance from the shifts to the excluded progression."""
        return min(progression_distance(s, self.step, self.offset) for s in self.shifts(lam))

    def hurwitz(self, n: int, lam: complex, start: int = 0, zeta=None) -> SeriesValue:
        """The free spectrum from its term `start` on: step^-n times the sum
        over the shifts s of zeta(n, (s + offset)/step + start), with summed
        abs_error.  zeta defaults to hurwitz_zeta, looked up at call time so
        that instrumentation which rebinds the module name sees every call;
        alternating_zeta_sum gives the parity difference."""
        zeta = zeta or hurwitz_zeta
        scale = self.step ** (-n)
        zs = [zeta(n, (s + self.offset) / self.step + start) for s in self.shifts(lam)]
        value = sum(scale * z.value for z in zs)
        abs_error = sum(scale * z.abs_error for z in zs)
        terms = sum(z.terms_used for z in zs)
        return SeriesValue(value, abs_error, terms, all(z.converged for z in zs))


def model_geometry(model: ModelSpec) -> ModelGeometry:
    """The description of `model`; the only place that tests its type."""
    if isinstance(model, Ncho):
        a, b = model.alpha, model.beta
        x, g = (a - b) / (a + b), 0.5 * math.atanh(1.0 / math.sqrt(a * b))
        blocks = partial(_ncho_bands, model)
        return ModelGeometry(PLUS, 2.0 * model.eta, x, g, blocks, 2, pencil=False)
    if isinstance(model, OnePhoton):
        family = FLAT
    elif isinstance(model, BergmanNu):
        family = Nu(model.nu)
    elif isinstance(model, TwoPhoton):
        family = PLUS
    else:
        raise DomainError(f"unknown model {model!r}")
    blocks = partial(_rabi_bands, family.components, model.g, model.eps, model.delta)
    return ModelGeometry(family, model.eps, model.delta, model.g, blocks)


# ---------------------------------------------------------------------------
# Tridiagonal component operators


@dataclass(frozen=True)
class TridiagonalOperator:
    """Truncated symmetric tridiagonal operator plus a scalar shift.

    The shift is already folded into diag.  Off-diagonals are stored signed
    (traces and spectra are invariant under the sign flip).
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
    """Truncated matrix of the shifted component operator, from
    Component(basis, nu).entries."""
    shift = complex(shift)
    diag, off = Component(basis, nu).entries(g, shift, sign, N)
    nu = None if basis == "fock" else float(nu)
    diag, off = tuple(complex(d) for d in diag), tuple(float(o) for o in off)
    return TridiagonalOperator(basis, nu, N, diag, off, shift)


def dense(op: TridiagonalOperator) -> np.ndarray:
    """Dense complex matrix of the operator."""
    a = np.zeros((op.dim, op.dim), dtype=complex)
    idx = np.arange(op.dim)
    a[idx, idx] = op.diag
    a[idx[:-1], idx[:-1] + 1] = op.offdiag
    a[idx[:-1] + 1, idx[:-1]] = op.offdiag
    return a


def _factor(band: np.ndarray, k: int, estimate: bool = True):
    """(lu, piv, sigma) for the band storage band[2k + i - j, j] = A[i, j]
    (kl = ku = k; rows 0..k-1 are the fill-in), which gbtrf overwrites with
    its LU in the band's own arithmetic: sigma is gbcon's estimate ||A||_1 *
    rcond of the smallest singular value, 0 where the factorization fails.
    gbcon costs more than gbtrf, so a caller that refuses only a failed
    factorization passes estimate=False: sigma is then 0 where gbtrf fails
    or the band or its LU is not finite, and 1 where not."""
    gbtrf, gbcon = sla.get_lapack_funcs(("gbtrf", "gbcon"), dtype=band.dtype)
    anorm = float(np.abs(band).sum(axis=0).max())
    lu, piv, info = gbtrf(band, k, k, overwrite_ab=True)
    if not estimate:
        return lu, piv, float(info == 0 and np.isfinite(anorm) and np.isfinite(lu).all())
    rcond = 0.0
    if info == 0:
        rcond, info = gbcon(k, k, lu, piv, anorm)
    return lu, piv, anorm * float(rcond) if info == 0 and np.isfinite(rcond) else 0.0


def _banded_lu(band: np.ndarray, k: int, estimate: bool = True):
    """(solve, sigma): _factor's sigma, and solve(b), which returns A^-1 b by
    zgbtrs for a complex Fortran-order b, overwriting b (not to be called
    where sigma is 0).  A real band is factored in real arithmetic and its
    LU cast to complex once, so sigma and the factors are the real ones and
    one solve steps two real columns, the two lanes of each complex column
    (_ProbedBand)."""
    lu, piv, sigma = _factor(band, k, estimate)
    lu = lu.astype(complex, copy=False)
    gbtrs = sla.get_lapack_funcs("gbtrs", dtype=complex)

    def solve(b: np.ndarray) -> np.ndarray:
        return gbtrs(lu, k, k, b, piv, overwrite_b=True)[0]

    return solve, sigma


def _entries(component: Component, g, shift: complex, sign: int, N: int, dtype):
    """The component's (diag, off) at `shift` in `dtype`: complex, or float,
    which drops the zero imaginary part of a real shift."""
    diag, off = component.entries(g, shift, sign, N)
    return (diag if dtype is complex else diag.real), off.astype(dtype)


def _checked_entries(component: Component, g, shift: complex, sign: int, N: int, dtype):
    """_entries, once the tridiagonal (diag, off) is known invertible.

    The factorization is the general band one with kl = ku = 1, because
    scipy's wrappers of the tridiagonal gttrf/gtcon/gttrs reject n = 2.
    Raises SingularOperator when gbcon's estimate of the smallest singular
    value is at or below the guard.
    """
    diag, off = _entries(component, g, shift, sign, N, dtype)
    band = np.zeros((4, len(diag)), dtype=dtype)
    band[1, 1:] = off
    band[2] = diag
    band[3, :-1] = off
    sigma = _factor(band, 1)[2]
    if not sigma > _SINGULAR_GUARD:
        raise SingularOperator(
            f"operator numerically singular (min-singular estimate "
            f"{sigma:.3e} <= {_SINGULAR_GUARD})"
        )
    return diag, off


def _pencil_lu(h_minus, h_plus, square=0.0):
    """_banded_lu of M_0 = h_minus h_plus - square, the pencil M(t) = M_0 + t
    S + t^2 at t = 0, for tridiagonal (diag, off) pairs h_minus and h_plus of
    one dtype whose off-diagonals have opposite signs, so that S = h_minus +
    h_plus is diagonal.  M_0 is pentadiagonal, factored with gbtrf (kl = ku
    = 2); its callers refuse only a failed factorization, so gbcon's
    estimate is skipped."""
    (a, b), (c, d) = h_minus, h_plus
    # Band storage ab[kl + ku + i - j, j] = M_0[i, j]; rows 0-1 are
    # gbtrf's fill-in.
    band = np.zeros((7, len(a)), dtype=a.dtype)
    band[4] = a * c - square
    band[4, :-1] += b * d
    band[4, 1:] += b * d
    band[3, 1:] = a[:-1] * d + b * c[1:]
    band[5, :-1] = b * c[:-1] + a[1:] * d
    band[2, 2:] = b[:-1] * d[1:]
    band[6, :-2] = b[1:] * d[:-1]
    return _banded_lu(band, 2, estimate=False)


def _wider(period: int, excess: float) -> int:
    """The period a band widens to from `period`, whose halfway rows (at
    distance period/2 from their probe column) hold `excess` > 1 times the
    rounding floor relative to the largest entry: the first period of the
    schedule ..., 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, ... (four steps
    to the octave, at least 8) at or past the one where entries decaying
    geometrically at the measured rate from the largest would reach the
    floor, period * log(floor) / log(excess * floor), but no more than twice
    `period`.  Each widening replays the band, so the estimate skips the
    steps it expects to fail; it is a guess (the entries need not decay
    geometrically), so it never goes past doubling."""
    goal = period * math.log(_ROUNDING_FLOOR) / math.log(min(excess * _ROUNDING_FLOOR, 0.5))
    wider = period
    while True:
        wider += max(8, 1 << (wider.bit_length() - 3))
        if wider >= min(goal, 2 * period):
            return wider


def bar_floor_warning(N: int) -> str | None:
    """The warning a result computed at truncation N carries when no bar is
    calibrated there, or None from _MIN_BAR_TOP on."""
    if N >= _MIN_BAR_TOP:
        return None
    return f"operator truncation N={N} is below {_MIN_BAR_TOP}: no calibrated bar"


def truncation_budget(cap: int, start: int = _MIN_TOP) -> list:
    """The truncations a tol-budgeted request tries: cap / 2^k, ..., cap / 2,
    cap, from the coarsest that is still at least `start` (cap alone below
    that).  The series routes start at _MIN_TOP, the eigen oracle at
    _EIGEN_MIN_TOP."""
    tops = [cap]
    while tops[0] // 2 >= start:
        tops.insert(0, tops[0] // 2)
    return tops


def _ladder(N: int) -> list:
    """The truncations behind a top N: N, N/2, N/4 and the further halvings
    that stay at least _LADDER_FLOOR.  The ladders of a doubling budget's
    tops nest: the eigen oracle solves only a climb's new top, while each
    top of the series routes sweeps every level of its own ladder."""
    sizes = [N, N // 2, N // 4]
    while sizes[-1] // 2 >= _LADDER_FLOOR:
        sizes.append(sizes[-1] // 2)
    return sizes


def _extrapolate(values, sizes, p: int, first_bar: bool = False) -> tuple[complex, float]:
    """(value, bar) of `values` at the truncations `sizes` (finest first,
    each about half the one before), whose error runs in N^-p, N^-(p+1), ....
    Each Richardson step eliminates the next power at the actual sizes (50,
    25, 12 as exactly as 48, 24, 12), at exact halvings bit for bit the
    classic (v_N - v_N/2) / (2^p - 1).

    The value is the two-step value from the finest three; its bar is that
    step's correction (the first step's with `first_bar`), unless a fourth
    truncation is live and the two-step corrections fall within 2x of the
    expected rate: then it is _BAR_FACTOR times the third step's correction,
    and with a fifth truncation no less than the one the next-coarser four
    predict, against a third-step correction that cancels by accident.
    No step past the third is built.
    """
    cols, corrs, rates = [list(values[:5])], [], []
    basis = [[(sizes[0] / s) ** (p + j) for s in sizes[:5]] for j in range(min(len(values), 4) - 1)]
    while basis:
        g = basis.pop(0)
        rate = [b / a for a, b in zip(g, g[1:])]

        def step(col):
            corr = [(u - v) / (r - 1) for u, v, r in zip(col, col[1:], rate)]
            return [u + c for u, c in zip(col, corr)], corr

        col, corr = step(cols[-1])
        cols.append(col)
        corrs.append([abs(c) for c in corr])
        rates.append(rate)
        basis = [step(h)[0] for h in basis]
    value, bar = cols[2][0], corrs[0 if first_bar else 1][0]
    if len(corrs) > 2 and 0.5 * corrs[1][1] <= corrs[1][0] * rates[1][0] <= 2 * corrs[1][1]:
        third = corrs[2] + [0.0]
        bar = _BAR_FACTOR * max(third[0], third[1] / rates[2][0])
    return value, bar


class _ProbedBand:
    """The probed state W(k)E of the Taylor stack W(k) = [t^0..t^(orders-1)]
    M(t)^-k of a banded pencil M(t) = M_0 + t S + t^2, S diagonal, and the
    traces of its powers read from it (traces).

    `solve(b)` returns M_0^-1 b for a complex Fortran-order b, overwriting b
    (_banded_lu), and `s` is S's diagonal as a column, read from order 1
    on: a step k -> k + 1 solves M_0 W_j(k + 1) = W_j(k) - S W_{j-1}(k + 1)
    - W_{j-2}(k + 1) in place.  The recurrence is linear in the columns, so
    from W(0) = E in order 0 and zero above it steps W(k)E exactly, O(orders
    N P) work per step.  With one order W(k) is the power M_0^-k.

    E is the N x P probing matrix, E[c, c mod P] = 1.  W(k) is the Taylor
    stack of the k-th power of an inverse of a banded matrix, so its entries
    decay away from the diagonal (Demko, Moss & Smith 1984): entry (r, c
    mod P) of W(k)E is W(k)[r, c] for the column c of its class nearest to
    r, plus entries at least P/2 further out.  So tr A sums (AE)[c, c mod
    P], and tr(A B) is one dot of AE with B's transposed band, (BE)[c, r
    mod P] at each (r, c mod P) (probing for the diagonal of an inverse,
    Tang & Saad 2012).  With `symmetric`, M_0 is complex-symmetric with one
    order, so every W(k) is symmetric and a state is its own transposed
    band: B[c, r] = B[r, c], read as (BE)[r, c mod P] up to the aliased
    mass the check below bounds, and tr(A B) is one dot of AE with BE, with
    no index built.  After every step the halfway rows, at distance P/2
    from their probe column, bound the aliased mass: when an order's
    largest entry there exceeds the rounding floor times that order's
    largest entry, the band's `period` widens (_wider), P = min(period, N)
    (up to N, where E = I and nothing is aliased), and the state replays
    from W(0).  This assumes that the entries keep decaying past P/2.
    `period` starts where the caller says (_PROBE_START by default) and is
    what the band has learned for the next band of its request: the last
    period it found aliasing, widened once, even where that reached P = N;
    widen(period) takes on a period learned by another band.

    The state lives in complex columns, and the pencil's `dtype` sets how
    many probe columns share one: a complex pencil keeps one per column, a
    real one packs two into the real and imaginary lanes, so that one
    complex solve of the real LU steps both.  Of the C = ceil(P/lanes)
    columns, column c mod C holds probe column c in lane c // C; for odd P
    the last imaginary lane is spare and stays 0.  Everything else reads the
    lane view x.ravel(order="F").view(dtype), where entry (r, c) sits at
    lanes * (r + N (c mod C)) + c // C: the diagonal and halfway indices,
    the check, the transposed bands and the traces see the probed entries
    themselves.
    """

    def __init__(self, N: int, orders: int, dtype, solve: Callable[[np.ndarray], np.ndarray],
                 s=None, *, period: int | None = None, symmetric: bool = False):
        self.N = N
        self._orders = orders
        self._dtype = np.dtype(dtype)  # the pencil's, and so the lane view's
        self._lanes = 1 if self._dtype.kind == "c" else 2
        self._solve = solve
        self._s = s
        self._symmetric = symmetric
        # The unconjugated dot from the BLAS that runs the solves: numpy's
        # dot would wake a second thread pool on every call.
        self._dot = sla.get_blas_funcs("dotu", dtype=self._dtype)
        self._k = 0
        self._bt = None  # the transposed bands of the held state W(_held)
        self._held = None
        self.period = period or _PROBE_START
        self._probe(min(self.period, N))

    def _view(self, x: np.ndarray) -> np.ndarray:
        """The lanes of the state x in column-major order, without a copy."""
        return x.ravel(order="F").view(self._dtype)

    def _at(self, rows, cols):
        """Where entry (rows, cols) of the probed state sits in its lane view."""
        C = self._columns
        return self._lanes * (rows + self.N * (cols % C)) + cols // C

    def _probe(self, P: int) -> None:
        """Restart from W(0) = E on P probe columns and replay to W(k), with
        the held state's bands when it is W(k).  The index arrays point into
        the lane view; the band's is built when a period first needs it.  The
        narrower state and its bands are dropped before the wider state is
        allocated, so a widening never holds both."""
        N, rows = self.N, np.arange(self.N)
        self.P, self._columns = P, -(-P // self._lanes)
        self._diagonal = self._at(rows, rows % P)
        self._halfway = self._at(rows, (rows - P // 2) % P)
        self._transposed = self._w = self._bt = None
        self._w = [np.zeros((N, self._columns), dtype=complex, order="F") for _ in range(self._orders)]
        self._view(self._w[0])[self._diagonal] = 1.0
        for _ in range(self._k):
            self._advance()
        if self._held == self._k:
            self._bt = self._bands()

    def _advance(self) -> None:
        """W(k)E -> W(k + 1)E on the current columns, right-hand sides built
        in place."""
        w = self._w
        for j in range(len(w)):
            if j >= 1:
                w[j] -= self._s * w[j - 1]
            if j >= 2:
                w[j] -= w[j - 2]
            w[j] = self._solve(w[j])

    def _aliased(self) -> float:
        """The largest factor by which an order's largest entry in the
        halfway rows exceeds the rounding floor times that order's largest
        entry, or 0 where none does."""
        excess = 0.0
        for x in self._w:
            v = self._view(x)
            halfway = np.abs(v[self._halfway]).max() / _ROUNDING_FLOOR
            # The diagonal's largest entry bounds the state's from below, so
            # the whole state is read only when the diagonal leaves it open;
            # real lanes are read without an absolute-value copy.
            if halfway <= np.abs(v[self._diagonal]).max():
                continue
            largest = max(v.max(), -v.min()) if self._lanes == 2 else np.abs(v).max()
            if halfway > largest:
                excess = max(excess, halfway / largest)
        return excess

    def step(self) -> None:
        """W(k) -> W(k + 1), with the period widened (P up to N) and the
        state replayed until it passes the halfway-row check."""
        self._advance()
        while self.P < self.N and (excess := self._aliased()):
            self.period = _wider(self.period, excess)
            self._probe(min(self.period, self.N))
            self._advance()
        self._k += 1

    def widen(self, period: int) -> None:
        """Take on a period learned by another band where it is wider than
        this band's: the state replays to W(k) on min(period, N) columns."""
        if period > self.period:
            self.period = period
            if min(period, self.N) > self.P:
                self._probe(min(period, self.N))

    def diagonals(self) -> list:
        """The diagonal of every order of W(k), as lane vectors."""
        return [self._view(x)[self._diagonal] for x in self._w]

    def _bands(self) -> list:
        """The transposed bands of the current state, one lane vector per
        order: at the position of (r, q), (BE)[c, r mod P] for the column c =
        q mod P nearest to r.  A symmetric state is its own transposed band,
        (BE)[r, q], so its bands are copies of the state."""
        if self._symmetric:
            return [self._view(x).copy() for x in self._w]
        if self._transposed is None:
            N, P, h, C = self.N, self.P, self.P // 2, self._columns
            rows = np.arange(N)
            # index[q mod C, r, q // C], the position of (r, q), points at
            # (nearest[q, r], r mod P), where nearest[q, r] = r + ((q - r + h)
            # mod P) - h lies in (-N, 2N); where it leaves 0..N-1 it moves
            # back by one period.  A spare lane (q = P) reads class 0 against
            # its zero entry.  The index is built in place in one array.
            classes = np.arange(C)[:, None] + C * np.arange(self._lanes)
            index = (classes + h)[:, None, :] - rows[:, None]
            index %= P
            index += (rows - h)[:, None]
            np.add(index, P, out=index, where=index < 0)
            np.subtract(index, P, out=index, where=index >= N)
            index *= self._lanes
            index += self._at(0, rows % P)[:, None]
            self._transposed = index.ravel()
        return [self._view(x)[self._transposed] for x in self._w]

    def traces(self, m: int) -> list[complex]:
        """[j! tr [t^j] M(t)^-m for each order j], as complex, from a =
        ceil(m/2) and b = floor(m/2): since [t^j] M^-m = sum_i W_i(a)
        W_{j-i}(b), the state steps forward to W(b), holds that state's
        transposed bands, steps to W(a), and each trace is one BLAS dot, in a
        fixed order of i, so order j never depends on the number of orders.
        A symmetric state at a = b is dotted with itself, with nothing held.
        m = 1 reads the diagonal of W(1).  The calls m = 1, 2, ... step once
        per odd m and hold once per even m (a symmetric band: once per odd m
        > 1); a fresh band's traces(m) takes the same steps and halfway-row
        checks as the m-th of those calls, so it returns the same values bit
        for bit.  The state never steps back: m // 2 must be at least k."""
        a, b = (m + 1) // 2, m // 2
        if self._k > b:
            raise ValueError(f"traces({m}) needs W({b}), and the state is at W({self._k})")
        while self._k < b:
            self.step()
        if m == 1:
            self.step()
            traces = [d.sum() for d in self.diagonals()]
        else:
            own = self._symmetric and a == b
            if not own and self._held != b:
                self._bt, self._held = self._bands(), b
            if a > b:
                self.step()
            w = [self._view(x) for x in self._w]
            bt = w if own else self._bt
            traces = [sum(self._dot(w[i], bt[j - i]) for i in range(j + 1))
                      for j in range(len(w))]
        return [math.factorial(j) * complex(t) for j, t in enumerate(traces)]


def _resolvent_band(component: Component, g, lam, eps, n, N, period=None) -> _ProbedBand:
    """The _ProbedBand whose traces(m) are d^j R_m / d lam^j = j! tr [t^j]
    F(t)^m, j = 0..n, at one truncation, where F(t) = M(t)^-1 and M(t) =
    (h_minus + t)(h_plus + t) is pentadiagonal, so F(t) = h_plus(t)^-1
    h_minus(t)^-1, with h_plus and h_minus the component's entries at the
    shifts lam + eps and lam - eps.

    M(t) = M_0 + t S + t^2 with M_0 = h_minus h_plus, factored once
    (_pencil_lu), and S = h_minus + h_plus diagonal (the two off-diagonals
    have opposite signs); one solve step of the band serves two terms.  The
    band starts at `period` (_PROBE_START by default).
    """
    lam, eps = complex(lam), complex(eps)
    # Real arithmetic unless a shift is complex.
    dtype = complex if lam.imag or eps.imag else float
    h_minus = _checked_entries(component, g, lam - eps, -1, N, dtype)
    h_plus = _checked_entries(component, g, lam + eps, +1, N, dtype)
    solve, sigma = _pencil_lu(h_minus, h_plus)
    if sigma == 0:
        raise SingularOperator("banded factorization of h_minus h_plus failed")
    s = (h_minus[0] + h_plus[0])[:, None]
    return _ProbedBand(N, n + 1, dtype, solve, s, period=period)


class TraceDerivativeSweep:
    """Incremental evaluation of D_m = d^n R_m / d lambda^n for m = 1, 2, ...
    of one Component, whose entries give h_plus and h_minus.

    Uses the exact resolvent Taylor expansion in the shift t: F(t) =
    h_plus(t)^-1 h_minus(t)^-1 is the inverse of a pentadiagonal matrix
    polynomial M(t).  Each truncation's band (_resolvent_band) reads term m
    from its traces(m): one step of n + 1 banded solves against one
    LU factorization of M(0) serves two m, O((n + 1) N P) work per step
    plus (n + 1)(n + 2)/2 trace dots per m, with no dense inverse or
    product, on the P probe columns of the band.  D_m = n!
    tr [t^n] F(t)^m, and every lower order comes from the same series; all
    orders share P, so a widening that a higher order forces moves the lower
    orders at the rounding level only.

    The truncations form a ladder N, N/2, N/4, ... down to _LADDER_FLOOR
    (only N, N/2, N/4 below N = 192).  Each term is Richardson-extrapolated
    from the three finest live truncations, and the fourth and fifth, where
    live, give its bar (_extrapolate); a sweep from N < _MIN_TOP takes the
    first step's correction as the bar.  Its terms_used is the finest
    truncation.
    The Richardson order 2m + n - 1 grows with m, so later terms converge at
    smaller N: once order 0 extrapolated from the next three truncations
    moves by no more than the rounding floor, the finest one is dropped for
    every later m.  The test reads order 0 only, so which truncations serve
    a term does not depend on the top order n.  Only the five finest live
    levels are read, so a coarser level is built when a drop brings it
    among them, and its band replays from W(0).

    The levels step coarsest first, and each starts its step at the probe
    period the levels before it learned: the sweep's `period`, which starts
    at `period` (_PROBE_START by default) and which the caller carries on to
    its next sweep.

    Every row reads converged when the sweep's top N is at least
    _MIN_BAR_TOP, where its bar is calibrated, and not converged below.
    """

    def __init__(self, component: Component, g, lam, eps, n, N=400, period=None):
        if n < 0:
            raise DomainError(f"n must be >= 0, got {n}")
        require_finite("lambda", lam)
        require_finite("eps", eps)
        require_finite("g", g)
        for s in (complex(lam) + complex(eps), complex(lam) - complex(eps)):
            if progression_distance(s, component.step, component.offset) <= NEAR_POLE_GUARD:
                raise NearPole(f"shift {s} is within {NEAR_POLE_GUARD} of an excluded point")
        self.m = 0
        self.period = period or _PROBE_START
        self._first_bar = N < _MIN_TOP
        self._calibrated = N >= _MIN_BAR_TOP
        self._band = partial(_resolvent_band, component, g, lam, eps, n)
        sizes = _ladder(N)
        self._unbuilt = sizes[5:]
        self._states = [self._band(size, period=self.period) for size in sizes[:5]]

    def next_terms(self) -> dict:
        """Advance to the next m and return {order: D_m at that order} for
        every order 0..n (the truncated series holds them all at once)."""
        self.m += 1
        per_truncation = []
        for st in reversed(self._states):
            st.widen(self.period)
            per_truncation.insert(0, st.traces(self.m))
            self.period = st.period
        sizes = [st.N for st in self._states]
        out = {}
        for order, values in enumerate(zip(*per_truncation)):
            value, bar = _extrapolate(values, sizes, 2 * self.m + order - 1, self._first_bar)
            abs_error = bar + _ROUNDING_FLOOR * abs(value)
            out[order] = SeriesValue(value, abs_error, sizes[0], self._calibrated)
        if len(sizes) > 3:
            order0 = [t[0] for t in per_truncation[1:4]]
            value, corr = _extrapolate(order0, sizes[1:4], 2 * self.m - 1)
            if corr <= _ROUNDING_FLOOR * abs(value):
                self._states.pop(0)  # frees the finest truncation's buffers
                if self._unbuilt:
                    self._states.append(self._band(self._unbuilt.pop(0), period=self.period))
        return out


def _component_rows(c: Component, g, lam, eps, n: int, N: int, m_last: int, period) -> tuple:
    """(rows 1..m_last of one component's sweep, the period it learned); the
    sweep is freed on return."""
    sweep = TraceDerivativeSweep(c, g, lam, eps, n, N, period)
    return [sweep.next_terms() for _ in range(m_last)], sweep.period


def family_rows(components, g, lam, eps, n: int, N: int, m_last: int, period=None) -> tuple:
    """([{order: D_m of the signed sum}] for m = 1..m_last, orders 0..n, the
    probe period learned) by the banded sweep at truncation N.  Each
    component is swept once, and its sweep is dropped before the next
    component's starts, at the period the one before learned (the first at
    `period`, _PROBE_START by default); rows combine as sum(sign * value)
    with summed abs_error, in component order; terms_used is the finest
    truncation any component's row used, and a row reads converged when
    every component's does (N >= _MIN_BAR_TOP).  A caller that sweeps again
    passes the period on.
    """
    per_component = []
    for c in components:
        rows, period = _component_rows(c, g, lam, eps, n, N, m_last, period)
        per_component.append(rows)
    return [
        {
            order: SeriesValue(
                sum(c.sign * row[order].value for c, row in zip(components, rows)),
                sum(row[order].abs_error for row in rows),
                max(row[order].terms_used for row in rows),
                all(row[order].converged for row in rows),
            )
            for order in range(n + 1)
        }
        for rows in zip(*per_component)
    ], period


#: A trace term of the operator route reads converged at abs_error <= this,
#: in a row that reads converged itself (family_term).
_TERM_TOL = 1e-8


def family_term(components, g, lam, eps, m: int, n: int, N: int) -> dict:
    """{k: d^k R_m / d lam^k} for k = 0..n of the signed sum over `components`
    at truncation N, one sweep row; terms_used is N and converged means
    abs_error <= _TERM_TOL in a row that reads converged (N >=
    _MIN_BAR_TOP).  N must be an int of at least MIN_TRUNCATION, so that its
    ladder's N/4 is at least 2."""
    require_integer("m", m, 1)
    require_integer("n", n, 0)
    if N < MIN_TRUNCATION:
        raise InvalidDimension(f"N must be >= {MIN_TRUNCATION}, got {N}")
    require_integer("N", N, MIN_TRUNCATION)
    row = family_rows(components, g, lam, eps, n, N, m)[0][m - 1]
    return {
        k: SeriesValue(sv.value, sv.abs_error, N, sv.abs_error <= _TERM_TOL and sv.converged)
        for k, sv in row.items()
    }


def r_m_operator(
    basis: str,
    g: float,
    lam: complex,
    eps: complex,
    m: int,
    N: int = 400,
    nu: float | None = None,
) -> SeriesValue:
    """R_m = Tr((h_plus^-1 h_minus^-1)^m) by banded solves on the truncations.

    The value is two-level Richardson-extrapolated, with the known leading
    truncation order 2m-1, from three truncations of the sweep's ladder
    (N, N/2, N/4 until an earlier term already met the rounding floor one
    level down); abs_error is the sweep's bar (_extrapolate) plus a 1e-14
    relative rounding floor.  N is a fixed truncation, not a budget; the
    value reads converged as family_term's do.
    """
    return family_term((Component(basis, nu),), g, lam, eps, m, 0, N)[0]


def dn_r_m_operator(
    basis: str,
    g: float,
    lam: complex,
    eps: complex,
    m: int,
    n: int,
    N: int = 400,
    nu: float | None = None,
) -> SeriesValue:
    """n-th shift derivative of R_m, equal to the composition sum
    (-1)^n n! sum_{|n|=n} Tr(prod h_plus^{-n_{2j-1}-1} h_minus^{-n_{2j}-1});
    evaluated by the banded sweep, Richardson order 2m+n-1."""
    return family_term((Component(basis, nu),), g, lam, eps, m, n, N)[n]


# ---------------------------------------------------------------------------
# Eigenvalue oracle


def _interleaved_band(a, b, c_diag, c_off=None) -> np.ndarray:
    """gbtrf band storage band[2u + i - j, j] = H[i, j] (rows 0..u-1 are the
    factorization's fill-in) of the symmetric H = [[A, C], [C^T, B]] in the
    interleaved basis (a_0, b_0, a_1, b_1, ...), for tridiagonal A = (diag,
    off), B likewise and C diagonal, or symmetric tridiagonal when c_off is
    given: kl = ku = u is 2, or 3 with c_off.  Each upper diagonal is
    written into the even or odd columns of its band row, and each lower
    one is its mirror; an off-diagonal may be a scalar."""
    u = 2 if c_off is None else 3
    band = np.zeros((3 * u + 1, 2 * len(a[0])))
    d = 2 * u  # the main diagonal's row
    band[d, 0::2], band[d, 1::2] = a[0], b[0]
    band[d - 1, 1::2] = c_diag
    band[d - 2, 2::2], band[d - 2, 3::2] = a[1], b[1]
    if c_off is not None:
        band[d - 1, 2::2] = c_off
        band[d - 3, 3::2] = c_off
    for k in range(1, u + 1):
        band[d + k, :-k] = band[d - k, k:]
    return band


def _block_trace(band: np.ndarray, n: int, lam: complex, period: int | None = None,
                 pencil: tuple | None = None) -> tuple:
    """(tr((H + lam)^-n), the period learned): the trace is the sum of (mu +
    lam)^-n over the eigenvalues mu of one block H in gbtrf storage
    (_interleaved_band).  H + lam is factored once, in complex arithmetic
    only for complex lam (a real one packs two probe columns per complex
    column).  H is real symmetric, so every -mu lies at least |Im lam| from
    lam; where that does not exceed NEAR_POLE_GUARD, gbcon's estimate of
    the smallest singular value, ||H + lam||_1 * rcond, must.

    With `pencil` = (component, g, eps, coupling), H = [[h_plus, X], [X,
    h_minus]] with X = coupling times the identity, and the trace comes from
    the component's pencil (_pencil_trace).  Without, it is order 0 of a
    one-order _ProbedBand's traces(n) on H + lam: ceil(n/2) solves on its
    probe columns.  H + lam is complex-symmetric, so the band is a symmetric
    one: at even n it dots W(n/2)E with itself, and at odd n it holds a copy
    of W(floor(n/2))E and dots it with W(ceil(n/2))E.  Either band's probe
    columns start at min(period, N), and the period learned is its
    `period`."""
    lam = complex(lam)
    dtype = complex if lam.imag else float
    u = band.shape[0] // 3
    ab = band.astype(dtype)
    ab[2 * u] += lam if lam.imag else lam.real
    if pencil is None:
        solve, sigma = _banded_lu(ab, u)
    else:
        sigma = _factor(ab, u)[2]
    if sigma == 0 or max(sigma, abs(lam.imag)) <= NEAR_POLE_GUARD:
        raise NearPole("lambda is within the guard radius of a truncated eigenvalue's negative")
    if pencil is not None:
        return _pencil_trace(n, lam, *pencil, ab.shape[1] // 2, period)
    probed = _ProbedBand(ab.shape[1], 1, dtype, solve, period=period, symmetric=True)
    return probed.traces(n)[0], probed.period


def _pencil_trace(n: int, lam: complex, component: Component, g, eps, coupling, N: int,
                  period: int | None) -> tuple:
    """(tr((H + lam)^-n), the period learned) for the block H = [[h_plus, X],
    [X, h_minus]] of truncation N, X = coupling times the identity and
    h_plus, h_minus the component's entries at the shifts +eps and -eps.

    X commutes with h_minus + t, so det(H + lam + t) = det M(t) with M(t) =
    (h_minus + lam + t)(h_plus + lam + t) - X^2 = M_0 + t S + t^2 (Silvester,
    Math. Gazette 84, 2000): the sweep's N-row pencil (_pencil_lu) shifted
    by -X^2.  Then tr((H + lam + t)^-1) = d/dt log det M(t) = tr(M(t)^-1 (S
    + 2t)), whose Taylor coefficient of order n - 1 is (-1)^(n-1) tr((H +
    lam)^-n): with W_j = [t^j] M(t)^-1, the trace is (-1)^(n-1) (tr(W_(n-1)
    S) + 2 tr(W_(n-2))), read off the diagonal of one step of a _ProbedBand
    on n orders.  det M_0 = det(H + lam), which _block_trace has guarded;
    a factorization of M_0 that fails all the same raises NearPole.

    M_0 squares the block's entries, which overflows at strong Bergman
    coupling (g = 200), so the block is first divided by the power of two c
    at or above its largest diagonal entry: tr((H + lam)^-n) = c^-n tr((H/c
    + lam/c)^-n), and a power of two rounds nothing."""
    dtype = complex if lam.imag else float
    h_minus = _entries(component, g, lam - eps, -1, N, dtype)
    h_plus = _entries(component, g, lam + eps, +1, N, dtype)
    c = 2.0 ** int(np.frexp(max(np.max(np.abs(h[0])) for h in (h_minus, h_plus)))[1])
    h_minus, h_plus = [(diag / c, off / c) for diag, off in (h_minus, h_plus)]
    solve, sigma = _pencil_lu(h_minus, h_plus, (coupling / c) ** 2)
    if sigma == 0:
        raise NearPole("the factorization of the block's pencil failed")
    s = h_minus[0] + h_plus[0]
    probed = _ProbedBand(N, n, dtype, solve, s[:, None], period=period)
    probed.step()
    w = probed.diagonals()
    trace = (w[n - 1] * s).sum() + (2 * w[n - 2].sum() if n > 1 else 0)
    return (-1) ** (n - 1) * c ** -n * complex(trace), probed.period


def _ncho_bands(model: Ncho, N: int) -> list:
    """The oscillator pair's two parity blocks [[alpha, C], [C^T, beta]]
    times the Bergman scaling, with C tridiagonal."""
    alpha, beta, eta = model.alpha, model.beta, model.eta
    c = (alpha + beta) / (2 * math.sqrt(alpha * beta * (alpha * beta - 1)))
    ks = np.arange(N, dtype=float)
    bands = []
    for nu in (0.5, 1.5):
        scaling = 2 * ks + nu
        off = c * np.sqrt((ks[:-1] + 1.0) * (ks[:-1] + nu))
        c_diag = c * 2 * eta * math.sqrt(alpha * beta - 1)
        a, b = (c * alpha * scaling, 0.0), (c * beta * scaling, 0.0)
        bands.append(_interleaved_band(a, b, c_diag, off))
    return bands


def _rabi_bands(components, g: float, eps: float, coupling: float, N: int) -> list:
    """Each component's [[h_+, X], [X, h_-]], h_+- at shift +-eps, with
    coupling X times the identity."""
    bands = []
    for c in components:
        a, b = c.entries(g, +eps, +1, N), c.entries(g, -eps, -1, N)
        bands.append(_interleaved_band(a, b, float(coupling)))
    return bands


def _zeta_eigen_once(geo: ModelGeometry, n: int, lam: complex, N: int, period) -> tuple:
    """(value, the period learned): the blocks' traces at truncation N
    (_block_trace, from their pencils where the geometry has them), each
    block's band starting
    at the period the one before it learned, plus the free spectrum from the
    truncation's end on: the components' progressions from k = N on
    interleave into the geometry's from len(components) * N on ({1/2 + 2k}
    and {3/2 + 2k} for k >= N are {1/2 + j} for j >= 2N)."""
    value = 0
    for c, h in zip(geo.family.components, geo.blocks(N)):
        pencil = (c, geo.g, geo.eps, geo.coupling) if geo.pencil else None
        trace, period = _block_trace(h, n, lam, period, pencil)
        value += trace
    return value + geo.hurwitz(n, lam, len(geo.family.components) * N).value, period


@dataclass(frozen=True)
class EigenValue(SeriesValue):
    """zeta_eigen_oracle's value.  abs_error = bar + EIGEN_FLOOR: bar is the
    truncation bar of the last top tried; tops are the truncations tried, in
    order."""

    bar: float
    tops: tuple

    @property
    def calibrated(self) -> bool:
        """Whether the last top has a calibrated bar (from _EIGEN_MIN_TOP on)."""
        return self.tops[-1] >= _EIGEN_MIN_TOP


def zeta_eigen_oracle(
    model: ModelSpec, n: int, lam: complex, N: int = 400, tol: float | None = None
) -> EigenValue:
    """zeta(H; n, lam) as the traces tr((H_N + lam)^-n) of the truncated
    block matrices (_block_trace: a banded LU of each block, or of its
    pencil where the geometry has one, and probed solves, no eigenvalues)
    plus a coupling-free tail: the free spectrum
    (the geometry's Hurwitz pair) from the truncation's end on.  A lam
    within NEAR_POLE_GUARD of a block's pole raises NearPole.

    After that tail is added the residual runs in N^-p, p = n - lag with the
    components' Component.eigen_lag (p = n on Fock, n - 1 on Bergman), so a
    top N is Richardson-extrapolated by _extrapolate from its ladder N, N/2,
    ... (down to the ladder floor 24, at most five levels): the two-step
    value, barred by twice the third step's correction where four or five
    levels are live, plus a 1e-14 relative rounding floor.  The bar holds on
    the calibration grid from N = 384 on, the coarsest top with five live
    levels.  abs_error adds the 1e-7 calibration floor EIGEN_FLOOR.

    n must be an int >= 2 and N an int.  Without tol, N is the one top and
    must be >= 8, so that N/4 >= 2; the value reads converged False, no tol
    being asked, and below 384 it reads calibrated False: its bar is not
    calibrated there.  With tol, max(N, 384) caps a budget that starts at
    384 (truncation_budget with that start): the tops are tried in order,
    each ladder level is solved once, and the first top whose bar is <= tol
    gives the value, the cap's when none does; converged means abs_error <=
    tol.

    The levels of each top run coarsest first, and the probe period is
    carried from band to band: each block's band starts at the period the
    bands before it learned (_PROBE_START for the first), so the coarser
    levels learn it on their narrower blocks and the finer ones start there.
    """
    require_integer("n", n, 2)
    if tol is None and N < MIN_TRUNCATION:
        raise InvalidDimension(f"N must be >= {MIN_TRUNCATION}, got {N}")
    require_integer("N", N, MIN_TRUNCATION if tol is None else -math.inf)
    geo = model_geometry(model)
    p = n - max(c.eigen_lag for c in geo.family.components)
    budget = [N] if tol is None else truncation_budget(max(N, _EIGEN_MIN_TOP), _EIGEN_MIN_TOP)
    sums, tops, period = {}, [], None
    for top in budget:
        sizes = _ladder(top)[:5]
        for size in reversed(sizes):
            if size not in sums:
                sums[size], period = _zeta_eigen_once(geo, n, lam, size, period)
        value, bar = _extrapolate([sums[size] for size in sizes], sizes, p)
        bar += _ROUNDING_FLOOR * abs(value)
        tops.append(top)
        if tol is not None and bar <= tol:
            break
    abs_error = bar + EIGEN_FLOOR
    converged = tol is not None and abs_error <= tol
    return EigenValue(value, abs_error, 2 * top, converged, bar, tuple(tops))
