"""Closed-form machinery for the trace terms R_m.

The Phi and Psi kernels on the 2m-cube, the 2m-dimensional integral
representations of R_m for each family, the log-weighted integrands for the
shift derivatives, and the m=1 series/hypergeometric fast paths.

The kernels run on axis rows: a block of points is transposed once to one
contiguous row per coordinate, and the logs, the weight, prod u, Phi_m's
cyclic runs and Psi's matrix product are whole-row ufuncs, in place where an
operand is not read again.  Every product and sum keeps the operand order of
the point-by-point formula, so no value depends on the layout.  The
point-by-point integrand serves m = 1, m = 3 and Monte Carlo specs.
The m = 2 term on a deterministic rule is a symmetric kernel between the
axis-pair grids (u0, u1) and (u2, u3), integrated by
quadrature.integrate_pairs: per-point factor rows once per level (Psi's
swap-even and swap-odd parts, or Flat's h, s, t and u0 u1), and each kernel
block written from them into scratch that integrate_pairs owns.
"""

from __future__ import annotations

import math

import numpy as np

from . import apery, operator_oracle, quadrature
from .errors import DomainError, LengthMismatch, NoConvergence, PoleError

# The trace families live beside operator_oracle.Component and are re-exported.
from .operator_oracle import FLAT, MINUS, PLUS, Flat, Minus, Nu, Plus, TraceFamily  # noqa: F401
from .specfun import (
    SeriesValue,
    hypergeometric_pfq,
    pochhammer,
    require_finite,
    sum_inverse_pair,
)


# ---------------------------------------------------------------------------
# Kernels


def _phi_rows(m: int, ut: np.ndarray):
    """(Phi_m, prod u) on the (2m, npts) axis rows of a point block."""
    d = 2 * m
    prod = ut[0] * ut[1]
    for row in ut[2:]:
        prod *= row
    total = m * (1.0 + prod)
    window = ut.copy()  # window[k] = prod of the cyclic run of length l from k
    run = np.empty_like(prod)
    for length in range(1, d):
        np.add(window[0], window[1], out=run)
        for row in window[2:]:
            run += row
        if length % 2:
            total -= run
        else:
            total += run
        if length < d - 1:
            window[: d - length] *= ut[length:]
            window[d - length :] *= ut[:length]
    return total, prod


def _psi_product(g: float, rows: np.ndarray) -> np.ndarray:
    """Rows (p0, p1, p2, p3), the entries [[p0, p1], [p2, p3]] of the ordered
    product of Psi's two-by-two factors over the axis rows of a point block,
    with alternating coupling signs starting at -sinh(2g)."""
    ch = math.cosh(2 * g)
    sh = math.sinh(2 * g)
    npts = rows.shape[1]
    cur, nxt = np.empty((2, 4, npts))
    cur[0], cur[1], cur[2], cur[3] = 1.0, 0.0, 0.0, 1.0
    tmp = np.empty(npts)
    for j, uj in enumerate(rows):
        s = -sh if j % 2 == 0 else sh
        inv = 1.0 / uj
        ci, si, cu, su = ch * inv, s * inv, ch * uj, s * uj
        # Right-multiply each row [x, y] of the product by [[ch/u, s*u], [s/u, ch*u]].
        for r in (0, 2):
            np.multiply(cur[r], ci, out=nxt[r])
            nxt[r] += np.multiply(cur[r + 1], si, out=tmp)
            np.multiply(cur[r], su, out=nxt[r + 1])
            nxt[r + 1] += np.multiply(cur[r + 1], cu, out=tmp)
        cur, nxt = nxt, cur
    return cur


def _psi_vec(m: int, g: float, u: np.ndarray) -> np.ndarray:
    """Vectorized Psi_m^g on an (npts, 2m) array: trace of the ordered
    product of 2m two-by-two factors with alternating coupling signs."""
    p = _psi_product(g, u[:, : 2 * m].T)
    return p[0] + p[3]


def phi(m: int, u) -> float:
    """Phi_m(u) for a length-2m point of the open cube."""
    arr = np.atleast_2d(np.asarray(u, dtype=float))
    if m < 1 or arr.shape[1] != 2 * m:
        raise LengthMismatch(f"expected {2 * m} coordinates, got {arr.shape[1]}")
    return float(_phi_rows(m, arr.T)[0][0])


def psi(m: int, g: float, u) -> float:
    """Psi_m^g(u) for a length-2m point of the open cube."""
    arr = np.atleast_2d(np.asarray(u, dtype=float))
    if m < 1 or arr.shape[1] != 2 * m:
        raise LengthMismatch(f"expected {2 * m} coordinates, got {arr.shape[1]}")
    return float(_psi_vec(m, g, arr)[0])


def _flat_kernel(g: float, phi_val: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Flat's kernel exp(-4 g^2 Phi_m / (1 - prod u)) / (1 - prod u), written
    over phi_val; prod becomes 1 - prod u."""
    one_minus = np.maximum(np.subtract(1.0, prod, out=prod), 1e-300, out=prod)
    phi_val *= -4.0 * g * g
    phi_val /= one_minus
    np.exp(phi_val, out=phi_val)
    phi_val /= one_minus
    return phi_val


def _roots_kernel(family: TraceFamily, sp, sm, work) -> np.ndarray:
    """The kernel of Plus (1 / sm), Minus (1 / sp) or Nu from the roots
    sp = sqrt(Psi + 2) and sm = sqrt(Psi - 2), written over the root it reads
    (sm for Nu, with work as scratch); the other root may be None."""
    if isinstance(family, Plus):
        return np.divide(1.0, sm, out=sm)
    if isinstance(family, Minus):
        return np.divide(1.0, sp, out=sp)
    # mu = ((sqrt(Psi+2)-sqrt(Psi-2))/2)^2 = (2/(sp+sm))^2, stably.
    mu = np.add(sp, sm, out=work)
    np.divide(2.0, mu, out=mu)
    np.square(mu, out=mu)
    np.log(mu, out=mu)
    mu *= family.nu - 1.0
    np.exp(mu, out=mu)
    sp *= sm
    return np.divide(mu, sp, out=sm)


def _psi_kernel(family: TraceFamily, psi_val: np.ndarray, work) -> np.ndarray:
    """The kernel of Plus, Minus or Nu from a matrix-product Psi, written over
    psi_val, with work two scratch arrays of its shape.  Psi - 2 is only
    known to roundoff relative to |Psi|; flooring it at that noise scale
    keeps corner nodes (tiny weights) harmless.  Minus reads only
    sqrt(Psi + 2), unfloored, and Plus only sqrt(Psi - 2)."""
    if isinstance(family, Minus):
        sp = np.sqrt(np.add(psi_val, 2.0, out=psi_val), out=psi_val)
        return _roots_kernel(family, sp, None, None)
    sp = None
    if not isinstance(family, Plus):
        sp = np.sqrt(np.add(psi_val, 2.0, out=work[1]), out=work[1])
    floor = np.abs(psi_val, out=work[0])
    np.maximum(floor, 2.0, out=floor)
    floor *= 1e-13
    np.subtract(psi_val, 2.0, out=psi_val)
    sm = np.sqrt(np.maximum(psi_val, floor, out=psi_val), out=psi_val)
    return _roots_kernel(family, sp, sm, work[0])


def _point_kernel(family: TraceFamily, g: float, m: int, ut: np.ndarray) -> np.ndarray:
    """The family's real kernel on the (2m, npts) axis rows of a point block."""
    if isinstance(family, Flat):
        return _flat_kernel(g, *_phi_rows(m, ut))
    if m > 1:
        p = _psi_product(g, ut)
        return _psi_kernel(family, np.add(p[0], p[3], out=p[1]), p[2:])
    # Factorized forms avoid the catastrophic cancellation of Psi - 2 near
    # the (1, 1) corner:
    #   uv (Psi_1 -+ 2) = (1 -+ uv)^2 + sinh^2(2g)(1-u^2)(1-v^2).
    uu, vv = ut
    sh2 = math.sinh(2.0 * g) ** 2
    cross = sh2 * (1.0 - uu * uu) * (1.0 - vv * vv)
    uv = uu * vv
    inv_uv = 1.0 / uv
    sp = sm = None
    if not isinstance(family, Plus):
        sp = np.add(1.0, uv)
        np.square(sp, out=sp)
        sp += cross
        sp *= inv_uv
        np.sqrt(sp, out=sp)
    if not isinstance(family, Minus):
        sm = np.subtract(1.0, uv, out=uv)
        np.square(sm, out=sm)
        sm += cross
        sm *= inv_uv
        np.sqrt(np.maximum(sm, 1e-300, out=sm), out=sm)
    return _roots_kernel(family, sp, sm, inv_uv)


# ---------------------------------------------------------------------------
# Integral route


def _exponent_vector(m: int, lam: complex, eps: complex) -> np.ndarray:
    """Alternating exponents e_j = lam -+ eps - 1 (odd axes carry +eps)."""
    e = np.empty(2 * m, dtype=complex)
    e[0::2] = complex(lam) + complex(eps) - 1.0
    e[1::2] = complex(lam) - complex(eps) - 1.0
    return e


def _weight(logs: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """prod_j u_j^e_j = exp(sum_j e_j log u_j) on axis rows of log u, the sum
    taken row by row: the complex mat-vec evec @ logs would wake numpy's own
    BLAS thread pool, which stalls for milliseconds after a scipy LAPACK
    call."""
    exponent = logs[0] * evec[0]
    for j in range(1, len(evec)):
        exponent += logs[j] * evec[j]
    return np.exp(exponent, out=exponent)


def _integrand(family: TraceFamily, lam: complex, eps: complex, g: float, m: int, orders):
    """Rows K * w * (sum_j log u_j)^k for k in orders, integrating to d^k R_m / d lam^k.
    Each (npts, 2m) point block is transposed once to axis rows."""
    evec = _exponent_vector(m, lam, eps)

    def f(u: np.ndarray) -> np.ndarray:
        ut = np.ascontiguousarray(u.T)
        logs = np.log(ut)
        weighted = _weight(logs, evec)
        weighted *= _point_kernel(family, g, m, ut)
        out = np.empty((len(orders), ut.shape[1]), dtype=complex)
        if any(orders):
            log_sum = logs[0] + logs[1]
            for row in logs[2:]:
                log_sum += row
        for row, k in zip(out, orders):
            if k:
                np.multiply(weighted, log_sum**k, out=row)
            else:
                row[...] = weighted
        return out

    return f


def _pair_kernel(family: TraceFamily, g: float):
    """(factors, kernel): the family's m = 2 kernel K(a, b) between the pair
    points a = (u0, u1) and b = (u2, u3), in the contract of
    quadrature.integrate_pairs.  factors maps the (2, npts) pair rows to
    per-point factor rows; kernel(fa, fb, out) writes K between the points
    of two column slices of them into out[0], with out[1] and out[2] as
    scratch.  Both of the contract's symmetries hold bit for bit: every
    product and sum is grouped so that swapping a and b only reorders
    commuting operands, and the swap s: (u0, u1) -> (u1, u0) permutes the
    factor rows or negates one, so K(sa, sb) == K(a, b) and K(a, sb) ==
    K(b, sa).

    Flat: prod u = p(a) p(b), p = u0 u1 on each pair, and Phi_2 is a sum
    of non-negative terms, h(a) + h(b) + (s(a) t(b) + t(a) s(b)), with
    h = (1 - u0)(1 - u1), s = u1 (1 - u0) and t = u0 (1 - u1) on each pair:
    rows (h, s, t, p), and the swap exchanges s and t.  Otherwise
    Psi_2 = tr(P(a) P(b)), with P the ordered product of Psi's two factors
    over each pair, written as its swap-even part Pbar and a swap-odd
    scalar zeta:

        Psi_2 = tr(Pbar(a) Pbar(b)) - zeta(a) zeta(b),
        Pbar = [[c^2 x1 - s^2 y, c s (y - x4)], [c s (y - x1), c^2 x4 - s^2 y]],
        zeta = (s / sqrt 2) (u0 / u1 - u1 / u0),

    with c = cosh 2g, s = sinh 2g, x1 = 1 / (u0 u1), x4 = u0 u1 and
    y = (u0 / u1 + u1 / u0) / 2: rows (pbar0, pbar1, pbar2, pbar3, zeta),
    and the swap negates zeta.  The product's own entries would change
    their rounding under the swap, and the crossed blocks K(a, sb) would
    fail integrate_pairs' symmetry check at corner nodes.
    """
    if isinstance(family, Flat):

        def factors(pts):
            u0, u1 = pts
            return np.stack([(1.0 - u0) * (1.0 - u1), u1 * (1.0 - u0), u0 * (1.0 - u1), u0 * u1])

        def kernel(fa, fb, out):
            phi_val, prod, work = out
            np.add.outer(fa[0], fb[0], out=phi_val)
            np.multiply.outer(fa[1], fb[2], out=prod)
            prod += np.multiply.outer(fa[2], fb[1], out=work)
            phi_val += prod
            _flat_kernel(g, phi_val, np.multiply.outer(fa[3], fb[3], out=prod))

        return factors, kernel

    ch, sh = math.cosh(2 * g), math.sinh(2 * g)

    def factors(pts):
        u0, u1 = pts
        x4 = u0 * u1
        x1 = 1.0 / x4
        ratio, inverse = u0 / u1, u1 / u0
        y = (ratio + inverse) / 2.0
        return np.stack([
            ch * ch * x1 - sh * sh * y,
            ch * sh * (y - x4),
            ch * sh * (y - x1),
            ch * ch * x4 - sh * sh * y,
            sh / math.sqrt(2.0) * (ratio - inverse),
        ])

    def kernel(fa, fb, out):
        psi_val, cross, work = out
        np.multiply.outer(fa[0], fb[0], out=psi_val)
        psi_val += np.multiply.outer(fa[3], fb[3], out=cross)
        np.multiply.outer(fa[1], fb[2], out=cross)
        cross += np.multiply.outer(fa[2], fb[1], out=work)
        psi_val += cross
        psi_val -= np.multiply.outer(fa[4], fb[4], out=cross)
        _psi_kernel(family, psi_val, out[1:])

    return factors, kernel


def _pair_row(family: TraceFamily, lam, eps, g: float, orders, spec):
    """The m = 2 integrand rows as one symmetric kernel (_pair_kernel)
    between the axis pairs a = (u0, u1) and b = (u2, u3).  The weight and
    sum log u split between the pairs, so (L_a + L_b)^k expands binomially
    and one kernel pass serves every order."""
    evec = _exponent_vector(1, lam, eps)  # both pairs carry (lam+eps-1, lam-eps-1)
    top = max(orders)

    def side(pts):
        logs = np.log(pts)
        weight = _weight(logs, evec)
        log_sum = logs[0] + logs[1]
        return np.stack([weight * log_sum**i if i else weight for i in range(top + 1)])

    def combine(gram):
        return np.array(
            [sum(math.comb(k, i) * gram[i, k - i] for i in range(k + 1)) for k in orders]
        )

    return quadrature.integrate_pairs(*_pair_kernel(family, g), side, combine, spec)


#: Quadrature per m: tanh-sinh tensor rules for m <= 2, Monte Carlo for m = 3.
_DEFAULT_SPECS = {
    1: quadrature.QuadratureSpec(scheme="tanh_sinh", points_per_axis=7),
    2: quadrature.QuadratureSpec(scheme="tanh_sinh", points_per_axis=5),
    3: quadrature.QuadratureSpec(scheme="monte_carlo"),
}


def dn_r_m_family_operator(
    family: TraceFamily, lam: complex, g: float, eps: complex, m: int, n: int = 0, N: int = 400
) -> SeriesValue:
    """n-th shift derivative of the family's R_m by the operator oracle: the
    signed sum over the family's components (converged at abs_error <= 1e-8)."""
    return operator_oracle.family_term(family.components, g, lam, eps, m, n, N, 1e-8)[n]


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


def _require_finite_inputs(lam, g, eps) -> None:
    """DomainError unless lam, g and eps are finite, before any term is summed."""
    for name, value in (("lambda", lam), ("eps", eps), ("g", g)):
        require_finite(name, value)


def _integral_row(family, lam, g, eps, m: int, orders, spec) -> dict[int, SeriesValue]:
    """d^k R_m / d lam^k for every k in `orders`: under the integral sign from
    one quadrature pass over shared nodes (m <= 3), or by the operator oracle
    for m >= 4.  m = 2 on a tensor rule is pair-separable (_pair_row); m = 1,
    m = 3 and any Monte Carlo spec integrate the point-by-point integrand."""
    _require_finite_inputs(lam, g, eps)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    components = family.components
    if m >= 4:
        # One sweep row holds every order, converged at abs_error <= 1e-8.
        row = operator_oracle.family_term(components, g, lam, eps, m, max(orders), 400, 1e-8)
        return {k: row[k] for k in orders}
    margin = complex(lam).real - abs(complex(eps).real)
    if not margin + min(c.offset for c in components) > 0:
        raise DomainError(
            f"integral route requires Re(lam) - |Re(eps)| (+ family shift) > 0; "
            f"got lam={lam}, eps={eps} for {family}"
        )
    spec = spec or _DEFAULT_SPECS[m]
    if m == 2 and spec.scheme != "monte_carlo":
        return dict(zip(orders, _pair_row(family, lam, eps, g, orders, spec)))
    f = _integrand(family, lam, eps, g, m, orders)
    if spec.scheme == "monte_carlo":
        row = quadrature.integrate_monte_carlo(f, 2 * m, spec.samples, spec.rng_seed)
    else:
        row = quadrature.integrate_tensor(f, 2 * m, spec)
    return dict(zip(orders, row))


def r_m_integral(
    family: TraceFamily,
    lam: complex,
    g: float,
    eps: complex,
    m: int,
    spec: quadrature.QuadratureSpec | None = None,
) -> SeriesValue:
    """R_m by the 2m-dimensional integral representation of the family.

    m in {1, 2} uses deterministic tanh-sinh tensor quadrature (pair-separable
    at m = 2), m = 3 Monte Carlo, m >= 4 delegates to the operator oracle.
    """
    return _integral_row(family, lam, g, eps, m, (0,), spec)[0]


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

    With lambda_power = p > 0 the Leibniz combination d^n/d lam^n [lam^p R_m]
    is returned instead (NCHO uses p = 2m).  Each order k it needs is one row
    of one (rows, npts) integrand, so all come from one quadrature pass.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if lambda_power < 0:
        raise DomainError(f"lambda_power must be >= 0, got {lambda_power}")
    orders = tuple(range(n - min(n, lambda_power), n + 1))
    row = _integral_row(family, lam, g, eps, m, orders, spec)
    return leibniz_lambda_power(n, lam, lambda_power, row.__getitem__)


# ---------------------------------------------------------------------------
# m = 1 fast paths


def r_1_series(family, lam: complex, g: float, eps: complex, tol: float = 1e-10) -> SeriesValue:
    """R_1 by its expansion in the coupling.

    Flat: sum_n (-4 g^2)^n / n! * J_n(flat); Plus (d = 1) and Minus
    (d = -1): sech(2g) * sum_n (1/2)_n / n! * tanh(2g)^(2n) * J_{2n}(delta=d).
    """
    _require_finite_inputs(lam, g, eps)
    components = family.components
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
        raise DomainError(f"r_1_series supports Flat, Plus or Minus, got {family}")
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
    tanh^2 2g) * k-sum + sum_{j>=1} (1/2)_j / j! tanh^{2j}(2g) B_{2j} ], with
    B_{2j} the delta-family coefficient in its parity l-sum form, the value
    form apery_ab_delta returns."""
    _require_finite_inputs(lam, g, eps)
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
        term = coeff * apery._delta_b_lsum(2 * n, delta, lam, eps, exact=False)
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
