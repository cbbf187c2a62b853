"""Closed-form machinery for the trace terms R_m.

The Phi and Psi kernels on the 2m-cube, the 2m-dimensional integral
representations of R_m for each family, the log-weighted integrands for the
shift derivatives, and the m=1 series/hypergeometric fast paths.

Every kernel reads one description: the factor rows of each axis pair of
a point (_pair_factors), or at m = 1 those of each axis (_axis_kernel).
The point-by-point integrand (m = 3 and Monte Carlo specs) runs on axis
rows, one contiguous row per coordinate of a block.  On a deterministic
rule the m = 1 term is a symmetric kernel between its two axes, which
quadrature.integrate_axes writes block by block, and the m = 2 term one
between the two axis-pair grids, which quadrature.integrate_pairs writes.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy.linalg.blas import dgemm

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


def _pair_factors(family: TraceFamily, g: float):
    """factors(pts): the family's factor rows of the axis pairs pts =
    (u0, u1), stacked on a new first axis; Phi_m and Psi_m read only these.
    Flat: (h, s, t, p) = ((1 - u0)(1 - u1), u1 (1 - u0), u0 (1 - u1), u0 u1).
    Plus, Minus and Nu: the ordered product of Psi's two factors over a pair
    is P = Pbar + (zeta / sqrt 2) K, with c = cosh 2g, s = sinh 2g,
    x1 = 1 / (u0 u1), x4 = u0 u1, y = (u0 / u1 + u1 / u0) / 2 and

        Pbar = [[c^2 x1 - s^2 y, c s (y - x4)], [c s (y - x1), c^2 x4 - s^2 y]],
        zeta = (s / sqrt 2) (u0 / u1 - u1 / u0),    K = [[-s, -c], [c, s]]:

    rows (pbar0, pbar1, pbar2, pbar3, zeta).  The swap (u0, u1) -> (u1, u0)
    exchanges Flat's s and t rows and negates zeta, bit for bit.
    """
    if isinstance(family, Flat):

        def factors(pts):
            u0, u1 = pts
            rows = np.empty((4,) + u0.shape)
            a, b = np.subtract(1.0, u0, out=rows[1]), np.subtract(1.0, u1, out=rows[2])
            np.multiply(a, b, out=rows[0])
            a *= u1
            b *= u0
            np.multiply(u0, u1, out=rows[3])
            return rows

        return factors

    ch, sh = math.cosh(2 * g), math.sinh(2 * g)
    c2, s2, cs, z = ch * ch, sh * sh, ch * sh, sh / math.sqrt(2.0)

    def factors(pts):
        u0, u1 = pts
        rows = np.empty((5,) + u0.shape)
        x4, ratio, inverse = u0 * u1, np.divide(u0, u1, out=rows[4]), u1 / u0
        x1, y = 1.0 / x4, (ratio + inverse) / 2.0
        np.multiply(cs, np.subtract(y, x4, out=rows[1]), out=rows[1])
        np.multiply(cs, np.subtract(y, x1, out=rows[2]), out=rows[2])
        y *= s2
        np.subtract(np.multiply(c2, x1, out=x1), y, out=rows[0])
        np.subtract(np.multiply(c2, x4, out=x4), y, out=rows[3])
        ratio -= inverse
        ratio *= z
        return rows

    return factors


def _phi_chains(rows: np.ndarray):
    """(Phi_m, prod u) from Flat's factor rows, each (m, npts): Phi_m sums
    the h_i and, over the cyclic chains i -> j != i, s_i (prod of the p
    strictly between) t_j.  No term is negative, so nothing cancels; the
    chains that end at j are summed by Horner's rule from the farthest start."""
    h, s, t, p = rows
    m = len(h)
    total = reduce(np.add, h)
    for j in range(m if m > 1 else 0):
        chain = s[j + 1 - m].copy()
        for d in range(m - 2, 0, -1):
            chain *= p[j - d]
            chain += s[j - d]
        chain *= t[j]
        total += chain
    return total, reduce(np.multiply, p)


def _psi_trace(g: float, rows: np.ndarray) -> np.ndarray:
    """Psi_m = tr prod_i P_i, P = Pbar + (zeta / sqrt 2) K, from Psi's factor
    rows, each (m, npts): each P_i is written over its Pbar rows, and each
    row [x, y] of the product is right-multiplied in place by the next."""
    ch, sh = math.cosh(2 * g), math.sinh(2 * g)
    q, zeta = rows[:4], rows[4]
    zeta /= math.sqrt(2.0)
    work = np.empty_like(zeta)
    for row, k in zip(q, (-sh, -ch, ch, sh)):
        row += np.multiply(zeta, k, out=work)
    prod, nxt, work = q[:, 0], np.empty((4, zeta.shape[1])), work[0]
    for b in q.swapaxes(0, 1)[1:]:
        for r in (0, 2):
            for c in (0, 1):
                np.multiply(prod[r], b[c], out=nxt[r + c])
                nxt[r + c] += np.multiply(prod[r + 1], b[c + 2], out=work)
        prod, nxt = nxt, prod
    return np.add(prod[0], prod[3], out=work)


def _point_pairs(m: int, u, g: float = 0.0):
    """The axis pairs (u0, u1) of a length-2m point of the open cube, else
    LengthMismatch, or DomainError for a non-finite g or a point off it."""
    arr = np.atleast_2d(np.asarray(u, dtype=float))
    if m < 1 or arr.shape[1] != 2 * m:
        raise LengthMismatch(f"expected {2 * m} coordinates, got {arr.shape[1]}")
    require_finite("g", g)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError(f"every coordinate must lie inside (0, 1), got {u}")
    return arr[:, 0::2].T, arr[:, 1::2].T


def phi(m: int, u) -> float:
    """Phi_m(u) for a length-2m point of the open cube."""
    return float(_phi_chains(_pair_factors(FLAT, 0.0)(_point_pairs(m, u)))[0][0])


def psi(m: int, g: float, u) -> float:
    """Psi_m^g(u) for a length-2m point of the open cube."""
    return float(_psi_trace(g, _pair_factors(PLUS, g)(_point_pairs(m, u, g)))[0])


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


def _axis_root(cross, uv, sign: float, term, out) -> np.ndarray:
    """sqrt(((1 + sign uv)^2 + cross) / uv), the root of Psi_1 + 2 sign from
    its factorized form, written over out; term is scratch and may be out.
    The radicand is floored at 1e-300 (it is >= 4 for sign = 1)."""
    (np.add if sign > 0 else np.subtract)(1.0, uv, out=term)
    np.square(term, out=term)
    np.add(term, cross, out=out)
    out /= uv
    return np.sqrt(np.maximum(out, 1e-300, out=out), out=out)


def _axis_kernel(family: TraceFamily, g: float):
    """(factors, kernel): the family's m = 1 kernel K(u, v) between the axes
    u and v, in the contract of quadrature.integrate_axes.  factors(u) holds
    two rows per node, Flat's (1 - u, u) and Psi's (r, u) with r = sinh 2g
    (1 - u^2); kernel(fa, fb, out, product) writes K into out[0] from the
    products of each row over the two axes, with out[1] and out[2] as
    scratch: Flat's from Phi_1 = (1 - u)(1 - v) and prod u = uv, Psi's from
    the factorized roots

        uv (Psi_1 -+ 2) = (1 -+ uv)^2 + r(u) r(v),

    which avoid the catastrophic cancellation of Psi_1 - 2 near the (1, 1)
    corner.  product is np.multiply.outer between node slices (the default)
    or np.multiply on the axis rows of points (_point_kernel).  Swapping u
    and v only reorders commuting operands, so K(u, v) == K(v, u) bit for
    bit.
    """
    if isinstance(family, Flat):

        def factors(u):
            return np.stack([1.0 - u, u])

        def kernel(fa, fb, out, product=np.multiply.outer):
            _flat_kernel(g, product(fa[0], fb[0], out=out[0]), product(fa[1], fb[1], out=out[1]))

        return factors, kernel

    sh = math.sinh(2.0 * g)

    def factors(u):
        return np.stack([sh * (1.0 - u * u), u])

    def kernel(fa, fb, out, product=np.multiply.outer):
        cross, uv, work = out
        product(fa[0], fb[0], out=cross)
        product(fa[1], fb[1], out=uv)
        if isinstance(family, Plus):
            sp, sm = None, _axis_root(cross, uv, -1.0, work, cross)
        elif isinstance(family, Minus):
            sp, sm = _axis_root(cross, uv, 1.0, work, cross), None
        else:
            # Both roots at once: sp takes work, so sm's (1 - uv)^2 needs an
            # array of its own while uv waits to divide it.
            sp = _axis_root(cross, uv, 1.0, work, work)
            sm = _axis_root(cross, uv, -1.0, np.empty_like(uv), cross)
        _roots_kernel(family, sp, sm, uv)

    return factors, kernel


def _point_kernel(family: TraceFamily, g: float, m: int, ut: np.ndarray) -> np.ndarray:
    """The family's real kernel on the (2m, npts) axis rows of a point block."""
    if m == 1:
        factors, kernel = _axis_kernel(family, g)
        out = np.empty((3, ut.shape[1]))
        kernel(factors(ut[0]), factors(ut[1]), out, np.multiply)
        return out[0]
    if isinstance(family, Flat):
        return _flat_kernel(g, *_phi_chains(_pair_factors(family, g)((ut[0::2], ut[1::2]))))
    psi_val = _psi_trace(g, _pair_factors(family, g)((ut[0::2], ut[1::2])))
    return _psi_kernel(family, psi_val, np.empty((2, ut.shape[1])))


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


#: Psi's pair rows whose products enter Psi_2 term by term symmetrically:
#: pbar0, pbar3 and zeta (negated on the left), one dgemm per block.
_SQUARE_ROWS = [0, 3, 4]


def _pair_kernel(family: TraceFamily, g: float):
    """(factors, kernel): the family's m = 2 kernel K(a, b) between the pair
    points a = (u0, u1) and b = (u2, u3), in the contract of
    quadrature.integrate_pairs, with factors = _pair_factors(family, g).
    kernel(fa, fb, out) writes K between the points of two column slices of
    the factor rows into out[0], with out[1] and out[2] as scratch, from
    Phi_2 = h(a) + h(b) + (s(a) t(b) + t(a) s(b)) and prod u = p(a) p(b), or
    from Psi_2 = tr(Pbar(a) Pbar(b)) - zeta(a) zeta(b) (K^2 = -I and
    tr(Pbar K) = 0).  Swapping a and b only reorders commuting operands, and
    the swap s inside a pair exchanges s and t or negates zeta, so
    K(sa, sb) == K(a, b) and K(a, sb) == K(b, sa) bit for bit, as
    integrate_pairs' symmetry check needs at corner nodes; the entries of P
    itself would round differently under s.

    Psi's square terms pbar0 pbar0' + pbar3 pbar3' - zeta zeta', each
    symmetric on its own, are one k = 3 dgemm per block; every entry sums
    its three products in the same order, so the block of (b, a) is the
    transpose of that of (a, b).  The cross pair pbar1 pbar2' + pbar2 pbar1'
    stays a sum of two outer products: swapping a and b exchanges its two
    terms, and only a sum of two is the same in either order, so a 5-term
    product would fail the symmetry check at corner nodes.  dgemm writes in
    place into the F-ordered scratch of _upper_gram and returns a copy for
    a C-ordered out[0], which is then written back.
    """
    factors = _pair_factors(family, g)
    if isinstance(family, Flat):

        def kernel(fa, fb, out):
            phi_val, prod, work = out
            np.add.outer(fa[0], fb[0], out=phi_val)
            np.multiply.outer(fa[1], fb[2], out=prod)
            prod += np.multiply.outer(fa[2], fb[1], out=work)
            phi_val += prod
            _flat_kernel(g, phi_val, np.multiply.outer(fa[3], fb[3], out=prod))

        return factors, kernel

    def kernel(fa, fb, out):
        psi_val, cross, work = out
        left, right = fa[_SQUARE_ROWS], fb[_SQUARE_ROWS]
        np.negative(left[2], out=left[2])
        square = dgemm(1.0, left.T, right.T, trans_b=1, c=psi_val, overwrite_c=1)
        if square is not psi_val:
            psi_val[...] = square
        np.multiply.outer(fa[1], fb[2], out=cross)
        cross += np.multiply.outer(fa[2], fb[1], out=work)
        psi_val += cross
        _psi_kernel(family, psi_val, out[1:])

    return factors, kernel


def _binomial_orders(gram: np.ndarray, orders) -> np.ndarray:
    """Order k of the (L_a + L_b)^k rows from the Gram block G[i, j] =
    <side L_a^i, K side' L_b^j>: sum_i C(k, i) G[i, k - i]."""
    return np.array(
        [sum(math.comb(k, i) * gram[i, k - i] for i in range(k + 1)) for k in orders]
    )


def _axis_row(family: TraceFamily, lam, eps, g: float, orders, spec):
    """The m = 1 integrand rows as one symmetric kernel (_axis_kernel)
    between the axes u and v.  The weight u^(lam+eps-1) v^(lam-eps-1) and
    log u + log v split between the axes, with the sides V_i = u^(lam+eps-1)
    (log u)^i and W_i = v^(lam-eps-1) (log v)^i, so order k is
    sum_i C(k, i) G[V_i, W_(k-i)] and one kernel pass serves every order."""
    evec = _exponent_vector(1, lam, eps)
    top = max(orders)

    def sides(u):
        logs = np.log(u)
        powers = [logs**i if i else 1.0 for i in range(top + 1)]
        return np.stack([np.exp(e * logs) * p for e in evec for p in powers])

    def combine(gram):
        return _binomial_orders(gram[: top + 1, top + 1 :], orders)

    return quadrature.integrate_axes(*_axis_kernel(family, g), sides, combine, spec)


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

    return quadrature.integrate_pairs(
        *_pair_kernel(family, g), side, lambda gram: _binomial_orders(gram, orders), spec
    )


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
    for m >= 4.  On a tensor rule m = 1 is a kernel between its two axes
    (_axis_row) and m = 2 one between its axis pairs (_pair_row); m = 3 and
    any Monte Carlo spec integrate the point-by-point integrand."""
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
    if m < 3 and spec.scheme != "monte_carlo":
        rule = _axis_row if m == 1 else _pair_row
        return dict(zip(orders, rule(family, lam, eps, g, orders, spec)))
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

    m in {1, 2} uses deterministic tanh-sinh tensor quadrature (a kernel
    between the two axes at m = 1, between the axis pairs at m = 2), m = 3
    Monte Carlo, m >= 4 delegates to the operator oracle.
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
