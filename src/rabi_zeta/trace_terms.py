"""Closed-form machinery for the trace terms R_m.

The Phi and Psi kernels on the 2m-cube, the 2m-dimensional integral
representations of R_m for each family, the log-weighted integrands for the
shift derivatives, and the m=1 series/hypergeometric fast paths.

Two descriptions give the Phi and Psi kernels.  phi, psi and the point
kernels at every m read the factor rows of each consecutive axis pair
(u_2i, u_2i+1) of a point, Psi's (_pair_factors) as the entries of its
pair product less the identity, in a basis where every entry is >= 0.
Every tensor rule reads per-side rows (_pair_kernel): those of a pair of
axes that carries one exponent, (u0, u2) or (u1, u3), which form Psi_2 -
2 as a sum of non-negative terms; m = 1 reads them at the pair point (u,
1), where the 4-cycle collapses to Psi_1.  Both descriptions form Psi - 2
from non-negative terms and share the rest: Flat's rows hold no g and
come from one builder (_flat_rows), and every Psi family takes its roots
over Psi - 2, and refuses one that overflows, in one step
(_roots_kernel).  Every integrand reads one row rule (_log_rows): prod
u_j^e_j (sum_j log u_j)^k.  m alone picks the rule.  The tanh-sinh tensor
rules take m = 1 as a symmetric kernel between its two axes
(quadrature.integrate_axes, block by block) and m = 2 as one between the
grids of those axis pairs on their points with x <= y
(quadrature.integrate_pairs), at the tanh-sinh levels of _LEVELS.  The
randomly shifted lattice runs the point integrand on axis rows at m = 3.
The integral route stops there: m >= 4 is the operator route's
(dn_r_m_family_operator).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy.linalg.blas import dgemm

from . import apery, operator_oracle, quadrature
from .errors import DomainError, LengthMismatch, NodeSingularity, NoConvergence, PoleError

# The trace families live beside operator_oracle.Component and are re-exported.
from .operator_oracle import FLAT, MINUS, PLUS, Flat, Minus, Nu, Plus, TraceFamily  # noqa: F401
from .operator_oracle import coupling_hyperbolics
from .specfun import (
    SeriesValue,
    hypergeometric_pfq,
    pochhammer,
    require_finite,
    require_integer,
    sum_inverse_pair,
)


# ---------------------------------------------------------------------------
# Kernels


def _flat_rows(pts) -> np.ndarray:
    """Flat's factor rows (1 - x, 1 - y, (1 - x) y, x (1 - y), xy) of the
    axis pairs pts = (x, y), stacked on a new first axis.  They hold no g,
    and both kernel descriptions read them: the split kernel between the
    pairs (u0, u2) and (u1, u3) (_pair_kernel), and, over the consecutive
    pairs (u_2i, u_2i+1), Phi_m (_phi_chains)."""
    x, y = pts
    rows = np.empty((5,) + x.shape)
    np.subtract(1.0, x, out=rows[0])
    np.subtract(1.0, y, out=rows[1])
    np.multiply(rows[0], y, out=rows[2])
    np.multiply(x, rows[1], out=rows[3])
    np.multiply(x, y, out=rows[4])
    return rows


def _pair_factors(g: float):
    """factors(pts): Psi's factor rows of the consecutive axis pairs pts =
    (u0, u1), stacked on a new first axis, which psi and the Psi point
    kernels read (_psi_minus_two): the entries (e00, e01, e10, e11) of E =
    P - I, P the ordered product of Psi's two one-axis factors over a pair,
    in the basis T = [[1, 1], [1, -1]] / sqrt 2.  With c = (1 - u)^2 / (2u),
    b = (1 - u)(1 + u) / (2u) and a = 1 + c, from one reciprocal per axis,

        E = [[c0 + a0 c1 + e^(-4g) b0 b1,  a0 b1 + e^(-4g) b0 a1],
             [a0 b1 + e^(4g) b0 a1,        c0 + a0 c1 + e^(4g) b0 b1]].

    Every term is >= 0, so no entry cancels, at the corners either.
    e^(+-4g) are the square of cosh 2g + |sinh 2g| and its reciprocal; a
    product overflows to inf where a power would raise."""
    ch, sh = coupling_hyperbolics(g)
    grow = ch + abs(sh)
    grow *= grow
    up, down = (grow, 1.0 / grow) if sh >= 0.0 else (1.0 / grow, grow)

    def axis_terms(u):
        half_inv, one_minus = 0.5 / u, 1.0 - u
        c = one_minus * one_minus
        c *= half_inv
        one_minus *= 1.0 + u
        one_minus *= half_inv
        return 1.0 + c, one_minus, c

    def factors(pts):
        (a0, b0, c0), (a1, b1, c1) = [axis_terms(u) for u in pts]
        rows = np.empty((4,) + c0.shape)
        np.multiply(a0, c1, out=rows[0])
        rows[0] += c0
        np.multiply(a0, b1, out=rows[1])
        rows[2:] = rows[1::-1]  # e10 and e11 start as a0 b1 and c0 + a0 c1
        b1 *= b0
        a1 *= b0
        rows[0] += np.multiply(b1, down, out=c0)
        rows[3] += np.multiply(b1, up, out=b1)
        rows[1] += np.multiply(a1, down, out=c0)
        rows[2] += np.multiply(a1, up, out=a1)
        return rows

    return factors


def _phi_chains(rows: np.ndarray):
    """(Phi_m, prod u) from Flat's rows f of the consecutive pairs, each
    (m, npts) (_flat_rows), read as h = f0 f1 = (1 - u0)(1 - u1), s = f2,
    t = f3 and p = f4: Phi_m sums the h_i and, over the cyclic chains i -> j
    != i, s_i (prod of the p strictly between) t_j.  No term is negative, so
    nothing cancels; the chains that end at j are summed by Horner's rule
    from the farthest start."""
    h, (s, t, p) = rows[0] * rows[1], rows[2:]
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


def _psi_minus_two(rows: np.ndarray) -> np.ndarray:
    """Psi_m - 2 = tr F_m from Psi's pair rows E_i, each (m, npts)
    (_pair_factors): F_1 = E_1 and F_(i+1) = F_i E_(i+1) + F_i + E_(i+1),
    the entries of prod_i (I + E_i) - I, each written into a new array.
    Every term is >= 0, so nothing cancels, at the corners either."""
    prod = rows[:, 0].reshape(2, 2, -1)
    for e in rows.swapaxes(0, 1)[1:]:
        e = e.reshape(2, 2, -1)
        nxt = prod + e
        nxt += prod[:, 0, None] * e[0]
        nxt += prod[:, 1, None] * e[1]
        prod = nxt
    return prod[0, 0] + prod[1, 1]


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
    return float(_phi_chains(_flat_rows(_point_pairs(m, u)))[0][0])


def psi(m: int, g: float, u) -> float:
    """Psi_m^g(u) for a length-2m point of the open cube."""
    return 2.0 + float(_psi_minus_two(_pair_factors(g)(_point_pairs(m, u, g)))[0])


def _flat_kernel(g: float, phi_val: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Flat's kernel exp(-4 g^2 Phi_m / (1 - prod u)) / (1 - prod u), written
    over phi_val; prod becomes 1 - prod u."""
    one_minus = np.maximum(np.subtract(1.0, prod, out=prod), 1e-300, out=prod)
    phi_val *= -4.0 * g * g
    phi_val /= one_minus
    np.exp(phi_val, out=phi_val)
    phi_val /= one_minus
    return phi_val


def _roots_kernel(family: TraceFamily, minus_two, work) -> np.ndarray:
    """The kernel of Plus (1 / sqrt(Psi - 2)), Minus (1 / sqrt((Psi - 2) +
    4)) or Nu (both roots) from minus_two = Psi - 2 >= 0, written over
    minus_two, with work two scratch arrays of its shape.  Both kernel
    descriptions end here, each with a Psi - 2 summed from non-negative
    terms: the split kernel (_pair_kernel) and the point kernel
    (_point_kernel).  A Psi - 2 that overflows raises NodeSingularity, as
    Nu's non-finite kernel does."""
    if not minus_two.max() < math.inf:
        raise NodeSingularity("Psi - 2 overflows at an interior node")
    if isinstance(family, Plus):
        return np.divide(1.0, np.sqrt(minus_two, out=minus_two), out=minus_two)
    sp = np.sqrt(np.add(minus_two, 4.0, out=work[0]), out=work[0])
    if isinstance(family, Minus):
        return np.divide(1.0, sp, out=minus_two)
    sm = np.sqrt(minus_two, out=minus_two)
    # mu = ((sqrt(Psi+2)-sqrt(Psi-2))/2)^2 = (2/(sp+sm))^2, stably.
    mu = np.add(sp, sm, out=work[1])
    np.divide(2.0, mu, out=mu)
    np.square(mu, out=mu)
    np.log(mu, out=mu)
    mu *= family.nu - 1.0
    np.exp(mu, out=mu)
    sp *= sm
    return np.divide(mu, sp, out=sm)


def _point_kernel(family: TraceFamily, g: float, ut: np.ndarray) -> np.ndarray:
    """The family's real kernel on the (2m, npts) axis rows of a point block,
    from the rows of its consecutive pairs (u_2i, u_2i+1)."""
    pairs = (ut[0::2], ut[1::2])
    if isinstance(family, Flat):
        return _flat_kernel(g, *_phi_chains(_flat_rows(pairs)))
    minus_two = _psi_minus_two(_pair_factors(g)(pairs))
    return _roots_kernel(family, minus_two, np.empty((2, ut.shape[1])))


# ---------------------------------------------------------------------------
# Integral route


def _exponent_vector(m: int, lam: complex, eps: complex) -> np.ndarray:
    """Alternating exponents e_j = lam -+ eps - 1 (odd axes carry +eps)."""
    e = np.empty(2 * m, dtype=complex)
    e[0::2] = complex(lam) + complex(eps) - 1.0
    e[1::2] = complex(lam) - complex(eps) - 1.0
    return e


def _log_rows(logs: np.ndarray, evec: np.ndarray, orders, kernel=None) -> np.ndarray:
    """Rows w K (sum_j log u_j)^k for k in orders on axis rows of log u, w =
    prod_j u_j^e_j = exp(sum_j e_j log u_j) and K the real point kernel (1
    when None).  The exponent is summed row by row: the complex mat-vec
    evec @ logs would wake numpy's own BLAS thread pool, which stalls for
    milliseconds after a scipy LAPACK call.  K multiplies w once, before
    the log powers."""
    exponent = logs[0] * evec[0]
    for j in range(1, len(evec)):
        exponent += logs[j] * evec[j]
    weighted = np.exp(exponent, out=exponent)
    if kernel is not None:
        weighted *= kernel
    out = np.empty((len(orders),) + weighted.shape, dtype=complex)
    if any(orders):
        log_sum = reduce(np.add, logs)
    for row, k in zip(out, orders):
        if k:
            np.multiply(weighted, log_sum**k, out=row)
        else:
            row[...] = weighted
    return out


def _integrand(family: TraceFamily, lam: complex, eps: complex, g: float, m: int, orders):
    """The point rule: rows K w (sum_j log u_j)^k for k in orders (_log_rows),
    integrating to d^k R_m / d lam^k.  Each (npts, 2m) point block is
    transposed once to axis rows."""
    evec = _exponent_vector(m, lam, eps)

    def f(u: np.ndarray) -> np.ndarray:
        ut = np.ascontiguousarray(u.T)
        return _log_rows(np.log(ut), evec, orders, _point_kernel(family, g, ut))

    return f


def _outer_sum(fa, fb, out) -> None:
    """out = sum_k fa[k] (x) fb[k], one dgemm.  dgemm writes in place into
    the F-ordered scratch of quadrature._upper_gram and returns a copy for a
    C-ordered out, which is then written back.  Every entry sums its
    products in the same order, so the block of (fb, fa) is the transpose
    of that of (fa, fb)."""
    total = dgemm(1.0, fa.T, fb.T, trans_b=1, c=out, overwrite_c=1)
    if total is not out:
        out[...] = total


def _pair_kernel(family: TraceFamily, g: float):
    """(factors, kernel): the family's split kernel K(a, b) between the axis
    pairs that carry one exponent, a = (u0, u2) at lam + eps - 1 and b = (u1,
    u3) at lam - eps - 1, in the contract of quadrature.integrate_pairs.
    Phi_2 and Psi_2 are traces of a cyclic product of four one-axis factors,
    invariant under the dihedral group of the 4-cycle (u0 u1 u2 u3): the
    reflection (u0 u1)(u2 u3) exchanges a and b, and the swap inside either
    pair is a reflection too.  factors(pts) holds per pair point (x, y),
    with p = xy and 1 - p formed as (1 - x) + x (1 - y):

      Flat: f = (1 - x, 1 - y, (1 - x) y, x (1 - y), p) (_flat_rows), and
            Phi_2 = f0 f0' + f1 f1' + (f2 f3' + f3 f2'),  prod u = p p';
      Psi:  (e, t, d, sqrt 2 e) with r(u) = (1 - u)(1 + u) / u and
            e = (1 - p)^2 / (sqrt 2 p),  t = (sinh 4g / 2) r(x) r(y),
            d = sqrt(cosh 4g) (1 - p)(1 + p) / (sqrt 2 p), and
            Psi_2 - 2 = e e' + t t' + d d' + sqrt 2 (e + e').

    Every term of Psi_2 - 2 is >= 0, so the kernel forms it without the
    cancellation of Psi_2 - 2 near the (1, 1, 1, 1) corner and takes its
    roots (_roots_kernel) with no floor.  The m = 1 kernel K(u, v) between
    the axes u and v is the same kernel between the pair points (u, 1) and
    (v, 1), in the contract of quadrature.integrate_axes: with u2 = u3 = 1
    the 4-cycle collapses to Psi_1 (Psi's one-axis factor at 1 squares to
    the identity), and the rows hold 1 - p = 1 - u exactly and t = 0, so
    Phi_1 = (1 - u)(1 - v) and

        Psi_1 - 2 = ((1 - uv)^2 + sinh^2 2g (1 - u^2)(1 - v^2)) / (uv)

    is formed from non-negative terms too.  kernel(fa, fb, out) writes K
    between the points of two column slices of the factor rows into out[0],
    with out[1] and out[2] as scratch: the squares are one dgemm
    (_outer_sum, k = 2 for Flat and 3 for Psi); Flat's cross pair stays a
    sum of two outer products, which swapping a and b exchanges, and Psi's
    sqrt 2 (e + e') one add.outer, so K(a, b) == K(b, a).T bit for bit.
    Psi - 2 overflows at |g| of about 159 at m = 1 and 100 at m = 2 (the
    rows themselves do from about 177.5), and _roots_kernel refuses it
    there.
    """
    if isinstance(family, Flat):

        def kernel(fa, fb, out):
            phi_val, prod, work = out
            _outer_sum(fa[:2], fb[:2], phi_val)
            np.multiply.outer(fa[2], fb[3], out=prod)
            prod += np.multiply.outer(fa[3], fb[2], out=work)
            phi_val += prod
            _flat_kernel(g, phi_val, np.multiply.outer(fa[4], fb[4], out=prod))

        return _flat_rows, kernel

    ch, sh = coupling_hyperbolics(g)
    half_sinh4, root_cosh4 = sh * ch, math.sqrt(1.0 + 2.0 * sh * sh)

    def factors(pts):
        x, y = pts
        p, one_minus = x * y, (1.0 - x) + x * (1.0 - y)
        ratio = one_minus / p
        rows = np.empty((4,) + x.shape)
        np.multiply(ratio, one_minus, out=rows[3])
        np.divide(rows[3], math.sqrt(2.0), out=rows[0])
        np.multiply(*[(1.0 - u) * (1.0 + u) / u for u in pts], out=rows[1])
        rows[1] *= half_sinh4
        np.multiply(ratio, 1.0 + p, out=rows[2])
        rows[2] *= root_cosh4 / math.sqrt(2.0)
        return rows

    def kernel(fa, fb, out):
        minus_two, work = out[0], out[1:]
        _outer_sum(fa[:3], fb[:3], minus_two)
        minus_two += np.add.outer(fa[3], fb[3], out=work[0])
        _roots_kernel(family, minus_two, work)

    return factors, kernel


def _binomial_orders(gram: np.ndarray, orders) -> np.ndarray:
    """Order k of the (L_a + L_b)^k rows from the Gram block G[i, j] =
    <side L_a^i, K side' L_b^j>: sum_i C(k, i) G[i, k - i]."""
    return np.array(
        [sum(math.comb(k, i) * gram[i, k - i] for i in range(k + 1)) for k in orders]
    )


def _split_row(family: TraceFamily, lam, eps, g: float, m: int, orders):
    """The m = 1 and m = 2 integrand rows as one symmetric kernel between
    the halves of the axes that carry one exponent each, both from the rows
    of _pair_kernel: the axes u and v at m = 1, read as the pair points (u,
    1) and (v, 1) (quadrature.integrate_axes), the pairs (u0, u2) and (u1,
    u3) at m = 2 (quadrature.integrate_pairs), at the level _LEVELS[m].
    The weight prod u_j^e_j and sum log u_j split between the halves, with
    the sides V_i = prod u^(lam+eps-1) (sum log u)^i and W_i = prod
    u^(lam-eps-1) (sum log u)^i over a half's axes (_log_rows), which the
    swap inside a pair leaves unchanged; so order k is sum_i C(k, i)
    G[V_i, W_(k-i)] and one pass serves them all."""
    evec = _exponent_vector(1, lam, eps)
    top = max(orders)
    factors, kernel = _pair_kernel(family, g)

    def sides(pts):
        logs = np.log(pts).reshape(m, -1)
        return np.concatenate([_log_rows(logs, (e,) * m, range(top + 1)) for e in evec])

    def combine(gram):
        return _binomial_orders(gram[: top + 1, top + 1 :], orders)

    if m == 1:

        def axis_factors(u):
            return factors((u, np.ones_like(u)))

        return quadrature.integrate_axes(axis_factors, kernel, sides, combine, _LEVELS[m])
    return quadrature.integrate_pairs(factors, kernel, sides, combine, _LEVELS[m])


#: The tanh-sinh level of the m = 1 and m = 2 tensor rules.
_LEVELS = {1: 7, 2: 5}


def dn_r_m_family_operator(
    family: TraceFamily, lam: complex, g: float, eps: complex, m: int, n: int = 0, N: int = 400
) -> SeriesValue:
    """n-th shift derivative of the family's R_m by the operator oracle: the
    signed sum over the family's components, converged as
    operator_oracle.family_term reads it."""
    return operator_oracle.family_term(family.components, g, lam, eps, m, n, N)[n]


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


def _integral_row(family, lam, g, eps, m: int, orders) -> dict[int, SeriesValue]:
    """d^k R_m / d lam^k for every k in `orders`, under the integral sign from
    one quadrature pass over shared nodes.  m alone picks the rule: m = 1 is
    a kernel between two axes and m = 2 one between two axis pairs
    (_split_row), on tanh-sinh rules at the levels of _LEVELS; m = 3 is the
    shifted lattice on the point integrand (_integrand).  An m that is not
    an int from 1 to 3 raises DomainError: m >= 4 is the operator route's."""
    _require_finite_inputs(lam, g, eps)
    try:
        require_integer("m", m, 1, 3)
    except DomainError as exc:
        raise DomainError(f"{exc}: the integral route stops at m = 3, and the operator "
                          f"route takes any m >= 1") from None
    components = family.components
    margin = complex(lam).real - abs(complex(eps).real)
    if not margin + min(c.offset for c in components) > 0:
        raise DomainError(
            f"integral route requires Re(lam) - |Re(eps)| (+ family shift) > 0; "
            f"got lam={lam}, eps={eps} for {family}"
        )
    if m == 3:
        row = quadrature.integrate_lattice(_integrand(family, lam, eps, g, m, orders), 2 * m)
    else:
        row = _split_row(family, lam, eps, g, m, orders)
    return dict(zip(orders, row))


def r_m_integral(family: TraceFamily, lam: complex, g: float, eps: complex, m: int) -> SeriesValue:
    """R_m by the 2m-dimensional integral representation of the family.

    m in {1, 2} runs tanh-sinh tensor quadrature (a kernel between the two
    axes at level 7 for m = 1, between the axis pairs at level 5 for m = 2);
    m = 3 the randomly shifted lattice.  m >= 4 raises DomainError: the
    operator route (dn_r_m_family_operator) takes it.
    """
    return _integral_row(family, lam, g, eps, m, (0,))[0]


def dn_r_m_integral(
    family: TraceFamily,
    lam: complex,
    g: float,
    eps: complex,
    m: int,
    n: int,
    lambda_power: int = 0,
) -> SeriesValue:
    """n-th shift derivative of R_m under the integral sign: the r_m_integral
    integrand times (log prod u_j)^n, for m from 1 to 3.

    With lambda_power = p > 0 the Leibniz combination d^n/d lam^n [lam^p R_m]
    is returned instead (NCHO uses p = 2m).  Each order k it needs is one row
    of one (rows, npts) integrand, so all come from one quadrature pass.
    """
    require_integer("n", n, 0)
    require_integer("lambda_power", lambda_power, 0)
    orders = tuple(range(n - min(n, lambda_power), n + 1))
    row = _integral_row(family, lam, g, eps, m, orders)
    return leibniz_lambda_power(n, lam, lambda_power, row.__getitem__)


# ---------------------------------------------------------------------------
# m = 1 fast paths


#: r_1_series stops at the first term below this fraction of its sum, and
#: sums each J-term to a tenth of it.
_R1_TOL = 1e-10


def r_1_series(family, lam: complex, g: float, eps: complex) -> SeriesValue:
    """R_1 by its expansion in the coupling, to _R1_TOL relative.

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
            jn = apery.j_flat(n, lam, eps, method="series", tol=_R1_TOL * 0.1)
            term = coeff * jn.value
            total += term
            if n > 0 and abs(term) < _R1_TOL * max(abs(total), 1e-300):
                return SeriesValue(total, abs(term) + _R1_TOL * abs(total) * 0.1, n + 1, True)
            coeff *= x / (n + 1)
        raise NoConvergence("flat R_1 series did not converge in 200 terms")
    if len(components) != 2:
        raise DomainError(f"r_1_series supports Flat, Plus or Minus, got {family}")
    delta = int(components[1].sign)
    t2 = math.tanh(2 * g) ** 2
    sech = 1.0 / coupling_hyperbolics(g)[0]
    total = 0.0 + 0.0j
    coeff = 1.0
    for n in range(300):
        jn = apery.j_delta(2 * n, delta, lam, eps, method="series", tol=_R1_TOL * 0.1)
        term = coeff * jn.value
        total += term
        if n > 0 and abs(term) < _R1_TOL * max(abs(total), 1e-300):
            bound = abs(term) * t2 / max(1 - t2, 1e-16)
            err = sech * (bound + _R1_TOL * abs(total) * 0.1)
            return SeriesValue(sech * total, err, n + 1, True)
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
    sech = 1.0 / coupling_hyperbolics(g)[0]
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
