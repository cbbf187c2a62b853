import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_zeta import apery, operator_oracle, quadrature, trace_terms
from rabi_zeta.errors import DomainError, LengthMismatch, NodeSingularity
from rabi_zeta.quadrature import integrate_axes, integrate_pairs, integrate_tensor
from rabi_zeta.trace_terms import (
    FLAT,
    MINUS,
    PLUS,
    Nu,
    _integrand,
    dn_r_m_integral,
    phi,
    psi,
    r_1_hypergeometric,
    r_1_series,
    r_m_integral,
)
from rabi_zeta.operator_oracle import Ncho, dn_r_m_operator, r_m_operator
from rabi_zeta.zeta_values import ZetaRequest, zeta_value

unit = st.floats(0.05, 0.95)


def _phi_definition(u) -> mpmath.mpf:
    """Phi_m by its definition, m (1 + prod u) plus the alternating sum over
    run lengths l = 1 .. 2m - 1 of the products of the 2m cyclic runs of
    length l.  The sum cancels down to about (1 - u)^2 ~ 1e-31 at the
    level-5 corner nodes, so it is taken at 80 digits."""
    d = len(u)
    with mpmath.workdps(80):
        x = [mpmath.mpf(float(v)) for v in u]
        total = d // 2 * (1 + mpmath.fprod(x))
        for length in range(1, d):
            runs = mpmath.fsum(mpmath.fprod(x[(k + i) % d] for i in range(length)) for k in range(d))
            total += (-1) ** length * runs
        return +total


def _psi_definition(g: float, u, dps: int = 40) -> mpmath.mpf:
    """Psi_m^g by its definition at dps digits: the trace of the ordered
    product of the 2m factors [[c / u, s u], [s / u, c u]], c = cosh 2g and
    s = -+ sinh 2g alternating from -sinh 2g."""
    with mpmath.workdps(dps):
        ch, sh = mpmath.cosh(2 * mpmath.mpf(g)), mpmath.sinh(2 * mpmath.mpf(g))
        prod = mpmath.eye(2)
        for j, v in enumerate(u):
            x, s = mpmath.mpf(float(v)), (-sh if j % 2 == 0 else sh)
            prod = prod * mpmath.matrix([[ch / x, s * x], [s / x, ch * x]])
        return prod[0, 0] + prod[1, 1]


def _reference_points(m: int):
    """Random interior points, random points on tanh-sinh level-5 nodes,
    and every corner of the outermost level-5 nodes."""
    rng = np.random.default_rng(20260 + m)
    nodes, _ = quadrature.tanh_sinh_nodes(5)
    corners = itertools.product((nodes.min(), nodes.max()), repeat=2 * m)
    return [*rng.uniform(0.0, 1.0, (40, 2 * m)), *rng.choice(nodes, (40, 2 * m)), *corners]


def _kernel_definition(family, minus_two):
    """The family's kernel from Psi - 2 in mpmath: Plus 1 / sqrt(Psi - 2),
    Minus 1 / sqrt(Psi + 2), Nu (2 / (sp + sm))^(2 (nu - 1)) / (sp sm)."""
    sm, sp = mpmath.sqrt(minus_two), mpmath.sqrt(minus_two + 4)
    if family == PLUS:
        return 1 / sm
    if family == MINUS:
        return 1 / sp
    return (2 / (sp + sm)) ** (2 * (family.nu - 1)) / (sp * sm)


class TestKernels:
    def test_phi_m1_product_form(self):
        u, v = 0.3, 0.7
        assert phi(1, (u, v)) == pytest.approx((1 - u) * (1 - v))

    @given(st.tuples(unit, unit, unit, unit))
    @settings(max_examples=30, deadline=None)
    def test_phi_cyclic_shift_by_two(self, u):
        shifted = u[2:] + u[:2]
        a, b = phi(2, u), phi(2, shifted)
        assert abs(a - b) < 1e-13 * max(abs(a), 1.0)

    @given(st.tuples(unit, unit, unit, unit))
    @settings(max_examples=30, deadline=None)
    def test_psi_cyclic_shift_by_two(self, u):
        shifted = u[2:] + u[:2]
        a, b = psi(2, 0.3, u), psi(2, 0.3, shifted)
        assert abs(a - b) < 1e-12 * max(abs(a), 1.0)

    @given(st.tuples(unit, unit, unit, unit))
    @settings(max_examples=30, deadline=None)
    def test_psi_reversal(self, u):
        a, b = psi(2, 0.3, u), psi(2, 0.3, u[::-1])
        assert abs(a - b) < 1e-12 * max(abs(a), 1.0)

    @given(st.tuples(unit, unit), st.floats(0.01, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_psi_exceeds_two(self, u, g):
        assert psi(1, g, u) > 2.0

    def test_psi_m1_explicit(self):
        u, v, g = 0.4, 0.6, 0.25
        sh2 = math.sinh(2 * g) ** 2
        expected = ((1 + u * v) ** 2 + sh2 * (1 - u * u) * (1 - v * v)) / (u * v) - 2.0
        assert psi(1, g, (u, v)) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            phi(2, (0.5, 0.5))
        with pytest.raises(LengthMismatch):
            psi(1, 0.3, (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_phi_matches_its_definition(self, m):
        # The chain sum over the pair factor rows has no cancelling terms.
        for u in _reference_points(m):
            ref = _phi_definition(u)
            assert abs(phi(m, u) - ref) <= 1e-15 * ref, u

    @pytest.mark.parametrize("g", [0.2, 0.45, 1.0, -0.7, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_psi_matches_its_definition(self, m, g):
        # No term of the trace cancels (the pair rows and every product of
        # them are positive), so it carries a few roundings per pair at any
        # g, corners included.
        bound = 8 * m * 2.0**-52
        for u in _reference_points(m):
            ref = _psi_definition(g, u)
            assert abs(psi(m, g, u) - ref) <= bound * ref, u

    @pytest.mark.parametrize("g", [0.2, 1.0, -0.7, 2.0])
    def test_psi_pair_rows_are_positive(self, g):
        # The rows are the entries of E = P - I, P a pair's product in the
        # basis [[1, 1], [1, -1]] / sqrt 2: sums of non-negative terms, so
        # positive on interior points and on the level-5 corners, with tr E
        # = Psi_1 - 2 to a few roundings.
        points = _reference_points(1)
        rows = trace_terms._pair_factors(g)(np.array(points).T)
        assert rows.shape == (4, len(points))
        assert np.all(rows > 0.0)
        with mpmath.workdps(80):
            for u, trace in zip(points, rows[0] + rows[3]):
                ref = _psi_definition(g, u, dps=80) - 2
                assert abs(trace - ref) <= 8 * 2.0**-52 * ref, u

    @pytest.mark.parametrize("g", [0.2, 1.0, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_point_kernel_at_the_corners_matches_80_digits(self, m, g):
        # The point rule sums Psi_m - 2 from non-negative pair increments,
        # so on the level-5 corners, where Psi_m - 2 is as small as 1e-30 of
        # the terms of a trace less 2, it stays within a few roundings per
        # pair, and each Psi family's point kernel within 1e-14 relative of
        # the kernel from the 80-digit Psi_m - 2.  A trace less 2, floored
        # at 1e-13 max(|Psi|, 2), erred by 1.0 there at m = 2 and 3.
        points = _reference_points(m)
        ut = np.array(points).T
        minus_two = trace_terms._psi_minus_two(trace_terms._pair_factors(g)((ut[0::2], ut[1::2])))
        families = (PLUS, MINUS, Nu(0.7))
        kernels = [trace_terms._point_kernel(family, g, ut) for family in families]
        with mpmath.workdps(80):
            for i, u in enumerate(points):
                ref = _psi_definition(g, u, dps=80) - 2
                assert abs(minus_two[i] - ref) <= 8 * m * 2.0**-52 * ref, u
                for family, k in zip(families, kernels):
                    assert abs(k[i] / _kernel_definition(family, ref) - 1) <= 1e-14, (family, u)

    def test_psi_minus_two_leaves_its_rows_unchanged(self):
        ut = np.random.default_rng(37).uniform(0.05, 0.95, size=(6, 100))
        rows = trace_terms._pair_factors(0.45)((ut[0::2], ut[1::2]))
        before = rows.copy()
        trace_terms._psi_minus_two(rows)
        assert rows.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "kernel, m, g, u",
        [
            (psi, 1, 0.3, (0.0, 0.5)),
            (psi, 1, math.nan, (0.3, 0.5)),
            (psi, 1, math.inf, (0.3, 0.5)),
            (psi, 2, 0.3, (1.5, 0.5, 0.2, 0.3)),
            (psi, 1, 0.3, (math.nan, 0.5)),
            (phi, 1, None, (-0.2, 0.5)),
            (phi, 1, None, (1.0, 0.5)),
            (phi, 2, None, (0.5, 0.5, math.inf, 0.5)),
        ],
    )
    def test_points_off_the_open_cube_raise(self, kernel, m, g, u):
        with pytest.raises(DomainError) as raised:
            kernel(m, u) if g is None else kernel(m, g, u)
        assert type(raised.value) is DomainError


class TestIntegralRoute:
    def test_flat_m1_matches_operator(self):
        lam, g, eps = 0.9, 0.2, 0.1
        ig = r_m_integral(FLAT, lam, g, eps, 1)
        op = r_m_operator("fock", g, lam, eps, 1, N=800)
        assert abs(ig.value - op.value) < 1e-6

    def test_flat_m2_matches_operator(self):
        lam, g, eps = 0.9, 0.2, 0.1
        ig = r_m_integral(FLAT, lam, g, eps, 2)
        op = r_m_operator("fock", g, lam, eps, 2, N=400)
        assert abs(ig.value - op.value) < 1e-6

    def test_plus_m1_matches_operator(self):
        lam, g, eps = 1.0, 0.15, 0.1
        ig = r_m_integral(PLUS, lam, g, eps, 1)
        lo = r_m_operator("bergman", g, lam, eps, 1, N=800, nu=0.5)
        hi = r_m_operator("bergman", g, lam, eps, 1, N=800, nu=1.5)
        assert abs(ig.value - (lo.value + hi.value)) < 1e-5

    def test_minus_m1_matches_operator(self):
        lam, g, eps = 1.0, 0.15, 0.1
        ig = r_m_integral(MINUS, lam, g, eps, 1)
        lo = r_m_operator("bergman", g, lam, eps, 1, N=800, nu=0.5)
        hi = r_m_operator("bergman", g, lam, eps, 1, N=800, nu=1.5)
        assert abs(ig.value - (lo.value - hi.value)) < 1e-6

    def test_nu_m1_matches_operator(self):
        lam, g, nu = 1.0, 0.15, 1.2
        ig = r_m_integral(Nu(nu), lam, g, 0.0, 1)
        op = r_m_operator("bergman", g, lam, 0.0, 1, N=800, nu=nu)
        assert abs(ig.value - op.value) < 1e-5

    def test_derivative_m1_matches_operator(self):
        lam, g, eps = 0.9, 0.2, 0.1
        ig = dn_r_m_integral(FLAT, lam, g, eps, 1, 2)
        op = dn_r_m_operator("fock", g, lam, eps, 1, 2, N=800)
        assert abs(ig.value - op.value) < 1e-5 * max(abs(op.value), 1.0)

    def test_re_condition_enforced(self):
        with pytest.raises(DomainError):
            r_m_integral(FLAT, -0.2, 0.2, 0.0, 1)

    # m = 1.5 used to raise a bare KeyError and m = 2.0 a TypeError; m >= 4
    # returned the operator route's value at N = 400 as the integral's.  Each
    # is refused before any rule runs.
    @pytest.mark.parametrize("m", [0, 1.5, 2.0, "2", 4, 5])
    def test_bad_m(self, m, monkeypatch):
        for name in ("integrate_tensor", "integrate_pairs", "integrate_axes",
                     "integrate_lattice"):
            monkeypatch.setattr(quadrature, name, _refuse)
        monkeypatch.setattr(operator_oracle, "family_term", _refuse)
        refusal = "m must be an integer from 1 to 3, got .*: the integral route stops at m = 3"
        with pytest.raises(DomainError, match=refusal):
            r_m_integral(FLAT, 0.9, 0.2, 0.1, m)
        with pytest.raises(DomainError, match=refusal):
            dn_r_m_integral(PLUS, 1.2, 0.2, 0.1, m, 2, lambda_power=4)

    @pytest.mark.parametrize(
        "n,power,name", [(2, -2, "lambda_power"), (2, 1.5, "lambda_power"), (-1, 0, "n"),
                         (1.5, 0, "n"), (2.0, 0, "n")]
    )
    def test_bad_order_or_lambda_power(self, n, power, name):
        with pytest.raises(DomainError, match=f"{name} must be an integer >= 0"):
            dn_r_m_integral(FLAT, 1.2, 0.2, 0.1, 1, n, lambda_power=power)

    def test_leibniz_orders_share_one_pass(self, monkeypatch):
        # NCHO's D_m = d^n [lam^(2m) R_m] at n = 2 needs R_m and its first two
        # derivatives; they come from one quadrature (fine and coarse level)
        # per m, where each order used to cost a quadrature of its own: a
        # kernel pass between the two axes for m = 1 and a pair-grid pass for
        # m = 2.
        axis_calls, pair_calls, points = [], [], []

        def counting(integrate, calls):
            def run(factors, kernel, sides, combine, level):
                calls.append(level)

                def k(fa, fb, out):
                    points.append(fa.shape[1] * fb.shape[1])
                    kernel(fa, fb, out)

                return integrate(factors, k, sides, combine, level)

            return run

        monkeypatch.setattr(quadrature, "integrate_axes", counting(integrate_axes, axis_calls))
        monkeypatch.setattr(quadrature, "integrate_pairs", counting(integrate_pairs, pair_calls))
        zeta_value(ZetaRequest(Ncho(2.0, 1.2, 0.1), 2, 0.8, method="series_integral"))
        assert len(axis_calls) == 1
        assert len(pair_calls) == 1
        # For m = 1 the 203 level-7 and 101 level-6 nodes, each 64-row block
        # against the columns from its own start on: 26,809 + 7,833 = 34,642
        # kernel points, where the point rule took 203^2 + 101^2 = 51,410.
        # For m = 2 one kernel on the pair points with x <= y, 51 * 52 / 2 =
        # 1326 and 25 * 26 / 2 = 325: 921,156 + 63,065 = 984,221 kernel
        # points, and 4 * 64^2 per level for the swap guard's two blocks,
        # where the crossed Gram of the pairs (u0, u1) and (u2, u3) took
        # 1,968,442, the whole 51^2 and 25^2 pair grids 3,465,361 + 214,945
        # and the full grids 51^4 + 25^4 7,155,826.
        assert sum(points) == 34_642 + 984_221 + 2 * 4 * 64**2


_PAIR_FAMILIES = [FLAT, PLUS, MINUS, Nu(0.5), Nu(1.5)]


def _pair_representatives(level: int = 5):
    """The (2, npts) rows (x, y) of the tanh-sinh pair points with x <= y,
    in the order integrate_pairs walks them."""
    nodes, _ = quadrature.tanh_sinh_nodes(level)
    first, second = np.triu_indices(nodes.size)
    return np.stack([nodes[first], nodes[second]])


def _fresh_block(kernel, fa, fb):
    """The pair kernel's block between two column slices of factor rows,
    written into freshly allocated arrays."""
    shape = (fa.shape[1], fb.shape[1])
    out = tuple(np.zeros(shape) for _ in range(quadrature._PAIR_BUFFERS))
    kernel(fa, fb, out)
    return out[0]


def _full_grid_pairs(factors, kernel, sides, combine, level):
    """integrate_pairs without the swap symmetry: every one of the n^2
    ordered pair points (x, y), weighted by its nodes' weights, and the upper
    blocks of K between them written into fresh arrays."""

    def level_sum(nodes, weights):
        u, v = np.meshgrid(nodes, nodes, indexing="ij")
        pts = np.stack([u.ravel(), v.ravel()])
        npts = pts.shape[1]
        sv = sides(pts) * np.outer(weights, weights).ravel()
        rows = factors(pts)
        nrows = sv.shape[0]
        parts = np.concatenate([sv.real, sv.imag]).T
        total = np.zeros((nrows, nrows), dtype=complex)
        upper = np.zeros((nrows, nrows), dtype=complex)
        block = quadrature._PAIR_BLOCK
        for start in range(0, npts, block):
            stop = min(start + block, npts)
            k = _fresh_block(kernel, rows[:, start:stop], rows[:, start:])
            kr = k @ parts[start:]
            total += sv[:, start:stop] @ (kr[:, :nrows] + 1j * kr[:, nrows:])
            kl = k[:, stop - start :] @ parts[stop:]
            upper += sv[:, start:stop] @ (kl[:, :nrows] + 1j * kl[:, nrows:])
        return combine(total + upper.T)

    return quadrature._two_level(level_sum, 4, level)


_AXIS_FAMILIES = [FLAT, PLUS, MINUS, Nu(0.5), Nu(2.5)]


def _row_or_error(route):
    """route()'s rows, else the type of the exception it raised."""
    try:
        return route()
    except Exception as exc:  # noqa: BLE001
        return type(exc)


def _axis_kernel_handed(family, g, monkeypatch):
    """(factors, kernel) as the m = 1 rule hands them to
    quadrature.integrate_axes."""
    kernels = []

    def capture(factors, kernel, sides, combine, level):
        kernels.append((factors, kernel))
        return integrate_axes(factors, kernel, sides, combine, level)

    monkeypatch.setattr(quadrature, "integrate_axes", capture)
    r_m_integral(family, 1.2, g, 0.1, 1)
    return kernels[0]


class TestAxisSeparableM1:
    """m = 1 on a deterministic rule is one kernel pass between the axes u and
    v; the point-by-point 2-D rule is its reference."""

    @pytest.mark.parametrize("level,block", [(4, 64), (7, 64), (4, 25)])
    @pytest.mark.parametrize("family", _AXIS_FAMILIES)
    def test_matches_point_rule(self, family, level, block, monkeypatch):
        # Converged entries (abs_error below 1e-8 of the value) agree to
        # 1e-15 relative, the others within their bar; both routes raise
        # the same exception type, if any.  Level 7's 203 nodes are three
        # kernel blocks and a partial one; with 25-row blocks, level 4's 25
        # nodes are exactly one.
        monkeypatch.setattr(quadrature, "_PAIR_BLOCK", block)
        monkeypatch.setitem(trace_terms._LEVELS, 1, level)
        eps, orders = 0.1, (0, 1, 2, 3)
        for g, lam in itertools.product((0.2, 1.0, -0.7), (0.3, 1.2 + 0.3j, 0.15 + 2j)):
            got = _row_or_error(lambda: trace_terms._integral_row(family, lam, g, eps, 1, orders))
            want = _row_or_error(
                lambda: integrate_tensor(_integrand(family, lam, eps, g, 1, orders), 2, level)
            )
            if isinstance(want, type):
                assert got is want, (g, lam)
                continue
            for k, ref in zip(orders, want):
                diff = abs(got[k].value - ref.value)
                if ref.abs_error < 1e-8 * abs(ref.value):
                    assert diff <= 1e-15 * abs(ref.value), (g, lam, k)
                else:
                    assert diff <= ref.abs_error, (g, lam, k)
                assert got[k].terms_used == ref.terms_used

    @pytest.mark.parametrize("g", [0.2, -0.7])
    @pytest.mark.parametrize("family", _AXIS_FAMILIES)
    def test_kernel_is_its_own_transpose(self, family, g, monkeypatch):
        # integrate_axes evaluates each unordered block pair once: the
        # kernel on the level-7 nodes, corners included, must be symmetric
        # bit for bit.
        factors, kernel = _axis_kernel_handed(family, g, monkeypatch)
        rows = factors(quadrature.tanh_sinh_nodes(7)[0])
        k = _fresh_block(kernel, rows, rows)
        assert k.tobytes() == k.T.tobytes(order="C")

    @pytest.mark.parametrize("family", _AXIS_FAMILIES)
    def test_reused_scratch_gives_fresh_blocks(self, family, monkeypatch):
        # Every block of the level-7 rule written over NaN scratch, as
        # _upper_gram lays it out, equals the block written into fresh
        # arrays, bit for bit.
        factors, kernel = _axis_kernel_handed(family, 0.45, monkeypatch)
        rows = factors(quadrature.tanh_sinh_nodes(7)[0])
        n = rows.shape[1]
        scratch = np.full((quadrature._PAIR_BUFFERS, quadrature._PAIR_BLOCK * n), np.nan)
        for start in range(0, n, quadrature._PAIR_BLOCK):
            stop = min(start + quadrature._PAIR_BLOCK, n)
            width, cols = stop - start, n - start
            out = tuple(buf[: width * cols].reshape(cols, width).T for buf in scratch)
            kernel(rows[:, start:stop], rows[:, start:], out)
            fresh = _fresh_block(kernel, rows[:, start:stop], rows[:, start:])
            assert out[0].tobytes(order="C") == fresh.tobytes()
            scratch.fill(np.nan)

    @pytest.mark.parametrize("g", [0.2, 1.0])
    @pytest.mark.parametrize("family", [PLUS, MINUS, Nu(0.7)])
    def test_kernel_at_the_corners_matches_80_digits(self, family, g, monkeypatch):
        # On the level-7 nodes nearest both endpoints, where 1 - uv
        # cancels, the kernel handed to integrate_axes stays within 1e-14
        # relative of the kernel from the 80-digit
        # Psi_1 - 2 = ((1 - uv)^2 + sinh^2 2g (1 - u^2)(1 - v^2)) / (uv).
        # Roots of a factorized 1 - uv erred there by 7.3e-14 for Plus and Nu.
        factors, kernel = _axis_kernel_handed(family, g, monkeypatch)
        nodes = quadrature.tanh_sinh_nodes(7)[0]
        nodes = nodes[np.r_[0:8, nodes.size - 8 : nodes.size]]
        rows = factors(nodes)
        k = _fresh_block(kernel, rows, rows)
        with mpmath.workdps(80):
            sh2 = mpmath.sinh(2 * mpmath.mpf(g)) ** 2
            for i, j in itertools.product(range(nodes.size), repeat=2):
                u, v = mpmath.mpf(float(nodes[i])), mpmath.mpf(float(nodes[j]))
                minus_two = ((1 - u * v) ** 2 + sh2 * (1 - u * u) * (1 - v * v)) / (u * v)
                ref = _kernel_definition(family, minus_two)
                assert abs(k[i, j] / ref - 1) <= 1e-14, (nodes[i], nodes[j])


class TestPairSeparableM2:
    """m = 2 on a deterministic rule is one kernel pass between the pair grids
    (u0, u2) and (u1, u3), on their points with x <= y; the point-by-point
    4-D rule is its reference."""

    @pytest.mark.parametrize("level", [5, 3])
    @pytest.mark.parametrize("lam", [1.2, 1.2 + 0.3j])
    @pytest.mark.parametrize("family", _PAIR_FAMILIES)
    def test_matches_point_rule(self, family, lam, level, monkeypatch):
        monkeypatch.setitem(trace_terms._LEVELS, 2, level)
        g, eps, orders = 0.2, 0.1, (0, 1, 2, 3)
        ref = integrate_tensor(_integrand(family, lam, eps, g, 2, orders), 4, level)
        for k, want in zip(orders, ref):
            got = dn_r_m_integral(family, lam, g, eps, 2, k)
            assert abs(got.value - want.value) <= 1e-14 * abs(want.value)
            assert abs(got.abs_error - want.abs_error) <= 1e-14 * abs(want.value)
            assert got.terms_used == want.terms_used

    @pytest.mark.parametrize(
        "call",
        [
            lambda: r_m_integral(PLUS, 1.2, 0.2, 0.1, 2),
            lambda: dn_r_m_integral(FLAT, 1.2 + 0.3j, 0.2, 0.1, 2, 3),
        ],
    )
    def test_memory_stays_blocked(self, call):
        # One full 2601^2 grid of doubles alone is 54 MB.
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28e6

    @pytest.mark.parametrize("lam", [1.2, 1.2 + 0.3j])
    @pytest.mark.parametrize("family", _PAIR_FAMILIES)
    def test_kernel_is_symmetric(self, family, lam, monkeypatch):
        # integrate_pairs evaluates each unordered block pair once, so the
        # kernel it is handed must be its own transpose on the level-5 pair
        # points it walks, corner nodes included: to 1e-14, and in fact bit
        # for bit (one dgemm for the squares, commuting sums for the rest).
        kernels = []

        def capture(factors, kernel, sides, combine, level):
            kernels.append((factors, kernel))
            return integrate_pairs(factors, kernel, sides, combine, level)

        monkeypatch.setattr(quadrature, "integrate_pairs", capture)
        r_m_integral(family, lam, 0.2, 0.1, 2)
        factors, kernel = kernels[0]
        rows = factors(_pair_representatives())
        a, b = rows[:, ::2], rows[:, ::-3]
        k_ab, k_ba = _fresh_block(kernel, a, b), _fresh_block(kernel, b, a)
        assert np.all(np.abs(k_ab - k_ba.T) <= 1e-14 * np.abs(k_ab))
        assert k_ab.tobytes() == k_ba.T.tobytes(order="C")

    @pytest.mark.parametrize("g", [0.2, 1.0])
    @pytest.mark.parametrize("family", _PAIR_FAMILIES)
    def test_kernel_is_invariant_under_the_swap_inside_a_pair(self, family, g):
        # The rule sums only the pair points with x <= y, so K(sa, b) must
        # equal K(a, b), s: (x, y) -> (y, x), on every level-5 point pair:
        # to 1e-14 relative (the rows round 1 - p differently under s).
        # Flat's rows are permuted bit for bit; Psi's t row is unchanged.
        factors, kernel = trace_terms._pair_kernel(family, g)
        pts = _pair_representatives()
        rows, swapped = factors(pts), factors(pts[::-1])
        if family == FLAT:
            assert swapped.tobytes() == rows[[1, 0, 3, 2, 4]].tobytes()
        else:
            assert swapped[1].tobytes() == rows[1].tobytes()
            assert np.all(np.abs(swapped - rows) <= 4 * 2.0**-52 * np.abs(rows))
        k, k_swapped = _fresh_block(kernel, rows, rows), _fresh_block(kernel, swapped, rows)
        assert np.all(np.abs(k_swapped - k) <= 1e-14 * np.abs(k))

    @pytest.mark.parametrize("family", _PAIR_FAMILIES)
    def test_reused_scratch_gives_fresh_blocks(self, family):
        # integrate_pairs hands the kernel column-major views of scratch
        # arrays that hold the previous block's values: a block written over
        # NaN must equal the same block written into fresh arrays, bit for
        # bit, on every block of the level-5 pair points with x <= y, its
        # corner nodes included.
        factors, kernel = trace_terms._pair_kernel(family, 0.2)
        rows = factors(_pair_representatives())
        npts = rows.shape[1]
        scratch = np.full((quadrature._PAIR_BUFFERS, quadrature._PAIR_BLOCK * npts), np.nan)
        for start in range(0, npts, quadrature._PAIR_BLOCK):
            stop = min(start + quadrature._PAIR_BLOCK, npts)
            width, cols = stop - start, npts - start
            out = tuple(buf[: width * cols].reshape(cols, width).T for buf in scratch)
            kernel(rows[:, start:stop], rows[:, start:], out)
            fresh = _fresh_block(kernel, rows[:, start:stop], rows[:, start:])
            assert out[0].tobytes(order="C") == fresh.tobytes()
            scratch.fill(np.nan)

    @pytest.mark.parametrize("g", [0.2, 0.45, 1.0])
    def test_rows_match_the_definitions(self, g):
        # Psi_2 - 2 = e e' + t t' + d d' + sqrt 2 (e + e') and Phi_2 = f0 f0'
        # + f1 f1' + f2 f3' + f3 f2' from the rows of a = (u0, u2) and b =
        # (u1, u3), against 80-digit products, on the level-5 pair points
        # nearest both corners and an interior sample: every term is >= 0,
        # so the error stays at rounding (measured: 6.3e-16 for Psi_2 - 2,
        # 4.2e-16 for Plus's kernel), where psi(2, ...) - 2 errs by up to
        # 4.9e14 relative at these corners.  Plus's kernel is 1 / sqrt(Psi_2 - 2).
        pts = _pair_representatives()
        npts = pts.shape[1]
        pts = pts[:, np.r_[0:6, npts - 6 : npts, 6 : npts - 6 : 97]]
        psi_rows = trace_terms._pair_kernel(PLUS, g)[0](pts)
        e, t, d, root2_e = psi_rows
        minus_two = np.outer(e, e) + np.outer(t, t) + np.outer(d, d) + np.add.outer(root2_e, root2_e)
        plus = _fresh_block(trace_terms._pair_kernel(PLUS, g)[1], psi_rows, psi_rows)
        f = trace_terms._pair_kernel(FLAT, g)[0](pts)
        phi_2 = np.outer(f[0], f[0]) + np.outer(f[1], f[1]) + np.outer(f[2], f[3]) + np.outer(f[3], f[2])
        with mpmath.workdps(80):
            for i, j in itertools.product(range(pts.shape[1]), repeat=2):
                u = (pts[0, i], pts[0, j], pts[1, i], pts[1, j])
                ref = _psi_definition(g, u, dps=80) - 2
                assert abs(minus_two[i, j] - ref) <= 1e-15 * ref, u
                assert abs(plus[i, j] * mpmath.sqrt(ref) - 1) <= 1e-15, u
                ref = _phi_definition(u)
                assert abs(phi_2[i, j] - ref) <= 1e-15 * ref, u

    @pytest.mark.parametrize("g", [0.2, 1.0])
    def test_both_descriptions_agree_point_by_point(self, g):
        # On 2000 interior points (coordinates in [0.05, 0.95]) and the 16
        # level-5 corner quadruples, Flat's Phi_2 from the consecutive pairs
        # (u0, u1), (u2, u3) against the split form f0 f0' + f1 f1' + f2 f3'
        # + f3 f2' over a = (u0, u2), b = (u1, u3), and each Psi family's
        # point kernel against the diagonal of the split kernel's blocks of
        # 100 columns.  Both form Psi_2 - 2 from non-negative terms.
        # Measured worst: 3.6e-16 relative for Phi_2, 9.8e-16 for the kernels
        # (Nu(0.7) at g = 1.0), 6.5e-16 on the corners; the bounds allow ten
        # times that and more.
        nodes = quadrature.tanh_sinh_nodes(5)[0]
        corners = np.array(list(itertools.product((nodes.min(), nodes.max()), repeat=4))).T
        interior = np.random.default_rng(34).uniform(0.05, 0.95, size=(4, 2000))
        ut = np.concatenate([interior, corners], axis=1)
        a, b = (ut[0], ut[2]), (ut[1], ut[3])
        chains, _ = trace_terms._phi_chains(trace_terms._flat_rows((ut[0::2], ut[1::2])))
        f, f_b = trace_terms._flat_rows(a), trace_terms._flat_rows(b)
        split = f[0] * f_b[0] + f[1] * f_b[1] + f[2] * f_b[3] + f[3] * f_b[2]
        assert np.all(np.abs(chains - split) <= 4e-15 * split)
        for family in (PLUS, MINUS, Nu(0.7)):
            factors, kernel = trace_terms._pair_kernel(family, g)
            fa, fb = factors(a), factors(b)
            split = np.concatenate([
                np.diag(_fresh_block(kernel, fa[:, start : start + 100], fb[:, start : start + 100]))
                for start in range(0, ut.shape[1], 100)
            ])
            point = trace_terms._point_kernel(family, g, ut)
            assert np.all(np.abs(point - split) <= 4e-14 * split), family

    @pytest.mark.parametrize("g", [0.2, 0.45, 1.0])
    @pytest.mark.parametrize("lam", [1.2, 1.2 + 0.3j])
    @pytest.mark.parametrize("family", _PAIR_FAMILIES)
    def test_half_grid_matches_full_grid(self, family, lam, g, monkeypatch):
        # The rule on the pair points with x <= y, weights doubled off the
        # diagonal, against every ordered pair point of the same pairing:
        # within 1e-13 relative and a tenth of the bar, at every order.
        orders = (0, 1, 2, 3)
        half = trace_terms._integral_row(family, lam, g, 0.1, 2, orders)
        monkeypatch.setattr(quadrature, "integrate_pairs", _full_grid_pairs)
        full = trace_terms._integral_row(family, lam, g, 0.1, 2, orders)
        for k in orders:
            diff = abs(half[k].value - full[k].value)
            assert diff <= 1e-13 * abs(full[k].value), k
            assert diff <= 0.1 * full[k].abs_error, k
            assert half[k].terms_used == full[k].terms_used

    @pytest.mark.parametrize("family", [FLAT, PLUS])
    def test_one_gram_per_level(self, family, monkeypatch):
        # One _upper_gram per level over the pair points with x <= y: 51 *
        # 52 / 2 = 1326 at level 5 and 25 * 26 / 2 = 325 at level 4, each
        # 64-row block against the columns from its own start on: 921,156 +
        # 63,065 = 984,221 kernel points, half of the 1,968,442 that a
        # second, crossed Gram K(a, sb) took with the pairs (u0, u1) and
        # (u2, u3).
        grams, points = [], []
        upper_gram = quadrature._upper_gram

        def counting(kernel, rows, z):
            grams.append(z.shape[1])

            def k(fa, fb, out):
                points.append(fa.shape[1] * fb.shape[1])
                kernel(fa, fb, out)

            return upper_gram(k, rows, z)

        monkeypatch.setattr(quadrature, "_upper_gram", counting)
        dn_r_m_integral(family, 1.2, 0.2, 0.1, 2, 2)
        assert grams == [1326, 325]
        assert sum(points) == 984_221

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("g", [100.0, 150.0, 200.0])
    @pytest.mark.parametrize("family", [PLUS, MINUS, Nu(0.7)])
    def test_kernel_that_overflows_is_refused(self, family, g, n):
        # Psi_2 - 2 overflows from g of about 100 on, and its rows do from
        # about 177.5 on (sinh 4g): Plus read 1 / root there as a value near
        # 1e-189 with a bar of the same size; every family raises
        # NodeSingularity instead.  So does the lattice point rule at m = 3,
        # whose positive pair rows overflow to inf (their roots read 0
        # there).
        with pytest.raises(NodeSingularity):
            dn_r_m_integral(family, 1.2, g, 0.1, 2, n)
        with pytest.raises(NodeSingularity):
            dn_r_m_integral(family, 1.2, g, 0.1, 3, n)

    def test_back_to_back_calls_match_calls_alone(self):
        # Each integrate_pairs call owns its scratch: a call right after
        # another family's gives what it gives alone.
        alone = [dn_r_m_integral(f, 1.2, 0.2, 0.1, 2, 1) for f in (PLUS, Nu(0.5))]
        back_to_back = [dn_r_m_integral(f, 1.2, 0.2, 0.1, 2, 1) for f in (FLAT, PLUS, Nu(0.5))]
        assert repr(back_to_back[1:]) == repr(alone)
        assert repr(back_to_back[0]) == repr(dn_r_m_integral(FLAT, 1.2, 0.2, 0.1, 2, 1))


class TestLatticeM3:
    # The default m = 3 rule is the randomly shifted lattice: 8191 Korobov
    # points times 16 shifts, with a bar of 2.131 standard errors of the
    # shift means.

    def test_default_is_the_lattice(self):
        for k in (0, 2):
            got = dn_r_m_integral(PLUS, 1.2, 0.2, 0.1, 3, k)
            assert got.terms_used == 131_056 and got.converged
            f = _integrand(PLUS, 1.2, 0.1, 0.2, 3, (k,))
            assert (got,) == quadrature.integrate_lattice(f, 6)

    def test_point_rule_alone(self, monkeypatch):
        # The point rule reads the consecutive pair rows alone, not the
        # split kernel of the tensor rules.
        for name in ("integrate_tensor", "integrate_pairs", "integrate_axes"):
            monkeypatch.setattr(quadrature, name, _refuse)
        monkeypatch.setattr(trace_terms, "_pair_kernel", _refuse)
        assert r_m_integral(PLUS, 1.2, 0.2, 0.1, 3).terms_used == 131_056

    @pytest.mark.parametrize("family,lam", [(FLAT, 1.2), (PLUS, 0.9), (Nu(0.7), 0.9)])
    def test_default_within_its_bar_of_the_operator(self, family, lam):
        # Value grid rows (g = 0.2, orders 0-3) against the operator route
        # at N = 1600, whose bars are below 1e-11.  400,000 Monte Carlo
        # samples erred there by up to 2.39 (Flat), 2.56 (Plus) and 2.53
        # (Nu) of their one-standard-error bar; the lattice by at most 0.69
        # of its bar (Flat, order 3).  The bar is a 95% statistical one and
        # this is the default shift draw: over shift seeds 1-20 the grid's
        # 64 m = 3 rows missed it on 4.1% of row-seed pairs.
        ref = operator_oracle.family_term(family.components, 0.2, lam, 0.1, 3, 3, 1600)
        for k in range(4):
            got = dn_r_m_integral(family, lam, 0.2, 0.1, 3, k)
            assert abs(got.value - ref[k].value) <= got.abs_error, k


class TestR1FastPaths:
    def test_flat_series_vs_operator(self):
        lam, g, eps = 0.9, 0.2, 0.1
        s = r_1_series(FLAT, lam, g, eps)
        op = r_m_operator("fock", g, lam, eps, 1, N=1600)
        assert abs(s.value - op.value) < 1e-7

    @pytest.mark.parametrize("delta,family", [(1, PLUS), (-1, MINUS)])
    def test_delta_series_vs_hypergeometric(self, delta, family):
        lam, g, eps = 1.0, 0.15, 0.1
        s = r_1_series(family, lam, g, eps)
        h = r_1_hypergeometric(delta, lam, g, eps)
        assert abs(s.value - h.value) < 1e-9

    @pytest.mark.parametrize("family,sign", [(PLUS, 1.0), (MINUS, -1.0)])
    def test_delta_series_vs_operator(self, family, sign):
        lam, g, eps = 1.0, 0.15, 0.1
        s = r_1_series(family, lam, g, eps)
        lo = r_m_operator("bergman", g, lam, eps, 1, N=1600, nu=0.5)
        hi = r_m_operator("bergman", g, lam, eps, 1, N=1600, nu=1.5)
        assert abs(s.value - (lo.value + sign * hi.value)) < 1e-6

    def test_hypergeometric_integer_eps_pole(self):
        with pytest.raises(DomainError):
            r_1_hypergeometric(1, 1.0, 0.15, 1.0)


def _refuse(*args, **kwargs):
    raise AssertionError("a term was summed")


class TestNonFiniteInputs:
    # Every trace-term route refuses a non-finite lambda, eps or g with
    # DomainError before it sums a term.  A nan g used to sum 5,000,000
    # J-terms on the flat series route before NoConvergence, and to reach the
    # quadrature (NodeSingularity) or the factorization (SingularOperator).
    @pytest.fixture
    def no_terms(self, monkeypatch):
        for owner, name in [
            (apery, "j_flat"),
            (apery, "j_delta"),
            (apery, "_delta_b_lsum"),
            (quadrature, "integrate_tensor"),
            (quadrature, "integrate_pairs"),
            (quadrature, "integrate_lattice"),
            (operator_oracle, "family_term"),
            (trace_terms, "hypergeometric_pfq"),
        ]:
            monkeypatch.setattr(owner, name, _refuse)

    @pytest.fixture(
        params=[("lambda", 0, math.nan), ("lambda", 0, -math.inf), ("g", 1, math.nan),
                ("g", 1, math.inf), ("eps", 2, math.nan)],
        ids=lambda p: f"{p[0]}={p[2]}",
    )
    def point(self, request):
        name, index, value = request.param
        point = [0.9, 0.2, 0.1]  # lambda, g, eps
        point[index] = value
        return name, point

    @pytest.mark.parametrize("family", [FLAT, PLUS, MINUS])
    def test_series_route(self, family, point, no_terms):
        name, (lam, g, eps) = point
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            r_1_series(family, lam, g, eps)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_integral_route(self, m, point, no_terms):
        name, (lam, g, eps) = point
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            dn_r_m_integral(FLAT, lam, g, eps, m, 1)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_hypergeometric_route(self, delta, point, no_terms):
        name, (lam, g, eps) = point
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            r_1_hypergeometric(delta, lam, g, eps)

    def test_operator_route(self, point, monkeypatch):
        monkeypatch.setattr(operator_oracle, "_resolvent_band", _refuse)
        name, (lam, g, eps) = point
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            trace_terms.dn_r_m_family_operator(PLUS, lam, g, eps, 2, 1, 100)


class TestHugeCoupling:
    # cosh 2g leaves the float range beyond |g| = 355.2, and every route of
    # the Psi families forms it: each raises DomainError naming g, where
    # they used to raise a bare OverflowError (CLI exit 1).
    _TOO_LARGE = r"g=-?400(\.0)? is too large"

    @pytest.mark.parametrize("g", [400.0, -400.0])
    @pytest.mark.parametrize("family", [PLUS, MINUS, Nu(0.7)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_integral_route(self, family, m, g):
        with pytest.raises(DomainError, match=self._TOO_LARGE):
            dn_r_m_integral(family, 1.2, g, 0.1, m, 2)

    @pytest.mark.parametrize("family", [PLUS, MINUS, Nu(0.7)])
    def test_operator_route(self, family):
        with pytest.raises(DomainError, match=self._TOO_LARGE):
            trace_terms.dn_r_m_family_operator(family, 1.2, 400.0, 0.1, 1, 0, 100)

    @pytest.mark.parametrize("family", [PLUS, MINUS])
    def test_series_route(self, family):
        with pytest.raises(DomainError, match=self._TOO_LARGE):
            r_1_series(family, 1.2, 400.0, 0.1)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_hypergeometric_route(self, delta):
        with pytest.raises(DomainError, match=self._TOO_LARGE):
            r_1_hypergeometric(delta, 1.2, 400.0, 0.1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_psi_kernel(self, m):
        with pytest.raises(DomainError, match=self._TOO_LARGE):
            psi(m, 400.0, [0.3, 0.4] * m)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("family", [PLUS, MINUS])
    def test_m1_kernel_that_overflows_is_refused(self, family, n):
        # From g of about 159 on the m = 1 kernel's Psi_1 - 2 overflows, and
        # its rows do from about 177.5 on.  Plus and Minus read 1 / root
        # there and returned 0 with abs_error 0; they now raise
        # NodeSingularity, as Nu's kernel and the m = 2 pair rule do.
        with pytest.raises(NodeSingularity):
            dn_r_m_integral(family, 1.2, 200.0, 0.1, 1, n)

    @pytest.mark.parametrize("family", [PLUS, MINUS])
    def test_values_below_the_overflow_stand(self, family):
        value = r_m_integral(family, 1.2, 100.0, 0.1, 1)
        assert value.value == pytest.approx(3.3963774802176746e-87, rel=1e-12)
        assert 0 < value.abs_error < 1e-94


class TestFamilyValidation:
    @pytest.mark.parametrize("nu", [-0.5, 0.0])
    def test_nu_positive(self, nu):
        with pytest.raises(DomainError):
            Nu(nu)
