import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_zeta import apery, operator_oracle, quadrature, trace_terms
from rabi_zeta.errors import DomainError, LengthMismatch
from rabi_zeta.quadrature import QuadratureSpec, integrate_pairs, integrate_tensor
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

    def test_high_m_delegates_to_operator(self):
        lam, g, eps = 0.9, 0.2, 0.1
        ig = r_m_integral(FLAT, lam, g, eps, 5)
        op = r_m_operator("fock", g, lam, eps, 5, N=400)
        assert abs(ig.value - op.value) < 1e-12

    def test_re_condition_enforced(self):
        with pytest.raises(DomainError):
            r_m_integral(FLAT, -0.2, 0.2, 0.0, 1)

    def test_bad_m(self):
        with pytest.raises(DomainError):
            r_m_integral(FLAT, 0.9, 0.2, 0.1, 0)

    def test_negative_lambda_power(self):
        with pytest.raises(DomainError):
            dn_r_m_integral(FLAT, 1.2, 0.2, 0.1, 1, 2, lambda_power=-2)

    def test_leibniz_orders_share_one_pass(self, monkeypatch):
        # NCHO's D_m = d^n [lam^(2m) R_m] at n = 2 needs R_m and its first two
        # derivatives; they come from one quadrature (fine and coarse level)
        # per m, where each order used to cost a quadrature of its own: a
        # d = 2 tensor rule for m = 1 and a pair-grid pass for m = 2.
        tensor_calls, pair_calls, points = [], [], []

        def counting_tensor(f, d, spec):
            tensor_calls.append(d)

            def g(u):
                points.append(u.shape[0])
                return f(u)

            return integrate_tensor(g, d, spec)

        def counting_pairs(factors, kernel, side, combine, spec):
            pair_calls.append(spec)

            def k(fa, fb, out):
                points.append(fa.shape[1] * fb.shape[1])
                kernel(fa, fb, out)

            return integrate_pairs(factors, k, side, combine, spec)

        monkeypatch.setattr(quadrature, "integrate_tensor", counting_tensor)
        monkeypatch.setattr(quadrature, "integrate_pairs", counting_pairs)
        zeta_value(ZetaRequest(Ncho(2.0, 1.2, 0.1), 2, 0.8, method="series_integral"))
        assert tensor_calls == [2]
        assert len(pair_calls) == 1
        # The m = 1 rule's 51,410 points, and for m = 2 each 64-row block
        # of the 51^2 and 25^2 pair grids against the columns from its own
        # start on: 3,465,361 + 214,945 kernel points, where the full grids
        # 51^4 + 25^4 took 7,155,826.
        assert sum(points) == 3_731_716

    @pytest.mark.parametrize(
        "family,lam,m,n,power,sweeps", [(FLAT, 0.9, 5, 2, 10, 1), (PLUS, 1.2, 4, 3, 8, 2)]
    )
    def test_delegated_orders_share_one_sweep(self, family, lam, m, n, power, sweeps, monkeypatch):
        # m >= 4 goes to the operator oracle, whose one row holds every order,
        # so each component is swept once.
        built = []
        init = operator_oracle.TraceDerivativeSweep.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(operator_oracle.TraceDerivativeSweep, "__init__", counting_init)
        dn_r_m_integral(family, lam, 0.2, 0.1, m, n, lambda_power=power)
        assert len(built) == sweeps


_PAIR_FAMILIES = [FLAT, PLUS, MINUS, Nu(0.5), Nu(1.5)]


def _level_four_pair_points():
    """The (2, npts) axis rows of the tanh-sinh level-4 pair grid."""
    nodes, _ = quadrature.tanh_sinh_nodes(4)
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    return np.stack([u.ravel(), v.ravel()])


def _fresh_block(kernel, fa, fb):
    """The pair kernel's block between two column slices of factor rows,
    written into freshly allocated arrays."""
    shape = (fa.shape[1], fb.shape[1])
    out = tuple(np.zeros(shape) for _ in range(quadrature._PAIR_BUFFERS))
    kernel(fa, fb, out)
    return out[0]


class TestPairSeparableM2:
    """m = 2 on a deterministic rule is one kernel pass between the pair grids
    (u0, u1) and (u2, u3); the point-by-point 4-D rule is its reference."""

    @pytest.mark.parametrize(
        "spec", [QuadratureSpec("tanh_sinh", 5), QuadratureSpec("gauss_legendre", 12)]
    )
    @pytest.mark.parametrize("lam", [1.2, 1.2 + 0.3j])
    @pytest.mark.parametrize("family", _PAIR_FAMILIES)
    def test_matches_point_rule(self, family, lam, spec):
        g, eps, orders = 0.2, 0.1, (0, 1, 2, 3)
        ref = integrate_tensor(_integrand(family, lam, eps, g, 2, orders), 4, spec)
        for k, want in zip(orders, ref):
            got = dn_r_m_integral(family, lam, g, eps, 2, k, spec=spec)
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
        # kernel it is handed must be its own transpose, corner nodes included.
        kernels = []

        def capture(factors, kernel, side, combine, spec):
            kernels.append((factors, kernel))
            return integrate_pairs(factors, kernel, side, combine, spec)

        monkeypatch.setattr(quadrature, "integrate_pairs", capture)
        r_m_integral(family, lam, 0.2, 0.1, 2)
        factors, kernel = kernels[0]
        rows = factors(_level_four_pair_points())
        a, b = rows[:, ::2], rows[:, ::-3]
        k_ab, k_ba = _fresh_block(kernel, a, b), _fresh_block(kernel, b, a)
        assert np.all(np.abs(k_ab - k_ba.T) <= 1e-14 * np.abs(k_ab))

    @pytest.mark.parametrize("family", _PAIR_FAMILIES)
    def test_reused_scratch_gives_fresh_blocks(self, family):
        # integrate_pairs hands the kernel views of scratch arrays that hold
        # the previous block's values: a block written over NaN must equal
        # the same block written into fresh arrays, bit for bit, on every
        # block of the level-4 grid (its corner nodes included).
        factors, kernel = trace_terms._pair_kernel(family, 0.2)
        rows = factors(_level_four_pair_points())
        npts = rows.shape[1]
        scratch = np.full((quadrature._PAIR_BUFFERS, quadrature._PAIR_BLOCK * npts), np.nan)
        for start in range(0, npts, quadrature._PAIR_BLOCK):
            stop = min(start + quadrature._PAIR_BLOCK, npts)
            shape = (stop - start, npts - start)
            out = tuple(buf[: shape[0] * shape[1]].reshape(shape) for buf in scratch)
            kernel(rows[:, start:stop], rows[:, start:], out)
            fresh = _fresh_block(kernel, rows[:, start:stop], rows[:, start:])
            assert out[0].tobytes() == fresh.tobytes()
            scratch.fill(np.nan)

    def test_back_to_back_calls_match_calls_alone(self):
        # Each integrate_pairs call owns its scratch: a call right after
        # another family's gives what it gives alone.
        alone = [dn_r_m_integral(f, 1.2, 0.2, 0.1, 2, 1) for f in (PLUS, Nu(0.5))]
        back_to_back = [dn_r_m_integral(f, 1.2, 0.2, 0.1, 2, 1) for f in (FLAT, PLUS, Nu(0.5))]
        assert repr(back_to_back[1:]) == repr(alone)
        assert repr(back_to_back[0]) == repr(dn_r_m_integral(FLAT, 1.2, 0.2, 0.1, 2, 1))

    def test_monte_carlo_spec_keeps_point_rule(self, monkeypatch):
        monkeypatch.setattr(quadrature, "integrate_pairs", None)
        spec = QuadratureSpec("monte_carlo", samples=1000)
        assert r_m_integral(PLUS, 1.2, 0.2, 0.1, 2, spec=spec).terms_used == 1000


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
            (quadrature, "integrate_monte_carlo"),
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


class TestFamilyValidation:
    @pytest.mark.parametrize("nu", [-0.5, 0.0])
    def test_nu_positive(self, nu):
        with pytest.raises(DomainError):
            Nu(nu)
