import math

import numpy as np
import pytest
import scipy.linalg as sla

from rabi_zeta.errors import (
    CombinatorialBlowup,
    DomainError,
    InvalidDimension,
    NearPole,
    SingularOperator,
)
from rabi_zeta.operator_oracle import (
    BergmanNu,
    Ncho,
    OnePhoton,
    TraceDerivativeSweep,
    TwoPhoton,
    _min_progression_distance,
    _model_blocks_and_tail,
    _richardson2,
    build_component_operator,
    dense,
    dn_r_m_operator,
    r_m_operator,
    trace_inverse_product,
    zeta_eigen_oracle,
)
from rabi_zeta.specfun import hurwitz_zeta


class TestBuild:
    def test_fock_entries(self):
        op = build_component_operator("fock", 0.3, 0.7, +1, 5)
        assert op.diag[2] == pytest.approx(2 + 0.09 + 0.7)
        assert op.offdiag[1] == pytest.approx(0.3 * math.sqrt(2))

    def test_bergman_entries(self):
        g, nu, shift = 0.2, 1.5, 0.4
        op = build_component_operator("bergman", g, shift, -1, 5, nu=nu)
        assert op.diag[1] == pytest.approx(math.cosh(2 * g) * (2 + nu) + shift)
        assert op.offdiag[0] == pytest.approx(-math.sinh(2 * g) * math.sqrt(nu))

    def test_dense_symmetric(self):
        op = build_component_operator("fock", 0.3, 0.7, +1, 6)
        a = dense(op)
        assert np.allclose(a, a.T)

    def test_bad_args(self):
        with pytest.raises(InvalidDimension):
            build_component_operator("fock", 0.3, 0.7, +1, 1)
        with pytest.raises(DomainError):
            build_component_operator("fock", 0.3, 0.7, 2, 5)
        with pytest.raises(DomainError):
            build_component_operator("bergman", 0.3, 0.7, +1, 5)
        with pytest.raises(DomainError):
            build_component_operator("hermite", 0.3, 0.7, +1, 5)


class TestModelValidation:
    def test_ncho_requires_hyperbolic(self):
        with pytest.raises(DomainError):
            Ncho(alpha=1.0, beta=0.9, eta=0.1)

    def test_models_frozen(self):
        m = OnePhoton(g=0.2, delta=0.3, eps=0.1)
        with pytest.raises(AttributeError):
            m.g = 0.5


class TestTraceInverseProduct:
    def test_single_factor_matches_direct(self):
        op = build_component_operator("fock", 0.2, 0.9, +1, 40)
        t = trace_inverse_product([(op, 1)])
        direct = np.trace(np.linalg.inv(dense(op)))
        assert abs(t - direct) < 1e-10

    def test_bad_factor_lists(self):
        op = build_component_operator("fock", 0.2, 0.9, +1, 20)
        other = build_component_operator("fock", 0.2, 0.9, +1, 30)
        with pytest.raises(DomainError):
            trace_inverse_product([])
        with pytest.raises(DomainError):
            trace_inverse_product([(op, 0)])
        with pytest.raises(DomainError):
            trace_inverse_product([(op, 1), (other, 1)])


class TestDecoupledClosedForms:
    def test_r1_fock_is_zeta2(self):
        # g = 0, eps = 0: R_m = zeta(2m, lam)
        v = r_m_operator("fock", 0.0, 0.8, 0.0, 1, N=400)
        assert abs(v.value - hurwitz_zeta(2, 0.8).value) < 1e-6

    def test_r2_fock_is_zeta4(self):
        v = r_m_operator("fock", 0.0, 0.8, 0.0, 2, N=200)
        assert abs(v.value - hurwitz_zeta(4, 0.8).value) < 1e-10

    def test_r1_bergman_quarter_zeta(self):
        # g = 0: diag 2k + nu + lam, so R_1 = zeta(2, (nu+lam)/2) / 4
        nu, lam = 1.5, 0.9
        v = r_m_operator("bergman", 0.0, lam, 0.0, 1, N=400, nu=nu)
        assert abs(v.value - hurwitz_zeta(2, (nu + lam) / 2).value / 4) < 1e-6

    def test_derivative_matches_zeta_shift(self):
        # d^2/dlam^2 zeta(2, lam) = 6 zeta(4, lam)
        v = dn_r_m_operator("fock", 0.0, 0.8, 0.0, 1, 2, N=200)
        assert abs(v.value - 6 * hurwitz_zeta(4, 0.8).value) < 1e-8


class TestDerivativeRoutes:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep_matches_composition_sum(self, m, n):
        g, lam, eps, N = 0.2, 0.9, 0.1, 120
        sweep = TraceDerivativeSweep("fock", g, lam, eps, n, N)
        terms = {}
        for _ in range(m):
            terms = sweep.next_terms()
        ref = dn_r_m_operator("fock", g, lam, eps, m, n, N)
        assert abs(terms[n].value - ref.value) < 1e-11 * max(abs(ref.value), 1.0)

    def test_sweep_lower_orders_consistent(self):
        sweep = TraceDerivativeSweep("fock", 0.2, 0.9, 0.1, 3, 120)
        terms = sweep.next_terms()
        for order in (0, 1, 2):
            ref = dn_r_m_operator("fock", 0.2, 0.9, 0.1, 1, order, 120)
            assert abs(terms[order].value - ref.value) < 1e-10 * max(abs(ref.value), 1.0)

    def test_finite_difference_check(self):
        # central difference of R_1 in the shift
        g, lam, eps, N, h = 0.2, 0.9, 0.1, 200, 1e-4
        d1 = dn_r_m_operator("fock", g, lam, eps, 1, 1, N).value
        fd = (
            r_m_operator("fock", g, lam + h, eps, 1, N).value
            - r_m_operator("fock", g, lam - h, eps, 1, N).value
        ) / (2 * h)
        assert abs(d1 - fd) < 1e-5 * max(abs(d1), 1.0)

    def test_blowup_guard(self):
        with pytest.raises(CombinatorialBlowup):
            dn_r_m_operator("fock", 0.2, 0.9, 0.1, 8, 12, N=64)

    def test_bad_m(self):
        with pytest.raises(DomainError):
            r_m_operator("fock", 0.2, 0.9, 0.1, 0)


class TestPoleGuards:
    def test_shift_on_grid_raises(self):
        # lam + eps = 0 puts the k = 0 diagonal entry at g^2 only
        with pytest.raises(NearPole):
            r_m_operator("fock", 0.2, 0.1, 0.1, 1)

    def test_min_progression_distance(self):
        assert _min_progression_distance(0.6 + 0j, 1.0, 0.0) == pytest.approx(0.6)
        assert _min_progression_distance(-2.3 + 0j, 1.0, 0.0) == pytest.approx(0.3)
        assert _min_progression_distance(0.2 + 0j, 2.0, 0.5) == pytest.approx(0.7)


class TestEigenOracle:
    def test_one_photon_decoupled(self):
        # delta = 0: displaced-oscillator spectra k + lam +- eps exactly
        model = OnePhoton(g=0.4, delta=0.0, eps=0.1)
        sv = zeta_eigen_oracle(model, 2, 1.0, N=400)
        exact = hurwitz_zeta(2, 1.1).value + hurwitz_zeta(2, 0.9).value
        assert abs(sv.value - exact) < max(sv.abs_error, 1e-6)

    def test_two_photon_decoupled(self):
        model = TwoPhoton(g=0.3, delta=0.0, eps=0.1)
        sv = zeta_eigen_oracle(model, 2, 1.0, N=400)
        exact = hurwitz_zeta(2, 1.6).value + hurwitz_zeta(2, 1.4).value
        assert abs(sv.value - exact) < max(sv.abs_error, 1e-6)

    def test_ncho_equal_parameters(self):
        # alpha = beta: base Hurwitz pair with shift 1/2 and eps = 2 eta
        model = Ncho(alpha=2.0, beta=2.0, eta=0.1)
        sv = zeta_eigen_oracle(model, 2, 0.8, N=400)
        exact = hurwitz_zeta(2, 1.5).value + hurwitz_zeta(2, 1.1).value
        assert abs(sv.value - exact) < max(sv.abs_error, 1e-6)

    def test_error_estimate_positive(self):
        model = OnePhoton(g=0.2, delta=0.3, eps=0.1)
        sv = zeta_eigen_oracle(model, 2, 1.0, N=200)
        assert sv.abs_error > 0


# ---------------------------------------------------------------------------
# Dense references, independent of the banded kernel


def _weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _dense_dn_r_m_once(basis, g, lam, eps, m, n, N, nu):
    """(-1)^n n! sum over weak compositions of n into 2m parts of
    tr(h_+^(-n_1-1) h_-^(-n_2-1) ...), from dense inverses."""
    inv = [
        np.linalg.inv(dense(build_component_operator(basis, g, lam + sign * eps, sign, N, nu)))
        for sign in (+1, -1)
    ]
    total = 0.0
    for comp in _weak_compositions(n, 2 * m):
        prod = np.eye(N)
        for j, nj in enumerate(comp):
            prod = prod @ np.linalg.matrix_power(inv[j % 2], nj + 1)
        total += np.trace(prod)
    return (-1) ** n * math.factorial(n) * complex(total)


def _dense_dn_r_m(basis, g, lam, eps, m, n, N, nu):
    values = tuple(
        _dense_dn_r_m_once(basis, g, lam, eps, m, n, size, nu) for size in (N, N // 2, N // 4)
    )
    return _richardson2(values, 2 * m + n - 1)[0]


def _dense_block_matrices(model, N):
    """The 2N x 2N block matrices [[A, C], [C^T, B]] of the eigen oracle,
    assembled densely in the block (not interleaved) basis."""

    def pair(basis, nu=None):
        a = dense(build_component_operator(basis, model.g, model.eps, +1, N, nu)).real
        b = dense(build_component_operator(basis, model.g, -model.eps, -1, N, nu)).real
        c = model.delta * np.eye(N)
        return np.block([[a, c], [c.T, b]])

    if isinstance(model, OnePhoton):
        return [pair("fock")]
    if isinstance(model, BergmanNu):
        return [pair("bergman", model.nu)]
    if isinstance(model, TwoPhoton):
        return [pair("bergman", 0.5), pair("bergman", 1.5)]
    alpha, beta, eta = model.alpha, model.beta, model.eta
    c = (alpha + beta) / (2 * math.sqrt(alpha * beta * (alpha * beta - 1)))
    ks = np.arange(N, dtype=float)
    mats = []
    for nu in (0.5, 1.5):
        w = np.diag(np.sqrt((ks[:-1] + 1.0) * (ks[:-1] + nu)), 1)
        coupling = c * (w + w.T + 2 * eta * math.sqrt(alpha * beta - 1) * np.eye(N))
        scaling = np.diag(2 * ks + nu)
        mats.append(np.block([[c * alpha * scaling, coupling], [coupling.T, c * beta * scaling]]))
    return mats


_COMPONENTS = [("fock", None), ("bergman", 0.5), ("bergman", 1.5)]


class TestDenseReference:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.9, 0.9 + 0.3j])
    @pytest.mark.parametrize("basis,nu", _COMPONENTS)
    def test_kernel_matches_dense_composition_sum(self, basis, nu, lam, m):
        g, eps, N, top = 0.2, 0.1, 120, 3
        sweep = TraceDerivativeSweep(basis, g, lam, eps, top, N, nu)
        for _ in range(m):
            terms = sweep.next_terms()
        for n in range(top + 1):
            ref = _dense_dn_r_m(basis, g, lam, eps, m, n, N, nu)
            direct = dn_r_m_operator(basis, g, lam, eps, m, n, N, nu)
            for got in (terms[n].value, direct.value):
                assert abs(got - ref) <= 1e-11 * abs(ref), (n, got, ref)

    @pytest.mark.parametrize("lam", [0.9, 0.9 + 0.3j])
    @pytest.mark.parametrize("basis,nu", _COMPONENTS)
    def test_lower_orders_do_not_depend_on_the_top_order(self, basis, nu, lam):
        # The term memo serves a request at order k from a sweep at a higher
        # order: W_j depends only on W_0..W_j.
        g, eps, N = 0.2, 0.1, 60
        top = TraceDerivativeSweep(basis, g, lam, eps, 3, N, nu)
        sweeps = [TraceDerivativeSweep(basis, g, lam, eps, k, N, nu) for k in range(3)]
        for _ in range(4):
            ref = top.next_terms()
            for k, sweep in enumerate(sweeps):
                terms = sweep.next_terms()
                assert [terms[j] for j in range(k + 1)] == [ref[j] for j in range(k + 1)]

    @pytest.mark.parametrize("dim", [60, 2])
    @pytest.mark.parametrize("lam", [0.9, 0.9 + 0.3j])
    def test_trace_inverse_product_matches_dense(self, lam, dim):
        hp = build_component_operator("bergman", 0.2, lam + 0.1, +1, dim, nu=0.5)
        hm = build_component_operator("bergman", 0.2, lam - 0.1, -1, dim, nu=0.5)
        got = trace_inverse_product([(hp, 2), (hm, 1), (hp, 1), (hm, 3)])
        ip, im = (np.linalg.inv(dense(op)) for op in (hp, hm))
        ref = np.trace(ip @ ip @ im @ ip @ im @ im @ im)
        assert abs(got - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize(
        "model",
        [
            OnePhoton(g=0.2, delta=0.3, eps=0.1),
            TwoPhoton(g=0.2, delta=0.3, eps=0.1),
            BergmanNu(nu=0.7, g=0.2, delta=0.3, eps=0.1),
            Ncho(alpha=2.0, beta=1.2, eta=0.1),
        ],
    )
    def test_banded_eigenvalues_match_dense(self, model):
        N = 200
        bands, _ = _model_blocks_and_tail(model, N)
        got = np.sort(np.concatenate([sla.eig_banded(b, eigvals_only=True) for b in bands]))
        dense_mats = _dense_block_matrices(model, N)
        ref = np.sort(np.concatenate([np.linalg.eigvalsh(h) for h in dense_mats]))
        assert got.shape == ref.shape == (2 * N * len(bands),)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


class TestSingularOperator:
    def test_truncated_eigenvalue_at_minus_shift(self):
        # Put a *truncated* eigenvalue of the N = 16 Fock component at -shift.
        # The untruncated spectrum is k + shift, so the shift stays off the
        # excluded progression and only the singularity guard can fire.
        g, N = 0.5, 16
        mu = np.linalg.eigvalsh(dense(build_component_operator("fock", g, 0.0, +1, N)).real)
        lam = -mu[-1]
        assert _min_progression_distance(lam, 1.0, 0.0) > 1e-3
        with pytest.raises(SingularOperator):
            r_m_operator("fock", g, lam, 0.0, 1, N=N)
        with pytest.raises(SingularOperator):
            dn_r_m_operator("fock", g, lam, 0.0, 2, 1, N=N)
        with pytest.raises(SingularOperator):
            TraceDerivativeSweep("fock", g, lam, 0.0, 2, N)
