import dataclasses
import gc
import itertools
import json
import math
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

import rabi_zeta
from rabi_zeta import operator_oracle, trace_terms
from rabi_zeta.errors import (
    DomainError,
    InvalidDimension,
    NearPole,
    SingularOperator,
)
from rabi_zeta.operator_oracle import (
    EIGEN_FLOOR,
    FLAT,
    MINUS,
    PLUS,
    _EIGEN_MIN_TOP,
    _MIN_BAR_TOP,
    _MIN_TOP,
    BergmanNu,
    Component,
    Ncho,
    Nu,
    OnePhoton,
    TraceDerivativeSweep,
    TwoPhoton,
    _ProbedBand,
    _banded_lu,
    _block_trace,
    _extrapolate,
    _ladder,
    _resolvent_band,
    bar_floor_warning,
    build_component_operator,
    dense,
    dn_r_m_operator,
    family_rows,
    model_geometry,
    r_m_operator,
    zeta_eigen_oracle,
)
from rabi_zeta.specfun import hurwitz_zeta, pochhammer, progression_distance


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

    # Component.entries is where the matrix elements live; the public
    # operator is built from them, exactly.
    @pytest.mark.parametrize("shift", [0.7, 0.7 + 0.3j])
    @pytest.mark.parametrize("basis,nu,sign", [("fock", None, +1), ("bergman", 1.5, -1)])
    def test_component_entries_are_the_operator(self, basis, nu, sign, shift):
        op = build_component_operator(basis, 0.3, shift, sign, 7, nu=nu)
        diag, off = Component(basis, nu).entries(0.3, shift, sign, 7)
        assert np.all(np.array(op.diag) == diag) and np.all(np.array(op.offdiag) == off)
        assert len(diag) == op.dim == 7 and len(off) == 6

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
        with pytest.raises(InvalidDimension):
            Component("fock").entries(0.3, 0.7, +1, 1)
        with pytest.raises(DomainError):
            Component("fock").entries(0.3, 0.7, 2, 5)
        # N = 6.5 used to build a 7-row operator that read dim 6.5.
        with pytest.raises(DomainError, match="N must be an integer >= 2"):
            build_component_operator("fock", 0.3, 0.7, +1, 6.5)


class TestModelValidation:
    def test_ncho_requires_hyperbolic(self):
        with pytest.raises(DomainError):
            Ncho(alpha=1.0, beta=0.9, eta=0.1)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.inf, math.nan])
    def test_nu_must_be_finite_and_positive(self, nu):
        # nan and inf used to pass and fail later, or never.
        for build in (Nu, lambda nu: Component("bergman", nu)):
            with pytest.raises(DomainError):
                build(nu)

    def test_models_frozen(self):
        m = OnePhoton(g=0.2, delta=0.3, eps=0.1)
        with pytest.raises(AttributeError):
            m.g = 0.5


class TestOneDescription:
    # The signed (basis, nu, sign) table that perfbench's FAMILIES lists.
    @pytest.mark.parametrize(
        "family,table",
        [
            (FLAT, (("fock", None, 1.0),)),
            (PLUS, (("bergman", 0.5, 1.0), ("bergman", 1.5, 1.0))),
            (MINUS, (("bergman", 0.5, 1.0), ("bergman", 1.5, -1.0))),
            (Nu(0.5), (("bergman", 0.5, 1.0),)),
            (Nu(1.5), (("bergman", 1.5, 1.0),)),
        ],
    )
    def test_family_components(self, family, table):
        assert tuple((c.basis, c.nu, c.sign) for c in family.components) == table

    @pytest.mark.parametrize(
        "model,family",
        [
            (OnePhoton(0.2, 0.3, 0.1), FLAT),
            (BergmanNu(0.8, 0.2, 0.3, 0.1), Nu(0.8)),
            (TwoPhoton(0.2, 0.3, 0.1), PLUS),
            (Ncho(2.0, 1.2, 0.1), PLUS),
        ],
    )
    def test_geometry_names_its_family(self, model, family):
        assert model_geometry(model).family == family

    @pytest.mark.parametrize(
        "model,step,offset",
        [
            (OnePhoton(0.2, 0.3, 0.1), 1.0, 0.0),
            (BergmanNu(0.8, 0.2, 0.3, 0.1), 2.0, 0.8),
            (TwoPhoton(0.2, 0.3, 0.1), 1.0, 0.5),
            (Ncho(2.0, 1.2, 0.1), 1.0, 0.5),
        ],
    )
    def test_free_spectrum_interleaves_the_components(self, model, step, offset):
        geo = model_geometry(model)
        assert (geo.step, geo.offset) == (step, offset)

    def test_families_are_re_exported(self):
        for name in ("FLAT", "PLUS", "MINUS", "Flat", "Nu", "Plus", "Minus", "TraceFamily"):
            assert getattr(trace_terms, name) is getattr(operator_oracle, name)
        for name in ("FLAT", "PLUS", "MINUS", "Flat", "Nu", "Plus", "Minus"):
            assert getattr(rabi_zeta, name) is getattr(operator_oracle, name)


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

    # m = 8, n = 12 would be C(27, 12) ~ 1.7e7 composition terms; the sweep
    # never enumerates them.
    @pytest.mark.parametrize("m,n,N,rtol", [(1, 2, 200, 6e-10), (8, 12, 64, 1e-14)])
    def test_derivative_matches_zeta_shift(self, m, n, N, rtol):
        # g = eps = 0: R_m = zeta(2m, lam) and d^n/dlam^n zeta(2m, lam) =
        # (-1)^n (2m)_n zeta(2m + n, lam)
        v = dn_r_m_operator("fock", 0.0, 0.8, 0.0, m, n, N=N)
        ref = (-1) ** n * pochhammer(2 * m, n) * hurwitz_zeta(2 * m + n, 0.8).value
        assert abs(v.value - ref) <= min(rtol * abs(ref), v.abs_error)


class TestDerivativeRoutes:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep_matches_composition_sum(self, m, n):
        g, lam, eps, N = 0.2, 0.9, 0.1, 120
        sweep = TraceDerivativeSweep(Component("fock"), g, lam, eps, n, N)
        terms = {}
        for _ in range(m):
            terms = sweep.next_terms()
        ref = dn_r_m_operator("fock", g, lam, eps, m, n, N)
        assert abs(terms[n].value - ref.value) < 1e-11 * max(abs(ref.value), 1.0)

    def test_sweep_lower_orders_consistent(self):
        sweep = TraceDerivativeSweep(Component("fock"), 0.2, 0.9, 0.1, 3, 120)
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

    @pytest.mark.parametrize(
        "m,n,name", [(0, 0, "m"), (1.5, 0, "m"), (2.0, 1, "m"), (2, 0.5, "n"), (1, -1, "n")]
    )
    def test_bad_m_or_n(self, m, n, name):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            dn_r_m_operator("fock", 0.2, 0.9, 0.1, m, n)

    # Every operator trace-term entry point refuses a truncation below
    # MIN_TRUNCATION with a message that names it, not a level of its ladder.
    @pytest.mark.parametrize("N", [7, 4, -4])
    def test_truncation_below_eight_refused(self, N):
        calls = [
            lambda: r_m_operator("fock", 0.2, 0.9, 0.1, 2, N=N),
            lambda: dn_r_m_operator("bergman", 0.2, 0.9, 0.1, 2, 1, N=N, nu=0.5),
            lambda: trace_terms.dn_r_m_family_operator(PLUS, 0.9, 0.2, 0.1, 2, 1, N=N),
            lambda: operator_oracle.family_term(FLAT.components, 0.2, 0.9, 0.1, 2, 1, N),
        ]
        for call in calls:
            with pytest.raises(InvalidDimension, match=f"N must be >= 8, got {N}$"):
                call()
        assert math.isfinite(r_m_operator("fock", 0.2, 0.9, 0.1, 2, N=8).value.real)
        # A truncation that is not an int used to raise a bare TypeError.
        with pytest.raises(DomainError, match="N must be an integer >= 8, got 100.5"):
            r_m_operator("fock", 0.2, 0.9, 0.1, 2, N=100.5)


class TestTypedErrors:
    # The basis and nu are checked before the pole check reads the
    # component's progression.
    def test_unknown_basis(self):
        with pytest.raises(DomainError):
            r_m_operator("foo", 0.2, 0.9, 0.1, 1)

    def test_bergman_without_nu(self):
        with pytest.raises(DomainError):
            r_m_operator("bergman", 0.2, 0.9, 0.1, 1)

    def test_sweep_bergman_without_nu(self):
        with pytest.raises(DomainError):
            TraceDerivativeSweep(Component("bergman", None), 0.2, 0.9, 0.1, 2, 60)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_sweep_refuses_a_non_finite_coupling(self, g):
        # A nan g used to reach the factorization: SingularOperator with a
        # nan singular-value estimate.
        for basis, nu in (("fock", None), ("bergman", 0.5)):
            with pytest.raises(DomainError, match="g must be finite"):
                TraceDerivativeSweep(Component(basis, nu), g, 0.9, 0.1, 2, 60)

    @pytest.mark.parametrize("g", [400.0, -400.0])
    def test_huge_coupling_is_a_domain_error(self, g):
        # cosh 2g overflows beyond |g| = 355.2; the Bergman matrix elements
        # used to raise a bare OverflowError there.  Fock's do not read it.
        with pytest.raises(DomainError, match="is too large"):
            Component("bergman", 0.5).entries(g, 0.1, +1, 8)
        with pytest.raises(DomainError, match="is too large"):
            operator_oracle.coupling_hyperbolics(g)
        assert np.all(np.isfinite(Component("fock").entries(g, 0.1, +1, 8)[0]))
        assert operator_oracle.coupling_hyperbolics(355.0)[0] < math.inf


class TestPoleGuards:
    def test_shift_on_grid_raises(self):
        # lam + eps = 0 puts the k = 0 diagonal entry at g^2 only
        with pytest.raises(NearPole):
            r_m_operator("fock", 0.2, 0.1, 0.1, 1)

    def test_min_progression_distance(self):
        assert progression_distance(0.6 + 0j, 1.0, 0.0) == pytest.approx(0.6)
        assert progression_distance(-2.3 + 0j, 1.0, 0.0) == pytest.approx(0.3)
        assert progression_distance(0.2 + 0j, 2.0, 0.5) == pytest.approx(0.7)


_EIGEN_MODELS = [
    (OnePhoton(g=0.2, delta=0.3, eps=0.1), 1.0),
    (TwoPhoton(g=0.2, delta=0.3, eps=0.1), 1.0),
    (BergmanNu(nu=0.7, g=0.2, delta=0.3, eps=0.1), 1.0),
    (Ncho(alpha=2.0, beta=1.2, eta=0.1), 0.8),
]
_EIGEN_MODELS_COMPLEX = [
    (model, lam + (0.2j if isinstance(model, Ncho) else 0.5j)) for model, lam in _EIGEN_MODELS
]


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

    def test_converged_follows_abs_error(self):
        sv = zeta_eigen_oracle(OnePhoton(0.2, 0.3, 0.1), 2, 1.0, N=8)
        assert sv.abs_error > 1e-8
        assert not sv.converged

    def test_floor_and_tops_are_reported(self):
        model = OnePhoton(0.2, 0.3, 0.1)
        fixed = zeta_eigen_oracle(model, 2, 1.0, N=200)
        assert fixed.tops == (200,) and fixed.terms_used == 400
        assert fixed.abs_error == fixed.bar + EIGEN_FLOOR and EIGEN_FLOOR == 1e-7
        # Below the budget's start the bar is not calibrated, and says so.
        assert fixed.calibrated is False
        assert zeta_eigen_oracle(model, 2, 1.0, N=_EIGEN_MIN_TOP).calibrated is True
        # With tol, N caps a budget that starts at _EIGEN_MIN_TOP.
        for N, tops in ((200, (384,)), (400, (400,)), (1200, (600,)), (1600, (400,))):
            sv = zeta_eigen_oracle(model, 2, 1.0, N=N, tol=1e-8)
            assert sv.tops == tops and sv.bar <= 1e-8 and sv.converged is False
        assert zeta_eigen_oracle(model, 2, 1.0, N=1600, tol=1e-6).converged is True
        assert zeta_eigen_oracle(model, 2, 1.0, N=1600, tol=1e-20).tops == (400, 800, 1600)

    def test_climb_solves_each_level_once(self, monkeypatch):
        # A climb from 600 to 1200 adds only its new top: the levels 600,
        # 300, 150, 75 and 37 of the first top serve the second too.  Each
        # block of a level is factored once, by one _block_trace.
        sizes = []
        block_trace = operator_oracle._block_trace

        def counting(band, *args, **kwargs):
            sizes.append(band.shape[1] // 2)
            return block_trace(band, *args, **kwargs)

        monkeypatch.setattr(operator_oracle, "_block_trace", counting)
        model = TwoPhoton(0.2, 0.3, 0.05)
        sv = zeta_eigen_oracle(model, 2, 1.2, N=1200, tol=1e-20)
        assert sv.tops == (600, 1200)
        blocks = len(model_geometry(model).blocks(8))
        assert sorted(sizes) == sorted([1200, 600, 300, 150, 75, 37] * blocks)

    @pytest.mark.parametrize("model,lam", _EIGEN_MODELS)
    def test_truncation_below_eight_refused(self, model, lam):
        for N in (4, 7):
            with pytest.raises(InvalidDimension):
                zeta_eigen_oracle(model, 2, lam, N=N)
        assert math.isfinite(abs(zeta_eigen_oracle(model, 2, lam, N=8).value))
        # An n or N that is not an int used to return a value: n = 2.5 mixed
        # n = 2 traces with an n = 2.5 tail.
        with pytest.raises(DomainError, match="n must be an integer >= 2, got 2.5"):
            zeta_eigen_oracle(model, 2.5, lam)
        for tol in (None, 1e-8):
            with pytest.raises(DomainError, match="N must be an integer"):
                zeta_eigen_oracle(model, 2, lam, N=400.5, tol=tol)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("model,lam", _EIGEN_MODELS + _EIGEN_MODELS_COMPLEX)
    def test_tail_is_the_free_spectrum_from_the_truncation(self, model, lam, n):
        # The components' progressions offset + step*k from k = N on
        # interleave into the geometry's from len(components) * N on.
        geo, N = model_geometry(model), 50
        ref = 0.0
        for c in geo.family.components:
            start = c.offset + c.step * N
            for s in (start + geo.eps, start - geo.eps):
                ref += c.step ** (-float(n)) * hurwitz_zeta(n, (s + lam) / c.step).value
        got = geo.hurwitz(n, lam, len(geo.family.components) * N).value
        assert abs(got - ref) <= 1e-14 * abs(ref)


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
    sizes = (N, N // 2, N // 4)
    values = tuple(_dense_dn_r_m_once(basis, g, lam, eps, m, n, size, nu) for size in sizes)
    return _extrapolate(values, sizes, 2 * m + n - 1)[0]


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
        coupling = c * (w + w.T) + c * 2 * eta * math.sqrt(alpha * beta - 1) * np.eye(N)
        scaling = np.diag(2 * ks + nu)
        mats.append(np.block([[c * alpha * scaling, coupling], [coupling.T, c * beta * scaling]]))
    return mats


def _interleaved_general_band(h, u):
    """gbtrf band storage band[2u + i - j, j] = H[i, j] (rows 0..u-1 zero) of
    a block matrix [[A, C], [C^T, B]] taken to the interleaved basis (a_0,
    b_0, a_1, ...), after checking that no entry lies outside the bandwidth
    u."""
    size = len(h)
    perm = np.ravel(np.column_stack([np.arange(size // 2), np.arange(size // 2, size)]))
    hi = h[np.ix_(perm, perm)]
    i, j = np.indices(hi.shape)
    assert not np.any(hi[np.abs(i - j) > u])
    band = np.zeros((3 * u + 1, size))
    inside = np.abs(i - j) <= u
    band[2 * u + i[inside] - j[inside], j[inside]] = hi[inside]
    return band


def _upper(band):
    """The upper band storage that eig_banded reads, rows u..2u of a
    block's gbtrf storage."""
    u = len(band) // 3
    return band[u : 2 * u + 1]


def _eigen_sum(bands, n, lam):
    """The dense reference of the eigen oracle's block traces: the sum of
    (mu + lam)^-n over the blocks' eigenvalues mu, from eig_banded."""
    mu = np.concatenate([sla.eig_banded(_upper(b), eigvals_only=True) for b in bands])
    return complex(np.sum((mu + complex(lam)) ** -float(n)))


_COMPONENTS = [("fock", None), ("bergman", 0.5), ("bergman", 1.5)]


class TestDenseReference:
    # m = 4 and 5 are the first terms that pair two computed powers F^2 F^2
    # and F^3 F^2; m <= 3 pairs only with F^1.  N = 8 runs the levels 8, 4
    # and 2, so the band factorization also meets dimension 2.
    @pytest.mark.parametrize("N", [120, 8])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [0.9, 0.9 + 0.3j])
    @pytest.mark.parametrize("basis,nu", _COMPONENTS)
    def test_kernel_matches_dense_composition_sum(self, basis, nu, lam, m, N):
        g, eps, top = 0.2, 0.1, 3
        sweep = TraceDerivativeSweep(Component(basis, nu), g, lam, eps, top, N)
        for _ in range(m):
            terms = sweep.next_terms()
        for n in range(top + 1):
            ref = _dense_dn_r_m(basis, g, lam, eps, m, n, N, nu)
            direct = dn_r_m_operator(basis, g, lam, eps, m, n, N, nu)
            for got in (terms[n].value, direct.value):
                assert abs(got - ref) <= 1e-11 * abs(ref), (n, got, ref)

    # N = 400 drops its finest truncations along the way (the ladder).
    @pytest.mark.parametrize("N", [60, 400])
    @pytest.mark.parametrize("lam", [0.9, 0.9 + 0.3j])
    @pytest.mark.parametrize("basis,nu", _COMPONENTS)
    def test_lower_orders_do_not_depend_on_the_top_order(self, basis, nu, lam, N):
        # One sweep at the top order serves every lower order: W_j depends
        # only on W_0..W_j, each order's bar reads only its own values, and the
        # ladder's drop test reads order 0 only.  (All orders share the probe
        # period, which none of these points widens.)
        g, eps = 0.2, 0.1
        top = TraceDerivativeSweep(Component(basis, nu), g, lam, eps, 3, N)
        sweeps = [TraceDerivativeSweep(Component(basis, nu), g, lam, eps, k, N) for k in range(3)]
        for _ in range(6):
            ref = top.next_terms()
            for k, sweep in enumerate(sweeps):
                terms = sweep.next_terms()
                assert [terms[j] for j in range(k + 1)] == [ref[j] for j in range(k + 1)]

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
        bands = model_geometry(model).blocks(N)
        got = np.sort(
            np.concatenate([sla.eig_banded(_upper(b), eigvals_only=True) for b in bands])
        )
        dense_mats = _dense_block_matrices(model, N)
        ref = np.sort(np.concatenate([np.linalg.eigvalsh(h) for h in dense_mats]))
        assert got.shape == ref.shape == (2 * N * len(bands),)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))

    # The eigen oracle's bands are written diagonal by diagonal into the even
    # and odd columns, the lower ones as mirrors of the upper; they must hold
    # exactly the interleaved block matrix.
    @pytest.mark.parametrize("N", [2, 3, 8, 51])
    @pytest.mark.parametrize(
        "model",
        [
            OnePhoton(g=0.2, delta=0.3, eps=0.1),
            TwoPhoton(g=0.35, delta=-0.4, eps=0.07),
            BergmanNu(nu=0.7, g=0.2, delta=0.3, eps=0.1),
            Ncho(alpha=2.0, beta=1.2, eta=0.1),
        ],
    )
    def test_block_bands_hold_the_interleaved_block_matrix(self, model, N):
        u = 3 if isinstance(model, Ncho) else 2
        bands = model_geometry(model).blocks(N)
        refs = [_interleaved_general_band(h, u) for h in _dense_block_matrices(model, N)]
        assert len(bands) == len(refs)
        for band, ref in zip(bands, refs):
            assert band.shape == ref.shape and np.array_equal(band, ref)


class TestProbedKernel:
    # Each sweep state steps W(k)E on min(64, N) probe columns and doubles
    # them while its halfway rows hold more than the rounding floor.  These
    # points need a wider period (their bands decay slowly) ...
    _WIDENING = [("bergman", 1.5, 1.0, 1.2), ("bergman", 0.5, 0.6, -4.3 + 0.2j)]
    # ... and these keep the start, one of them between two poles.
    _NARROW = [("fock", None, 0.2, 0.9), ("bergman", 0.5, 0.2, 0.9 + 0.3j), ("fock", None, 0.2, -2.75)]

    @staticmethod
    def _traces(point, N, m_last=8):
        basis, nu, g, lam = point
        band = _resolvent_band(Component(basis, nu), g, lam, 0.1, 3, N)
        return [band.traces(m) for m in range(1, m_last + 1)], band.P

    # The transposed band pairs row r with the column c of each class q mod P
    # nearest to r: found here by searching the window [r - P/2, r + P/2),
    # moved by one period P where the window leaves the matrix.  Entry (r, q)
    # of the state sits at lanes * (r + N (q mod C)) + q // C of its lane
    # view, C = ceil(P / lanes): a real pencil packs two probe columns into
    # each complex column, a complex one keeps one.
    @pytest.mark.parametrize("lam,lanes", [(0.9, 2), (0.9 + 0.3j, 1)])
    @pytest.mark.parametrize("N", [2, 3, 64, 65, 100, 129])
    def test_transposed_band_reads_the_nearest_column_of_each_class(self, N, lam, lanes):
        band = _resolvent_band(Component("fock"), 0.2, lam, 0.1, 0, N)
        for P in sorted({2**k for k in range(1, N.bit_length())} | {N}):
            band._probe(P)
            C = -(-P // lanes)
            assert band._w[0].shape == (N, C)

            def at(r, q):
                return lanes * (r + N * (q % C)) + q // C

            # Each lane of the state holds its own position.
            view = band._view(band._w[0])
            view[:] = np.arange(view.size)
            probed, ref = np.empty((N, P), dtype=int), np.empty((N, P))
            for r in range(N):
                window = np.arange(r - P // 2, r - P // 2 + P)
                nearest = window[np.argsort(window % P)]
                nearest[nearest < 0] += P
                nearest[nearest >= N] -= P
                probed[r] = at(r, np.arange(P))
                ref[r] = at(nearest, r % P)
            # Every lane but the spare one of an odd P holds a probed entry.
            assert len(np.unique(probed)) == N * P == view.size - N * (lanes * C - P)
            assert np.array_equal(band._bands()[0][probed], ref), P

    def test_transposed_band_is_built_in_one_index_array(self, monkeypatch):
        # The P x N index is built in place: one int64 index array and the
        # gathered band vector, with no P x N transients besides.
        N, P = 2400, 64
        monkeypatch.setattr(operator_oracle, "_PROBE_START", P)
        band = _ProbedBand(N, 1, float, lambda b: b)
        tracemalloc.start()
        try:
            band._bands()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert band.P == P
        assert peak <= 3 * N * P * 8

    # The halfway-row check weighs the halfway rows against the state's
    # largest entry in magnitude, of either sign and in either lane count.
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_check_reads_the_largest_entry_by_magnitude(self, dtype, sign):
        band = _ProbedBand(8, 1, dtype, lambda b: b, period=4)
        view = band._view(band._w[0])
        view[:] = 0.0
        view[band._diagonal[0]] = 1.0
        view[band._at(0, 1)] = sign * 1e3
        view[band._halfway[0]] = 1e-12
        assert not band._aliased()
        view[band._at(0, 1)] = sign * 10.0
        assert band._aliased()

    # Ladder levels 25 and 37 probe on P = N columns, an odd number: a real
    # pencil holds ceil(P/2) complex columns, and the imaginary lane of the
    # last stays exactly 0 through every step (one per odd m) and hold.
    @pytest.mark.parametrize("top_n,N", [(100, 25), (150, 37)])
    @pytest.mark.parametrize("basis,nu", _COMPONENTS)
    def test_odd_period_packs_a_spare_lane_that_stays_zero(self, basis, nu, top_n, N):
        g, lam, eps, top = 0.2, 0.9, 0.1, 3
        band = TraceDerivativeSweep(Component(basis, nu), g, lam, eps, top, top_n)._states[-1]
        assert band.N == band.P == N and all(x.shape == (N, (N + 1) // 2) for x in band._w)
        for m in range(1, 7):
            row = band.traces(m)
            assert band.P == N
            assert all(np.all(x[:, -1].imag == 0) for x in band._w), m
            for n in range(top + 1):
                ref = _dense_dn_r_m_once(basis, g, lam, eps, m, n, N, nu)
                assert abs(row[n] - ref) <= 1e-12 * abs(ref), (m, n, row[n], ref)

    # N = 130 probes its two finest levels, 130 and 65, on 64 columns.
    @pytest.mark.parametrize("point", _NARROW[:2])
    def test_probed_sweep_matches_dense_composition_sum(self, point):
        basis, nu, g, lam = point
        eps, N, top = 0.1, 130, 3
        sweep = TraceDerivativeSweep(Component(basis, nu), g, lam, eps, top, N)
        for m in range(1, 6):
            terms = sweep.next_terms()
            for n in range(top + 1):
                ref = _dense_dn_r_m(basis, g, lam, eps, m, n, N, nu)
                assert abs(terms[n].value - ref) <= 1e-11 * abs(ref), (m, n, terms[n], ref)
        assert [(st.N, st.P) for st in sweep._states] == [(130, 64), (65, 64), (32, 32)]

    @pytest.mark.parametrize("N", [100, 400, 800])
    def test_period_widens_only_where_the_band_is_wide(self, N):
        for point in self._WIDENING:
            assert min(64, N) < self._traces(point, N)[1] <= N, point
        for point in self._NARROW:
            assert self._traces(point, N)[1] == 64, point

    # At P = N, E = I: the dense sweep.  A start of 16 doubles its way up to
    # a period that passes the check.
    @pytest.mark.parametrize("point", [*_WIDENING, _NARROW[2]])
    def test_probed_traces_match_the_dense_sweep(self, monkeypatch, point):
        N = 400
        monkeypatch.setattr(operator_oracle, "_PROBE_START", N)
        dense, P = self._traces(point, N)
        assert P == N
        for start in (64, 16):
            monkeypatch.setattr(operator_oracle, "_PROBE_START", start)
            got, P = self._traces(point, N)
            assert P < N
            for row, ref in zip(got, dense):
                assert all(abs(x - y) <= 1e-13 * abs(y) for x, y in zip(row, ref)), (start, row, ref)

    def test_the_halfway_check_is_needed(self, monkeypatch):
        # Without it, 64 probe columns alias the slow-decaying nu = 3/2 band
        # at g = 1.0 into an error of about 2e-8.
        point, N = self._WIDENING[0], 400
        dense, _ = self._traces(point, N)
        monkeypatch.setattr(_ProbedBand, "_aliased", lambda self: False)
        got, P = self._traces(point, N)
        assert P == 64
        err = max(abs(x - y) / abs(y) for row, ref in zip(got, dense) for x, y in zip(row, ref))
        assert err > 1e-9

    def test_large_truncation_matches_its_reference_row(self):
        # N = 3200 at order 3 and complex lam, the finest level of the
        # calibration reference, in well under a second (ROADMAP aim 3).
        rows = json.loads(_REFERENCE.read_text())["rows"]
        ref = next(r for r in rows if (r["basis"], r["nu"], r["g"]) == ("bergman", 0.5, 0.4) and r["lam"][1])
        lam = complex(*ref["lam"])
        sweep = TraceDerivativeSweep(Component("bergman", 0.5), 0.4, lam, _CALIBRATION["eps"], 3, 3200)
        assert max(st.P for st in sweep._states) == 64
        for m, want in enumerate(ref["terms"], 1):
            row = sweep.next_terms()
            for k in range(4):
                assert abs(row[k].value - complex(*want[k])) <= row[k].abs_error, (m, k)


class TestTracesDriver:
    # _ProbedBand.traces(m) steps to W(floor(m/2)), holds it and steps to
    # W(ceil(m/2)).  A fresh band asked for traces(m) takes the same steps
    # and halfway-row checks as the m-th call of a run m = 1, 2, ..., so it
    # returns the same values bit for bit.
    _POINTS = [TestProbedKernel._NARROW[0], TestProbedKernel._WIDENING[0]]

    @staticmethod
    def _band(point, N=400):
        basis, nu, g, lam = point
        return _resolvent_band(Component(basis, nu), g, lam, 0.1, 3, N)

    @pytest.mark.parametrize("point", _POINTS)
    def test_a_fresh_band_returns_the_mth_call_of_a_run(self, point):
        run = self._band(point)
        for m in range(1, 9):
            want = run.traces(m)
            assert len(want) == 4
            assert self._band(point).traces(m) == want, m

    # These points widen, where they do, on the first step, before anything
    # is held.  One doubling forced on the third step, which traces(5) takes
    # with W(2) held, replays W(2) on the wider period and must rebuild its
    # bands there: the values stay those of the dense sweep (P = N), and a
    # fresh band forced alike replays them bit for bit.
    @pytest.mark.parametrize("point", _POINTS)
    def test_a_widening_after_a_hold_rebuilds_the_held_bands(self, monkeypatch, point):
        N = 400
        monkeypatch.setattr(operator_oracle, "_PROBE_START", N)
        dense = self._band(point, N)
        want = [dense.traces(m) for m in range(1, 9)]
        monkeypatch.setattr(operator_oracle, "_PROBE_START", 64)
        aliased = _ProbedBand._aliased

        def once_more_on_the_third_step(band):
            if band._k == 2 and not hasattr(band, "forced_from"):
                band.forced_from = band.P
                return True
            return aliased(band)

        monkeypatch.setattr(_ProbedBand, "_aliased", once_more_on_the_third_step)
        run = self._band(point, N)
        for m, ref in enumerate(want, 1):
            row = run.traces(m)
            assert all(abs(x - y) <= 1e-13 * abs(y) for x, y in zip(row, ref)), (m, row, ref)
            assert self._band(point, N).traces(m) == row, m
        assert run.forced_from < run.P == min(2 * run.forced_from, N)

    # The eigen blocks' one-order bands: n = 4 holds W(2), two steps in, and
    # n = 5 steps once more past it.
    @pytest.mark.parametrize("model,lam", [(TwoPhoton(0.45, 0.3, 0.1), 1.0), (Ncho(2.0, 1.2, 0.1), 0.8 + 0.2j)])
    def test_eigen_block_bands_replay_the_run(self, model, lam):
        def band():
            ab = model_geometry(model).blocks(200)[0].astype(complex)
            ab[len(ab) // 3 * 2] += lam
            return _ProbedBand(ab.shape[1], 1, complex, _banded_lu(ab, len(ab) // 3)[0])

        run = band()
        for n in range(1, 7):
            want = run.traces(n)
            assert band().traces(n) == want, n

    def test_the_state_never_steps_back(self):
        band = self._band(self._POINTS[0], 100)
        band.traces(3)
        with pytest.raises(ValueError):
            band.traces(2)


class TestFreedByReferenceCounting:
    # A solve that refers back to its owner ties each dropped state into a
    # reference cycle that only the cycle collector frees, and the finest
    # ladder states hold the most memory.  With the collector off, every
    # state must go as soon as its last reference does.
    @pytest.fixture
    def no_collector(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_dropped_ladder_states_are_freed(self, no_collector):
        sweep = TraceDerivativeSweep(Component("fock"), 0.2, 0.9, 0.1, 3, 400)
        refs = [weakref.ref(st) for st in sweep._states]
        for _ in range(4):
            sweep.next_terms()
        kept = len(sweep._states)
        # By m = 4 the sweep has dropped 400 and 200.
        assert kept == len(refs) - 2
        assert all(r() is None for r in refs[:-kept])
        assert all(r() is not None for r in refs[-kept:])
        del sweep
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("n", [2, 5])
    def test_each_block_band_is_freed_on_return(self, monkeypatch, no_collector, n):
        built = []

        class Recording(_ProbedBand):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr(operator_oracle, "_ProbedBand", Recording)
        for band in model_geometry(Ncho(2.0, 1.2, 0.1)).blocks(100):
            _block_trace(band, n, 0.8 + 0.2j)
        assert len(built) == 2 and all(r() is None for r in built)


class TestProbedEigenKernel:
    # The eigen oracle's block traces tr((H + lam)^-n) come from the probed
    # band kernel; eig_banded's eigenvalue sums are their dense reference.
    # These points widen the probe period past its start of 64.
    _WIDENING = [(TwoPhoton(0.45, 0.3, 0.1), 1.0), (Ncho(1.2, 1.0, 0.1), 0.8)]

    @staticmethod
    def _recording(monkeypatch):
        """The list of every _ProbedBand the kernel builds from now on."""
        built = []

        class Recording(_ProbedBand):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(operator_oracle, "_ProbedBand", Recording)
        return built

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("model,lam", _EIGEN_MODELS + _EIGEN_MODELS_COMPLEX)
    def test_block_sums_match_the_eigenvalue_sums(self, model, lam, n):
        bands = model_geometry(model).blocks(200)
        got = sum(_block_trace(b, n, lam)[0] for b in bands)
        ref = _eigen_sum(bands, n, lam)
        assert abs(got - ref) <= 1e-13 * abs(ref), (got, ref)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("model,lam", _WIDENING)
    def test_widening_points_match_the_eigenvalue_sums(self, monkeypatch, model, lam, n):
        built = self._recording(monkeypatch)
        bands = model_geometry(model).blocks(400)
        got = sum(_block_trace(b, n, lam)[0] for b in bands)
        ref = _eigen_sum(bands, n, lam)
        assert abs(got - ref) <= 1e-13 * abs(ref), (got, ref)
        assert len(built) == len(bands) and min(b.P for b in built) > 64

    # The levels of a request run coarsest first, and each band starts at the
    # period that the last band to settle below its own N settled on.  The
    # blocks of up to 200 rows need P = N, which tells the next band
    # nothing; of the wider ones only the first doubles its period.
    @pytest.mark.parametrize("model,lam", _WIDENING)
    def test_one_widening_per_request(self, monkeypatch, model, lam):
        built = self._recording(monkeypatch)
        probe = _ProbedBand._probe

        def counting(band, P):
            band.periods = getattr(band, "periods", []) + [P]
            probe(band, P)

        monkeypatch.setattr(_ProbedBand, "_probe", counting)
        for n in range(2, 6):
            del built[:]
            zeta_eigen_oracle(model, n, lam, N=400)
            doubled = [b for b in built if len(b.periods) > 1 and b.P < b.N]
            assert len(doubled) <= 1, [(b.N, b.periods) for b in built]
            assert [b.N for b in built] == [50, 50, 100, 100, 200, 200, 400, 400, 800, 800]
            assert built[-1].periods == [built[-2].P] and built[-1].P > 64

    # The block is complex-symmetric, so its band is its own transposed
    # band: at n = 2 the kernel dots W(1)E with itself, holding no copy, and
    # builds no P x N int64 index.  Gathered through that index, the peak
    # here was 15,083,728 bytes (numpy 2.4, scipy 1.17).
    def test_no_transposed_index_on_the_eigen_path(self, monkeypatch):
        built = self._recording(monkeypatch)
        block = model_geometry(TwoPhoton(0.45, 0.3, 0.1)).blocks(1200)[0]
        _block_trace(block, 2, 1.0)
        tracemalloc.start()
        try:
            _block_trace(block, 2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        N, P = built[-1].N, built[-1].P
        assert (N, P) == (2400, 256) and built[-1]._transposed is None
        assert peak <= 15_083_728 - N * P * 8

    # The widening 128 -> 256 drops the narrower state before it allocates
    # the wider one, N P real probe entries packed two per complex column:
    # the peak was 7,845,136 bytes while both were held, and 5,406,592 with
    # one.
    def test_widening_holds_one_state(self, monkeypatch):
        built = self._recording(monkeypatch)
        block = model_geometry(TwoPhoton(0.45, 0.3, 0.1)).blocks(1200)[0]
        _block_trace(block, 2, 1.0)
        tracemalloc.start()
        try:
            _block_trace(block, 2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        N, P = built[-1].N, built[-1].P
        assert (N, P) == (2400, 256) and built[-1]._lanes == 2
        assert peak <= 1.25 * N * P * 8

    # A real symmetric block has real eigenvalues: lam within the guard of
    # some -mu is refused, 1e-6 away it is summed like the eigenvalues.
    @pytest.mark.parametrize("model,lam", _EIGEN_MODELS)
    def test_near_pole(self, model, lam):
        N, n = 50, 2
        bands = model_geometry(model).blocks(N)
        mu = sla.eig_banded(_upper(bands[0]), eigvals_only=True)[N // 2]
        for near in (-mu + 1e-10, -mu - 1e-10, -mu + 1e-10j):
            with pytest.raises(NearPole):
                zeta_eigen_oracle(model, n, near, N=N)
        for off in (-mu + 1e-6, -mu - 1e-6):
            got = _block_trace(bands[0], n, off)[0]
            assert abs(got - _eigen_sum(bands[:1], n, off)) <= 1e-6 * abs(got)
            assert math.isfinite(abs(zeta_eigen_oracle(model, n, off, N=N).value))


class TestTruncationLadder:
    @staticmethod
    def _three_level_rows(basis, g, lam, eps, n, N, nu, m_last):
        """Rows from the truncations N, N/2, N/4 alone, as the sweep builds
        them without a ladder (below _MIN_TOP with the first step's bar)."""
        sizes = (N, N // 2, N // 4)
        states = [_resolvent_band(Component(basis, nu), g, lam, eps, n, size) for size in sizes]
        rows = []
        for m in range(1, m_last + 1):
            per_truncation = [st.traces(m) for st in states]
            row = {}
            for order, values in enumerate(zip(*per_truncation)):
                value, bar = _extrapolate(values, sizes, 2 * m + order - 1, N < _MIN_TOP)
                row[order] = (value, bar + 1e-14 * abs(value))
            rows.append(row)
        return rows

    @pytest.mark.parametrize("lam", [0.9, 0.9 + 0.3j])
    @pytest.mark.parametrize("basis,nu", _COMPONENTS)
    def test_ladder_rows_lie_within_their_error_of_a_fine_reference(self, basis, nu, lam):
        g, eps, n, m_last = 0.2, 0.1, 2, 8
        sweep = TraceDerivativeSweep(Component(basis, nu), g, lam, eps, n, 400)
        ref = self._three_level_rows(basis, g, lam, eps, n, 1600, nu, m_last)
        used = []
        for m in range(1, m_last + 1):
            row = sweep.next_terms()
            used.append(row[0].terms_used)
            for order in range(n + 1):
                got, (want, _) = row[order], ref[m - 1][order]
                assert abs(got.value - want) <= got.abs_error, (m, order, got, want)
        # m = 1 keeps N = 400, and the later terms came from coarser triples.
        assert used[0] == 400 and used[-1] == 100 and used == sorted(used, reverse=True)

    # Below _MIN_TOP the bars are the first Richardson step's corrections.
    @pytest.mark.parametrize("N", [8, 60, 95])
    @pytest.mark.parametrize("lam", [0.9, 0.9 + 0.3j])
    @pytest.mark.parametrize("basis,nu", _COMPONENTS)
    def test_small_truncations_keep_three_levels(self, basis, nu, lam, N):
        g, eps, n, m_last = 0.2, 0.1, 2, 6
        sweep = TraceDerivativeSweep(Component(basis, nu), g, lam, eps, n, N)
        ref = self._three_level_rows(basis, g, lam, eps, n, N, nu, m_last)
        for m in range(1, m_last + 1):
            row = sweep.next_terms()
            assert {k: (sv.value, sv.abs_error) for k, sv in row.items()} == ref[m - 1]
            assert all(sv.terms_used == N for sv in row.values())


class TestExtrapolate:
    @pytest.mark.parametrize("p", [1, 2, 5, 9])
    def test_exact_halvings_are_the_classic_two_step(self, p):
        # The closed form for sizes N, N/2, N/4: each step adds
        # (fine - coarse) / (2^q - 1), first at q = p, then at q = p + 1.
        def step(fine, coarse, q):
            corr = (fine - coarse) / (2**q - 1)
            return fine + corr, corr

        values = (1.25 + 0.5j, 1.3 - 0.1j, 1.7 + 0.2j)
        fine, coarse = step(values[0], values[1], p)[0], step(values[1], values[2], p)[0]
        value, corr = step(fine, coarse, p + 1)
        for sizes in [(400, 200, 100), (1600, 800, 400), (8, 4, 2)]:
            assert _extrapolate(values, sizes, p) == (value, abs(corr))

    @pytest.mark.parametrize("sizes", [(50, 25, 12), (95, 47, 23), (150, 75, 37)])
    def test_uneven_halvings_solve_both_powers(self, sizes):
        p, exact = 3, 0.75 - 0.25j
        values = [exact + 2.0 / n**p - 5.0 / n ** (p + 1) for n in sizes]
        assert abs(_extrapolate(values, sizes, p)[0] - exact) <= 1e-15

    def test_bar_from_the_fourth_level(self):
        p, exact, sizes = 2, 1.5, (400, 200, 100, 50, 25)
        values = [exact + 3.0 / n**p + 1.0 / n ** (p + 1) + 7.0 / n ** (p + 2) for n in sizes]
        three = _extrapolate(values[:3], sizes[:3], p)
        value, bar = _extrapolate(values[:4], sizes[:4], p)
        # The value stays the two-step one; the third step's correction is
        # its whole error here, so the bar is twice the error.
        assert value == three[0]
        assert bar == pytest.approx(2 * abs(value - exact), rel=1e-5) and bar < three[1] / 5
        assert _extrapolate(values, sizes, p) == pytest.approx((value, bar), rel=1e-5)
        # Two-step corrections that do not fall at the N^-(p+1) rate leave
        # the last correction as the bar.
        assert _extrapolate(values[:3] + [values[3] + 1e-3], sizes[:4], p) == three

    def test_cancelled_third_step_is_guarded_by_the_fifth_level(self):
        p, exact, sizes = 2, 1.5, (400, 200, 100, 50, 25)
        values = [exact + 3.0 / n**p + 1.0 / n ** (p + 1) + 7.0 / n ** (p + 2) for n in sizes]
        value = _extrapolate(values[:3], sizes[:3], p)[0]
        # Move the N/8 value so that the next-coarser two-step value equals
        # the finest one: the third step's correction cancels to zero.  The
        # two-step value is linear in the N/8 value, with this weight:
        coarser = _extrapolate(values[1:4], sizes[1:4], p)[0]
        weight = _extrapolate([*values[1:3], values[3] + 1.0], sizes[1:4], p)[0] - coarser
        values[3] += (value - coarser) / weight
        assert _extrapolate(values[:4], sizes[:4], p)[1] <= 1e-12 * abs(value - exact)
        assert _extrapolate(values, sizes, p)[1] >= abs(value - exact)


# The calibration grid: each component at eps = 0.1 and at two couplings, g
# = 0.2 (the Rabi models) and g = 0.4 (about the oscillator pair's), with a
# real and a complex lam each, m = 1..8 and orders 0..3, against the
# two-step value from (3200, 1600, 800).  The reference rows are stored, so
# that the calibration does not move with the kernel it checks.  A probed
# N = 3200 state at order 3 and complex lam holds 3200 x 64 entries per
# order, about 30 MB with its bands, where a dense one held about 1.3 GB;
# regenerate the rows (about 10 s) with `PYTHONPATH=src python
# tests/test_operator_oracle.py sweep` (sweep is the default).
_REFERENCE = pathlib.Path(__file__).with_name("sweep_reference.json")
_CALIBRATION = dict(
    eps=0.1,
    n=3,
    m_last=8,
    sizes=(3200, 1600, 800),
    points=[(0.2, 0.9), (0.2, 0.9 + 0.3j), (0.4, 1.2), (0.4, 1.2 + 0.3j)],
    components=[*_COMPONENTS, ("bergman", 0.8)],
)


def _write_sweep_reference(path=_REFERENCE):
    c = _CALIBRATION
    rows = []
    for (g, lam), (basis, nu) in itertools.product(c["points"], c["components"]):
        per_size = []
        for size in c["sizes"]:  # one truncation alive at a time
            band = _resolvent_band(Component(basis, nu), g, lam, c["eps"], c["n"], size)
            per_size.append([band.traces(m) for m in range(1, c["m_last"] + 1)])
            del band
        terms = [
            [
                _extrapolate([v[m][k] for v in per_size], c["sizes"], 2 * m + k + 1)[0]
                for k in range(c["n"] + 1)
            ]
            for m in range(c["m_last"])
        ]
        rows.append(
            {
                "basis": basis,
                "nu": nu,
                "g": g,
                "lam": [complex(lam).real, complex(lam).imag],
                "terms": [[[t.real, t.imag] for t in row] for row in terms],
            }
        )
    lines = ",\n".join(json.dumps(row) for row in rows)
    path.write_text(f'{{"sizes": {json.dumps(c["sizes"])}, "rows": [\n{lines}\n]}}\n')


# The eigen calibration grid: the four models of TestEigenOracle at n = 2
# and 3 with a real and a complex lam, plus a BergmanNu case whose bar at a
# four-level top falls short, against zeta_eigen_oracle at N = 6400 (the
# five-level value from 6400, ..., 400).  Regenerate it with `PYTHONPATH=src
# python tests/test_operator_oracle.py eigen` (about three minutes).
_EIGEN_REFERENCE = pathlib.Path(__file__).with_name("eigen_reference.json")
_EIGEN_SHORT = (
    BergmanNu(0.9110658382669575, 0.20480307104578999, 0.5694541565485138, 0.07657902368979327),
    2,
    1.0636937072512154,
)
_EIGEN_CALIBRATION = [
    (model, n, lam) for model, lam in _EIGEN_MODELS + _EIGEN_MODELS_COMPLEX for n in (2, 3)
] + [_EIGEN_SHORT]
_EIGEN_REFERENCE_N = 6400
_MODEL_TYPES = {cls.__name__: cls for cls in (OnePhoton, TwoPhoton, BergmanNu, Ncho)}


def _write_eigen_reference(path=_EIGEN_REFERENCE):
    rows = []
    for model, n, lam in _EIGEN_CALIBRATION:
        sv = zeta_eigen_oracle(model, n, lam, _EIGEN_REFERENCE_N)
        rows.append(
            {
                "model": type(model).__name__,
                "params": dataclasses.asdict(model),
                "n": n,
                "lam": [complex(lam).real, complex(lam).imag],
                "value": [sv.value.real, sv.value.imag],
                "bar": sv.bar,
            }
        )
    lines = ",\n".join(json.dumps(row) for row in rows)
    path.write_text(f'{{"N": {_EIGEN_REFERENCE_N}, "rows": [\n{lines}\n]}}\n')


class TestCalibration:
    @staticmethod
    def _misses(N, orders=range(4), couplings=(0.2, 0.4)):
        """Rows of the sweep at N that lie outside their bar of the reference."""
        c = _CALIBRATION
        misses = []
        for ref in json.loads(_REFERENCE.read_text())["rows"]:
            if ref["g"] not in couplings:
                continue
            lam = complex(*ref["lam"])
            component = Component(ref["basis"], ref["nu"])
            sweep = TraceDerivativeSweep(component, ref["g"], lam, c["eps"], c["n"], N)
            for m, want in enumerate(ref["terms"], 1):
                row = sweep.next_terms()
                for k in orders:
                    err = abs(row[k].value - complex(*want[k]))
                    if err > row[k].abs_error:
                        misses.append((ref["basis"], ref["nu"], ref["g"], lam, m, k, err))
        return misses

    # Below _MIN_TOP the first step's correction gives the bars; 75 and 150
    # halve unevenly (37, 18 and 75, 37); from 192 on the N/8 level gives them.
    @pytest.mark.parametrize("N", [_MIN_BAR_TOP, 48, 50, 75, 100, _MIN_TOP, 150, 200, 400])
    def test_rows_lie_within_their_bars(self, N):
        assert self._misses(N) == []

    def test_first_step_bar_floor_is_the_smallest_that_holds(self):
        # One step below it a g = 0.4 row falls short of its first-step bar
        # (Bergman 1/2, m = 3, order 3: 1.02 times at N = 43; 5 times at 39,
        # 26 at 32).
        assert _MIN_BAR_TOP == 44
        assert self._misses(_MIN_BAR_TOP - 1, couplings=(0.4,)) != []

    def test_terms_below_the_floor_are_not_converged(self):
        # At m = 3 both bars meet the 1e-8 tolerance (1.2e-9 and 1.1e-9), so
        # only the calibration floor tells the two truncations apart.
        for N, converged in ((_MIN_BAR_TOP - 1, False), (_MIN_BAR_TOP, True)):
            sv = r_m_operator("fock", 0.2, 1.0, 0.1, 3, N=N)
            assert sv.abs_error <= 1e-8 and sv.converged is converged

    @pytest.mark.parametrize("family", [FLAT, MINUS])
    def test_rows_carry_their_calibration(self, family):
        # The sweep rows themselves read converged from _MIN_BAR_TOP on, so
        # family_term and the zeta assembly need not compare N again.
        for N, converged in ((40, False), (_MIN_BAR_TOP, True)):
            rows = family_rows(family.components, 0.2, 0.9, 0.1, 2, N, 3)
            assert [sv.converged for row in rows for sv in row.values()] == [converged] * 9
        assert bar_floor_warning(_MIN_BAR_TOP) is None
        assert bar_floor_warning(40) == "operator truncation N=40 is below 44: no calibrated bar"

    @staticmethod
    def _eigen_misses(top, cases=None):
        """(case, error / bar) of the eigen oracle's values at `top` that lie
        outside their truncation bar (abs_error less the calibration floor)
        of the reference."""
        misses = []
        for ref in json.loads(_EIGEN_REFERENCE.read_text())["rows"]:
            case = (_MODEL_TYPES[ref["model"]](**ref["params"]), ref["n"], complex(*ref["lam"]))
            if cases is None or case in cases:
                sv = zeta_eigen_oracle(*case, N=top)
                err = abs(sv.value - complex(*ref["value"]))
                if err > sv.bar:
                    misses.append((*case, err / sv.bar))
        return misses

    # The eigen budget's tops: 384 to 767 start a budget, and their doublings
    # follow.  The reference's own bars are below 1e-11.
    @pytest.mark.parametrize("top", [_EIGEN_MIN_TOP, 400, 600, 767, 800, 1200, 1600])
    def test_eigen_values_lie_within_their_bars(self, top):
        assert self._eigen_misses(top) == []

    def test_eigen_start_is_the_first_five_level_top(self):
        # A four-level ladder does not suffice: at top 200 the BergmanNu
        # case's error is 9 times its bar.
        assert _EIGEN_MIN_TOP == 384
        assert len(_ladder(_EIGEN_MIN_TOP)) == 5 and len(_ladder(_EIGEN_MIN_TOP - 1)) == 4
        assert self._eigen_misses(200, [_EIGEN_SHORT]) != []

    def test_start_top_is_the_smallest_that_holds(self, monkeypatch):
        # With two-step bars below it too, a g = 0.4 row falls short one
        # step below it (Bergman nu = 0.8, m = 2, order 1: 1.15 times at
        # N = 100, 16 times at 50).
        monkeypatch.setattr(operator_oracle, "_MIN_TOP", 0)
        assert self._misses(_MIN_TOP - 1, couplings=(0.4,)) != []

    def test_weak_coupling_below_the_start_top(self, monkeypatch):
        # With two-step bars, the g = 0.2 rows hold from N = 52 on, at 95
        # (halving to 47, 23) too; at N = 50 orders 0 and 1 hold, and some
        # rows at orders 2 and 3 fall short (Bergman 1/2: 1.3 times).
        monkeypatch.setattr(operator_oracle, "_MIN_TOP", 0)
        for N in (52, 95, 100):
            assert self._misses(N, couplings=(0.2,)) == []
        assert self._misses(50, range(2), couplings=(0.2,)) == []
        assert self._misses(50, couplings=(0.2,)) != []


class TestSingularOperator:
    def test_truncated_eigenvalue_at_minus_shift(self):
        # Put a *truncated* eigenvalue of the N = 16 Fock component at -shift.
        # The untruncated spectrum is k + shift, so the shift stays off the
        # excluded progression and only the singularity guard can fire.
        g, N = 0.5, 16
        mu = np.linalg.eigvalsh(dense(build_component_operator("fock", g, 0.0, +1, N)).real)
        lam = -mu[-1]
        assert progression_distance(lam, 1.0, 0.0) > 1e-3
        with pytest.raises(SingularOperator):
            r_m_operator("fock", g, lam, 0.0, 1, N=N)
        with pytest.raises(SingularOperator):
            dn_r_m_operator("fock", g, lam, 0.0, 2, 1, N=N)
        with pytest.raises(SingularOperator):
            TraceDerivativeSweep(Component("fock"), g, lam, 0.0, 2, N)


if __name__ == "__main__":
    import sys

    writers = {"sweep": _write_sweep_reference, "eigen": _write_eigen_reference}
    writers[sys.argv[1] if len(sys.argv) > 1 else "sweep"]()
