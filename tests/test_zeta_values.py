import math
import sys
import time

import numpy as np
import pytest
from scipy.special import digamma, polygamma

from rabi_zeta import operator_oracle
from rabi_zeta.errors import DomainError, NearPole, RadiusExceeded
from rabi_zeta.operator_oracle import BergmanNu, Ncho, OnePhoton, TwoPhoton
from rabi_zeta.specfun import alternating_zeta_sum, hurwitz_zeta
from rabi_zeta.zeta_values import (
    ZetaRequest,
    _hs_constant_sq,
    _tail_bound,
    confluence_scan,
    convergence_radius,
    parity_difference,
    zeta_value,
)


class TestRequestValidation:
    def test_n_floor(self):
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 1, 1.0)

    def test_bad_method(self):
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, 1.0, method="magic")

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, 1.0, tol=0.0)


class TestConvergenceRadius:
    def test_one_photon(self):
        assert convergence_radius(OnePhoton(0.2, 0.3, 0.1), 0.6) == pytest.approx(0.5)

    def test_two_photon(self):
        assert convergence_radius(TwoPhoton(0.2, 0.3, 0.0), 0.2) == pytest.approx(0.7)

    def test_bergman(self):
        assert convergence_radius(BergmanNu(1.5, 0.2, 0.3, 0.0), 0.5) == pytest.approx(2.0)

    def test_ncho(self):
        # Shifts 3 +- 2 on the progression 1/2 + k: radius 1.5.  |X| = 0.6
        # lies inside it, but the series runs in X lam and |X lam| = 1.8.
        model = Ncho(4.0, 1.0, 1.0)
        assert convergence_radius(model, 3.0) == pytest.approx(1.5)
        with pytest.raises(RadiusExceeded):
            zeta_value(ZetaRequest(model, 2, 3.0))
        # Same shifts with |X lam| = 0.75: inside the radius.
        inside = zeta_value(ZetaRequest(Ncho(2.0, 1.2, 1.0), 2, 3.0, trunc_n=100, tol=1e-4))
        assert inside.metadata["converged"] is True


class TestHilbertSchmidtConstant:
    @pytest.mark.parametrize(
        "shifts,step,offset",
        [
            ((1.1, 0.9), 1.0, 0.0),
            ((0.8, 0.8), 1.0, 0.5),
            ((1.3, 0.7), 2.0, 1.5),
            ((0.2, 3.4), 1.0, 0.5),
        ],
    )
    def test_real_shift_closed_form(self, shifts, step, offset):
        # sum_k 1/((k + a1)(k + a2)) = (psi(a1) - psi(a2)) / (a1 - a2), or
        # psi'(a) when a1 = a2; the bound must sit on or above it.
        a1, a2 = ((s + offset) / step for s in shifts)
        if a1 == a2:
            exact = polygamma(1, a1) / step**2
        else:
            exact = (digamma(a1) - digamma(a2)) / (step**2 * (a1 - a2))
        bound = _hs_constant_sq(tuple(complex(s) for s in shifts), step, offset)
        assert bound >= exact
        assert bound - exact <= 1e-9 * exact


class TestTailBound:
    def test_bounds_the_sum_near_the_radius(self):
        # |X| C = 0.999: 2000 terms leave about a tenth of the sum uncounted.
        n, m_from, q = 2, 5, 0.999**2
        j = np.arange(m_from, m_from + 200_000, dtype=float)
        # (2j)_2 / j q^j n / (n-1)! with C = C'^2 = 1.
        ref = math.fsum(2 * j * (2 * j + 1) / j * q**j * n)
        bound = _tail_bound(n, m_from, q, 1.0, 1.0)
        assert ref <= bound <= 1.01 * ref

    def test_no_geometric_rest_is_infinite(self):
        # After 2000 terms the next ratio 0.99999 * 4011/4009 still exceeds 1.
        assert _tail_bound(2, 5, 0.99999, 1.0, 1.0) == math.inf


class TestSharedSweeps:
    def test_parity_and_integral_reuse_the_sum_sweeps(self, monkeypatch):
        monkeypatch.setattr(operator_oracle, "_TERM_ROWS", {})
        built = []
        init = operator_oracle.TraceDerivativeSweep.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(operator_oracle.TraceDerivativeSweep, "__init__", counting_init)
        model = TwoPhoton(0.2, 0.3, 0.1)
        zeta_value(ZetaRequest(model, 2, 1.0, trunc_n=100))
        parity_difference(model, 2, 1.0, trunc_n=100)
        assert len(built) == 2
        zeta_value(ZetaRequest(model, 2, 1.0, method="series_integral", trunc_n=100))
        assert len(built) == 2


class TestComplexLambda:
    @pytest.mark.parametrize(
        "model,lam",
        [
            (OnePhoton(0.2, 0.3, 0.1), 1.0 + 0.5j),
            (TwoPhoton(0.2, 0.3, 0.1), 1.0 + 0.5j),
            (Ncho(2.0, 1.2, 0.1), 0.8 + 0.2j),
        ],
    )
    def test_routes_agree(self, model, lam):
        res = {
            method: zeta_value(ZetaRequest(model, 2, lam, method=method))
            for method in ("series_operator", "series_integral", "eigen_oracle")
        }
        op = res["series_operator"]
        assert abs(op.value.imag) > 1e-3
        for method in ("series_integral", "eigen_oracle"):
            other = res[method]
            assert abs(op.value - other.value) <= op.abs_error + other.abs_error, method


class TestDecoupledValues:
    def test_one_photon_base_only(self):
        model = OnePhoton(g=0.4, delta=0.0, eps=0.1)
        res = zeta_value(ZetaRequest(model, 2, 1.0))
        exact = hurwitz_zeta(2, 1.1).value + hurwitz_zeta(2, 0.9).value
        assert res.per_m_terms == ()
        assert abs(res.value - exact) < 1e-12

    def test_two_photon_base_only(self):
        model = TwoPhoton(g=0.3, delta=0.0, eps=0.1)
        res = zeta_value(ZetaRequest(model, 3, 1.0))
        exact = hurwitz_zeta(3, 1.6).value + hurwitz_zeta(3, 1.4).value
        assert abs(res.value - exact) < 1e-12

    def test_bergman_base_only(self):
        model = BergmanNu(nu=1.5, g=0.3, delta=0.0, eps=0.2)
        res = zeta_value(ZetaRequest(model, 2, 1.0))
        exact = 0.25 * (
            hurwitz_zeta(2, (1.2 + 1.5) / 2).value + hurwitz_zeta(2, (0.8 + 1.5) / 2).value
        )
        assert abs(res.value - exact) < 1e-12

    def test_ncho_equal_parameters(self):
        model = Ncho(alpha=2.0, beta=2.0, eta=0.1)
        res = zeta_value(ZetaRequest(model, 2, 0.8))
        exact = hurwitz_zeta(2, 1.5).value + hurwitz_zeta(2, 1.1).value
        assert res.per_m_terms == ()
        assert abs(res.value - exact) < 1e-12


class TestStructure:
    def test_decomposition_invariant(self):
        model = OnePhoton(g=0.2, delta=0.3, eps=0.1)
        res = zeta_value(ZetaRequest(model, 2, 1.0, trunc_n=200, tol=1e-6))
        assert res.value == pytest.approx(
            res.base_term + sum(res.per_m_terms), rel=1e-14
        )
        assert res.abs_error > 0
        assert res.metadata["method"] == "series_operator"

    def test_eps_sign_symmetry(self):
        a = zeta_value(
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, 1.0, trunc_n=200, tol=1e-6)
        )
        b = zeta_value(
            ZetaRequest(OnePhoton(0.2, 0.3, -0.1), 2, 1.0, trunc_n=200, tol=1e-6)
        )
        assert abs(a.value - b.value) < 1e-10

    def test_operator_vs_integral_route(self):
        model = OnePhoton(g=0.2, delta=0.3, eps=0.1)
        op = zeta_value(
            ZetaRequest(model, 2, 1.0, method="series_operator", trunc_n=400, tol=1e-6)
        )
        ig = zeta_value(
            ZetaRequest(model, 2, 1.0, method="series_integral", trunc_n=400, tol=1e-6)
        )
        assert abs(op.value - ig.value) < 1e-5

    def test_eigen_oracle_route(self):
        model = OnePhoton(g=0.2, delta=0.3, eps=0.1)
        op = zeta_value(ZetaRequest(model, 2, 1.0, trunc_n=400, tol=1e-6))
        eo = zeta_value(ZetaRequest(model, 2, 1.0, method="eigen_oracle", trunc_n=400))
        assert abs(op.value - eo.value) < max(eo.abs_error, 1e-5)


class TestGuards:
    def test_radius_exceeded(self):
        with pytest.raises(RadiusExceeded):
            zeta_value(ZetaRequest(OnePhoton(0.1, 0.8, 0.1), 2, 0.6))

    def test_near_pole_raises(self):
        with pytest.raises(NearPole):
            zeta_value(ZetaRequest(OnePhoton(0.1, 0.2, 0.0), 2, -1.0))

    def test_near_pole_warns(self):
        res = zeta_value(
            ZetaRequest(OnePhoton(0.1, 0.0, 0.0), 2, 1e-5, tol=1e-4, trunc_n=100)
        )
        assert any("ill-conditioned" in w for w in res.metadata.get("warnings", ()))


class TestToleranceReport:
    def test_default_request_converges(self):
        res = zeta_value(ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, 1.0))
        assert res.abs_error <= 1e-8
        assert res.metadata["converged"] is True
        assert not any("missed" in w for w in res.metadata.get("warnings", ()))

    def test_missed_tol_is_reported(self):
        res = zeta_value(ZetaRequest(Ncho(2.0, 1.2, 0.1), 2, 0.8))
        assert res.abs_error > 1e-8
        assert res.metadata["converged"] is False
        (warning,) = [w for w in res.metadata["warnings"] if "missed" in w]
        assert "largest source truncation" in warning


class TestParityDifference:
    def test_only_two_photon_and_ncho(self):
        with pytest.raises(DomainError):
            parity_difference(OnePhoton(0.2, 0.3, 0.1), 2, 1.0)

    def test_no_eigen_route(self):
        with pytest.raises(DomainError):
            parity_difference(TwoPhoton(0.2, 0.3, 0.1), 2, 1.0, method="eigen_oracle")

    def test_decoupled_closed_form(self):
        model = TwoPhoton(g=0.3, delta=0.0, eps=0.1)
        res = parity_difference(model, 2, 1.0)
        exact = (
            alternating_zeta_sum(2, 1.6).value + alternating_zeta_sum(2, 1.4).value
        )
        assert abs(res.value - exact) < 1e-12

    def test_coupled_smaller_than_zeta(self):
        model = TwoPhoton(g=0.2, delta=0.3, eps=0.1)
        full = zeta_value(ZetaRequest(model, 2, 1.0, trunc_n=200, tol=1e-6))
        diff = parity_difference(model, 2, 1.0, trunc_n=200, tol=1e-6)
        assert abs(diff.value) < abs(full.value)


class TestConfluenceScan:
    def test_decoupled_exact(self):
        rows = confluence_scan(0.0, 0.0, 0.1, 1.0, 2, [1.0, 2.0, 5.0], trunc_n=100)
        for nu, scaled, dev in rows:
            assert dev < 1e-10

    def test_preconditions(self):
        with pytest.raises(DomainError):
            confluence_scan(0.1, 0.0, 1.2, 1.0, 2, [1.0])
        with pytest.raises(DomainError):
            confluence_scan(0.1, 1.5, 0.1, 1.0, 2, [1.0])

    def test_threads_match_serial(self):
        serial = confluence_scan(0.1, 0.1, 0.0, 1.0, 2, [2.0, 4.0], trunc_n=100)
        threaded = confluence_scan(
            0.1, 0.1, 0.0, 1.0, 2, [2.0, 4.0], trunc_n=100, threads=2
        )
        for (n1, v1, d1), (n2, v2, d2) in zip(serial, threaded):
            assert n1 == n2 and v1 == v2 and d1 == d2

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threaded_stress_matches_serial(self, threads, monkeypatch):
        # A cache that reports itself full is cleared before every store,
        # and each store yields the interpreter lock, so concurrent rows
        # clear each other's entries between a store and the read that
        # follows it; reading a term back from the shared cache would raise
        # KeyError here.
        class _AlwaysFull(dict):
            def __len__(self):
                return 1 << 20

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                time.sleep(1e-3)

        monkeypatch.setattr(operator_oracle, "_TERM_ROWS", _AlwaysFull())
        args = (0.1, 0.1, 0.0, 1.0, 2, [1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
        serial = confluence_scan(*args, trunc_n=100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = confluence_scan(*args, trunc_n=100, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
