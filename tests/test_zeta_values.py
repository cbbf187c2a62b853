import gc
import math
import sys
import weakref

import numpy as np
import pytest
from scipy.special import digamma, polygamma

from rabi_zeta import operator_oracle, zeta_values
from rabi_zeta.errors import DomainError, NearPole, RadiusExceeded
from rabi_zeta.operator_oracle import (
    BergmanNu,
    Ncho,
    OnePhoton,
    TwoPhoton,
    model_geometry,
    truncation_budget,
)
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
    # n = 2.0 and 2.5 used to raise a bare TypeError from inside a loop.
    @pytest.mark.parametrize("n", [1, 2.0, 2.5])
    def test_n_floor(self, n):
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), n, 1.0)
        with pytest.raises(DomainError):
            parity_difference(TwoPhoton(0.2, 0.3, 0.1), n, 1.0)

    def test_bad_method(self):
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, 1.0, method="magic")

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, 1.0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_tol_must_be_finite(self, tol):
        # nan passed the tol > 0 test and ran to max_m, never converged.
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, 1.0, tol=tol)
        with pytest.raises(DomainError):
            parity_difference(TwoPhoton(0.2, 0.3, 0.1), 2, 1.0, tol=tol)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, complex(1.0, math.nan), -math.inf])
    def test_lambda_must_be_finite(self, lam):
        # nan used to reach the excluded-set distance and raise ValueError.
        with pytest.raises(DomainError):
            ZetaRequest(OnePhoton(0.2, 0.3, 0.1), 2, lam)
        with pytest.raises(DomainError):
            parity_difference(TwoPhoton(0.2, 0.3, 0.1), 2, lam)

    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: OnePhoton(bad, 0.3, 0.1),
            lambda bad: TwoPhoton(0.2, bad, 0.1),
            lambda bad: BergmanNu(bad, 0.2, 0.3, 0.1),
            lambda bad: BergmanNu(0.8, 0.2, 0.3, bad),
            lambda bad: Ncho(bad, 1.2, 0.1),
            lambda bad: Ncho(2.0, 1.2, bad),
        ],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_model_parameters_must_be_finite(self, build, bad):
        # Ncho(nan, ...) used to pass its checks and return a value.
        with pytest.raises(DomainError):
            build(bad)


class TestConvergenceRadius:
    def test_one_photon(self):
        assert convergence_radius(OnePhoton(0.2, 0.3, 0.1), 0.6) == pytest.approx(0.5)

    def test_two_photon(self):
        assert convergence_radius(TwoPhoton(0.2, 0.3, 0.0), 0.2) == pytest.approx(0.7)

    def test_bergman(self):
        assert convergence_radius(BergmanNu(1.5, 0.2, 0.3, 0.0), 0.5) == pytest.approx(2.0)

    def test_near_pole_uses_the_one_guard(self):
        # The shift lam - eps lies 1e-10 from the pole at 0: inside
        # NEAR_POLE_GUARD, where every zeta route refuses lam, so no radius
        # is given for it either.
        model, lam = OnePhoton(0.2, 0.3, 0.1), 0.1 + 1e-10
        assert 0 < model_geometry(model).distance(lam) < operator_oracle.NEAR_POLE_GUARD
        with pytest.raises(NearPole):
            convergence_radius(model, lam)
        with pytest.raises(NearPole):
            zeta_value(ZetaRequest(model, 2, lam))

    def test_ncho(self):
        # Shifts 3 +- 2 on the progression 1/2 + k: radius 1.5.  |X| = 0.6
        # lies inside it, but the series runs in X lam and |X lam| = 1.8.
        model = Ncho(4.0, 1.0, 1.0)
        assert convergence_radius(model, 3.0) == pytest.approx(1.5)
        with pytest.raises(RadiusExceeded):
            zeta_value(ZetaRequest(model, 2, 3.0))
        # Same shifts with |X lam| = 0.75: inside the radius.  (At trunc_n =
        # 100 its first-step bars read 5e-4, above this tol.)
        inside = zeta_value(ZetaRequest(Ncho(2.0, 1.2, 1.0), 2, 3.0, tol=1e-4))
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


class TestOneLiveSweep:
    @pytest.mark.parametrize(
        "model,lam", [(TwoPhoton(0.2, 0.3, 0.1), 1.0), (Ncho(2.0, 1.2, 0.1), 0.8)]
    )
    def test_each_sweep_is_dropped_before_the_next(self, model, lam, monkeypatch):
        built = []
        init = operator_oracle.TraceDerivativeSweep.__init__

        def checking_init(self, *args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in built), "an earlier sweep is still alive"
            built.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(operator_oracle.TraceDerivativeSweep, "__init__", checking_init)
        zeta_value(ZetaRequest(model, 3, lam, trunc_n=100))
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


class TestNegativeLambda:
    # Far left of 0 the base term's Hurwitz zeta needs more direct terms than
    # its fixed 30 before the Euler-Maclaurin point K + a has Re >= 30.
    @pytest.mark.parametrize(
        "model,n,lam",
        [
            (OnePhoton(0.2, 0.05, 0.1), 2, -45.3),
            (TwoPhoton(0.2, 0.05, 0.1), 3, -45.3),
            (OnePhoton(0.2, 0.05, 0.1), 2, -45.3 + 0.4j),
        ],
    )
    def test_series_matches_eigen_oracle(self, model, n, lam):
        op = zeta_value(ZetaRequest(model, n, lam))
        eo = zeta_value(ZetaRequest(model, n, lam, method="eigen_oracle"))
        assert abs(op.value - eo.value) <= op.abs_error + eo.abs_error


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

    @pytest.mark.parametrize("method", ["series_operator", "series_integral"])
    @pytest.mark.parametrize(
        "model", [OnePhoton(g=0.2, delta=0.3, eps=0.1), TwoPhoton(g=0.2, delta=0.3, eps=0.1)]
    )
    def test_per_m_truncations(self, model, method):
        # trunc_n is a cap: a converged request stops at a coarser top, and
        # one whose tol cannot be met ends at the cap.
        for tol, converged in ((1e-8, True), (1e-16, False)):
            res = zeta_value(ZetaRequest(model, 2, 1.0, method=method, trunc_n=400, tol=tol))
            truncations = res.metadata["truncations"]
            per_m = truncations["per_m"]
            assert res.metadata["converged"] is converged
            assert truncations["trunc_n"] == 400
            assert len(per_m) == len(res.per_m_terms) >= 4
            # The integral route's quadrature terms name no truncation.
            operator = per_m[2:] if method == "series_integral" else per_m
            if method == "series_integral":
                assert per_m[:2] == [None, None]
            assert operator == sorted(operator, reverse=True) and operator[-1] < 400
            assert operator[0] == truncations["tops"][-1]
            assert (operator[0] < 400) is converged

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


class TestTruncationBudget:
    def test_tops_double_up_to_the_cap(self):
        assert truncation_budget(400) == [200, 400]
        assert truncation_budget(600) == [150, 300, 600]
        assert truncation_budget(1600) == [200, 400, 800, 1600]
        assert truncation_budget(212) == [106, 212]
        # Below twice the start top the cap is the only truncation, so
        # --trunc-n 4 still meets InvalidDimension.
        assert truncation_budget(211) == [211] and truncation_budget(4) == [4]

    @staticmethod
    def _fixed(monkeypatch, evaluate, trunc_n):
        """evaluate(trunc_n) with every operator term at trunc_n itself."""
        with monkeypatch.context() as patch:
            patch.setattr(zeta_values, "truncation_budget", lambda cap: [cap])
            return evaluate(trunc_n)

    @pytest.mark.parametrize(
        "model,n,lam,parity",
        [
            (OnePhoton(0.2, 0.3, 0.1), 2, 1.0, False),
            (TwoPhoton(0.4, 0.5, 0.1), 3, 1.3 + 0.4j, False),
            (BergmanNu(0.8, 0.66, 0.4, 0.1), 2, 1.0, False),
            (Ncho(2.0, 1.2, 0.1), 2, 0.8, False),
            (TwoPhoton(0.2, 0.3, 0.1), 2, 1.0, True),
            (Ncho(1.5, 1.0, 0.05), 3, 1.1 + 0.3j, True),
        ],
    )
    def test_values_lie_within_their_error_of_a_fixed_truncation(
        self, model, n, lam, parity, monkeypatch
    ):
        def evaluate(trunc_n):
            if parity:
                return parity_difference(model, n, lam, trunc_n=trunc_n)
            return zeta_value(ZetaRequest(model, n, lam, trunc_n=trunc_n))

        res = evaluate(400)
        ref = self._fixed(monkeypatch, evaluate, 800)
        assert res.metadata["truncations"]["tops"][0] == 200
        assert len(res.per_m_terms) == len(ref.per_m_terms)
        assert abs(res.value - ref.value) <= res.abs_error

    def test_climb_resweeps_only_the_rows_that_missed(self, monkeypatch):
        # At N = 200 only the m = 1 row's scaled bar exceeds its equal share
        # of tol, so the second top sweeps m = 1 alone and m = 2..6 keep
        # their N = 200 rows.
        swept = []
        family_rows = zeta_values.family_rows

        def counting(components, g, lam, eps, n, N, m_last, period):
            swept.append((N, m_last))
            return family_rows(components, g, lam, eps, n, N, m_last, period)

        def evaluate(trunc_n):
            return zeta_value(ZetaRequest(Ncho(2.0, 1.2, 0.1), 2, 0.8, trunc_n=trunc_n))

        with monkeypatch.context() as patch:
            patch.setattr(zeta_values, "family_rows", counting)
            res = evaluate(400)
        assert swept == [(200, 6), (400, 1)]
        per_m = res.metadata["truncations"]["per_m"]
        assert per_m == sorted(per_m, reverse=True) and per_m[0] == 400 > per_m[1]
        assert res.metadata["converged"] and res.metadata["m_used"] == 6
        ref = self._fixed(monkeypatch, evaluate, 1600)
        assert abs(res.value - ref.value) <= res.abs_error

    @pytest.mark.parametrize("model", [OnePhoton(0.2, 0.3, 0.1), TwoPhoton(0.2, 0.3, 0.1)])
    def test_uneven_ladder_within_its_error(self, model, monkeypatch):
        # trunc_n = 50 extrapolates from 50, 25 and 12, which do not halve
        # exactly: with weights for exact halvings the one-photon value was
        # 1.0e-7 from the reference against a reported 6.2e-8.
        def evaluate(trunc_n):
            return zeta_value(ZetaRequest(model, 2, 1.0, trunc_n=trunc_n))

        res = evaluate(50)
        ref = self._fixed(monkeypatch, evaluate, 1600)
        assert abs(res.value - ref.value) <= res.abs_error


class TestGuards:
    @pytest.mark.parametrize("threads", [0, -2, 1.5])
    def test_confluence_scan_needs_a_thread(self, threads):
        # 0 and -2 used to be accepted and run on one thread, and 1.5 ran a
        # pool.
        refusal = "threads must be >= 1" if threads < 1 else "threads must be an integer >= 1"
        with pytest.raises(DomainError, match=refusal):
            confluence_scan(0.2, 0.1, 0.05, 1.5, 2, [8], threads=threads)

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
        # At the default cap 400 this request converges (5e-9); capped at 200
        # it reads about 2e-8.
        res = zeta_value(ZetaRequest(Ncho(2.0, 1.2, 0.1), 2, 0.8, trunc_n=200))
        assert res.abs_error > 1e-8
        assert res.metadata["converged"] is False
        (warning,) = [w for w in res.metadata["warnings"] if "missed" in w]
        assert "largest source truncation" in warning

    def test_below_the_calibrated_floor_is_not_converged(self):
        # Below N = 44 no sweep bar is calibrated: abs_error meets the loose
        # tol, yet the result does not read converged, and a warning names N.
        model = OnePhoton(0.2, 0.3, 0.1)
        res = zeta_value(ZetaRequest(model, 2, 1.0, tol=1e-2, trunc_n=43))
        assert res.abs_error <= 1e-2 and res.metadata["converged"] is False
        (warning,) = res.metadata["warnings"]
        assert "N=43" in warning
        res = zeta_value(ZetaRequest(model, 2, 1.0, tol=1e-2, trunc_n=44))
        assert res.metadata["converged"] is True and "warnings" not in res.metadata


    def test_eigen_route_climbs_to_tol_and_names_its_floor(self):
        # The eigen budget for cap 1200 is [600, 1200]; this request's bar
        # meets tol at 600.  The 1e-7 calibration floor is a source of its
        # own: it misses the default tol, and a tol above it is met.
        model = TwoPhoton(0.2, 0.3, 0.05)
        res = zeta_value(ZetaRequest(model, 2, 1.2, method="eigen_oracle", trunc_n=1200))
        assert res.metadata["truncations"]["tops"] == [600]
        assert res.abs_error > 1e-7 and res.metadata["converged"] is False
        (warning,) = res.metadata["warnings"]
        assert "largest source calibration floor (1.000e-07)" in warning
        tight = ZetaRequest(model, 2, 1.2, method="eigen_oracle", trunc_n=1200, tol=1e-14)
        assert zeta_value(tight).metadata["truncations"]["tops"] == [600, 1200]
        loose = zeta_value(ZetaRequest(model, 2, 1.2, method="eigen_oracle", tol=1e-6))
        assert loose.metadata["converged"] is True and "warnings" not in loose.metadata
        # Below the eigen start the one top is the start itself.
        low = ZetaRequest(model, 2, 1.2, method="eigen_oracle", trunc_n=100)
        assert zeta_value(low).metadata["truncations"]["tops"] == [384]


class TestParityDifference:
    @pytest.mark.parametrize("model", [OnePhoton(0.2, 0.3, 0.1), BergmanNu(0.5, 0.2, 0.3, 0.1)])
    def test_only_two_photon_and_ncho(self, model):
        with pytest.raises(DomainError):
            parity_difference(model, 2, 1.0)

    def test_no_eigen_route(self):
        with pytest.raises(DomainError):
            parity_difference(TwoPhoton(0.2, 0.3, 0.1), 2, 1.0, method="eigen_oracle")

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_m": 0}, {"max_m": -2}, {"tol": 0.0}, {"method": "bogus"}, {"max_m": 2.5},
         {"trunc_n": 400.5}],
    )
    def test_inputs_checked_as_for_zeta_value(self, kwargs):
        # max_m = -2 used to return a negative abs_error, and max_m = 2.5 and
        # trunc_n = 400.5 to raise a bare TypeError.
        with pytest.raises(DomainError):
            parity_difference(TwoPhoton(0.2, 0.3, 0.1), 2, 1.0, **kwargs)

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
        # n = 2.0 used to raise a bare TypeError.
        with pytest.raises(DomainError):
            confluence_scan(0.1, 0.0, 0.1, 1.0, 2.0, [1.0])

    @pytest.mark.parametrize("bad_nu", [0.0, -1.0, math.inf, math.nan])
    def test_every_nu_is_checked_before_any_work(self, bad_nu, monkeypatch):
        # nu = 0 used to raise ZeroDivisionError and nu < 0 ValueError from
        # g / sqrt(nu), after the reference value was already computed.
        calls = []
        monkeypatch.setattr(zeta_values, "zeta_value", lambda req: calls.append(req))
        with pytest.raises(DomainError):
            confluence_scan(0.2, 0.1, 0.05, 1.5, 2, [8.0, bad_nu])
        assert calls == []

    # trunc_n = 400 runs the truncation ladder; 100 has no level below N/4.
    @pytest.mark.parametrize("trunc_n", [100, 400])
    def test_threads_match_serial(self, trunc_n):
        serial = confluence_scan(0.1, 0.1, 0.0, 1.0, 2, [2.0, 4.0], trunc_n=trunc_n)
        threaded = confluence_scan(
            0.1, 0.1, 0.0, 1.0, 2, [2.0, 4.0], trunc_n=trunc_n, threads=2
        )
        for (n1, v1, d1), (n2, v2, d2) in zip(serial, threaded):
            assert n1 == n2 and v1 == v2 and d1 == d2

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threaded_stress_matches_serial(self, threads):
        # More threads than cores and a short switch interval: rows that
        # shared any state between requests would differ from the serial scan.
        args = (0.1, 0.1, 0.0, 1.0, 2, [1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
        serial = confluence_scan(*args, trunc_n=100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = confluence_scan(*args, trunc_n=100, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
