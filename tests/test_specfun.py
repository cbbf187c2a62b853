import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_zeta.errors import NoConvergence, PoleError
from rabi_zeta.specfun import (
    alternating_zeta_sum,
    binomial,
    hurwitz_zeta,
    hypergeometric_pfq,
    pochhammer,
    sum_inverse_pair,
)
from fractions import Fraction


class TestHurwitzZeta:
    def test_zeta2_at_one(self):
        z = hurwitz_zeta(2, 1.0)
        assert abs(z.value - math.pi**2 / 6) < 1e-13

    def test_zeta3_at_one(self):
        z = hurwitz_zeta(3, 1.0)
        assert abs(z.value - 1.2020569031595943) < 1e-13

    def test_zeta2_at_half(self):
        z = hurwitz_zeta(2, 0.5)
        assert abs(z.value - math.pi**2 / 2) < 1e-12

    def test_shift_recurrence(self):
        # zeta(n, a) = zeta(n, a+1) + a^-n
        for n in (2, 3, 5):
            a = 0.7 + 0.3j
            lhs = hurwitz_zeta(n, a).value
            rhs = hurwitz_zeta(n, a + 1).value + a ** (-n)
            assert abs(lhs - rhs) < 1e-12

    # At Re a <= -20 the Euler-Maclaurin tail must start past k = -Re a.
    @pytest.mark.parametrize("a", [1.3, -29.7, -45.25, -45.3 + 0.4j])
    def test_direct_sum_agreement(self, a):
        val = hurwitz_zeta(4, a).value
        direct = sum((k + a) ** -4 for k in range(200000))
        assert abs(val - direct) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("a", [-45.25, -100.1, -3.7, -12.999 + 0.1j])
    def test_negative_real_part_within_its_error(self, n, a):
        # Terms near k = -Re a outweigh the value, so a floor relative to the
        # value alone was 2.8x (n = 2) and 8x (n = 4) too small at a = -45.25.
        with mpmath.workdps(40):
            ma = mpmath.mpc(a)
            exact = mpmath.fsum((k + ma) ** -n for k in range(500)) + mpmath.zeta(n, ma + 500)
            exact = complex(exact)
        z = hurwitz_zeta(n, a)
        assert abs(z.value - exact) <= z.abs_error

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(2, 0.0)
        with pytest.raises(PoleError):
            hurwitz_zeta(2, -3.0 + 1e-14j)
        with pytest.raises(PoleError):
            hurwitz_zeta(1, 1.0)

    @given(st.floats(0.1, 10), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_positive_real(self, a, n):
        z = hurwitz_zeta(n, a)
        assert z.value.real > 0
        assert z.value.imag == pytest.approx(0, abs=1e-14)


class TestAlternatingZeta:
    def test_eta2(self):
        # sum (-1)^k/(k+1)^2 = pi^2/12
        z = alternating_zeta_sum(2, 1.0)
        assert abs(z.value - math.pi**2 / 12) < 1e-13

    def test_direct_sum(self):
        val = alternating_zeta_sum(3, 0.8).value
        direct = sum((-1) ** k * (k + 0.8) ** -3 for k in range(100000))
        assert abs(val - direct) < 1e-10


class TestPochhammerBinomial:
    def test_exact_fraction(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
        assert pochhammer(5, 0) == 1
        assert pochhammer(2, 3) == 24

    def test_binomial(self):
        assert binomial(10, 3) == 120

    @given(st.integers(-5, 5), st.integers(0, 8))
    def test_recurrence(self, x, n):
        assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)


class TestHypergeometric:
    def test_2f1_log(self):
        # 2F1(1, 1; 2; x) = -log(1-x)/x
        x = 0.37
        v = hypergeometric_pfq([1, 1], [2], x)
        assert abs(v.value - (-math.log(1 - x) / x)) < 1e-12

    def test_confluent_exponential(self):
        # upper and lower [1] cancel: series is exp(x)
        x = 0.5
        v = hypergeometric_pfq([1], [1], x)
        assert abs(v.value - math.exp(x)) < 1e-12

    def test_1f0_geometric(self):
        x = 0.5
        v = hypergeometric_pfq([1], [], x)
        assert abs(v.value - 1 / (1 - x)) < 1e-12

    def test_outside_disc_raises(self):
        with pytest.raises(PoleError):
            hypergeometric_pfq([1], [1], 1.0)

    def test_lower_pole_raises(self):
        with pytest.raises(PoleError):
            hypergeometric_pfq([1], [-2], 0.3)


class TestSumInversePair:
    def test_telescoping(self):
        # b = a + 1 telescopes: sum 1/((a+k)(a+1+k)) = 1/a
        for a in (0.7, 1.3, 2.5):
            assert abs(sum_inverse_pair(a, a + 1) - 1 / a) < 1e-12

    def test_alternating_direct(self):
        a, b = 1.3, 2.1
        val = sum_inverse_pair(a, b, alternating=True)
        direct = sum((-1) ** k / ((a + k) * (b + k)) for k in range(100000))
        assert abs(val - direct) < 1e-10

    def test_equal_arguments(self):
        val = sum_inverse_pair(1.5, 1.5)
        assert abs(val - hurwitz_zeta(2, 1.5).value) < 1e-12

    @pytest.mark.parametrize("alternating", [False, True])
    @pytest.mark.parametrize("lam", [1.0, 0.3 + 0.2j])
    @pytest.mark.parametrize("eps", [1e-11, 1e-9, 1e-7, 1e-5])
    def test_near_equal_arguments_match_mpmath(self, eps, lam, alternating):
        # (psi(a) - psi(b)) / (a - b) cancels as a -> b: at a, b = 1 +- 1e-9
        # it was 1.8e-7 off in relative terms.
        a, b = lam + eps, lam - eps
        with mpmath.workdps(50):
            if alternating:
                # sum (-1)^k / (c+k) = (psi((c+1)/2) - psi(c/2)) / 2
                def f(c):
                    return (mpmath.digamma((c + 1) / 2) - mpmath.digamma(c / 2)) / 2

            else:
                f = mpmath.digamma
            ma, mb = mpmath.mpc(a), mpmath.mpc(b)
            ref = complex((f(ma) - f(mb)) / (ma - mb))
            if alternating:
                ref = -ref
        val = sum_inverse_pair(a, b, alternating=alternating)
        assert abs(val - ref) <= 1e-14 * abs(ref)
