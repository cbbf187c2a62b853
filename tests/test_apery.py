import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rabi_zeta import apery, quadrature
from rabi_zeta.apery import (
    apery_ab_delta,
    apery_ab_flat,
    apery_classic,
    beukers_residual,
    j_delta,
    j_flat,
    partial_fraction_residual,
    reconstruct_j_delta,
    reconstruct_j_flat,
)
from rabi_zeta.errors import DomainError, NoConvergence, PoleError


_NON_FINITE_POINTS = [
    ("lambda", math.nan, 0.1),
    ("lambda", math.inf, 0.1),
    ("eps", 1.2, math.nan),
    ("eps", 1.2, -math.inf),
]


class TestNonFiniteInputs:
    # j_flat and j_delta used to raise an untyped ValueError on a nan, and the
    # A/B coefficients reported it as a float overflow (NoConvergence).
    @pytest.mark.parametrize("name,lam,eps", _NON_FINITE_POINTS)
    @pytest.mark.parametrize("method", ["series", "quadrature"])
    def test_j_flat(self, name, lam, eps, method):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            j_flat(2, lam, eps, method=method)
        # A non-integer n used to raise a bare TypeError.
        with pytest.raises(DomainError, match="n must be an integer >= 0"):
            j_flat(1.5, 1.2, 0.1, method=method)

    @pytest.mark.parametrize("name,lam,eps", _NON_FINITE_POINTS)
    @pytest.mark.parametrize("method", ["series", "recurrence"])
    def test_j_delta(self, name, lam, eps, method):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            j_delta(2, 1, lam, eps, method=method)
        # J_n is defined for integer n only: n = 2.5 and 1.5 used to return
        # values.
        for n, delta in ((2.5, -1), (1.5, 1)):
            with pytest.raises(DomainError, match="n must be an integer >= 0"):
                j_delta(n, delta, 1.2, 0.1, method=method)

    @pytest.mark.parametrize("name,lam,eps", _NON_FINITE_POINTS)
    @pytest.mark.parametrize("n", [0, 2])
    def test_coefficients(self, name, lam, eps, n):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            apery_ab_flat(n, lam, eps)
        for delta in (1, -1):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                apery_ab_delta(n, delta, lam, eps)
        # A non-integer n used to raise a bare TypeError.
        with pytest.raises(DomainError, match="n must be an integer >= 0"):
            apery_ab_flat(n + 1.5, 1.2, 0.1)
        with pytest.raises(DomainError, match="n must be an integer >= 0"):
            apery_ab_delta(float(n), 1, 1.2, 0.1)

    def test_exact_inputs_pass_unchanged(self):
        # Fractions far beyond the float range are finite and stay exact.
        lam, eps = Fraction(10**400 + 1, 2), Fraction(1, 3)
        for co in (apery_ab_flat(2, lam, eps), apery_ab_delta(2, 1, lam, eps)):
            assert isinstance(co.a, Fraction) and isinstance(co.b, Fraction)
            assert abs(co.a) > 10**400


_J_METHODS = {
    "flat-series": lambda n: j_flat(n, 0.9, 0.13, method="series"),
    "flat-quadrature": lambda n: j_flat(n, 0.9, 0.13, method="quadrature"),
    "plus-series": lambda n: j_delta(n, 1, 0.9, 0.13, method="series"),
    "minus-series": lambda n: j_delta(n, -1, 0.9, 0.13, method="series"),
    "plus-recurrence": lambda n: j_delta(n, 1, 0.9, 0.13, method="recurrence"),
    "minus-recurrence": lambda n: j_delta(n, -1, 0.9, 0.13, method="recurrence"),
}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("method", _J_METHODS)
def test_j_methods_return_plain_numbers(method, n):
    # Every J method returns a complex value and a float abs_error, not
    # numpy scalars (the flat series returned an np.float64 abs_error).
    j = _J_METHODS[method](n)
    assert type(j.value) is complex
    assert type(j.abs_error) is float


class TestJFlat:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_series_vs_quadrature(self, n):
        lam, eps = 0.9, 0.13
        s = j_flat(n, lam, eps, method="series")
        q = j_flat(n, lam, eps, method="quadrature")
        assert abs(s.value - q.value) < 1e-8

    @pytest.mark.parametrize("lam", [1.2, 1.2 + 0.3j])
    @pytest.mark.parametrize("n", [0, 2, 5, 8])
    def test_quadrature_matches_30_digits(self, n, lam):
        # The axis rule against J_n's series summed to 30 digits; it reaches
        # 3.5e-15 relative.  The Apery closed form is no reference here: it
        # is good to 7.7e-13 and 1.6e-12 relative at these two lambda.
        eps = 0.1
        with mpmath.workdps(30):
            a, b = mpmath.mpmathify(lam + eps), mpmath.mpmathify(lam - eps)
            ref = complex(mpmath.nsum(
                lambda k: mpmath.factorial(n) * mpmath.rf(k + 1, n)
                / (mpmath.rf(a + k, n + 1) * mpmath.rf(b + k, n + 1)),
                [0, mpmath.inf],
            ))
        got = j_flat(n, lam, eps, method="quadrature")
        assert abs(got.value - ref) <= 1e-14 * abs(ref)
        assert got.terms_used == 203**2

    @pytest.mark.parametrize("n", [0, 2, 8])
    def test_quadrature_kernel_matches_80_digits(self, n, monkeypatch):
        # On the 16 level-7 nodes nearest the endpoints the kernel handed to
        # integrate_axes stays within 2e-15 relative of the 80-digit
        # ((1 - u)(1 - v))^n / (1 - uv)^(n + 1); 1 - uv formed as a product
        # erred there by 7.3e-14, 2.2e-13 and 6.6e-13.  On every level-7 node
        # the block is its own transpose, bit for bit, as the rule requires.
        handed = []

        def capture(factors, kernel, sides, combine, level):
            handed.append((factors, kernel))

        monkeypatch.setattr(quadrature, "integrate_axes", capture)
        j_flat(n, 1.2, 0.1, method="quadrature")
        factors, kernel = handed[0]

        def block(u):
            rows = factors(u)
            out = tuple(np.zeros((u.size, u.size)) for _ in range(quadrature._PAIR_BUFFERS))
            kernel(rows, rows, out)
            return out[0]

        nodes = quadrature.tanh_sinh_nodes(7)[0]
        k = block(nodes)
        assert k.tobytes() == k.T.tobytes(order="C")
        ends = nodes[np.r_[0:8, nodes.size - 8 : nodes.size]]
        k = block(ends)
        with mpmath.workdps(80):
            for i, j in itertools.product(range(ends.size), repeat=2):
                u, v = mpmath.mpf(float(ends[i])), mpmath.mpf(float(ends[j]))
                ref = ((1 - u) * (1 - v)) ** n / (1 - u * v) ** (n + 1)
                assert abs(k[i, j] / ref - 1) <= 2e-15, (ends[i], ends[j])

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_even_in_eps(self, n):
        lam, eps = 1.2, 0.21
        a = j_flat(n, lam, eps).value
        b = j_flat(n, lam, -eps).value
        assert abs(a - b) < 1e-14 * max(abs(a), 1.0)

    def test_n0_closed_form(self):
        # J_0 = sum_k 1/((lam+eps+k)(lam-eps+k))
        lam, eps = 0.8, 0.1
        val = j_flat(0, lam, eps).value
        direct = sum(
            1 / ((lam + eps + k) * (lam - eps + k)) for k in range(2000000)
        )
        assert abs(val - direct) < 1e-6


class TestAperyFlat:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reconstruction(self, n):
        lam, eps = 0.9, 0.13
        coeffs = apery_ab_flat(n, lam, eps)
        rec = reconstruct_j_flat(coeffs, lam, eps)
        j = j_flat(n, lam, eps).value
        assert abs(rec - j) < 1e-9 * max(abs(j), 1.0)

    def test_exact_mode(self):
        lam, eps = Fraction(9, 10), Fraction(13, 100)
        coeffs = apery_ab_flat(2, lam, eps)
        assert isinstance(coeffs.a, Fraction)
        assert isinstance(coeffs.b, Fraction)
        f = apery_ab_flat(2, float(lam), float(eps))
        assert abs(float(coeffs.a) - f.a) < 1e-10
        assert abs(float(coeffs.b) - f.b) < 1e-10

    def test_half_integer_eps_guarded(self):
        with pytest.raises(DomainError):
            apery_ab_flat(2, 0.9, 0.5)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_classical_point_exact(self, n):
        # lam = n + 1, eps = 0: A = A_n and B = A_n sum_{k<=n} 1/k^2 - B_n.
        classic = apery_classic(n)
        coeffs = apery_ab_flat(n, Fraction(n + 1), Fraction(0))
        ksum = sum(Fraction(1, k * k) for k in range(1, n + 1))
        assert coeffs.a == classic.a_list[n]
        assert coeffs.b == classic.a_list[n] * ksum - classic.b_list[n]

    @pytest.mark.parametrize(
        "n,lam,eps",
        [(2, 1.0, 0.13), (3, 2.5, 0.0), (8, 2.7, 1e-5), (8, 2.7, 1e-4), (12, 1.3, 1e-8)],
    )
    def test_float_matches_exact(self, n, lam, eps):
        # Integer and half-integer lam zero a factor the B forms divide out;
        # at small eps the l-sum B divides by 2 eps and only checks the value.
        f = apery_ab_flat(n, lam, eps)
        e = apery_ab_flat(n, Fraction(lam), Fraction(eps))
        for x, y in ((f.a, e.a), (f.b, e.b)):
            assert abs(x - float(y)) <= 1e-12 * max(abs(float(y)), 1.0)

    def test_float_cancellation_refused(self):
        # The residue terms cancel about 1e8-fold at n = 30 here: float gives
        # NoConvergence; exact Fractions and a point without the cancellation work.
        with pytest.raises(NoConvergence):
            apery_ab_flat(30, 0.9, 0.13)
        assert isinstance(apery_ab_flat(30, Fraction(9, 10), Fraction(13, 100)).b, Fraction)
        f = apery_ab_flat(24, 6.2, 0.37)
        e = apery_ab_flat(24, Fraction(6.2), Fraction(0.37))
        for x, y in ((f.a, e.a), (f.b, e.b)):
            assert abs(x - float(y)) <= 1e-12 * max(abs(float(y)), 1.0)


class TestJDelta:
    @pytest.mark.parametrize("n,delta", [(0, 1), (1, 1), (2, -1), (3, -1), (4, 1)])
    def test_series_vs_recurrence(self, n, delta):
        lam, eps = 0.9, 0.13
        s = j_delta(n, delta, lam, eps, method="series")
        r = j_delta(n, delta, lam, eps, method="recurrence")
        assert abs(s.value - r.value) < 1e-9 * max(abs(s.value), 1.0)

    @pytest.mark.parametrize("n,delta", [(0, 1), (1, 1), (2, -1), (3, 1)])
    def test_eps_reflection(self, n, delta):
        # J_n(lam, -eps) = (-delta)^n J_n(lam, eps)
        lam, eps = 0.9, 0.13
        a = j_delta(n, delta, lam, eps).value
        b = j_delta(n, delta, lam, -eps).value
        assert abs(b - (-delta) ** n * a) < 1e-13 * max(abs(a), 1.0)

    def test_half_integer_lambda(self):
        # removable 0/0 in the raw term at half-integer lam
        s = j_delta(2, 1, 1.5, 0.13, method="series")
        r = j_delta(2, 1, 1.5, 0.13, method="recurrence")
        assert abs(s.value - r.value) < 1e-10

    def test_recurrence_pole_guarded(self):
        with pytest.raises(DomainError):
            j_delta(4, 1, 0.9, 1.0, method="recurrence")

    # The series' ratios divide by lam + (n+1)/2 + k, k >= 0, although J is
    # finite where that vanishes: within 1e-9 of such a point the series
    # refuses, and near one its bar must carry the rounding of those
    # denominators, amplified by their inverse (at lam = -2.5 + 1e-7 the
    # error reaches 6e-8).
    @pytest.mark.parametrize(
        "n,delta,lam0",
        [(2, 1, -2.5), (1, 1, -3), (3, -1, -3), (4, 1, -3.5), (4, -1, -2.5), (3, 1, -5),
         (2, -1, -4.5)],
    )
    @pytest.mark.parametrize("offset", [1e-2, 1e-3, 1e-5, 1e-7, 1e-10, 1e-12, -1e-6])
    def test_series_near_its_ratio_poles(self, n, delta, lam0, offset):
        lam, eps = lam0 + offset, 0.1
        if abs(offset) <= 1e-9:
            with pytest.raises(PoleError, match="recurrence"):
                j_delta(n, delta, lam, eps, method="series")
            return
        s = j_delta(n, delta, lam, eps, method="series")
        r = j_delta(n, delta, lam, eps, method="recurrence")
        assert abs(s.value - r.value) <= s.abs_error

    def test_series_bar_counts_the_pole_amplification_once(self):
        # The 1/d-sized terms near a ratio pole are in sum |t_k| already, so
        # the bar stays within 10^3 of the error: at lam = -2.5 + 1e-7 the
        # series errs by 5.7e-8, and the recurrence agrees with a 50-digit
        # sum of the series to 1e-12.
        s = j_delta(2, 1, -2.5 + 1e-7, 0.1, method="series")
        r = j_delta(2, 1, -2.5 + 1e-7, 0.1, method="recurrence")
        err = abs(s.value - r.value)
        assert 1e-8 < err <= s.abs_error <= 1e3 * err


class TestAperyDelta:
    @pytest.mark.parametrize("n,delta", [(1, 1), (2, 1), (3, -1), (4, -1)])
    def test_reconstruction(self, n, delta):
        lam, eps = 0.9, 0.13
        coeffs = apery_ab_delta(n, delta, lam, eps)
        rec = reconstruct_j_delta(coeffs, delta, lam, eps)
        j = j_delta(n, delta, lam, eps).value
        assert abs(rec - j) < 1e-9 * max(abs(j), 1.0)

    def test_exact_mode(self):
        lam, eps = Fraction(9, 10), Fraction(13, 100)
        coeffs = apery_ab_delta(2, 1, lam, eps)
        assert isinstance(coeffs.a, Fraction)
        f = apery_ab_delta(2, 1, float(lam), float(eps))
        assert abs(float(coeffs.a) - f.a) < 1e-10
        assert abs(float(coeffs.b) - f.b) < 1e-10

    @pytest.mark.parametrize(
        "n,delta,lam,eps",
        [(3, 1, 1.0, 0.13), (2, 1, 1.3, 1e-7), (4, -1, 2.5, 0.37), (5, -1, 0.5, 1e-8)],
    )
    def test_float_matches_exact(self, n, delta, lam, eps):
        f = apery_ab_delta(n, delta, lam, eps)
        e = apery_ab_delta(n, delta, Fraction(lam), Fraction(eps))
        for x, y in ((f.a, e.a), (f.b, e.b)):
            assert abs(x - float(y)) <= 1e-12 * max(abs(float(y)), 1.0)

    @pytest.mark.parametrize("n,delta", [(2, 1), (5, -1)])
    def test_complex_lambda_small_eps(self, n, delta):
        lam, eps = 0.9 + 0.3j, 1e-6
        coeffs = apery_ab_delta(n, delta, lam, eps)
        j = j_delta(n, delta, lam, eps).value
        assert abs(reconstruct_j_delta(coeffs, delta, lam, eps) - j) < 1e-9 * max(abs(j), 1.0)


class TestDualChecks:
    """Each dual-form check fires when only the value form is off by 1e-8
    relative, at points at least 0.1 from every pole."""

    POINTS = [(3, 0.9, 0.13), (6, 2.7, 0.37)]

    @pytest.mark.parametrize("n,lam,eps", POINTS)
    @pytest.mark.parametrize("index,what", [(0, "flat A"), (2, "flat B")])
    def test_flat(self, monkeypatch, n, lam, eps, index, what):
        residue = apery._flat_residue

        def corrupt(*args):
            forms = list(residue(*args))  # (A, |A terms|, B, |B terms|)
            forms[index] *= 1 + 1e-8
            return tuple(forms)

        monkeypatch.setattr(apery, "_flat_residue", corrupt)
        with pytest.raises(AssertionError, match=what):
            apery_ab_flat(n, lam, eps)

    @pytest.mark.parametrize("n,lam,eps", POINTS)
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize(
        "helper,what", [("_delta_a_parity", "delta A"), ("_delta_b_lsum", "delta B")]
    )
    def test_delta(self, monkeypatch, n, lam, eps, delta, helper, what):
        form = getattr(apery, helper)
        monkeypatch.setattr(apery, helper, lambda *args: form(*args) * (1 + 1e-8))
        with pytest.raises(AssertionError, match=what):
            apery_ab_delta(n, delta, lam, eps)


class TestClassic:
    def test_known_values(self):
        e = apery_classic(6)
        assert e.a_list[:5] == (1, 3, 19, 147, 1251)
        assert e.b_list[0] == 0
        assert e.b_list[1] == Fraction(5, 1)
        assert e.b_list[2] == Fraction(125, 4)

    def test_recurrence(self):
        e = apery_classic(20)
        for n in range(2, 21):
            for x in (e.a_list, e.b_list):
                lhs = n * n * x[n]
                rhs = (11 * n * n - 11 * n + 3) * x[n - 1] + (n - 1) ** 2 * x[n - 2]
                assert lhs == rhs

    # n_max = 3.0 used to raise a bare TypeError.
    @pytest.mark.parametrize("n_max", [201, -1, 3.0])
    def test_cap(self, n_max):
        with pytest.raises(DomainError):
            apery_classic(n_max)

    def test_matches_the_double_sum(self):
        # The reference: B_n as the double sum over k and m <= k of
        # C(n,k)^2 C(n+k,k) (outer + (-1)^(n+m-1) / (m^2 C(n,m) C(n+m,m))),
        # one Fraction per term.
        e = apery_classic(40)
        outer = Fraction(0)
        for n in range(41):
            a = 0
            b = Fraction(0)
            inner = Fraction(0)
            for k in range(n + 1):
                w = math.comb(n, k) ** 2 * math.comb(n + k, k)
                a += w
                if k:
                    denominator = k * k * math.comb(n, k) * math.comb(n + k, k)
                    inner += Fraction((-1) ** (n + k - 1), denominator)
                b += w * (outer + inner)
            outer += Fraction(2 * (-1) ** n, (n + 1) ** 2)
            assert (e.a_list[n], e.b_list[n]) == (a, b), n


class TestBeukers:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_residual_small(self, n):
        assert beukers_residual(n) < 1e-10

    # n = 2.0 used to raise a bare TypeError.
    @pytest.mark.parametrize("n", [13, 2.0])
    def test_cap(self, n):
        with pytest.raises(DomainError):
            beukers_residual(n)


class TestPartialFraction:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_residual_small(self, n):
        assert partial_fraction_residual(n, 0.9, 0.13, 0.37) < 1e-12

    # n = 1.5 used to raise a bare TypeError, and n = -1 a ValueError from
    # math.factorial.
    @pytest.mark.parametrize("n", [1.5, -1])
    def test_bad_n_is_refused(self, n):
        with pytest.raises(DomainError, match="n must be an integer >= 0"):
            partial_fraction_residual(n, 0.9, 0.13, 0.37)
