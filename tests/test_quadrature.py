import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_zeta import quadrature
from rabi_zeta.errors import DomainError, NodeSingularity
from rabi_zeta.quadrature import (
    QuadratureSpec,
    gauss_legendre_nodes,
    integrate_axes,
    integrate_monte_carlo,
    integrate_pairs,
    integrate_tensor,
    tanh_sinh_nodes,
)


class TestNodes:
    def test_gl_weights_sum_to_one(self):
        for p in (1, 5, 64):
            nodes, weights = gauss_legendre_nodes(p)
            assert abs(weights.sum() - 1.0) < 1e-14
            assert np.all((nodes > 0) & (nodes < 1))

    def test_gl_bounds(self):
        with pytest.raises(DomainError):
            gauss_legendre_nodes(0)
        with pytest.raises(DomainError):
            gauss_legendre_nodes(1025)

    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_gl_polynomial_exactness(self, p):
        # p-point rule is exact for degree 2p-1
        nodes, weights = gauss_legendre_nodes(p)
        d = 2 * p - 1
        approx = float(np.sum(weights * nodes**d))
        assert abs(approx - 1 / (d + 1)) < 1e-12

    def test_tanh_sinh_interior(self):
        nodes, weights = tanh_sinh_nodes(7)
        assert np.all((nodes > 0) & (nodes < 1))
        assert abs(weights.sum() - 1.0) < 1e-10

    def test_tanh_sinh_level_grows(self):
        n5 = tanh_sinh_nodes(5)[0].size
        n7 = tanh_sinh_nodes(7)[0].size
        assert n7 > 2 * n5


class TestTensorIntegration:
    def test_smooth_1d(self):
        spec = QuadratureSpec(scheme="tanh_sinh", points_per_axis=6)
        v = integrate_tensor(lambda p: np.exp(p[:, 0]), 1, spec)
        assert abs(v.value - (math.e - 1)) < 1e-12

    def test_algebraic_endpoint_singularity(self):
        # integral of u^(-1/2) = 2, singular at 0
        spec = QuadratureSpec(scheme="tanh_sinh", points_per_axis=7)
        v = integrate_tensor(lambda p: p[:, 0] ** -0.5, 1, spec)
        assert abs(v.value - 2.0) < 1e-6

    def test_2d_product(self):
        spec = QuadratureSpec(scheme="tanh_sinh", points_per_axis=6)
        v = integrate_tensor(lambda p: p[:, 0] * p[:, 1] ** 2, 2, spec)
        assert abs(v.value - 1 / 6) < 1e-12

    def test_corner_inverse_sqrt(self):
        # integral over (0,1)^2 of (1-uv)^(-1/2)
        # = sum_k C(2k,k)/4^k/(k+1)^2 (term-wise integration)
        exact, t = 0.0, 1.0
        for k in range(1000000):
            exact += t / (k + 1) ** 2
            t *= (2 * k + 1) / (2 * k + 2)
        spec = QuadratureSpec(scheme="tanh_sinh", points_per_axis=7)
        v = integrate_tensor(lambda p: (1 - p[:, 0] * p[:, 1]) ** -0.5, 2, spec)
        assert abs(v.value - exact) < 1e-8

    def test_gauss_legendre_4d(self):
        spec = QuadratureSpec(scheme="gauss_legendre", points_per_axis=12)
        v = integrate_tensor(lambda p: np.prod(p, axis=1), 4, spec)
        assert abs(v.value - 1 / 16) < 1e-12

    def test_dimension_cap(self):
        spec = QuadratureSpec()
        with pytest.raises(DomainError):
            integrate_tensor(lambda p: p[:, 0], 5, spec)

    def test_singular_value_raises(self):
        spec = QuadratureSpec(scheme="tanh_sinh", points_per_axis=4)

        def f(p):
            out = np.ones(p.shape[0])
            out[0] = np.inf
            return out

        with pytest.raises(NodeSingularity):
            integrate_tensor(f, 1, spec)

    def test_error_estimate_honest(self):
        spec = QuadratureSpec(scheme="tanh_sinh", points_per_axis=6)
        v = integrate_tensor(lambda p: np.cos(3 * p[:, 0] + p[:, 1]), 2, spec)
        exact = (-math.cos(4) + math.cos(3) + math.cos(1) - 1.0) / 3
        assert abs(v.value - exact) <= max(v.abs_error, 1e-13)


def _rows(p):
    """Three integrand rows; _rows(p)[k] alone is a scalar integrand."""
    base = np.exp(1j * np.sum(p, axis=1)) / np.sqrt(p[:, 0])
    return np.stack([base, base * np.log(p[:, -1]), np.cos(np.sum(p, axis=1))])


class TestRowIntegrands:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec", [QuadratureSpec("tanh_sinh", 5), QuadratureSpec("gauss_legendre", 9)]
    )
    def test_tensor_rows_match_scalar_calls(self, d, spec):
        rows = integrate_tensor(_rows, d, spec)
        assert len(rows) == 3
        for k, row in enumerate(rows):
            single = integrate_tensor(lambda p: _rows(p)[k], d, spec)
            assert (row.value, row.abs_error, row.terms_used) == (
                single.value, single.abs_error, single.terms_used
            )

    def test_monte_carlo_rows_match_scalar_calls(self):
        # More samples than one chunk, so the per-chunk partial sums are reduced too.
        rows = integrate_monte_carlo(_rows, 3, 300_000, seed=11)
        assert len(rows) == 3
        for k, row in enumerate(rows):
            single = integrate_monte_carlo(lambda p: _rows(p)[k], 3, 300_000, seed=11)
            assert (row.value, row.abs_error) == (single.value, single.abs_error)


def _scalar(p):
    return np.exp(-np.sum(p, axis=1)) * (1 + 0.5j * p[:, 0]) / np.sqrt(1 - p[:, 0] * p[:, -1])


class TestTensorWalk:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("integrand", [_rows, _scalar])
    @pytest.mark.parametrize(
        "spec", [QuadratureSpec("tanh_sinh", 4), QuadratureSpec("gauss_legendre", 9)]
    )
    @pytest.mark.parametrize("block", [1, 100])
    def test_sums_do_not_depend_on_the_block_size(self, monkeypatch, d, integrand, spec, block):
        # A block of 1 point is one first-axis row per integrand call; 100
        # points split the grid into uneven blocks of several rows.  Each row
        # and then the rows must be summed in the same order either way.
        default = integrate_tensor(integrand, d, spec)
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK", block)
        assert integrate_tensor(integrand, d, spec) == default

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_calls_take_whole_rows_of_about_one_block(self, d):
        nodes, _ = tanh_sinh_nodes(7)
        rest = nodes.size ** (d - 1)
        sizes = []

        def f(p):
            sizes.append(len(p))
            return _scalar(p)

        quadrature._tensor_sum(f, d, *tanh_sinh_nodes(7))
        assert sum(sizes) == nodes.size**d
        assert all(size % rest == 0 for size in sizes)
        rows = min(max(1, quadrature._TENSOR_BLOCK // rest), nodes.size)
        assert max(sizes) == rows * rest


def _pair_factors(pts):
    """The pair test's one factor row, x y at each pair point (x, y)."""
    return (pts[0] * pts[1])[None]


def _pair_kernel(fa, fb, out):
    k = np.multiply.outer(fa[0], fb[0], out=out[0])
    np.sqrt(np.subtract(1.0, k, out=k), out=k)
    np.divide(1.0, k, out=k)


def _pair_side(a):
    """The pair test's sides, w = e^(i(x + y)) / sqrt(x y) and w log(x y):
    unchanged by the swap (x, y) -> (y, x)."""
    w = np.exp(1j * (a[0] + a[1])) / np.sqrt(a[0] * a[1])
    return np.stack([w, w * np.log(a[0] * a[1])])


def _pair_point(p):
    """The integrand rows of the pair test at 4-D points, a = (u0, u1) and
    b = (u2, u3)."""
    k = 1.0 / np.sqrt(1.0 - np.prod(p, axis=1))
    left, right = _pair_side(p[:, :2].T), _pair_side(p[:, 2:].T)
    return np.stack([k * left[0] * right[0], k * (left[1] * right[0] + left[0] * right[1])])


def _identity(pts):
    return pts


class TestPairIntegration:
    @pytest.mark.parametrize(
        "spec", [QuadratureSpec("tanh_sinh", 4), QuadratureSpec("gauss_legendre", 8)]
    )
    def test_matches_tensor_rule(self, spec):
        # Row 1 is G[1, 0] + G[0, 1]: a sum over the ordered pairs of side
        # rows.  The rule sums the representatives x <= y of each pair's grid
        # with doubled weights off the diagonal; the 4-D rule sums every point.
        def combine(g):
            return np.array([g[0, 0], g[1, 0] + g[0, 1]])

        rows = integrate_pairs(_pair_factors, _pair_kernel, _pair_side, combine, spec)
        ref = integrate_tensor(_pair_point, 4, spec)
        for got, want in zip(rows, ref):
            assert abs(got.value - want.value) <= 1e-14 * abs(want.value)
            assert abs(got.abs_error - want.abs_error) <= 1e-14 * abs(want.value)
            assert got.terms_used == want.terms_used

    def test_scalar_combine_gives_one_value(self):
        v = integrate_pairs(
            _identity,
            lambda fa, fb, out: out[0].fill(1.0),
            lambda a: (a[0] * a[1])[None],
            lambda g: g[0, 0],
            QuadratureSpec("gauss_legendre", 6),
        )
        assert abs(v.value - 1 / 16) < 1e-14

    def test_non_finite_kernel_raises(self):
        def kernel(fa, fb, out):
            out[0].fill(1.0)
            out[0][0, 0] = np.nan

        with pytest.raises(NodeSingularity):
            integrate_pairs(_identity, kernel, _pair_side, lambda g: g[0, 0], QuadratureSpec())

    def test_non_finite_factors_raise(self):
        def factors(pts):
            return np.where(pts[0] == pts[0].max(), np.inf, pts)

        with pytest.raises(NodeSingularity, match="factors"):
            integrate_pairs(factors, _pair_kernel, _pair_side, lambda g: g[0, 0], QuadratureSpec())

    def test_non_symmetric_kernel_raises(self):
        def kernel(fa, fb, out):
            np.add(np.multiply.outer(fa[0], fb[1], out=out[0]), 1.0, out=out[0])

        with pytest.raises(DomainError):
            integrate_pairs(_identity, kernel, _pair_side, lambda g: g[0, 0], QuadratureSpec())

    def test_kernel_not_invariant_under_the_swap_raises(self):
        # K(a, b) = x x' + 1 is symmetric, K(b, a) = K(a, b), but the swap
        # s: (x, y) -> (y, x) inside a pair changes it, K(sa, b) = y x' + 1:
        # the guard on the first and last blocks of pair points names it.
        def kernel(fa, fb, out):
            np.add(np.multiply.outer(fa[0], fb[0], out=out[0]), 1.0, out=out[0])

        with pytest.raises(DomainError, match="kernel invariant under the swap"):
            integrate_pairs(_identity, kernel, _pair_side, lambda g: g[0, 0], QuadratureSpec())

    @pytest.mark.parametrize("scheme", ["tanh_sinh", "gauss_legendre"])
    def test_side_not_invariant_under_the_swap_raises(self, scheme):
        # The side e^(ix) / sqrt(y) changes under the swap, so summing the
        # representatives x <= y with doubled weights would be wrong: the
        # rule refuses it with a message that names the swap.
        def side(a):
            return (np.exp(1j * a[0]) / np.sqrt(a[1]))[None]

        spec = QuadratureSpec(scheme, 4)
        with pytest.raises(DomainError, match="sides invariant under the swap"):
            integrate_pairs(_pair_factors, _pair_kernel, side, lambda g: g[0, 0], spec)

    def test_monte_carlo_refused(self):
        spec = QuadratureSpec("monte_carlo")
        with pytest.raises(DomainError):
            integrate_pairs(_pair_factors, _pair_kernel, _pair_side, lambda g: g[0, 0], spec)


def _axis_sides(u):
    """The axis test's sides, V = u^(1/2) e^(iu) and W = u^(-1/2) log u."""
    return np.stack([np.sqrt(u) * np.exp(1j * u), np.log(u) / np.sqrt(u)])


def _axis_point(p):
    """The axis test's integrand V(u) K(u, v) W(v) at 2-D points."""
    u, v = p[:, 0], p[:, 1]
    return _axis_sides(u)[0] * _axis_sides(v)[1] / np.sqrt(1.0 - u * v)


class TestAxisIntegration:
    @pytest.mark.parametrize(
        "spec", [QuadratureSpec("tanh_sinh", 6), QuadratureSpec("gauss_legendre", 80)]
    )
    def test_matches_tensor_rule(self, spec):
        # Row 0 of z on the first axis and row 1 on the second: G[0, 1].
        got = integrate_axes(
            lambda u: u[None], _pair_kernel, _axis_sides, lambda g: g[0, 1], spec
        )
        want = integrate_tensor(_axis_point, 2, spec)
        assert abs(got.value - want.value) <= 1e-14 * abs(want.value)
        assert abs(got.abs_error - want.abs_error) <= 1e-14 * abs(want.value)
        assert got.terms_used == want.terms_used

    def test_non_symmetric_kernel_raises(self):
        def kernel(fa, fb, out):
            np.add(np.multiply.outer(fa[0], fb[0] ** 2, out=out[0]), 1.0, out=out[0])

        with pytest.raises(DomainError):
            integrate_axes(lambda u: u[None], kernel, _axis_sides, lambda g: g[0, 1], QuadratureSpec())

    def test_non_finite_side_raises(self):
        # The middle node of the 3-point rule is 1/2.
        def sides(u):
            return np.where(u == 0.5, np.nan, u)[None]

        with pytest.raises(NodeSingularity):
            integrate_axes(
                lambda u: u[None], _pair_kernel, sides, lambda g: g[0, 0],
                QuadratureSpec("gauss_legendre", 3),
            )

    def test_monte_carlo_refused(self):
        spec = QuadratureSpec("monte_carlo")
        with pytest.raises(DomainError):
            integrate_axes(lambda u: u[None], _pair_kernel, _axis_sides, lambda g: g[0, 1], spec)


class TestMonteCarlo:
    def test_deterministic(self):
        f = lambda p: np.sum(p, axis=1)  # noqa: E731
        a = integrate_monte_carlo(f, 3, 100000, seed=42)
        b = integrate_monte_carlo(f, 3, 100000, seed=42)
        assert a.value == b.value
        assert a.abs_error == b.abs_error

    def test_mean_accuracy(self):
        f = lambda p: np.prod(p, axis=1)  # noqa: E731
        v = integrate_monte_carlo(f, 4, 200000, seed=7)
        assert abs(v.value - 1 / 16) < 5 * max(v.abs_error, 1e-6)

    def test_integrand_calls_stay_blocked(self, monkeypatch):
        # Each chunk reaches the integrand _TENSOR_BLOCK points at a time; a
        # pointwise integrand's sums do not depend on that size.
        sizes = []

        def f(p):
            sizes.append(len(p))
            return np.exp(1j * p[:, 0]) / np.sqrt(p[:, 1])

        blocked = integrate_monte_carlo(f, 2, 300_000, seed=3)
        assert max(sizes) == quadrature._TENSOR_BLOCK
        assert sum(sizes) == 300_000
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK", 1 << 20)
        assert integrate_monte_carlo(f, 2, 300_000, seed=3) == blocked

    def test_bad_args(self):
        with pytest.raises(DomainError):
            integrate_monte_carlo(lambda p: p[:, 0], 0, 10, 1)
        with pytest.raises(DomainError):
            integrate_monte_carlo(lambda p: p[:, 0], 1, 0, 1)


class TestSpecValidation:
    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            QuadratureSpec(scheme="simpson")
