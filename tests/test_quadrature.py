import math

import numpy as np
import pytest

from rabi_zeta import quadrature
from rabi_zeta.errors import DomainError, NodeSingularity
from rabi_zeta.quadrature import (
    integrate_axes,
    integrate_lattice,
    integrate_pairs,
    integrate_tensor,
    tanh_sinh_nodes,
)


class TestNodes:
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
        v = integrate_tensor(lambda p: np.exp(p[:, 0]), 1, 6)
        assert abs(v.value - (math.e - 1)) < 1e-12

    def test_algebraic_endpoint_singularity(self):
        # integral of u^(-1/2) = 2, singular at 0
        v = integrate_tensor(lambda p: p[:, 0] ** -0.5, 1, 7)
        assert abs(v.value - 2.0) < 1e-6

    def test_2d_product(self):
        v = integrate_tensor(lambda p: p[:, 0] * p[:, 1] ** 2, 2, 6)
        assert abs(v.value - 1 / 6) < 1e-12

    def test_corner_inverse_sqrt(self):
        # integral over (0,1)^2 of (1-uv)^(-1/2)
        # = sum_k C(2k,k)/4^k/(k+1)^2 (term-wise integration)
        exact, t = 0.0, 1.0
        for k in range(1000000):
            exact += t / (k + 1) ** 2
            t *= (2 * k + 1) / (2 * k + 2)
        v = integrate_tensor(lambda p: (1 - p[:, 0] * p[:, 1]) ** -0.5, 2, 7)
        assert abs(v.value - exact) < 1e-8

    def test_4d_product(self):
        v = integrate_tensor(lambda p: np.prod(p, axis=1), 4, 4)
        assert abs(v.value - 1 / 16) < 1e-12

    @pytest.mark.parametrize("d", [0, 5, 2.0])
    def test_dimension_cap(self, d):
        # d = 2.0 used to raise a bare TypeError.
        with pytest.raises(DomainError, match="d must be an integer from 1 to 4"):
            integrate_tensor(lambda p: p[:, 0], d, 3)

    def test_singular_value_raises(self):
        def f(p):
            out = np.ones(p.shape[0])
            out[0] = np.inf
            return out

        with pytest.raises(NodeSingularity):
            integrate_tensor(f, 1, 4)

    def test_error_estimate_honest(self):
        v = integrate_tensor(lambda p: np.cos(3 * p[:, 0] + p[:, 1]), 2, 6)
        exact = (-math.cos(4) + math.cos(3) + math.cos(1) - 1.0) / 3
        assert abs(v.value - exact) <= max(v.abs_error, 1e-13)


def _rows(p):
    """Three integrand rows; _rows(p)[k] alone is a scalar integrand."""
    base = np.exp(1j * np.sum(p, axis=1)) / np.sqrt(p[:, 0])
    return np.stack([base, base * np.log(p[:, -1]), np.cos(np.sum(p, axis=1))])


class TestRowIntegrands:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tensor_rows_match_scalar_calls(self, d):
        rows = integrate_tensor(_rows, d, 5)
        assert len(rows) == 3
        for k, row in enumerate(rows):
            single = integrate_tensor(lambda p: _rows(p)[k], d, 5)
            assert (row.value, row.abs_error, row.terms_used) == (
                single.value, single.abs_error, single.terms_used
            )

    def test_lattice_rows_match_scalar_calls(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_LATTICE_SEED", 11)
        rows = integrate_lattice(_rows, 3)
        assert len(rows) == 3
        for k, row in enumerate(rows):
            single = integrate_lattice(lambda p: _rows(p)[k], 3)
            assert (row.value, row.abs_error, row.terms_used) == (
                single.value, single.abs_error, single.terms_used
            )


def _scalar(p):
    return np.exp(-np.sum(p, axis=1)) * (1 + 0.5j * p[:, 0]) / np.sqrt(1 - p[:, 0] * p[:, -1])


class TestTensorWalk:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("integrand", [_rows, _scalar])
    @pytest.mark.parametrize("level", [4, 3])
    @pytest.mark.parametrize("block", [1, 100])
    def test_sums_do_not_depend_on_the_block_size(self, monkeypatch, d, integrand, level, block):
        # A block of 1 point is one first-axis row per integrand call; 100
        # points split the grid into uneven blocks of several rows.  Each row
        # and then the rows must be summed in the same order either way.
        default = integrate_tensor(integrand, d, level)
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK", block)
        assert integrate_tensor(integrand, d, level) == default

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
    @pytest.mark.parametrize("level", [4, 3])
    def test_matches_tensor_rule(self, level):
        # Row 1 is G[1, 0] + G[0, 1]: a sum over the ordered pairs of side
        # rows.  The rule sums the representatives x <= y of each pair's grid
        # with doubled weights off the diagonal; the 4-D rule sums every
        # point.  Level 4's 325 pair points are five blocks and a partial one;
        # level 3's 91 one and a partial one, and level 2's 28 less than one.
        def combine(g):
            return np.array([g[0, 0], g[1, 0] + g[0, 1]])

        rows = integrate_pairs(_pair_factors, _pair_kernel, _pair_side, combine, level)
        ref = integrate_tensor(_pair_point, 4, level)
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
            5,
        )
        assert abs(v.value - 1 / 16) < 1e-14

    def test_non_finite_kernel_raises(self):
        def kernel(fa, fb, out):
            out[0].fill(1.0)
            out[0][0, 0] = np.nan

        with pytest.raises(NodeSingularity):
            integrate_pairs(_identity, kernel, _pair_side, lambda g: g[0, 0], 7)

    def test_non_finite_factors_raise(self):
        def factors(pts):
            return np.where(pts[0] == pts[0].max(), np.inf, pts)

        with pytest.raises(NodeSingularity, match="factors"):
            integrate_pairs(factors, _pair_kernel, _pair_side, lambda g: g[0, 0], 7)

    def test_non_symmetric_kernel_raises(self):
        def kernel(fa, fb, out):
            np.add(np.multiply.outer(fa[0], fb[1], out=out[0]), 1.0, out=out[0])

        with pytest.raises(DomainError):
            integrate_pairs(_identity, kernel, _pair_side, lambda g: g[0, 0], 7)

    def test_kernel_not_invariant_under_the_swap_raises(self):
        # K(a, b) = x x' + 1 is symmetric, K(b, a) = K(a, b), but the swap
        # s: (x, y) -> (y, x) inside a pair changes it, K(sa, b) = y x' + 1:
        # the guard on the first and last blocks of pair points names it.
        def kernel(fa, fb, out):
            np.add(np.multiply.outer(fa[0], fb[0], out=out[0]), 1.0, out=out[0])

        with pytest.raises(DomainError, match="kernel invariant under the swap"):
            integrate_pairs(_identity, kernel, _pair_side, lambda g: g[0, 0], 7)

    def test_side_not_invariant_under_the_swap_raises(self):
        # The side e^(ix) / sqrt(y) changes under the swap, so summing the
        # representatives x <= y with doubled weights would be wrong: the
        # rule refuses it with a message that names the swap.
        def side(a):
            return (np.exp(1j * a[0]) / np.sqrt(a[1]))[None]

        with pytest.raises(DomainError, match="sides invariant under the swap"):
            integrate_pairs(_pair_factors, _pair_kernel, side, lambda g: g[0, 0], 4)


def _axis_sides(u):
    """The axis test's sides, V = u^(1/2) e^(iu) and W = u^(-1/2) log u."""
    return np.stack([np.sqrt(u) * np.exp(1j * u), np.log(u) / np.sqrt(u)])


def _axis_point(p):
    """The axis test's integrand V(u) K(u, v) W(v) at 2-D points."""
    u, v = p[:, 0], p[:, 1]
    return _axis_sides(u)[0] * _axis_sides(v)[1] / np.sqrt(1.0 - u * v)


class TestAxisIntegration:
    @pytest.mark.parametrize("level,block", [(6, 64), (4, 25), (4, 20)])
    def test_matches_tensor_rule(self, monkeypatch, level, block):
        # Row 0 of z on the first axis and row 1 on the second: G[0, 1].
        # Level 6's 101 nodes are one 64-row kernel block and a partial one;
        # level 4's 25 nodes are exactly one block of 25 rows, and one block
        # and a partial one of 20.
        monkeypatch.setattr(quadrature, "_PAIR_BLOCK", block)
        got = integrate_axes(lambda u: u[None], _pair_kernel, _axis_sides, lambda g: g[0, 1], level)
        want = integrate_tensor(_axis_point, 2, level)
        assert abs(got.value - want.value) <= 1e-14 * abs(want.value)
        assert abs(got.abs_error - want.abs_error) <= 1e-14 * abs(want.value)
        assert got.terms_used == want.terms_used

    def test_non_symmetric_kernel_raises(self):
        def kernel(fa, fb, out):
            np.add(np.multiply.outer(fa[0], fb[0] ** 2, out=out[0]), 1.0, out=out[0])

        with pytest.raises(DomainError):
            integrate_axes(lambda u: u[None], kernel, _axis_sides, lambda g: g[0, 1], 7)

    def test_non_finite_side_raises(self):
        # The middle node of the 3-node level-1 rule is 1/2.
        def sides(u):
            return np.where(u == 0.5, np.nan, u)[None]

        with pytest.raises(NodeSingularity):
            integrate_axes(lambda u: u[None], _pair_kernel, sides, lambda g: g[0, 0], 1)


class TestLattice:
    def test_deterministic(self, monkeypatch):
        f = lambda p: np.exp(1j * p[:, 0]) / np.sqrt(p[:, 1])  # noqa: E731
        monkeypatch.setattr(quadrature, "_LATTICE_SEED", 42)
        a = integrate_lattice(f, 2)
        assert a == integrate_lattice(f, 2)
        monkeypatch.setattr(quadrature, "_LATTICE_SEED", 43)
        assert a.value != integrate_lattice(f, 2).value

    @pytest.mark.parametrize(
        "f,d,want",
        [
            # exp(sum x) / (e - 1)^6 integrates to 1 over the 6-cube.
            (lambda p: np.exp(np.sum(p, axis=1)) / (math.e - 1.0) ** 6, 6, 1.0),
            (lambda p: np.prod(p, axis=1), 4, 1 / 16),
        ],
        ids=["exp-sum-6d", "product-4d"],
    )
    def test_smooth_integrand_within_its_bar(self, monkeypatch, f, d, want):
        monkeypatch.setattr(quadrature, "_LATTICE_SEED", 7)
        got = integrate_lattice(f, d)
        assert got.terms_used == 8191 * 16
        assert abs(got.value - want) <= got.abs_error < 1e-4

    def test_integrand_calls_stay_blocked(self, monkeypatch):
        # Each shifted copy of the lattice reaches the integrand
        # _TENSOR_BLOCK points at a time, on the open cube; a pointwise
        # integrand's sums do not depend on that size.
        sizes = []

        def f(p):
            sizes.append(len(p))
            assert np.all((p > 0.0) & (p < 1.0))
            return np.exp(1j * p[:, 0]) / np.sqrt(p[:, 1])

        monkeypatch.setattr(quadrature, "_LATTICE_SEED", 3)
        blocked = integrate_lattice(f, 2)
        assert max(sizes) == quadrature._TENSOR_BLOCK
        assert sum(sizes) == blocked.terms_used == 8191 * 16
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK", 1 << 20)
        assert integrate_lattice(f, 2) == blocked

    def test_non_finite_value_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_LATTICE_SEED", 1)
        with pytest.raises(NodeSingularity, match="lattice point"):
            integrate_lattice(lambda p: np.where(p[:, 0] < 0.5, np.nan, 1.0), 2)

    @pytest.mark.parametrize("d", [0, 2.0])
    def test_bad_dimension(self, d):
        # d = 2.0 used to raise a bare TypeError.
        with pytest.raises(DomainError, match="d must be an integer >= 1"):
            integrate_lattice(lambda p: p[:, 0], d)


class TestLevelValidation:
    # The level is an int from 1 to 10: level 10 has 1617 nodes per axis,
    # and the count doubles per level.  A scheme name from before the rules
    # took only the level (Monte Carlo, Gauss-Legendre, the lattice) is not
    # read as one, and a fractional level would build a rule that does not
    # nest with the level below.  Each is refused before any integrand runs.
    _BAD_LEVELS = ["simpson", "monte_carlo", "gauss_legendre", "lattice", "tanh_sinh", 0, 4.5, 11]

    @pytest.mark.parametrize("level", _BAD_LEVELS)
    def test_bad_level_is_refused(self, level):
        def f(p):
            raise AssertionError("the integrand ran")

        with pytest.raises(DomainError, match="level must be an integer from 1 to 10"):
            integrate_tensor(f, 2, level)

    @pytest.mark.parametrize("level", _BAD_LEVELS)
    def test_nodes_refuse_a_bad_level(self, level):
        with pytest.raises(DomainError, match="level must be an integer from 1 to 10"):
            tanh_sinh_nodes(level)

    @pytest.mark.parametrize("level", [1, 10])
    def test_levels_at_the_bounds(self, level):
        assert tanh_sinh_nodes(level)[0].size == {1: 3, 10: 1617}[level]
