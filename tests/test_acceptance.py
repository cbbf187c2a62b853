"""Acceptance suite: pinned tolerances and runtime budgets for the
package-level guarantees.  Each test is self-contained and uses only seeded
randomness."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rabi_zeta.apery import (
    apery_ab_flat,
    apery_classic,
    beukers_residual,
    j_delta,
    j_flat,
    reconstruct_j_flat,
)
from rabi_zeta.operator_oracle import (
    Ncho,
    OnePhoton,
    TwoPhoton,
    BergmanNu,
    build_component_operator,
    dense,
    dn_r_m_operator,
    r_m_operator,
)
from rabi_zeta.trace_terms import (
    FLAT,
    MINUS,
    PLUS,
    Nu,
    _pair_factors,
    _point_pairs,
    _psi_minus_two,
    dn_r_m_integral,
    phi,
    psi,
    r_1_hypergeometric,
    r_1_series,
    r_m_integral,
)
from rabi_zeta.zeta_values import ZetaRequest, confluence_scan, zeta_value

SEED = 20260823


def test_criterion_01_exact_apery_reproduction():
    t0 = time.perf_counter()
    e = apery_classic(50)  # construction verifies binomial sum == recurrence
    assert e.a_list[:4] == (1, 3, 19, 147)
    assert e.b_list[0] == 0
    assert e.b_list[1] == Fraction(5, 1)
    assert len(e.a_list) == 51
    assert all(isinstance(a, int) for a in e.a_list)
    assert all(isinstance(b, Fraction) for b in e.b_list)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_beukers_identity():
    t0 = time.perf_counter()
    for n in range(9):
        assert beukers_residual(n) < 1e-9, f"n={n}"
    assert time.perf_counter() - t0 < 5.0


def _sample_flat_points(rng, count):
    pts = []
    while len(pts) < count:
        lam = rng.uniform(1.0, 4.0)
        eps = rng.uniform(-0.4, 0.4)
        if min(abs(2 * eps - round(2 * eps)), abs(2 * eps)) < 1e-3:
            continue
        pts.append((lam, eps))
    return pts


def test_criterion_03_flat_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for lam, eps in _sample_flat_points(rng, 20):
        for n in range(1, 9):
            j = j_flat(n, lam, eps, method="series").value
            coeffs = apery_ab_flat(n, lam, eps)
            rec = reconstruct_j_flat(coeffs, lam, eps)
            assert abs(j - rec) < 1e-9, f"n={n} lam={lam} eps={eps}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_delta_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    pts = []
    while len(pts) < 20:
        lam = rng.uniform(1.0, 4.0)
        eps = rng.uniform(-0.4, 0.4)
        if abs(2 * eps - round(2 * eps)) < 1e-3:
            continue
        pts.append((lam, eps))
    for lam, eps in pts:
        for delta in (1, -1):
            for n in range(11):
                s = j_delta(n, delta, lam, eps, method="series").value
                r = j_delta(n, delta, lam, eps, method="recurrence").value
                assert abs(s - r) < 1e-9, f"n={n} delta={delta} lam={lam} eps={eps}"
    for _ in range(10):
        lam = rng.uniform(1.0, 3.0)
        eps = rng.uniform(-0.3, 0.3)
        g = rng.uniform(-0.5, 0.5)
        if abs(2 * eps - round(2 * eps)) < 1e-3:
            continue
        for delta, family in ((1, PLUS), (-1, MINUS)):
            h = r_1_hypergeometric(delta, lam, g, eps).value
            s = r_1_series(family, lam, g, eps).value
            assert abs(h - s) < 1e-8, f"delta={delta} lam={lam} g={g} eps={eps}"
    assert time.perf_counter() - t0 < 20.0


def test_criterion_05_three_route_r1_r2():
    t0 = time.perf_counter()
    grid = [
        (lam, g, eps)
        for lam in (1.0, 1.5)
        for g in (0.1, 0.3)
        for eps in (0.0, 0.15)
    ]
    for lam, g, eps in grid:
        # component operator values, shared by the four Bergman-type families
        op = {}
        for m in (1, 2):
            n_trunc = 1600 if m == 1 else 800
            op["fock", m] = r_m_operator("fock", g, lam, eps, m, N=n_trunc).value
            for nu in (0.5, 1.5):
                op["bergman", nu, m] = r_m_operator(
                    "bergman", g, lam, eps, m, N=n_trunc, nu=nu
                ).value
        family_ops = {
            "flat": {m: op["fock", m] for m in (1, 2)},
            "plus": {m: op["bergman", 0.5, m] + op["bergman", 1.5, m] for m in (1, 2)},
            "minus": {m: op["bergman", 0.5, m] - op["bergman", 1.5, m] for m in (1, 2)},
            "nu_half": {m: op["bergman", 0.5, m] for m in (1, 2)},
            "nu_three_half": {m: op["bergman", 1.5, m] for m in (1, 2)},
        }
        families = {
            "flat": FLAT,
            "plus": PLUS,
            "minus": MINUS,
            "nu_half": Nu(0.5),
            "nu_three_half": Nu(1.5),
        }
        for name, family in families.items():
            for m in (1, 2):
                ig = r_m_integral(family, lam, g, eps, m).value
                assert abs(ig - family_ops[name][m]) < 1e-6, (
                    f"{name} m={m} at lam={lam} g={g} eps={eps}"
                )
        for name, family in (("flat", FLAT), ("plus", PLUS), ("minus", MINUS)):
            s = r_1_series(family, lam, g, eps).value
            assert abs(s - family_ops[name][1]) < 1e-7, (
                f"series {name} at lam={lam} g={g} eps={eps}"
            )
    assert time.perf_counter() - t0 < 180.0


def test_criterion_06_derivative_formula():
    t0 = time.perf_counter()
    g, lam, eps, big_n, h = 0.2, 0.9, 0.1, 256, 0.02
    for m in (1, 2):
        for n in (1, 2, 3):
            d_n = dn_r_m_operator("fock", g, lam, eps, m, n, N=big_n).value

            def fd(step):
                hi = dn_r_m_operator("fock", g, lam + step, eps, m, n - 1, N=big_n).value
                lo = dn_r_m_operator("fock", g, lam - step, eps, m, n - 1, N=big_n).value
                return (hi - lo) / (2 * step)

            fd_val = (4 * fd(h / 2) - fd(h)) / 3
            assert abs(d_n - fd_val) < 1e-5 * max(abs(d_n), 1.0), f"m={m} n={n}"
            ig = dn_r_m_integral(FLAT, lam, g, eps, m, n).value
            assert abs(ig - d_n) < 1e-5 * max(abs(d_n), 1.0), f"integral m={m} n={n}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_zeta_cross_validation():
    t0 = time.perf_counter()
    cases = [
        (OnePhoton(g=0.2, delta=0.3, eps=0.1), 2, 1.0),
        (OnePhoton(g=0.1, delta=0.2, eps=0.0), 3, 1.5),
        (TwoPhoton(g=0.2, delta=0.3, eps=0.1), 2, 1.0),
        (TwoPhoton(g=0.1, delta=0.2, eps=0.0), 3, 1.5),
        (Ncho(alpha=2.0, beta=1.2, eta=0.1), 2, 0.8),
    ]
    for model, n, lam in cases:
        if isinstance(model, Ncho):
            assert model.alpha * model.beta > 1
        op = zeta_value(
            ZetaRequest(model, n, lam, method="series_operator", trunc_n=1600, tol=1e-8)
        )
        ig = zeta_value(
            ZetaRequest(model, n, lam, method="series_integral", trunc_n=1600, tol=1e-8)
        )
        eo = zeta_value(
            ZetaRequest(model, n, lam, method="eigen_oracle", trunc_n=1600)
        )
        label = f"{model} n={n} lam={lam}"
        assert abs(op.value - eo.value) <= eo.abs_error, label
        assert eo.abs_error <= 1e-4, label
        assert abs(op.value - ig.value) < 1e-7, label
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_parity_decomposition():
    t0 = time.perf_counter()
    g, delta, eps, n, lam = 0.2, 0.3, 0.1, 2, 1.0
    kwargs = dict(method="series_operator", max_m=6, tol=1e-14, trunc_n=400)
    two = zeta_value(ZetaRequest(TwoPhoton(g, delta, eps), n, lam, **kwargs))
    lo = zeta_value(ZetaRequest(BergmanNu(0.5, g, delta, eps), n, lam, **kwargs))
    hi = zeta_value(ZetaRequest(BergmanNu(1.5, g, delta, eps), n, lam, **kwargs))
    assert abs(two.value - (lo.value + hi.value)) < 1e-9

    # even/odd submatrices of the full quadratic-coupling matrix are the
    # nu = 1/2 and nu = 3/2 component operators
    big_n, shift = 40, lam + eps
    full = np.zeros((2 * big_n, 2 * big_n))
    js = np.arange(2 * big_n, dtype=float)
    full[np.arange(2 * big_n), np.arange(2 * big_n)] = (
        math.cosh(2 * g) * (js + 0.5) + shift
    )
    for j in range(2 * big_n - 2):
        val = math.sinh(2 * g) * math.sqrt((j + 1) * (j + 2)) / 2
        full[j, j + 2] = full[j + 2, j] = val
    even = full[0::2][:, 0::2]
    odd = full[1::2][:, 1::2]
    lo_op = dense(build_component_operator("bergman", g, shift, +1, big_n, nu=0.5)).real
    hi_op = dense(build_component_operator("bergman", g, shift, +1, big_n, nu=1.5)).real
    assert np.max(np.abs(even - lo_op)) < 1e-13
    assert np.max(np.abs(odd - hi_op)) < 1e-13
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_confluence():
    t0 = time.perf_counter()
    rows = confluence_scan(0.2, 0.1, 0.05, 1.5, 2, [8.0, 16.0, 32.0, 64.0], trunc_n=400)
    devs = [dev for _, _, dev in rows]
    for a, b in zip(devs, devs[1:]):
        assert b < a, f"deviations not strictly decreasing: {devs}"
    assert devs[-1] < devs[0]
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_kernel_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    # Psi_m - 2 > 0 on random interior points
    for m in (1, 2, 3):
        pts = rng.uniform(0.01, 0.99, size=(100_000, 2 * m))
        g = rng.uniform(-1.0, 1.0)
        values = _psi_minus_two(_pair_factors(g)(_point_pairs(m, pts, g)))
        assert np.all(values > 0.0), f"m={m} g={g}"
    # Phi_1 product form
    for _ in range(200):
        u, v = rng.uniform(0.01, 0.99, size=2)
        assert abs(phi(1, (u, v)) - (1 - u) * (1 - v)) < 1e-14
    # Psi_1 factorization: uv (Psi_1 -+ 2) = (1 -+ uv)^2 + sinh^2(2g)(1-u^2)(1-v^2)
    for _ in range(200):
        u, v = rng.uniform(0.01, 0.99, size=2)
        g = rng.uniform(-1.0, 1.0)
        p = psi(1, g, (u, v))
        sh2 = math.sinh(2 * g) ** 2
        cross = sh2 * (1 - u * u) * (1 - v * v)
        assert abs(u * v * (p - 2) - ((1 - u * v) ** 2 + cross)) < 1e-13 * max(p, 1.0)
        assert abs(u * v * (p + 2) - ((1 + u * v) ** 2 + cross)) < 1e-13 * max(p, 1.0)
    # cyclic (by one period) and reversal invariance
    for m in (2, 3):
        for _ in range(100):
            u = tuple(rng.uniform(0.05, 0.95, size=2 * m))
            g = rng.uniform(-1.0, 1.0)
            shifted = u[2:] + u[:2]
            for f in (lambda w: phi(m, w), lambda w: psi(m, g, w)):
                ref = f(u)
                assert abs(f(shifted) - ref) < 1e-13 * max(abs(ref), 1.0)
                assert abs(f(u[::-1]) - ref) < 1e-13 * max(abs(ref), 1.0)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_11_remark_identity():
    t0 = time.perf_counter()
    classic = apery_classic(8)
    for n in range(1, 9):
        b_eps = [
            float(apery_ab_flat(n, Fraction(n + 1), eps).b)
            for eps in (Fraction(1, 10000), Fraction(1, 20000))
        ]
        b_limit = (4 * b_eps[1] - b_eps[0]) / 3
        ksum = sum(Fraction(1, k * k) for k in range(1, n + 1))
        rhs = float(classic.a_list[n] * ksum - classic.b_list[n])
        assert abs(b_limit - rhs) < 1e-8, f"n={n}"
    assert time.perf_counter() - t0 < 10.0
