"""The three seeded workloads and the checks applied to every result.

Each workload is a closed loop with one caller: a round of operations runs,
each operation waits for its result, and the next round starts only after
the last one finished.  Every round has the same composition (model types,
orders n, routes and truncations); the seed and the round index only move
the parameters inside fixed bands, so rounds cost about the same and the
rates of runs with different round counts stay comparable.

Couplings are drawn as a fixed share of the convergence radius, which for
real lambda > |eps| is the distance lambda - |eps| + offset to the excluded
set (offset 0 for the one-photon model, 1/2 for the two-photon model and the
oscillator pair, nu for a Bergman block).  That share sets the number of
m-terms, and with it most of a series request's cost.

The library is always called through module attributes (``cli.run``,
``zeta_values.zeta_value``, ...) so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

from rabi_zeta import apery, cli, operator_oracle, trace_terms, zeta_values
from rabi_zeta.errors import DomainError, NearPole, RadiusExceeded
from rabi_zeta.operator_oracle import BergmanNu, Ncho, OnePhoton, TwoPhoton

WORKLOADS = ("zeta_default", "cross_validation", "building_blocks")

# Package defaults, spelled out so a change of default shows in the record.
DEFAULT_TOL = 1e-8

# Coupling scale as a share of the convergence radius.  It fixes the number
# of m-terms, so it is a constant: the seed moves the other parameters.
ZD_SHARE = 0.3
NCHO_SHARE = 0.19
CV_SHARE = 0.19

# cross_validation truncations: criterion 7 runs every route at 1600, which
# costs minutes per case; these keep a round of three cases near half a
# minute while the dense N^3 sweep and the 2N x 2N eigensolve still dominate.
CV_SERIES_N = 600
CV_EIGEN_N = 1200

# building_blocks: criterion 5's truncations and the Apery size.
BB_R1_N = 1600
BB_R2_N = 800
BB_D_N = 800
BB_R3_N = 400
APERY_N_MAX = 130

README_EXAMPLE = ["zeta", "--model", "1pqrm", "--n", "2", "--lambda", "1.0",
                  "--g", "0.2", "--delta", "0.3", "--eps", "0.1"]


@dataclass
class Op:
    """One timed operation and what it returned."""

    kind: str
    seconds: float
    values: list = field(default_factory=list)
    abs_error: float | None = None
    tol: float | None = None
    ok: bool = True
    note: str = ""

    def fail(self, note: str) -> None:
        self.ok = False
        self.note = self.note or note


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _timed(kind: str, fn, *args, **kwargs):
    """Run fn; an unexpected exception becomes a failed Op."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is reported, not fatal
        return Op(kind, time.perf_counter() - t0, ok=False, note=repr(exc)), None
    return Op(kind, time.perf_counter() - t0), result


def _sv_op(kind, fn, *args, tol=None, **kwargs):
    """Op for a call returning a SeriesValue or ZetaResult."""
    op, res = _timed(kind, fn, *args, **kwargs)
    if res is not None:
        op.values = [complex(res.value)]
        op.abs_error = float(res.abs_error)
        op.tol = tol
    return op, res


def _check(ok: bool, note: str, *ops: Op) -> None:
    if not ok:
        for op in ops:
            op.fail(note)


# ---------------------------------------------------------------------------
# Parameter draws
#
# The bands are narrow on purpose.  The sweep's dense products slow down as
# their entries underflow, which happens sooner at weaker coupling g (a
# 2pqrm n=3 request costs about three times more at g=0.1 than at g=0.3), so
# a wide g band would make a run's cost depend on the seed.


def _one_photon(rng, share):
    lam, eps, g = rng.uniform(1.0, 1.3), rng.uniform(0.05, 0.15), rng.uniform(0.18, 0.22)
    return OnePhoton(g, share * (lam - eps), eps), lam


def _two_photon(rng, share):
    lam, eps, g = rng.uniform(1.0, 1.3), rng.uniform(0.0, 0.1), rng.uniform(0.18, 0.22)
    return TwoPhoton(g, share * (lam - eps + 0.5), eps), lam


def _bergman(rng, share):
    lam, eps, g = rng.uniform(1.0, 1.3), rng.uniform(0.0, 0.1), rng.uniform(0.18, 0.22)
    nu = rng.uniform(0.8, 1.2)
    return BergmanNu(nu, g, share * (lam - eps + nu), eps), lam


def _ncho(rng, share):
    """Oscillator pair around the ROADMAP's Ncho(2.0, 1.2, 0.1) at lambda=0.8:
    the coupling scale is |X| lambda with X = (alpha - beta)/(alpha + beta)."""
    lam, eta, beta = rng.uniform(0.75, 0.9), rng.uniform(0.06, 0.12), rng.uniform(1.15, 1.25)
    x = share * (lam - 2 * eta + 0.5) / lam
    return Ncho(beta * (1 + x) / (1 - x), beta, eta), lam


def _cli_params(model, n, lam) -> list:
    argv = ["--n", str(n), "--lambda", repr(float(lam))]
    if isinstance(model, Ncho):
        return ["--model", "ncho", *argv, "--alpha", repr(model.alpha),
                "--beta", repr(model.beta), "--eta", repr(model.eta)]
    name = {OnePhoton: "1pqrm", TwoPhoton: "2pqrm", BergmanNu: "bergman"}[type(model)]
    argv = ["--model", name, *argv, "--g", repr(model.g), "--delta", repr(model.delta),
            "--eps", repr(model.eps)]
    if isinstance(model, BergmanNu):
        argv += ["--nu", repr(model.nu)]
    return argv


# ---------------------------------------------------------------------------
# zeta_default


def zeta_default_inputs(rng) -> dict:
    """One round: four series/eigen pairs, two parity differences and three
    requests that must be refused."""
    pairs = [
        (*_one_photon(rng, ZD_SHARE), 2),
        (*_two_photon(rng, ZD_SHARE), 3),
        (*_bergman(rng, ZD_SHARE), 2),
        (*_ncho(rng, NCHO_SHARE), 2),
    ]
    parity = [(*_two_photon(rng, ZD_SHARE), 2), (*_ncho(rng, NCHO_SHARE), 3)]
    # Out of domain: beyond the radius, on the excluded set, parity of 1pqrm.
    far, lam_far = _one_photon(rng, rng.uniform(1.2, 1.6))
    pole_model, _ = _two_photon(rng, ZD_SHARE)
    lam_pole = -(pole_model.eps + 0.5 + rng.randrange(3))
    odd, lam_odd = _one_photon(rng, ZD_SHARE)
    refused = [
        ("radius_exceeded", far, lam_far, False, RadiusExceeded),
        ("near_pole", pole_model, lam_pole, False, NearPole),
        ("parity_of_1pqrm", odd, lam_odd, True, DomainError),
    ]
    return {"pairs": pairs, "parity": parity, "refused": refused}


def _cli_call(argv):
    """cli.run in-process; returns (exit code, parsed records)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]


def _c(d) -> complex:
    return complex(d["re"], d["im"])


def _cli_value_op(kind, argv, tol=None):
    op, out = _timed(kind, _cli_call, argv)
    if out is None:
        return op, None
    code, records = out
    if code != 0 or len(records) != 1:
        op.fail(f"exit code {code}, {len(records)} records")
        return op, None
    rec = records[0]
    op.values = [_c(rec["value"])]
    op.abs_error = float(rec["abs_error"])
    op.tol = tol
    return op, rec


def _decomposition_ok(rec) -> bool:
    """value == base_term + sum(per_m_terms), to rounding."""
    terms = [_c(t) for t in rec["per_m_terms"]]
    base = _c(rec["base_term"])
    scale = abs(base) + sum(abs(t) for t in terms)
    return abs(_c(rec["value"]) - (base + sum(terms))) <= 1e-14 * scale


def zeta_default_round(inputs) -> list:
    ops = []
    for model, lam, n in inputs["pairs"]:
        argv = ["zeta", *_cli_params(model, n, lam)]
        series, rec = _cli_value_op("series_operator", argv, tol=DEFAULT_TOL)
        eigen, _ = _cli_value_op("eigen_oracle", argv + ["--method", "eigen_oracle"])
        ops += [series, eigen]
        if series.ok and eigen.ok:
            _check(_decomposition_ok(rec), "value != base + sum(per_m_terms)", series)
            gap = abs(series.values[0] - eigen.values[0])
            _check(gap <= eigen.abs_error + series.abs_error,
                   f"series vs eigen gap {gap:.3e}", series, eigen)
    for model, lam, n in inputs["parity"]:
        argv = ["zeta", *_cli_params(model, n, lam), "--parity-difference"]
        op, rec = _cli_value_op("parity_difference", argv, tol=DEFAULT_TOL)
        ops.append(op)
        if op.ok:
            _check(_decomposition_ok(rec), "value != base + sum(per_m_terms)", op)
    for label, model, lam, parity, expected in inputs["refused"]:
        ops.append(_refused_op(label, model, lam, parity, expected))
    return ops


def _refused_op(label, model, lam, parity, expected) -> Op:
    """Succeeds only if the library raises `expected` and the CLI exits 2."""
    t0 = time.perf_counter()
    raised = None
    try:
        if parity:
            zeta_values.parity_difference(model, 2, lam)
        else:
            zeta_values.zeta_value(zeta_values.ZetaRequest(model, 2, lam))
    except Exception as exc:  # the type is the check
        raised = exc
    argv = ["zeta", *_cli_params(model, 2, lam)] + (["--parity-difference"] if parity else [])
    cli_op, out = _timed("refused." + label, _cli_call, argv)
    op = Op(cli_op.kind, time.perf_counter() - t0, ok=cli_op.ok, note=cli_op.note)
    _check(isinstance(raised, expected), f"library raised {raised!r}, wanted {expected.__name__}", op)
    if out is not None:
        _check(out[0] == 2, f"CLI exit code {out[0]}, wanted 2", op)
    return op


def confluence_argv(rng) -> list:
    """Criterion 9's scan, parameters moved inside a small box around it."""
    return ["--threads", "2", "confluence",
            "--g", repr(rng.uniform(0.18, 0.22)), "--delta", repr(rng.uniform(0.08, 0.12)),
            "--eps", repr(rng.uniform(0.04, 0.06)), "--lambda", repr(rng.uniform(1.4, 1.6)),
            "--n", "2", "--nu-list", "8,16,32,64"]


def confluence_op(argv) -> Op:
    op, out = _timed("confluence_scan", _cli_call, argv)
    if out is None:
        return op
    code, records = out
    if code != 0 or len(records) != 4:
        op.fail(f"exit code {code}, {len(records)} rows")
        return op
    op.values = [_c(r["value"]) for r in records]
    devs = [r["deviation"] for r in records]
    _check(all(b < a for a, b in zip(devs, devs[1:])), f"deviations not decreasing: {devs}", op)
    return op


def cli_cold_op(root: str, env: dict) -> Op:
    """One fresh `rabi-zeta zeta` process on the README's first example,
    checked against the in-process eigenvalue oracle."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rabi_zeta.cli", *README_EXAMPLE],
                          cwd=root, env=env, capture_output=True, text=True, timeout=170)
    op = Op("cli_cold", time.perf_counter() - t0)
    if proc.returncode != 0:
        op.fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return op
    rec = json.loads(proc.stdout.splitlines()[0])
    op.values = [_c(rec["value"])]
    op.abs_error = float(rec["abs_error"])
    op.tol = DEFAULT_TOL
    eo = zeta_values.zeta_value(zeta_values.ZetaRequest(
        OnePhoton(0.2, 0.3, 0.1), 2, 1.0, method="eigen_oracle"))
    gap = abs(op.values[0] - eo.value)
    _check(_decomposition_ok(rec), "value != base + sum(per_m_terms)", op)
    _check(gap <= eo.abs_error + op.abs_error, f"cold CLI vs eigen gap {gap:.3e}", op)
    return op


# ---------------------------------------------------------------------------
# cross_validation


def cross_validation_inputs(rng) -> list:
    return [(*_one_photon(rng, CV_SHARE), 2), (*_two_photon(rng, CV_SHARE), 2),
            (*_ncho(rng, CV_SHARE), 2)]


def cross_validation_round(cases) -> list:
    """Criterion 7's order and checks: operator, integral, eigen oracle."""
    ops = []
    for model, lam, n in cases:
        req = lambda method, size: zeta_values.ZetaRequest(  # noqa: E731
            model, n, lam, method=method, trunc_n=size, tol=DEFAULT_TOL)
        op, _ = _sv_op("series_operator", zeta_values.zeta_value,
                       req("series_operator", CV_SERIES_N), tol=DEFAULT_TOL)
        ig, _ = _sv_op("series_integral", zeta_values.zeta_value,
                       req("series_integral", CV_SERIES_N), tol=DEFAULT_TOL)
        eo, _ = _sv_op("eigen_oracle", zeta_values.zeta_value, req("eigen_oracle", CV_EIGEN_N))
        ops += [op, ig, eo]
        if op.ok and ig.ok and eo.ok:
            label = f"{model} n={n} lam={lam:.6g}"
            gap = abs(op.values[0] - eo.values[0])
            _check(gap <= eo.abs_error, f"|op-eo|={gap:.3e} > eo.abs_error, {label}", op, eo)
            _check(eo.abs_error <= 1e-4, f"eo.abs_error {eo.abs_error:.3e}, {label}", eo)
            gap = abs(op.values[0] - ig.values[0])
            _check(gap < 1e-7, f"|op-ig|={gap:.3e}, {label}", op, ig)
    return ops


# ---------------------------------------------------------------------------
# building_blocks

FAMILIES = {
    "flat": (trace_terms.FLAT, (("fock", None, 1.0),)),
    "plus": (trace_terms.PLUS, (("bergman", 0.5, 1.0), ("bergman", 1.5, 1.0))),
    "minus": (trace_terms.MINUS, (("bergman", 0.5, 1.0), ("bergman", 1.5, -1.0))),
    "nu_half": (trace_terms.Nu(0.5), (("bergman", 0.5, 1.0),)),
    "nu_three_half": (trace_terms.Nu(1.5), (("bergman", 1.5, 1.0),)),
}
COMPONENTS = (("fock", None), ("bergman", 0.5), ("bergman", 1.5))


def building_blocks_inputs(rng) -> tuple:
    """A point inside criterion 5's box lam in [1, 1.5], g in [0.1, 0.3],
    eps in [0, 0.15], with g kept near the middle for a steady cost."""
    return rng.uniform(1.0, 1.5), rng.uniform(0.18, 0.22), rng.uniform(0.0, 0.15)


def _family_value(component_ops, parts):
    return sum(sign * component_ops[(basis, nu)].values[0] for basis, nu, sign in parts)


def building_blocks_round(point) -> list:
    lam, g, eps = point
    ops = []

    # R_1, R_2: operator route per component, integral and m=1 series per
    # family; criterion 5's tolerances.
    for m, size in ((1, BB_R1_N), (2, BB_R2_N)):
        comp = {}
        for basis, nu in COMPONENTS:
            comp[(basis, nu)], _ = _sv_op("r_m_operator", operator_oracle.r_m_operator,
                                          basis, g, lam, eps, m, N=size, nu=nu)
        ops += comp.values()
        for name, (family, parts) in FAMILIES.items():
            ig, _ = _sv_op("r_m_integral", trace_terms.r_m_integral, family, lam, g, eps, m)
            ops.append(ig)
            used = [comp[(b, nu)] for b, nu, _ in parts]
            if not (ig.ok and all(o.ok for o in used)):
                continue
            ref = _family_value(comp, parts)
            _check(abs(ig.values[0] - ref) < 1e-6, f"R_{m} {name} integral vs operator", ig, *used)
            if m == 1 and name in ("flat", "plus", "minus"):
                s, _ = _sv_op("r_1_series", trace_terms.r_1_series, family, lam, g, eps)
                ops.append(s)
                if s.ok:
                    _check(abs(s.values[0] - ref) < 1e-7, f"R_1 {name} series vs operator",
                           s, *used)

    # R_3 of the flat family by Monte Carlo, within six standard errors.
    mc, _ = _sv_op("r_m_integral", trace_terms.r_m_integral, trace_terms.FLAT, lam, g, eps, 3)
    op3, _ = _sv_op("r_m_operator", operator_oracle.r_m_operator, "fock", g, lam, eps, 3,
                    N=BB_R3_N)
    ops += [mc, op3]
    if mc.ok and op3.ok:
        gap = abs(mc.values[0] - op3.values[0])
        _check(gap <= 6 * mc.abs_error + op3.abs_error, f"R_3 Monte Carlo gap {gap:.3e}", mc, op3)

    # D_1 = d^n R_1 / d lam^n at n = 2, 3 for every family; criterion 6's
    # relative tolerance.
    for n in (2, 3):
        comp = {}
        for basis, nu in COMPONENTS:
            comp[(basis, nu)], _ = _sv_op("dn_r_m_operator", operator_oracle.dn_r_m_operator,
                                          basis, g, lam, eps, 1, n, N=BB_D_N, nu=nu)
        ops += comp.values()
        for name, (family, parts) in FAMILIES.items():
            ig, _ = _sv_op("dn_r_m_integral", trace_terms.dn_r_m_integral,
                           family, lam, g, eps, 1, n)
            ops.append(ig)
            used = [comp[(b, nu)] for b, nu, _ in parts]
            if ig.ok and all(o.ok for o in used):
                ref = _family_value(comp, parts)
                _check(abs(ig.values[0] - ref) < 1e-5 * max(abs(ref), 1.0),
                       f"D_1 n={n} {name} integral vs operator", ig, *used)

    # Exact Apery numbers near the cap and the Beukers residuals.
    op, ex = _timed("apery_classic", apery.apery_classic, APERY_N_MAX)
    ops.append(op)
    if ex is not None:
        op.values = [complex(len(ex.a_list))]
        _check(ex.a_list[:4] == (1, 3, 19, 147) and len(ex.a_list) == APERY_N_MAX + 1,
               "Apery anchors", op)
    for k in range(9):
        op, res = _timed("beukers_residual", apery.beukers_residual, k)
        ops.append(op)
        if res is not None:
            op.values = [complex(res)]
            _check(res < 1e-9, f"Beukers residual n={k}: {res:.3e}", op)
    return ops


def make_inputs(workload: str, rng):
    if workload == "zeta_default":
        return zeta_default_inputs(rng)
    if workload == "cross_validation":
        return cross_validation_inputs(rng)
    return building_blocks_inputs(rng)


def run_round(workload: str, inputs) -> list:
    if workload == "zeta_default":
        return zeta_default_round(inputs)
    if workload == "cross_validation":
        return cross_validation_round(inputs)
    return building_blocks_round(inputs)


def child_env(root: str) -> dict:
    """Environment for fresh library processes: the checkout's sources and
    the library's defaults (no RABI_ZETA_THREADS)."""
    env = dict(os.environ)
    env.pop("RABI_ZETA_THREADS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
