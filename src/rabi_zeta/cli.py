"""Command-line front end.

Subcommands: zeta, trace-term, apery, beukers, confluence, validate.  One
JSON record per result on standard output (or CSV with --format csv); exit
codes: 0 success, 2 domain/precondition error, 3 non-convergence, 64 usage.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

from . import __version__, apery, trace_terms, zeta_values
from .errors import DomainError, NoConvergence, RabiZetaError
from .operator_oracle import BergmanNu, Ncho, OnePhoton, TwoPhoton, bar_floor_warning

_EXIT_OK = 0
_EXIT_DOMAIN = 2
_EXIT_NOCONV = 3
_EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit so run() can map
    usage problems to exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def _json(obj) -> str:
    """JSON text of a record: floats at 17 significant digits (non-finite
    ones as strings), complex values as {"re", "im"}, and any other object,
    such as a Fraction, as its string."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return "%.17g" % obj if math.isfinite(obj) else f'"{obj}"'
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, complex):
        return _json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        items = ", ".join(f"{_json(str(k))}: {_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    return _json(str(obj))


def _record(command, params, value, abs_error, method, truncations, runtime_ms, **extra):
    """One result record; the keyword arguments follow its common fields."""
    return {
        "command": command,
        "params": params,
        "value": complex(value),
        "abs_error": float(abs_error),
        "method": method,
        "truncations": truncations or {},
        "runtime_ms": int(round(runtime_ms)),
        "library_version": __version__,
        **extra,
    }


def _emit(records, fmt):
    if fmt == "json":
        for rec in records:
            sys.stdout.write(_json(rec) + "\n")
        return
    cols = ["command", "value_re", "value_im", "abs_error", "method", "runtime_ms", "params"]
    sys.stdout.write(",".join(cols) + "\n")
    for rec in records:
        params = ";".join(f"{k}={v}" for k, v in rec.get("params", {}).items())
        row = [
            rec["command"],
            "%.17g" % rec["value"].real,
            "%.17g" % rec["value"].imag,
            "%.17g" % rec["abs_error"],
            rec.get("method", ""),
            str(rec.get("runtime_ms", 0)),
            '"%s"' % params,
        ]
        sys.stdout.write(",".join(row) + "\n")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise _UsageError(f"complex values use RE or RE,IM syntax, got {text!r}")


def _parse_nu_list(text: str) -> list[float]:
    try:
        nus = [float(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not nus:
        raise argparse.ArgumentTypeError(f"expected at least one nu, got {text!r}")
    return nus


def _lam_str(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return "%.17g" % z.real
    return "%.17g,%.17g" % (z.real, z.imag)


def _build_model(args):
    name = args.model.lower()
    if name in ("1pqrm", "onephoton", "flat"):
        return OnePhoton(args.g, args.delta, args.eps)
    if name in ("2pqrm", "twophoton"):
        return TwoPhoton(args.g, args.delta, args.eps)
    if name in ("bergman", "nu"):
        if args.nu is None:
            raise _UsageError("--nu is required for the bergman model")
        return BergmanNu(args.nu, args.g, args.delta, args.eps)
    if name == "ncho":
        if args.alpha is None or args.beta is None or args.eta is None:
            raise _UsageError("--alpha, --beta, --eta are required for the ncho model")
        return Ncho(args.alpha, args.beta, args.eta)
    raise _UsageError(f"unknown model {args.model!r}")


def _add_param_flags(p):
    p.add_argument("--lambda", dest="lam", type=_parse_complex, default=1.0 + 0.0j)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)


# The trace families that --family names; "nu" builds Nu(--nu).
_TRACE_FAMILIES = {"flat": trace_terms.FLAT, "plus": trace_terms.PLUS, "minus": trace_terms.MINUS}


def _make_parser():
    top = _Parser(prog="rabi-zeta")
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--threads", type=int, default=1)
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("zeta")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_param_flags(p)
    p.add_argument("--method", default="series_operator",
                   choices=("series_integral", "series_operator", "eigen_oracle"))
    p.add_argument("--max-m", type=int, default=12)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--trunc-n", type=int, default=400,
                   help="largest operator truncation N: the series routes start at a coarser "
                        "one, at least 106, and double it only while abs_error exceeds --tol; "
                        "below 44 no error bar is calibrated and the result reads not converged; "
                        "the eigen oracle starts at the coarsest N/2^k that is at least 384 "
                        "(384 itself for a smaller N) and doubles while its truncation bar "
                        "exceeds --tol")
    p.add_argument("--parity-difference", action="store_true")
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("trace-term")
    p.add_argument("--family", required=True, choices=(*_TRACE_FAMILIES, "nu"))
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--deriv", type=int, default=0)
    p.add_argument("--route", default="integral", choices=("integral", "operator", "series"))
    p.add_argument("--trunc-n", type=int, default=400)
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_trace_term)

    p = sub.add_parser("apery")
    p.add_argument("--family", required=True, choices=("flat", "plus", "minus", "classic"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--exact", action="store_true")
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_apery)

    p = sub.add_parser("beukers")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(handler=_cmd_beukers)

    p = sub.add_parser("confluence")
    p.add_argument("--nu-list", type=_parse_nu_list, default="8,16,32,64")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--method", default="series_operator",
                   choices=("series_integral", "series_operator"))
    p.add_argument("--trunc-n", type=int, default=400)
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_confluence)

    p = sub.add_parser("validate")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=20260823)
    p.set_defaults(handler=_cmd_validate)
    return top


def _trace_family(args):
    if args.family in _TRACE_FAMILIES:
        return _TRACE_FAMILIES[args.family]
    if args.nu is None:
        raise _UsageError("--nu is required for the nu family")
    return trace_terms.Nu(args.nu)


def _cmd_zeta(args):
    model = _build_model(args)
    t0 = time.perf_counter()
    compute = zeta_values.parity_difference if args.parity_difference else (
        lambda *request, **options: zeta_values.zeta_value(
            zeta_values.ZetaRequest(*request, **options)
        )
    )
    res = compute(model, args.n, args.lam, method=args.method, max_m=args.max_m,
                  tol=args.tol, trunc_n=args.trunc_n)
    runtime = 1000.0 * (time.perf_counter() - t0)
    params = {"model": args.model, "n": args.n, "lambda": _lam_str(args.lam),
              "g": args.g, "delta": args.delta, "eps": args.eps}
    if args.nu is not None:
        params["nu"] = args.nu
    if args.model.lower() == "ncho":
        params.update({"alpha": args.alpha, "beta": args.beta, "eta": args.eta})
    md = res.metadata
    diagnostics = {"converged": md["converged"], "warnings": md.get("warnings", []),
                   "notes": md.get("notes", []), "m_used": md["m_used"],
                   "tail_bound": md["tail_bound"]}
    return [
        _record("zeta", params, res.value, res.abs_error, args.method,
                md.get("truncations"), runtime,
                per_m_terms=[complex(t) for t in res.per_m_terms],
                base_term=complex(res.base_term), diagnostics=diagnostics)
    ]


def _cmd_trace_term(args):
    family = _trace_family(args)
    t0 = time.perf_counter()
    if args.route == "series":
        if args.m != 1 or args.deriv != 0:
            raise _UsageError("the series route provides m=1, deriv=0 only")
        sv = trace_terms.r_1_series(family, args.lam, args.g, args.eps)
    elif args.route == "operator":
        sv = trace_terms.dn_r_m_family_operator(
            family, args.lam, args.g, args.eps, args.m, args.deriv, args.trunc_n
        )
    else:
        sv = trace_terms.dn_r_m_integral(family, args.lam, args.g, args.eps, args.m, args.deriv)
    runtime = 1000.0 * (time.perf_counter() - t0)
    params = {"family": args.family, "m": args.m, "deriv": args.deriv,
              "lambda": _lam_str(args.lam), "g": args.g, "eps": args.eps}
    if args.nu is not None:
        params["nu"] = args.nu
    floor = bar_floor_warning(args.trunc_n) if args.route == "operator" else None
    diagnostics = {"converged": sv.converged, "warnings": [floor] if floor else []}
    return [_record("trace-term", params, sv.value, sv.abs_error, args.route,
                    {"terms_used": sv.terms_used}, runtime, diagnostics=diagnostics)]


def _cmd_apery(args):
    t0 = time.perf_counter()
    if args.family == "classic":
        ex = apery.apery_classic(args.n_max)
        runtime = 1000.0 * (time.perf_counter() - t0)
        return [_record("apery", {"family": "classic", "n_max": args.n_max}, 0.0, 0.0,
                        "exact", {}, runtime, a_list=[str(a) for a in ex.a_list],
                        b_list=[str(b) for b in ex.b_list])]
    if args.n is None:
        raise _UsageError("--n is required for flat/plus/minus families")
    lam, eps = args.lam, args.eps
    if args.exact:
        if lam.imag:
            raise _UsageError("--exact needs a real --lambda")
        lam, eps = (Fraction(str(x)).limit_denominator(10**9) for x in (lam.real, eps))
    if args.family == "flat":
        co = apery.apery_ab_flat(args.n, lam, eps)
    else:
        delta = 1 if args.family == "plus" else -1
        co = apery.apery_ab_delta(args.n, delta, lam, eps)
    runtime = 1000.0 * (time.perf_counter() - t0)
    params = {"family": args.family, "n": args.n, "lambda": _lam_str(args.lam), "eps": args.eps}
    value = co.a
    if args.exact and abs(co.a) > sys.float_info.max:
        value = math.inf if co.a > 0 else -math.inf  # "a" keeps the exact value
    coefficient = str if args.exact else complex
    return [_record("apery", params, value, 0.0, "exact" if args.exact else "float", {},
                    runtime, a=coefficient(co.a), b=coefficient(co.b))]


def _cmd_beukers(args):
    if not 0 <= args.n_max <= apery.BEUKERS_N_MAX:
        raise DomainError(f"n_max must be in 0..{apery.BEUKERS_N_MAX}, got {args.n_max}")
    records = []
    for n in range(args.n_max + 1):
        t0 = time.perf_counter()
        res = apery.beukers_residual(n)
        runtime = 1000.0 * (time.perf_counter() - t0)
        records.append(_record("beukers", {"n": n}, res, 0.0, "series", {}, runtime))
    return records


def _cmd_confluence(args):
    t0 = time.perf_counter()
    rows = zeta_values.confluence_scan(
        args.g, args.delta, args.eps, args.lam, args.n, args.nu_list,
        method=args.method, trunc_n=args.trunc_n, threads=args.threads,
    )
    runtime = 1000.0 * (time.perf_counter() - t0) / max(len(rows), 1)
    records = []
    for nu, value, deviation in rows:
        params = {"nu": nu, "n": args.n, "lambda": _lam_str(args.lam),
                  "g": args.g, "delta": args.delta, "eps": args.eps}
        records.append(_record("confluence", params, value, deviation, args.method,
                               {"trunc_n": args.trunc_n}, runtime, deviation=deviation))
    return records


def _validate_checks(suite, seed):
    """(name, residual, tolerance) rows for the route-agreement suite."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    checks = []

    ex = apery.apery_classic(10)
    anchor = max(
        abs(ex.a_list[n] - v) for n, v in ((0, 1), (1, 3), (2, 19), (3, 147))
    )
    checks.append(("apery_classic_anchors", float(anchor), 0.0))
    checks.append(("beukers_residual_n4", apery.beukers_residual(4), 1e-9))

    lam = 1.5 + 0.6 * rng.random()
    eps = 0.1 + 0.2 * rng.random()
    j_s = apery.j_delta(6, 1, lam, eps, method="series")
    j_r = apery.j_delta(6, 1, lam, eps, method="recurrence")
    checks.append(("j_delta_series_vs_recurrence", abs(j_s.value - j_r.value), 1e-9))
    co = apery.apery_ab_flat(4, lam, eps)
    jf = apery.j_flat(4, lam, eps)
    checks.append(
        ("j_flat_vs_decomposition", abs(jf.value - apery.reconstruct_j_flat(co, lam, eps)), 1e-9)
    )

    fam_points = [(trace_terms.FLAT, 1.2, 0.2, 0.1), (trace_terms.MINUS, 1.0, 0.3, 0.15)]
    if suite == "full":
        fam_points += [
            (trace_terms.PLUS, 1.5, 0.3, 0.0),
            (trace_terms.Nu(0.5), 1.2, 0.25, 0.1),
            (trace_terms.Nu(1.5), 1.2, 0.25, 0.1),
        ]
    n_op = 400 if suite == "quick" else 1600
    for fam, lam0, g0, eps0 in fam_points:
        op = trace_terms.dn_r_m_family_operator(fam, lam0, g0, eps0, 1, N=n_op)
        ig = trace_terms.r_m_integral(fam, lam0, g0, eps0, 1)
        checks.append(
            (f"r1_integral_vs_operator_{type(fam).__name__}", abs(ig.value - op.value),
             max(1e-6, 3 * op.abs_error))
        )

    trunc = 400 if suite == "quick" else 1600
    model = OnePhoton(0.2, 0.3, 0.1)
    a = zeta_values.zeta_value(
        zeta_values.ZetaRequest(model, 2, 1.0, method="series_operator", trunc_n=trunc)
    )
    b = zeta_values.zeta_value(
        zeta_values.ZetaRequest(model, 2, 1.0, method="series_integral", trunc_n=trunc)
    )
    checks.append(("zeta_integral_vs_operator_1pqrm", abs(a.value - b.value), 1e-7))
    eo = zeta_values.zeta_value(
        zeta_values.ZetaRequest(model, 2, 1.0, method="eigen_oracle", trunc_n=trunc)
    )
    checks.append(
        ("zeta_series_vs_eigen_1pqrm", abs(a.value - eo.value), max(1e-5, eo.abs_error))
    )
    if suite == "full":
        two = TwoPhoton(0.2, 0.3, 0.1)
        tv = zeta_values.zeta_value(zeta_values.ZetaRequest(two, 2, 1.0, trunc_n=trunc))
        parts = sum(
            zeta_values.zeta_value(
                zeta_values.ZetaRequest(BergmanNu(nu, 0.2, 0.3, 0.1), 2, 1.0, trunc_n=trunc)
            ).value
            for nu in (0.5, 1.5)
        )
        checks.append(("twophoton_bergman_decomposition", abs(tv.value - parts), 1e-9))
        rows = zeta_values.confluence_scan(0.2, 0.1, 0.05, 1.5, 2, [8, 16, 32, 64])
        devs = [r[2] for r in rows]
        mono = 0.0 if all(x > y for x, y in zip(devs, devs[1:])) else 1.0
        checks.append(("confluence_deviation_monotone", mono, 0.5))
    return checks


def _cmd_validate(args):
    if args.seed < 0:
        raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    return [
        _record("validate", {"check": name, "suite": args.suite}, residual, 0.0, "suite", {},
                0.0, rng_seed=args.seed, tolerance=float(tolerance),
                passed=bool(residual <= tolerance))
        for name, residual, tolerance in _validate_checks(args.suite, args.seed)
    ]


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return _EXIT_USAGE
    try:
        records = args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return _EXIT_USAGE
    except NoConvergence as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return _EXIT_NOCONV
    except RabiZetaError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return _EXIT_DOMAIN
    _emit(records, args.format)
    # A validate record that failed its check makes the run a domain error.
    return _EXIT_OK if all(rec.get("passed", True) for rec in records) else _EXIT_DOMAIN


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
