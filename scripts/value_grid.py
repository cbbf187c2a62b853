#!/usr/bin/env python3
"""Write a grid of the library's values, or compare two such grids.

    python scripts/value_grid.py --out grid.jsonl [--small]
    python scripts/value_grid.py --compare A.jsonl B.jsonl

Each line of a grid is one entry: its id and either the repr of every field
of its result (a ZetaResult's value, abs_error, per_m_terms, base_term and
metadata without runtime_ms; a SeriesValue's value, abs_error, terms_used
and converged; an EigenValue's also its bar and tops; a Digest's sha256) or
the name of the exception it raised.  The entries are zeta values of the
four models by the three routes (lambda real, complex, negative and between
poles; n = 2 and 3; trunc_n 100, 400 and 1200), the eigen route at n = 4
(lambda real and complex), parity differences, the eigen oracle at points
where its probe period widens, dn_r_m_operator and dn_r_m_family_operator
for every family at m <= 3 and orders 0-3, at points where the sweep's probe
period stays, where it widens and near poles, dn_r_m_integral for every
family at m <= 3 and orders 0-3 (m = 2 also at g = 0.45 and 1.0) and at
m = 4, which the integral route refuses, every route of the Psi families at
huge couplings (g = 100 and 150, where values stand; g = 200, where the
m = 1 kernel overflows; g = 400, where cosh 2g does), j_flat by series and
by quadrature and j_delta by series and by recurrence at n = 0-3, and a
sha256 digest of apery_classic(130).  --small keeps trunc_n
100, one lambda of each kind per model (the real one at n = 4), m <= 2 on
the operator routes and m = 1 on the integral route, plus one m = 3
integral.

--compare prints, per field, how many of the shared entries differ and the
worst difference, relative to the first grid's value and as a fraction of
its abs_error, and lists every entry whose exception type changed or that
only one grid holds.  Like diff, it exits 1 when it finds any of these and
0 when the grids agree.  It needs only the standard library, so it also runs
as `python -S -I scripts/value_grid.py --compare A B`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import pathlib
import sys
import time

METHODS = ("series_operator", "series_integral", "eigen_oracle")
# Sweep points (basis, nu, g, lam): the first two keep 64 probe columns, the
# last three widen them.  The last two lie near poles, where the sweep rows'
# rounding error exceeds their bars (ROADMAP, Open FOUNDs).
SWEEP_POINTS = [
    ("fock", None, 0.2, 0.9),
    ("bergman", 0.5, 0.2, 0.9 + 0.3j),
    ("bergman", 1.5, 1.0, 1.2),
    ("bergman", 0.5, 0.6, -4.3 + 0.2j),
    ("bergman", 2.5, 0.6, -4.3),
]
EPS = 0.1
APERY_N_MAX = 130
# Couplings of the Psi families: values stand at 100 and 150; the m = 1
# kernel's Psi_1 - 2 overflows at 200 (from about 159 on; its rows do from
# about 177.5 on) and cosh 2g itself at 400 (from 355.2 on).
HUGE_COUPLINGS = (100.0, 150.0, 200.0, 400.0)


@dataclasses.dataclass(frozen=True)
class Digest:
    """The sha256 of an exact result's repr, for results too long to list."""

    sha256: str


def entries(small: bool) -> list:
    """[(id, thunk)] of the grid, in a fixed order.  Only --out imports the
    library, from this checkout's src/ ahead of any installed copy:
    --compare reads two grids with the standard library alone."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    from rabi_zeta.apery import apery_classic, j_delta, j_flat
    from rabi_zeta.operator_oracle import (
        BergmanNu,
        Ncho,
        OnePhoton,
        TwoPhoton,
        dn_r_m_operator,
        zeta_eigen_oracle,
    )
    from rabi_zeta.trace_terms import (
        FLAT,
        MINUS,
        PLUS,
        Nu,
        dn_r_m_family_operator,
        dn_r_m_integral,
        r_1_hypergeometric,
        r_1_series,
    )
    from rabi_zeta.zeta_values import ZetaRequest, parity_difference, zeta_value

    # Per model: lambda real, complex, negative before the first pole of the
    # free spectrum (where the model has one) and between two poles.
    models = [
        (OnePhoton(0.2, 0.05, 0.1), [1.0, 1.0 + 0.5j, -2.5]),
        (TwoPhoton(0.2, 0.05, 0.1), [1.0, 1.0 + 0.5j, -0.3, -2.0]),
        (BergmanNu(0.7, 0.2, 0.05, 0.1), [1.0, 1.0 + 0.5j, -0.5, -1.7]),
        (Ncho(2.0, 1.2, 0.1), [0.8, 0.8 + 0.2j, -0.2, -1.0]),
    ]
    # The eigen oracle's probe period widens to 256 and 512 here.
    eigen_widening = [(TwoPhoton(0.45, 0.3, 0.1), 1.0), (Ncho(1.2, 1.0, 0.1), 0.8)]
    families = [FLAT, PLUS, MINUS, Nu(0.7)]
    # The m = 2 integral at strong coupling, where Psi's pair rows cancel most.
    m2_couplings = (0.45, 1.0)
    out = []
    truncations = (100,) if small else (100, 400, 1200)
    for model, lams in models:
        for lam in lams[:3] if small else lams:
            for n in (2, 3):
                for N in truncations:
                    for method in METHODS:
                        req = ZetaRequest(model, n, lam, method=method, trunc_n=N)
                        out.append((f"zeta {method} {model} n={n} lam={lam!r} N={N}",
                                    lambda req=req: zeta_value(req)))
        for lam in lams[:1] if small else lams[:2]:
            for N in truncations:
                req = ZetaRequest(model, 4, lam, method="eigen_oracle", trunc_n=N)
                out.append((f"zeta eigen_oracle {model} n=4 lam={lam!r} N={N}",
                            lambda req=req: zeta_value(req)))
        if isinstance(model, (TwoPhoton, Ncho)):
            for lam in lams[:2]:
                for method in METHODS[:2]:
                    out.append((f"parity {method} {model} n=2 lam={lam!r} N=400",
                                lambda a=(model, 2, lam, method): parity_difference(*a)))
    for model, lam in eigen_widening[:1] if small else eigen_widening:
        for N in truncations:
            out.append((f"eigen {model} n=2 lam={lam!r} N={N}",
                        lambda a=(model, 2, lam, N): zeta_eigen_oracle(*a)))
    m_last, N = (2, 100) if small else (3, 400)
    for basis, nu, g, lam in SWEEP_POINTS:
        for m in range(1, m_last + 1):
            for k in range(4):
                args = (basis, g, lam, EPS, m, k, N, nu)
                out.append((f"dn_r_m_operator {basis} nu={nu} g={g} lam={lam!r} m={m} n={k} N={N}",
                            lambda args=args: dn_r_m_operator(*args)))
    for family in families:
        for lam in (0.9, 0.9 + 0.3j):
            for m in range(1, m_last + 1):
                for k in range(4):
                    args = (family, lam, 0.2, EPS, m, k, N)
                    out.append((f"dn_r_m_family_operator {family} lam={lam!r} m={m} n={k} N={N}",
                                lambda args=args: dn_r_m_family_operator(*args)))
    for family in families:
        for lam in (0.9, 0.9 + 0.3j) if small else (0.9, 0.9 + 0.3j, 1.2, 1.2 + 0.3j):
            for m in range(1, 2 if small else 4):
                for k in range(4):
                    args = (family, lam, 0.2, EPS, m, k)
                    out.append((f"dn_r_m_integral {family} lam={lam!r} m={m} n={k}",
                                lambda args=args: dn_r_m_integral(*args)))
    if small:
        out.append(("dn_r_m_integral Nu(nu=0.7) lam=0.9 m=3 n=1",
                    lambda: dn_r_m_integral(Nu(0.7), 0.9, 0.2, EPS, 3, 1)))
    else:
        # The integral route stops at m = 3: m = 4 is refused.
        for family in families:
            for lam in (0.9, 0.9 + 0.3j):
                args = (family, lam, 0.2, EPS, 4, 0)
                out.append((f"dn_r_m_integral {family} lam={lam!r} m=4 n=0",
                            lambda args=args: dn_r_m_integral(*args)))
        for g in m2_couplings:
            for family in families:
                for lam in (0.9, 0.9 + 0.3j):
                    for k in range(4):
                        args = (family, lam, g, EPS, 2, k)
                        out.append((f"dn_r_m_integral {family} lam={lam!r} m=2 n={k} g={g}",
                                    lambda args=args: dn_r_m_integral(*args)))
        for g in HUGE_COUPLINGS:
            for family in families[1:]:
                for m in (1, 2):
                    for k in (0, 2):
                        args = (family, 1.2, g, EPS, m, k)
                        out.append((f"dn_r_m_integral {family} lam=1.2 m={m} n={k} g={g}",
                                    lambda args=args: dn_r_m_integral(*args)))
                args = (family, 1.2, g, EPS, 1, 0)
                out.append((f"dn_r_m_family_operator {family} lam=1.2 m=1 n=0 g={g}",
                            lambda args=args: dn_r_m_family_operator(*args)))
            for family in families[1:3]:
                out.append((f"r_1_series {family} lam=1.2 g={g}",
                            lambda a=(family, 1.2, g, EPS): r_1_series(*a)))
            for delta in (1, -1):
                out.append((f"r_1_hypergeometric delta={delta} lam=1.2 g={g}",
                            lambda a=(delta, 1.2, g, EPS): r_1_hypergeometric(*a)))
            for method in METHODS:
                req = ZetaRequest(TwoPhoton(g, 0.01, EPS), 2, 1.0, method=method)
                out.append((f"zeta {method} TwoPhoton g={g} n=2 lam=1.0",
                            lambda req=req: zeta_value(req)))
        for lam in (0.9, 0.9 + 0.3j):
            for k in range(4):
                for method in ("series", "quadrature"):
                    out.append((f"j_flat {method} n={k} lam={lam!r}",
                                lambda a=(k, lam, EPS, method): j_flat(*a)))
                for delta in (1, -1):
                    for method in ("series", "recurrence"):
                        out.append((f"j_delta {method} delta={delta} n={k} lam={lam!r}",
                                    lambda a=(k, delta, lam, EPS, method): j_delta(*a)))
        out.append((f"apery_classic n_max={APERY_N_MAX}",
                     lambda: Digest(hashlib.sha256(repr(apery_classic(APERY_N_MAX)).encode())
                                    .hexdigest())))
    return out


def _plain(x):
    """x with every number as its repr, for JSON."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (bool, str)) or x is None:
        return x
    if hasattr(x, "item"):  # a numpy scalar, written as the number it holds
        x = x.item()
    return repr(x)


def record(key: str, thunk) -> dict:
    try:
        result = thunk()
    except Exception as exc:  # every exception type is part of the record
        return {"id": key, "error": type(exc).__name__}
    rec = {"id": key}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "metadata":
            value = {k: v for k, v in value.items() if k != "runtime_ms"}
        rec[f.name] = _plain(value)
    return rec


def write(path: str, small: bool) -> int:
    t0 = time.perf_counter()
    grid = entries(small)
    errors = 0
    with open(path, "w") as fh:
        for key, thunk in grid:
            rec = record(key, thunk)
            errors += "error" in rec
            fh.write(json.dumps(rec) + "\n")
    print(f"{len(grid)} entries ({errors} raised) in {time.perf_counter() - t0:.1f} s -> {path}")
    return 0


def _numbers(x) -> list | None:
    """The complex numbers of a repr'd number or list of them, else None."""
    try:
        return [complex(v) for v in x] if isinstance(x, list) else [complex(x)]
    except (TypeError, ValueError):
        return None


def compare(path_a: str, path_b: str) -> int:
    grids = []
    for path in (path_a, path_b):
        with open(path) as fh:
            grids.append({rec["id"]: rec for rec in map(json.loads, fh)})
    a, b = grids
    shared = [key for key in a if key in b]
    changed = [key for key in shared if a[key].get("error") != b[key].get("error")]
    # field -> [differing entries, (worst relative, id), (worst / abs_error, id)]
    stats = {}
    for key in shared:
        ra, rb = a[key], b[key]
        if "error" in ra or "error" in rb:
            continue
        bar = float(ra.get("abs_error", "inf"))  # a Digest has no bar
        for name in ra.keys() | rb.keys():
            if ra.get(name) == rb.get(name):
                continue
            st = stats.setdefault(name, [0, (-1.0, ""), (-1.0, "")])
            st[0] += 1
            xa, xb = _numbers(ra.get(name)), _numbers(rb.get(name))
            if xa is None or xb is None or len(xa) != len(xb):
                continue
            diff = max(abs(u - v) for u, v in zip(xa, xb))
            scale = max(abs(u) for u in xa)
            st[1] = max(st[1], (diff / scale if scale else math.inf, key))
            st[2] = max(st[2], (diff / bar if bar else math.inf, key))
    print(f"{len(shared)} shared entries; {len(a) - len(shared)} only in {path_a}, "
          f"{len(b) - len(shared)} only in {path_b}")
    for name in sorted(stats):
        count, (rel, rel_key), (frac, frac_key) = stats[name]
        line = f"{name}: {count} differ"
        if rel_key:
            line += (f"; worst relative {rel:.3e} ({rel_key});"
                     f" worst / abs_error {frac:.3e} ({frac_key})")
        print(line)
    if not stats:
        print("no field differs")
    for key in changed:
        print(f"exception changed: {key}: {a[key].get('error')} -> {b[key].get('error')}")
    only = [k for k in a if k not in b] + [k for k in b if k not in a]
    for key in only:
        print(f"only in one grid: {key}")
    return 1 if stats or changed or only else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE",
                      help="write the grid to FILE, one JSON line per entry")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two written grids")
    ap.add_argument("--small", action="store_true", help="the reduced grid")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return write(args.out, args.small)


if __name__ == "__main__":
    sys.exit(main())
