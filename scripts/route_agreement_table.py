#!/usr/bin/env python3
"""Print a three-route agreement table for the trace terms R_1, R_2 and R_3.

For each family and grid point the integral, operator, and (m = 1) series
routes are evaluated and their deviations from the operator reported,
beside the integral's bar: the two-level bar of the tanh-sinh rules at
m <= 2 and the statistical bar of the shifted lattice at m = 3.  These are
the m that the integral route computes itself; it hands m >= 4 to the
operator.
"""

import argparse

from rabi_zeta.trace_terms import (
    FLAT,
    MINUS,
    PLUS,
    Nu,
    dn_r_m_family_operator,
    r_1_series,
    r_m_integral,
)

FAMILIES = {
    "flat": FLAT,
    "plus": PLUS,
    "minus": MINUS,
    "nu=1/2": Nu(0.5),
    "nu=3/2": Nu(1.5),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, nargs="+", default=[1.0, 1.5])
    ap.add_argument("--g", type=float, nargs="+", default=[0.1, 0.3])
    ap.add_argument("--eps", type=float, nargs="+", default=[0.0, 0.15])
    ap.add_argument("--trunc-n", type=int, default=800)
    args = ap.parse_args()

    header = f"{'family':8} {'m':>2} {'lam':>5} {'g':>5} {'eps':>5} " \
             f"{'operator':>22} {'|int-op|':>10} {'int bar':>10} {'|ser-op|':>10}"
    print(header)
    print("-" * len(header))
    for lam in args.lam:
        for g in args.g:
            for eps in args.eps:
                for name, family in FAMILIES.items():
                    for m in (1, 2, 3):
                        op = dn_r_m_family_operator(family, lam, g, eps, m, 0, args.trunc_n).value
                        ig = r_m_integral(family, lam, g, eps, m)
                        if m == 1 and name in ("flat", "plus", "minus"):
                            ser = r_1_series(family, lam, g, eps).value
                            ser_dev = f"{abs(ser - op):10.2e}"
                        else:
                            ser_dev = f"{'-':>10}"
                        print(
                            f"{name:8} {m:>2} {lam:5.2f} {g:5.2f} {eps:5.2f} "
                            f"{op.real:22.15f} {abs(ig.value - op):10.2e} "
                            f"{ig.abs_error:10.2e} {ser_dev}"
                        )


if __name__ == "__main__":
    main()
