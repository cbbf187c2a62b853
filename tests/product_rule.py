"""The point-by-point tanh-sinh product rule over (0,1)^d, the tests'
reference for the split rules (quadrature.integrate_axes and
integrate_pairs)."""

import numpy as np

from rabi_zeta import quadrature


def product_rule(f, d: int, level: int):
    """The d-dimensional product rule (d >= 2) at the tanh-sinh level, one
    SeriesValue per row of f, with the split rules' two-level error estimate
    (quadrature._two_level).  f takes an (npts, d) point block and returns an
    (npts,) or (rows, npts) array; it is called once per first-axis node, on
    the grid of the other d - 1 axes, whose weighted sum is scaled by that
    node's weight.  A non-finite value raises NodeSingularity."""

    def level_sum(nodes, weights):
        rest = np.stack(np.meshgrid(*[nodes] * (d - 1), indexing="ij"), axis=-1).reshape(-1, d - 1)
        wrest = np.ones(1)
        for _ in range(d - 1):
            wrest = np.multiply.outer(wrest, weights).ravel()
        rows = []
        for node, weight in zip(nodes, weights):
            pts = np.column_stack([np.full(len(rest), node), rest])
            vals = quadrature._require_finite(np.asarray(f(pts)), "integrand")
            rows.append(weight * np.sum(wrest * vals, axis=-1))
        return np.sum(np.stack(rows, axis=-1), axis=-1)

    return quadrature._two_level(level_sum, d, level)
