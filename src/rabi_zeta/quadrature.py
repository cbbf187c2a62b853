"""Quadrature over the open unit cube (0,1)^d.

Deterministic tanh-sinh tensor-product rules over (0,1)^2 and (0,1)^4,
whose one setting is the level (an int up to _MAX_LEVEL), and at any d a
point rule with a statistical bar and no settings: a shifted rank-1 lattice
(integrate_lattice).  The lattice's integrands are vectorized: f receives an
(npts, d) float array and returns an (npts,) complex array, or a (rows,
npts) block of integrands that share the points: each row is reduced
exactly as a scalar integrand, into its own SeriesValue.  Both endpoint
families of singularity in scope (algebraic u^(Re lambda - 1) at 0 and the
inverse-square-root corner at (1,...,1)) are integrable, and tanh-sinh
nodes cluster exponentially near the endpoints without ever touching them.

integrate_axes and integrate_pairs are the 2-D and 4-D tensor rules, for
integrands that split between two halves of the coordinates, the axes u and
v, or two axis pairs a and b: a real symmetric kernel K between the two
halves' points, contracted with the sides on both of them block by block
(_upper_gram), so the full grid is never held in memory.  The caller gives
per-point factor rows, computed once per level, and a kernel that writes
each block from slices of them into scratch arrays that _upper_gram
allocates once per pass and reuses for every block.  The kernel must satisfy
K(a, b) == K(b, a): each unordered block pair is evaluated once, and the
blocks below the diagonal are the transposes of those above it.  The pair
rule also needs the kernel and the sides invariant under the swap s: (x, y)
-> (y, x) inside a pair, so it is the axis rule lifted to the n (n + 1) / 2
pair points with x <= y, whose weights count their swaps.
"""

from __future__ import annotations

import math
import numpy as np
from scipy.linalg.blas import dgemm

from .errors import DomainError, NodeSingularity
from .specfun import SeriesValue, require_integer

#: Left grid rows per kernel block in _upper_gram (integrate_pairs and
#: integrate_axes).  At the default m = 2 rule (51 nodes per axis, 1326 pair
#: points with x <= y) each of the block's scratch arrays is at most
#: 64 x 1326 doubles, 0.7 MB; no array grows with the full grid.  On a
#: 2-core Xeon an m = 2 integral (lam = 1.2, g = 0.45, order 0; medians of 7
#: alternated runs, three passes) took, over Flat, Plus, Minus and Nu(0.7),
#: 9.9-11.6, 6.6-7.2, 6.5-7.8 and 12.7-12.8 ms with 64-row blocks,
#: 10.4-11.1, 6.9-7.5, 7.2-7.3 and 11.9-12.6 ms with 32, and 12.7-15.0,
#: 8.3-9.7, 8.4-9.5 and 15.3-16.5 ms with 128.  No size wins on all four,
#: and the block size also groups the matrix product sums, so other sizes
#: move the values in their last bits: 64 stays.  The m = 1 axis rule (203
#: nodes at level 7) takes four blocks per level.
_PAIR_BLOCK = 64

#: Scratch arrays per kernel block in _upper_gram: the block and two work
#: arrays for the kernel's intermediates.
_PAIR_BUFFERS = 3

#: Integrand points per call in integrate_lattice, per shifted copy of the
#: lattice.  On a 2-core Xeon the m = 3 integrand took 14-16 ms per 2^17
#: points in calls of 2^12 points against 20-30 ms in one call (Flat, Plus,
#: Nu(0.7)); at 2^12 each complex temporary of an integrand (64 KB) fits
#: the 2 MB L2 cache.  The sums do not depend on this size.
_POINT_BLOCK = 1 << 12

#: The lattice rule's points per shift, a prime: the rank-1 lattice {k z / n
#: mod 1 : k = 0 .. n - 1} with the Korobov vector z = (1, a, a^2, ...) mod n.
_LATTICE_POINTS = 8191

#: The Korobov generator a.  Its P_2 criterion for d = 6 with unit product
#: weights, -1 + (1/n) sum_k prod_j (1 + 2 pi^2 B_2({k z_j / n})), is 0.354,
#: the least over all generators 1 .. n - 1 (tied with 1425, 2236 and
#: 5955); at d = 2 it is 3.7e-5 and at d = 4 0.023.
_LATTICE_GENERATOR = 6766

#: Independent random shifts of the lattice, drawn from Philox seeded with
#: _LATTICE_SEED; the spread of their means is the rule's bar.  8191 x 16 =
#: 131,056 points, a third of the 400,000 Monte Carlo draws that this rule
#: replaced: on the value grid's 64 m = 3 trace-term rows (g = 0.2, orders
#: 0-3) the error stayed within 1.48 standard errors of the shift means,
#: 0.70 of the bar, against the operator route at N = 1600 for this seed.
_LATTICE_SHIFTS = 16

#: The Philox seed of the lattice shifts, so every call draws the same ones.
_LATTICE_SEED = 20260823

#: The Student-t factor for _LATTICE_SHIFTS - 1 = 15 degrees of freedom at
#: 97.5%, written out: importing scipy.stats costs 0.55-0.84 s.
_LATTICE_T = 2.131

#: The finest tanh-sinh level.  Node counts double per level: level 7 has
#: 203 nodes per axis and level 10 has 1617.
_MAX_LEVEL = 10


def tanh_sinh_nodes(level: int):
    """tanh-sinh nodes/weights on (0,1) at the given level (h = 2^(2-level)),
    an int from 1 to _MAX_LEVEL, else DomainError."""
    require_integer("level", level, 1, _MAX_LEVEL)
    # Step h = 2^(2-level); nodes x_k = (1 + tanh((pi/2) sinh(k h)))/2,
    # generated symmetrically until the distance to the nearer endpoint
    # underflows below 1e-16, so nodes never touch 0 or 1.
    h = 2.0 ** (2 - level)
    nodes = [0.5]
    weights = [h * math.pi / 4.0]
    k = 1
    while True:
        t = math.pi / 2.0 * math.sinh(k * h)
        # Distance of the node to the nearer endpoint, computed stably.
        e = math.exp(-2.0 * t)
        small = e / (1.0 + e)
        if small < 1e-16:
            break
        w = h * (math.pi / 2.0) * math.cosh(k * h) / math.cosh(t) ** 2 / 2.0
        nodes.extend((small, 1.0 - small))
        weights.extend((w, w))
        k += 1
    order = np.argsort(np.asarray(nodes))
    return np.asarray(nodes)[order], np.asarray(weights)[order]


def _require_finite(values, what: str, where: str = "an interior node"):
    """values, unless some entry is not finite: NodeSingularity."""
    if not np.all(np.isfinite(values)):
        raise NodeSingularity(f"{what} returned a non-finite value at {where}")
    return values


def _per_row(row, *reductions):
    """row(...) of 0-d reductions, else a tuple with row applied to each row."""
    return row(*reductions) if reductions[0].ndim == 0 else tuple(map(row, *reductions))


def _two_level(level_sum, d: int, level: int):
    """SeriesValue(s) of level_sum(nodes, weights), the d-dimensional tensor
    sums at the tanh-sinh level, with abs_error |fine - coarse| + 1e-16
    |fine|, coarse the sums at the level below (level 1 has none:
    abs_error |fine|).  A bad level raises before level_sum runs."""
    nodes, weights = tanh_sinh_nodes(level)
    fine = np.asarray(level_sum(nodes, weights))
    coarse = np.asarray(level_sum(*tanh_sinh_nodes(level - 1))) if level > 1 else 0 * fine

    def row(fine, coarse):
        fine = complex(fine)
        err = abs(fine - complex(coarse))
        return SeriesValue(fine, err + 1e-16 * abs(fine), nodes.size**d, True)

    return _per_row(row, fine, coarse)


def _upper_gram(kernel, rows, z: np.ndarray) -> np.ndarray:
    """z K z^T for the symmetric K[r, s] = kernel(rows[:, r], rows[:, s])
    between the points of z's columns.

    Row block I of K is written from its own start on, K(I, I.start:),
    _PAIR_BLOCK rows at a time, into _PAIR_BUFFERS column-major scratch
    arrays allocated once: its diagonal part D and its strictly upper part
    U.  With P the parts [Re z; Im z]^T, U P is one product and (D + U) P
    = D P + U P adds to it, so z K z^T = z (D + U) P + (z U P)^T, and no
    block below the diagonal is evaluated.  The products run on scipy's
    BLAS, the one the operator routes' solves load, and read D and U in
    place.  A diagonal block that is not its own transpose to 1e-12
    relative raises DomainError.
    """
    nz, npts = z.shape
    # The kernel is real: one real product against [Re z; Im z].
    parts = np.concatenate([z.real, z.imag]).T
    total = np.zeros((nz, nz), dtype=complex)
    upper = np.zeros((nz, nz), dtype=complex)
    scratch = np.empty((_PAIR_BUFFERS, min(_PAIR_BLOCK, npts) * npts))
    for start in range(0, npts, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, npts)
        width, cols = stop - start, npts - start
        out = tuple(buf[: width * cols].reshape(cols, width).T for buf in scratch)
        kernel(rows[:, start:stop], rows[:, start:], out)
        k = _require_finite(out[0], "kernel")
        diag = k[:, :width]
        if not np.all(np.abs(diag - diag.T) <= 1e-12 * np.abs(diag)):
            raise DomainError("the kernel must satisfy kernel(a, b) == kernel(b, a).T")
        kl = dgemm(1.0, k[:, width:], parts[stop:].T, trans_b=1)
        kr = dgemm(1.0, diag, parts[start:stop].T, 1.0, kl, trans_b=1)
        total += z[:, start:stop] @ (kr[:, :nz] + 1j * kr[:, nz:])
        upper += z[:, start:stop] @ (kl[:, :nz] + 1j * kl[:, nz:])
    return total + upper.T


def _gram_level(factors, kernel, sides, points, q, what: str):
    """The level sum of integrate_axes and integrate_pairs: G = Z K Z^T, Z =
    sides(points) q, with K between the columns of points from their factor
    rows, one _upper_gram.  Returns G, the unweighted sides and the rows."""
    z = _require_finite(sides(points), what)
    rows = _require_finite(factors(points), "factors")
    return _upper_gram(kernel, rows, z * q), z, rows


def integrate_axes(factors, kernel, sides, combine, level: int):
    """Tensor-product integral over (0,1)^2 of an integrand that splits
    between its axes u and v:

        rows of  combine(G),  G[i, j] = int int z_i(u) K(u, v) z_j(v) du dv.

    factors(u) returns the per-node factor rows F, an (nf, n) array, once per
    level.  kernel(fa, fb, out) writes the real kernel K between the nodes
    of two column slices of F into out[0], as in integrate_pairs; K must be
    symmetric, the block of (fb, fa) the transpose of the block of (fa, fb),
    and each unordered pair of kernel blocks is evaluated once, so a
    diagonal block that is not its own transpose to 1e-12 relative raises
    DomainError.  sides(u) returns the (rows, n) vectors z_i at the nodes,
    and G holds every pair of them: an integrand V(u) K(u, v) W(v) stacks
    both sides, z = [V; W], and reads the block G[V, W].  combine maps G to
    a 0-d or (rows,) array of integrals, one SeriesValue per row at the
    tanh-sinh level, with a two-level error estimate (level vs level - 1,
    _two_level).
    """

    def level_sum(nodes, weights):
        return combine(_gram_level(factors, kernel, sides, nodes, weights, "axis side")[0])

    return _two_level(level_sum, 2, level)


def _kernel_block(kernel, fa, fb) -> np.ndarray:
    """The kernel's block between two column slices of factor rows, written
    into fresh scratch arrays."""
    out = np.empty((_PAIR_BUFFERS, fa.shape[1], fb.shape[1]))
    kernel(fa, fb, out)
    return _require_finite(out[0], "kernel")


def _require_swap_invariant(factors, kernel, sides, pts, z, rows) -> None:
    """DomainError unless the sides at the swapped pair points sides(s pts),
    s: (x, y) -> (y, x), and the kernel K(sa, b) on the first and last
    _PAIR_BLOCK points (the diagonal blocks that hold both endpoint clusters)
    match the values at pts to 1e-12 relative; below the smallest normal
    double, where no relative precision is left, they need only agree to it."""

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + np.finfo(float).tiny)

    swapped = pts[::-1]
    if not close(sides(swapped), z):
        raise DomainError(
            "integrate_pairs needs sides invariant under the swap (x, y) -> (y, x) inside a pair"
        )
    npts = pts.shape[1]
    for cols in (slice(0, _PAIR_BLOCK), slice(max(npts - _PAIR_BLOCK, 0), npts)):
        right = rows[:, cols]
        left = _require_finite(factors(swapped[:, cols]), "factors")
        if not close(_kernel_block(kernel, left, right), _kernel_block(kernel, right, right)):
            raise DomainError(
                "integrate_pairs needs a kernel invariant under the swap (x, y) -> (y, x) "
                "inside a pair"
            )


def integrate_pairs(factors, kernel, sides, combine, level: int):
    """Tensor-product integral over (0,1)^4 of an integrand that splits
    between two axis pairs a and b:

        rows of  combine(G),  G[i, j] = int z_i(a) K(a, b) z_j(b) da db,

    for an integrand invariant under the swap s: (x, y) -> (y, x) inside each
    pair.  It is integrate_axes lifted to pair points: one _upper_gram over
    the representatives x <= y of the 1-D rule's pair grid, each weighted by
    the product of its nodes' weights, doubled off the diagonal x = y for
    its swap.  Pair points arrive as (2, npts) rows (x, y).  factors(pts)
    returns the per-point factor rows F, an (nf, npts) array, once per
    level.  kernel(fa, fb, out) writes the real kernel K between the points
    of two column slices fa and fb of factor rows into out[0], and may use
    out[1:] as scratch: out holds _PAIR_BUFFERS caller-owned (|I|, |J|)
    float arrays, column-major in the rule, whose contents on entry are
    undefined (they alias the previous block's).  K must be symmetric, the
    block of (fb, fa) the transpose of the block of (fa, fb), and K(sa, b)
    == K(a, b); sides(pts) returns the (rows, npts) vectors z_i at pair
    points, with sides(s pts) == sides(pts), and G holds every pair of them,
    as in integrate_axes.  A diagonal block that is not its own transpose
    to 1e-12 relative raises DomainError, and so do sides that change under
    s or a kernel that does on the first and last blocks of points
    (_require_swap_invariant).  combine maps G to a 0-d or (rows,) array of
    integrals.  Same nodes, levels and error estimate as integrate_axes.
    """

    def level_sum(nodes, weights):
        first, second = np.triu_indices(nodes.size)
        pts = np.stack([nodes[first], nodes[second]])
        q = weights[first] * weights[second]
        q[first != second] *= 2.0
        gram, z, rows = _gram_level(factors, kernel, sides, pts, q, "pair side")
        _require_swap_invariant(factors, kernel, sides, pts, z, rows)
        return combine(gram)

    return _two_level(level_sum, 4, level)


def _point_values(f, pts: np.ndarray, where: str) -> np.ndarray:
    """f at the rows of pts as one complex array, f called on _POINT_BLOCK
    points at a time; a non-finite value raises NodeSingularity."""
    vals = np.concatenate(
        [np.asarray(f(pts[i : i + _POINT_BLOCK]), dtype=complex)
         for i in range(0, len(pts), _POINT_BLOCK)],
        axis=-1,
    )
    return _require_finite(vals, "integrand", where)


def integrate_lattice(f, d: int):
    """Randomly shifted rank-1 lattice rule over (0,1)^d, one SeriesValue per
    integrand row.  The _LATTICE_POINTS-point Korobov lattice with generator
    _LATTICE_GENERATOR is shifted _LATTICE_SHIFTS times by Philox draws from
    _LATTICE_SEED, x -> {x + shift}, and each coordinate is folded by the
    tent transform x -> 1 - |2x - 1|.  The value is the mean of the shift
    means, and abs_error is _LATTICE_T times their standard error: a
    statistical bar, not a bound.  Deterministic, since the seed is fixed; f
    is called on _POINT_BLOCK points of a shifted lattice at a time."""
    require_integer("d", d, 1)
    n, shifts = _LATTICE_POINTS, _LATTICE_SHIFTS
    z = np.array([pow(_LATTICE_GENERATOR, j, n) for j in range(d)])
    lattice = np.outer(np.arange(n), z) % n / n
    means = []
    for shift in np.random.Generator(np.random.Philox(_LATTICE_SEED)).random((shifts, d)):
        # The tent of the fractional part, 1 - |2 {x} - 1| = 2 |x - rint(x)|:
        # each step is exact for x in [0, 2), and it takes a tenth of the
        # time of np.remainder.
        pts = lattice + shift
        pts -= np.rint(pts)
        np.abs(pts, out=pts)
        pts *= 2.0
        means.append(np.sum(_point_values(f, pts, "a lattice point"), axis=-1) / n)
    means = np.stack(means, axis=-1)
    bars = _LATTICE_T / math.sqrt(shifts) * np.std(means, axis=-1, ddof=1)

    def row(mean, bar):
        return SeriesValue(complex(mean), float(bar), n * shifts, True)

    return _per_row(row, np.mean(means, axis=-1), bars)
