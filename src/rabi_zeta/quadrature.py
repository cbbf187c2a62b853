"""Quadrature over the open unit cube (0,1)^d.

Deterministic tensor-product rules (Gauss-Legendre, tanh-sinh) for d <= 4 and
a counter-based Monte Carlo fallback for higher dimensions.  Integrands are
vectorized: f receives an (npts, d) float array and returns an (npts,)
complex array, or a (rows, npts) block of integrands that share the nodes:
each row is reduced exactly as a scalar integrand, into its own SeriesValue.
Both endpoint families of singularity in scope (algebraic
u^(Re lambda - 1) at 0 and the inverse-square-root corner at (1,...,1)) are
integrable, and tanh-sinh nodes cluster exponentially near the endpoints
without ever touching them.

integrate_axes and integrate_pairs are the same 2-D and 4-D tensor rules for
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
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import DomainError, NodeSingularity
from .specfun import SeriesValue

_CHUNK = 1 << 17

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

#: Integrand points per call in _tensor_sum, rounded down to whole
#: first-axis rows of the tensor grid (at least one), and in
#: integrate_monte_carlo, which draws _CHUNK points at a time.  On a 2-core
#: Xeon the m = 3 integrand took 14-16 ms per _CHUNK in calls of 2^12 points
#: against 20-30 ms in one call (Flat, Plus, Nu(0.7)); at 2^12 each complex
#: temporary of an integrand (64 KB) fits the 2 MB L2 cache.  The trace
#: terms' tensor rules (m <= 2) run on integrate_axes and integrate_pairs,
#: so _tensor_sum serves apery's J_n quadrature and the point-rule
#: references of the tests.  The sums do not depend on this size.
_TENSOR_BLOCK = 1 << 12


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme selection for an integral request.

    points_per_axis is the point count for gauss_legendre and the level for
    tanh_sinh (level L means step h = 2^(2-L)); samples and rng_seed apply to
    monte_carlo only.
    """

    scheme: str = "tanh_sinh"
    points_per_axis: int = 7
    samples: int = 400_000
    rng_seed: int = 20260823

    def __post_init__(self):
        if self.scheme not in ("gauss_legendre", "tanh_sinh", "monte_carlo"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.points_per_axis < 1 or self.samples < 1:
            raise DomainError("points_per_axis and samples must be >= 1")


def gauss_legendre_nodes(p: int):
    """p-point Gauss-Legendre nodes/weights on (0,1); weights sum to 1."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if p > 1024:
        raise DomainError(f"p must be <= 1024, got {p}")
    x, w = np.polynomial.legendre.leggauss(p)
    return (x + 1.0) / 2.0, w / 2.0


def tanh_sinh_nodes(level: int):
    """tanh-sinh nodes/weights on (0,1) at the given level (h = 2^(2-level))."""
    if level < 1:
        raise DomainError(f"level must be >= 1, got {level}")
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


def _tensor_sum(f, d: int, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Tensor-product quadrature sum of each integrand row: a 0-d array for an
    (npts,) integrand, else one per row.  Each call of f takes a block of
    whole first-axis rows, about _TENSOR_BLOCK points; row i (node i times
    the rest grid of the other d - 1 axes, one point at d = 1) is summed
    against the rest grid's weights and scaled by weights[i], and the rows
    are added in first-axis order, so no sum depends on the block size."""
    wrest = np.ones(1)
    for _ in range(d - 1):
        wrest = np.multiply.outer(wrest, weights).ravel()
    block = max(1, _TENSOR_BLOCK // wrest.size)
    partials = []
    for start in range(0, nodes.size, block):
        first = nodes[start : start + block]
        axes = np.meshgrid(first, *([nodes] * (d - 1)), indexing="ij")
        vals = _require_finite(np.asarray(f(np.stack(axes, axis=-1).reshape(-1, d))), "integrand")
        rows = vals.reshape(*vals.shape[:-1], first.size, wrest.size)
        partials.append(weights[start : start + first.size] * np.sum(wrest * rows, axis=-1))
    return np.sum(np.concatenate(partials, axis=-1), axis=-1)


def _per_row(row, *reductions):
    """row(...) of 0-d reductions, else a tuple with row applied to each row."""
    return row(*reductions) if reductions[0].ndim == 0 else tuple(map(row, *reductions))


def _two_level(level_sum, d: int, spec: QuadratureSpec, caller: str):
    """SeriesValue(s) of level_sum(nodes, weights), the d-dimensional tensor
    sums at one level of the spec's rule, with abs_error |fine - coarse| +
    1e-16 |fine|: level vs level-1 for tanh_sinh, p vs p/2 for
    gauss_legendre (a rule of size 1 has no coarse level: abs_error
    |fine|)."""
    if spec.scheme == "tanh_sinh":
        rule, coarse_size = tanh_sinh_nodes, spec.points_per_axis - 1
    elif spec.scheme == "gauss_legendre":
        rule, coarse_size = gauss_legendre_nodes, spec.points_per_axis // 2
    else:
        raise DomainError(f"{caller} does not accept scheme {spec.scheme!r}")
    nodes, weights = rule(spec.points_per_axis)
    fine = np.asarray(level_sum(nodes, weights))
    coarse = np.asarray(level_sum(*rule(coarse_size))) if coarse_size else 0 * fine

    def row(fine, coarse):
        fine = complex(fine)
        err = abs(fine - complex(coarse))
        return SeriesValue(fine, err + 1e-16 * abs(fine), nodes.size**d, True)

    return _per_row(row, fine, coarse)


def integrate_tensor(f, d: int, spec: QuadratureSpec):
    """Tensor-product integral over (0,1)^d, one SeriesValue per integrand row,
    with a two-level error estimate (level vs level-1, or p vs p/2)."""
    if d < 1 or d > 4:
        raise DomainError(f"deterministic schemes require 1 <= d <= 4, got {d}")
    return _two_level(lambda *rule: _tensor_sum(f, d, *rule), d, spec, "integrate_tensor")


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


def integrate_axes(factors, kernel, sides, combine, spec: QuadratureSpec):
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
    a 0-d or (rows,) array of integrals.  Same nodes, levels and error
    estimate as integrate_tensor with d = 2.
    """

    def level_sum(nodes, weights):
        return combine(_gram_level(factors, kernel, sides, nodes, weights, "axis side")[0])

    return _two_level(level_sum, 2, spec, "integrate_axes")


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


def integrate_pairs(factors, kernel, sides, combine, spec: QuadratureSpec):
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
    integrals.  Same nodes, levels and error estimate as integrate_tensor
    with d = 4.
    """

    def level_sum(nodes, weights):
        first, second = np.triu_indices(nodes.size)
        pts = np.stack([nodes[first], nodes[second]])
        q = weights[first] * weights[second]
        q[first != second] *= 2.0
        gram, z, rows = _gram_level(factors, kernel, sides, pts, q, "pair side")
        _require_swap_invariant(factors, kernel, sides, pts, z, rows)
        return combine(gram)

    return _two_level(level_sum, 4, spec, "integrate_pairs")


def integrate_monte_carlo(f, d: int, samples: int, seed: int):
    """Monte Carlo mean over (0,1)^d, one SeriesValue per integrand row;
    abs_error is the standard error of the mean.  Deterministic for a fixed
    seed (counter-based Philox generator, fixed chunking, pairwise reductions);
    f is called on _TENSOR_BLOCK points of a chunk at a time."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    sums, sqsums, done = [], [], 0
    while done < samples:
        take = min(_CHUNK, samples - done)
        pts = rng.random((take, d))
        vals = np.concatenate(
            [np.asarray(f(pts[i : i + _TENSOR_BLOCK]), dtype=complex)
             for i in range(0, take, _TENSOR_BLOCK)],
            axis=-1,
        )
        _require_finite(vals, "integrand", "a sampled point")
        sums.append(np.sum(vals, axis=-1))
        sqsums.append(np.sum(vals.real**2 + vals.imag**2, axis=-1))
        done += take

    def row(total, sq):
        mean = complex(total) / samples
        var = max(float(sq) / samples - abs(mean) ** 2, 0.0)
        return SeriesValue(mean, math.sqrt(var / samples), samples, True)

    return _per_row(row, *(np.sum(np.stack(s, axis=-1), axis=-1) for s in (sums, sqsums)))
