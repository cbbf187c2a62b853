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

integrate_pairs is the same 4-D tensor rule for integrands that split between
the axis pairs (u0, u1) and (u2, u3): a symmetric kernel between two 2-D pair
grids, contracted with one side on both of them block by block, so the full
grid of n^4 points is never held in memory.  The caller gives per-point factor
rows, computed once per level, and a kernel that writes each block from
slices of them into scratch arrays that _pair_sum allocates once per level
and reuses for every block.  The kernel must satisfy
kernel(a, b) == kernel(b, a).T; each unordered block pair is evaluated once,
and the blocks below the diagonal are the transposes of those above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NodeSingularity
from .specfun import SeriesValue

#: Monte Carlo generator identity, recorded for reproducibility.
RNG_ALGORITHM = "philox4x64"

_CHUNK = 1 << 17

#: Left pair-grid rows per kernel block in integrate_pairs.  At the default
#: m = 2 rule (51 nodes per axis, 2601 pair points) each of the block's
#: scratch arrays is at most 64 x 2601 doubles, 1.3 MB; no array grows with
#: the full grid.  On a 2-core Xeon the in-place kernels took 58 ms per m = 2
#: integral with 64-row blocks, 59 ms with 32 and 71 ms with 128 (medians
#: of 7 alternated runs over four families).  The block size also groups
#: the matmul sums, so 32 and 128 move the values in their last bits: 64
#: stays.
_PAIR_BLOCK = 64

#: Scratch arrays per kernel block in integrate_pairs: the block and two
#: work arrays for the kernel's intermediates.
_PAIR_BUFFERS = 3

#: Integrand points per call in _tensor_sum, rounded down to whole
#: first-axis rows of the tensor grid (at least one), and in
#: integrate_monte_carlo, which draws _CHUNK points at a time.  On a 2-core
#: Xeon the m = 1 trace-term rows at order 3 of four families (d = 2, 203
#: tanh-sinh nodes per axis) and a J_3 quadrature took 153 ms with one row
#: per call, 49-53 ms at 2^12 to 2^14 points, 60-61 ms at 2^11 and 2^16 and
#: 64-71 ms at 2^10 (medians of 9 alternated runs); at 2^12 each complex
#: temporary of the integrand (64 KB) fits the 2 MB L2 cache.  The m = 3
#: integrand took 14-16 ms per _CHUNK in calls of 2^12 points against
#: 20-30 ms in one call (Flat, Plus, Nu(0.7)).  The sums do not depend on
#: this size.
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


def _pair_sum(factors, kernel, side, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """G[i, j] = sum_ab q_a q_b side[i, a] K[a, b] side[j, b] over the 2-D
    pair grid of the 1-D rule, for a symmetric K.

    Row block I of K is written from its own start on, K(pts[I],
    pts[I.start:]), _PAIR_BLOCK rows at a time, into _PAIR_BUFFERS scratch
    arrays allocated once per level: its diagonal part D and its strictly
    upper part U.  With V = side * q, G = V (D + U) V^T + (V U V^T)^T, so no
    block below the diagonal is evaluated.  A diagonal block that is not its
    own transpose to 1e-12 relative raises DomainError.
    """
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.stack([u.ravel(), v.ravel()])
    npts = pts.shape[1]
    q = np.outer(weights, weights).ravel()
    sv = _require_finite(side(pts) * q, "pair factor")
    rows = factors(pts)
    nrows = sv.shape[0]
    # The kernel is real: one real matmul against [Re sv; Im sv].
    parts = np.concatenate([sv.real, sv.imag]).T
    total = np.zeros((nrows, nrows), dtype=complex)
    upper = np.zeros((nrows, nrows), dtype=complex)
    scratch = np.empty((_PAIR_BUFFERS, min(_PAIR_BLOCK, npts) * npts))
    for start in range(0, npts, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, npts)
        shape = (stop - start, npts - start)
        out = tuple(buf[: shape[0] * shape[1]].reshape(shape) for buf in scratch)
        kernel(rows[:, start:stop], rows[:, start:], out)
        k = _require_finite(out[0], "kernel")
        diag = k[:, : stop - start]
        if not np.all(np.abs(diag - diag.T) <= 1e-12 * np.abs(diag)):
            raise DomainError("integrate_pairs needs kernel(a, b) == kernel(b, a).T")
        kr = k @ parts[start:]
        total += sv[:, start:stop] @ (kr[:, :nrows] + 1j * kr[:, nrows:])
        kl = k[:, stop - start :] @ parts[stop:]
        upper += sv[:, start:stop] @ (kl[:, :nrows] + 1j * kl[:, nrows:])
    return total + upper.T


def integrate_pairs(factors, kernel, side, combine, spec: QuadratureSpec):
    """Tensor-product integral over (0,1)^4 of an integrand that splits
    between the axis pairs a = (u0, u1) and b = (u2, u3):

        rows of  combine(G),  G[i, j] = int side_i(a) K(a, b) side_j(b).

    Pair points arrive as (2, npts) axis rows.  factors(pts) returns the
    per-point factor rows F, an (nf, npts) array, once per level.
    kernel(fa, fb, out) writes the real kernel K between the points of two
    column slices fa = F[:, I] and fb = F[:, J] into out[0], and may use
    out[1:] as scratch: out holds _PAIR_BUFFERS caller-owned (|I|, |J|)
    float arrays whose contents on entry are undefined (they alias the
    previous block's).  The kernel must be symmetric, the block of (fb, fa)
    the transpose of the block of (fa, fb): each unordered pair of kernel
    blocks is evaluated once, and a diagonal block that is not its own
    transpose to 1e-12 relative raises DomainError.  side(a) returns
    (rows, npts) vectors at pair points, the same function on both pairs;
    combine maps the matrix G to a 0-d or (rows,) array of integrals.  Same
    nodes, levels and error estimate as integrate_tensor with d = 4.
    """

    def level_sum(nodes, weights):
        return combine(_pair_sum(factors, kernel, side, nodes, weights))

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
