"""Norms: L^p on the sphere, spectral Sobolev, Triebel-Lizorkin-type,
mixed space-time L^p_z(L^q_t), and the exact spectral L^2_t profile.

Degree weights are (1+n)^s throughout (the n=0 mode would otherwise be
annihilated), and the Sobolev norm is the square-summed convention
(sum over n of (1+n)^{2s} ||H_n f||_2^2)^{1/2}.

`mixed_norm` is an honest rectangle-rule time quadrature of samples on all M
nodes (a free field's one period, counted M/P times); its agreement with
`l2t_profile_exact` at q=2 is a verification target, not a shortcut.  For a
free field the time power sums run over `SpaceTimeField.iter_space_chunks`,
for any other over `iter_time_blocks`: |u|^q of each chunk or block goes into
one buffer reused across them, a quarter of its rows at a time, with the same
operations per point as on whole arrays, so the sums keep the whole's bits.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import CoefficientTable, _as_samples, _check_fit, _per_point, _work_buffer
from .spectral import _TWO_PI, SpaceTimeField, TimeGrid

__all__ = [
    "TimeResolutionError",
    "lp_norm",
    "sobolev_norm",
    "triebel_lizorkin_norm",
    "l2t_profile_exact",
    "mixed_norm",
]


class TimeResolutionError(RuntimeError):
    """Doubling the time grid moved a mixed norm beyond the requested tolerance."""


def _finite_or_fail(norms, x: np.ndarray, what: str):
    """`norms`, a float or one per leading index of x; FloatingPointError if one is not finite,
    or is 0 where x has a nonzero entry.  A Picard op makes about 150 checks: floats skip numpy,
    and x is read only at zero norms (a Picard increment's first node is exactly 0)."""
    if np.ndim(norms) == 0:
        bad = not 0.0 < norms < math.inf and (norms != 0.0 or np.any(x))
    else:
        bad = not np.isfinite(norms).all() or (
            not norms.all() and np.any(x.reshape(*norms.shape, -1)[norms == 0]))
    if bad:
        raise FloatingPointError(f"non-finite or vacuous {what}")
    return norms


def lp_norm(values: np.ndarray, grid, p: float) -> float:
    """Quadrature L^p norm of sampled values; p = inf is the max over the grid."""
    values = _as_samples(values, grid)
    return _abs_lp_norm(np.abs(values).astype(float, copy=False), grid, p, values)


def _check_p(p: float) -> float:
    """p, the outer exponent of an L^p norm; ValueError unless p >= 1 (p = inf passes)."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return p


def _abs_lp_norm(m: np.ndarray, grid, p: float, x) -> float:
    """lp_norm from m = |values| as floats (int |v| cannot `**=`), which it overwrites with
    w |v|^p at finite p.  `x` is read only at a zero norm: it is nonzero where the values are."""
    if _check_p(p) == math.inf:
        return _finite_or_fail(float(np.max(m)), x, "L^inf norm")
    with np.errstate(over="ignore"):  # an inf, which fails below
        m **= p
    m *= grid.weights()
    return _finite_or_fail(float(np.sum(m) ** (1.0 / p)), x, f"L^{p:g} norm")


def sobolev_norm(f: CoefficientTable, s: float) -> float:
    """Spectral Sobolev norm (sum_n (1+n)^{2s} ||H_n f||^2)^{1/2}; L^2 at s=0."""
    with np.errstate(over="ignore", invalid="ignore"):  # (1+n)^s * 0 = nan: fails below
        return float(_sobolev_norms(f.a, s, f.zonal))


def _sobolev_norms(a: np.ndarray, s: float, zonal: bool) -> np.ndarray:
    """Sobolev norms over leading batch axes of a[..., N+1] (zonal) or a[..., N+1, 2N+1]."""
    per_degree = np.abs(a) if zonal else np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))
    w = (1.0 + np.arange(per_degree.shape[-1])) ** float(s)
    norms = np.linalg.norm(w * per_degree, axis=-1)
    return _finite_or_fail(norms, a, f"Sobolev norm at s = {s:g}")


def triebel_lizorkin_norm(f: CoefficientTable, grid, p: float, q: float,
                          r: float) -> float:
    """Outer-L^p norm of the weighted inner ell^q sum of pointwise projections.

    ||f|| = || ( sum_n (1+n)^{rq} |H_n f(z)|^q )^{1/q} ||_{L^p}; the inner sum
    becomes sup_n (1+n)^r |H_n f(z)| for q = inf.  Matches the L^2 norm at
    (p, q, r) = (2, 2, 0).  The inner sum is formed _DEGREE_ROWS colatitudes at a time.
    """
    _check_fit(grid, f.N, f.d)
    if not q > 0:
        raise ValueError(f"q must be > 0 or inf, got {q}")
    w = ((1.0 + np.arange(f.N + 1)) ** float(r)).reshape((-1,) + (1,) * len(grid.shape))

    def inner(E, out):  # the inner sum at E's points, with (1+n)^r |H_n f|^q formed in place
        x = np.abs(E)
        x *= w
        if q != math.inf:
            x **= q  # the same dispatch as `** q`, which squares for q = 2
        out[...] = np.max(x, axis=0) if q == math.inf else np.sum(x, axis=0) ** (1.0 / q)

    return lp_norm(_per_point(f.a, grid, inner), grid, p)


def l2t_profile_exact(f: CoefficientTable, grid) -> np.ndarray:
    """Exact time-L^2 profile of the free evolution, computed spectrally.

    Returns z -> (sum_n 2 pi |H_n f(z)|^2)^{1/2} with no time sampling: the
    cross terms of |u(t,z)|^2 integrate to zero over the period because the
    eigenvalues n(n+d-1) are pairwise distinct.  Summed _DEGREE_ROWS colatitudes at a time.
    """
    _check_fit(grid, f.N, f.d)
    return _per_point(f.a, grid,
                      lambda E, out: np.sqrt(_TWO_PI * np.sum(np.abs(E) ** 2, axis=0), out=out))


def _sampled_mixed_norm(u: SpaceTimeField, p: float, q: float, blocks=None) -> float:
    prof = (_time_power_sums(u, q, blocks) * (_TWO_PI / u.tg.M)) ** (1.0 / q)
    return lp_norm(prof, u.grid, p)


def _time_power_sums(u: SpaceTimeField, q: float, blocks=None) -> np.ndarray:
    """sum_j |u(t_j, z)|^q over all M nodes; FloatingPointError if |u|^q leaves float range.
    `blocks`, (key, samples) of a history on u's grids cut as iter_time_blocks, replaces u's.
    |x|^q is formed a quarter chunk or block at a time; numpy adds a block's rows in order, so a
    later piece is summed with the running sum as row 0 (one-point rows: pairwise, never cut)."""
    S = np.zeros(math.prod(u.grid.shape))  # flat: a free chunk's key is a slice of points
    what = f"time power sums of |u|^{q:g}"
    work = {}  # the first chunk or block is the largest, so one buffer holds every |x|^q
    for key, x in blocks or (u.iter_space_chunks() if u.free else u.iter_time_blocks(work)):
        n = len(x) if x[0].size == 1 else -(-len(x) // 4)
        mag = _work_buffer(work, "mag", (n + 1, *x.shape[1:]), float)
        for i0 in range(0, len(x), n):
            m = np.abs(x[i0:i0 + n], out=mag[1:1 + min(n, len(x) - i0)])
            m **= q  # the same dispatch as `** q`, which squares for q = 2
            if u.free:  # x: one period of P nodes
                np.sum(m, axis=-1, out=S[key][i0:i0 + len(m)])
            else:  # x: the samples of one block of time nodes; row 0: their running sum
                mag[0] = np.sum(mag[0 if i0 else 1:1 + len(m)], axis=0)
        if u.free:  # the period counted M/P times
            S[key] *= u.tg.M // x.shape[-1]
            _finite_or_fail(S[key], x, what)
        else:  # a sum once non-finite stays so
            S += mag[0].reshape(-1)
            _finite_or_fail(S, x.reshape(len(x), -1).T, what)
    return S.reshape(u.grid.shape)


def mixed_norm(u: SpaceTimeField, p: float, q: float, *,
               check_resolution: bool = False, rtol: float = 1e-8) -> float:
    """Mixed norm || z -> ||u(., z)||_{L^q_t} ||_{L^p_z}, inner time norm first.

    The inner integral is the rectangle rule on u's time grid (exact for
    trigonometric polynomials resolved by M).  With check_resolution=True
    (free-evolution fields only) the result is recomputed on a doubled time
    grid and a TimeResolutionError is raised if it moves by more than rtol.
    """
    if not q >= 1 or q == math.inf:
        raise ValueError(f"inner exponent must satisfy 1 <= q < inf, got {q}")
    _check_p(p)
    result = _sampled_mixed_norm(u, p, q)
    if check_resolution:
        if not u.free:
            raise ValueError("resolution check requires a free-evolution field")
        finer = SpaceTimeField(TimeGrid(2 * u.tg.M), u.grid, u.base)
        refined = _sampled_mixed_norm(finer, p, q)
        if abs(refined - result) > rtol * max(abs(result), 1e-300):
            raise TimeResolutionError(
                f"mixed norm moved from {result!r} to {refined!r} under time-grid doubling"
            )
    return result
