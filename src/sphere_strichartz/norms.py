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
one buffer reused across them, with the same operations per point as on whole
arrays, so the sums do not depend on the chunk size.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import CoefficientTable, _as_samples
from .spectral import _TWO_PI, SpaceTimeField, TimeGrid, synthesize_by_degree

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
    or is 0 where x has a nonzero entry.  A Picard op makes about 70 checks: floats skip numpy,
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
    if p == math.inf:
        return _finite_or_fail(float(np.max(np.abs(values))), values, "L^inf norm")
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    m = np.abs(values).astype(float, copy=False)  # w |v|^p in one array; int |v| cannot `**=`
    with np.errstate(over="ignore"):  # an inf, which fails below
        m **= p
    m *= grid.weights()
    return _finite_or_fail(float(np.sum(m) ** (1.0 / p)), values, f"L^{p:g} norm")


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
    (p, q, r) = (2, 2, 0).
    """
    E = synthesize_by_degree(f, grid)  # (N+1, *grid.shape)
    w = (1.0 + np.arange(f.N + 1)) ** float(r)
    w = w.reshape((-1,) + (1,) * (E.ndim - 1))
    weighted = w * np.abs(E)
    if q == math.inf:
        inner = np.max(weighted, axis=0)
    else:
        if not q > 0:
            raise ValueError(f"q must be > 0 or inf, got {q}")
        inner = np.sum(weighted ** q, axis=0) ** (1.0 / q)
    return lp_norm(inner, grid, p)


def l2t_profile_exact(f: CoefficientTable, grid) -> np.ndarray:
    """Exact time-L^2 profile of the free evolution, computed spectrally.

    Returns z -> (sum_n 2 pi |H_n f(z)|^2)^{1/2} with no time sampling: the
    cross terms of |u(t,z)|^2 integrate to zero over the period because the
    eigenvalues n(n+d-1) are pairwise distinct.
    """
    E = synthesize_by_degree(f, grid)
    return np.sqrt(_TWO_PI * np.sum(np.abs(E) ** 2, axis=0))


def _sampled_mixed_norm(u: SpaceTimeField, p: float, q: float) -> float:
    prof = (_time_power_sums(u, q) * (_TWO_PI / u.tg.M)) ** (1.0 / q)
    return lp_norm(prof, u.grid, p)


def _time_power_sums(u: SpaceTimeField, q: float) -> np.ndarray:
    """sum_j |u(t_j, z)|^q over all M nodes; FloatingPointError if |u|^q leaves float range."""
    S = np.zeros(u.grid.shape)
    flat = S.reshape(-1)
    vacuous = False
    mag = None
    for key, x in u.iter_space_chunks() if u.free else u.iter_time_blocks({}):
        if mag is None:  # the first chunk or block is the largest
            mag = np.empty(x.shape)
        m = mag[: len(x)]
        np.abs(x, out=m)
        m **= q  # the same dispatch as `** q`, which squares for q = 2
        if u.free:  # key: a flat z slice; x: one period of P nodes, counted M/P times
            flat[key] = (u.tg.M // x.shape[-1]) * np.sum(m, axis=-1)
            vacuous = vacuous or np.any(x[flat[key] == 0])
        else:  # x: the samples of one block of time nodes
            S += np.sum(m, axis=0)
            vacuous = vacuous or np.any(x[:, S == 0])
    if vacuous or not np.all(np.isfinite(S)):
        raise FloatingPointError(f"non-finite or vacuous time power sums of |u|^{q:g}")
    return S


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
