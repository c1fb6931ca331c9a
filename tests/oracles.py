"""Reference implementations that tests check the package against; no subcommand runs them.

Each is a plain closed form or a direct definition: exact eigenspace dimensions, the scalar
one-order Legendre recurrence (the bit-exact reference of the package's block recurrence),
pointwise Legendre, Gegenbauer and zonal values, the zonal reproducing kernel, a degree
projection, the (1+n)^s weight, a sphere grid's longitudes, one time node's samples of a
space-time field, the Triebel-Lizorkin norm, and the mixed norm's resolution check (the norm
recomputed on a doubled time grid, with its TimeResolutionError).
Tests import them from here (pytest puts this directory on sys.path).
"""

from __future__ import annotations

import math

import numpy as np

from sphere_strichartz import norms
from sphere_strichartz.grids import CoefficientTable, _check_fit, _per_point, _synthesize
from sphere_strichartz.harmonics import (
    _check_domain,
    gegenbauer_column,
    surface_area,
    zonal_basis_column,
)
from sphere_strichartz.norms import lp_norm
from sphere_strichartz.spectral import SpaceTimeField, TimeGrid


def eigenspace_dim(n: int, d: int) -> int:
    """Exact dimension of the space of degree-n spherical harmonics on S^d.

    Counts harmonic homogeneous polynomials of degree n in d+1 variables:
    C(n+d, d) - C(n+d-2, d).  Grows like n^(d-1); equals 2n+1 on S^2.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if n == 0:
        return 1
    if n == 1:
        return d + 1
    return math.comb(n + d, d) - math.comb(n + d - 2, d)


def legendre_column(m: int, n_max: int, t) -> np.ndarray:
    """Orthonormalized associated Legendre values for one order m.

    Returns an array of shape (n_max+1, len(t)); row n holds
    Pbar_n^m(t), zero for n < m.  Pbar is normalized so that
    Y_{n,m}(theta, phi) = Pbar_n^m(cos theta) * exp(i m phi) has unit
    L^2 norm on S^2, i.e. 2*pi * integral of Pbar_n^m(t)^2 dt = 1.
    Includes the Condon-Shortley sign.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    if n_max < m:
        raise ValueError(f"n_max={n_max} below order m={m}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(t)
    out = np.zeros((n_max + 1, t.size))

    # seed Pbar_m^m built multiplicatively to avoid overflow at large m
    seed = np.full(t.size, 1.0 / math.sqrt(4.0 * math.pi))
    if m > 0:
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        for k in range(1, m + 1):
            seed = -math.sqrt((2 * k + 1) / (2.0 * k)) * s * seed
    out[m] = seed
    if n_max == m:
        return out

    out[m + 1] = math.sqrt(2 * m + 3.0) * t * seed
    for n in range(m + 2, n_max + 1):
        a = math.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = math.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
        out[n] = a * (t * out[n - 1] - b * out[n - 2])
    return out


def _eval_shaped(column_fn, n: int, t):
    """Evaluate row n of a column builder, preserving the input shape."""
    arr = np.asarray(t, dtype=float)
    vals = column_fn(arr.ravel())[n].reshape(arr.shape)
    return float(vals) if arr.ndim == 0 else vals


def associated_legendre(n: int, m: int, t):
    """Orthonormalized associated Legendre function Pbar_n^m(t).

    Requires 0 <= m <= n and |t| <= 1; accepts scalars or arrays.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    return _eval_shaped(lambda x: legendre_column(m, n, x), n, t)


def gegenbauer(n: int, alpha: float, t):
    """Gegenbauer polynomial C_n^alpha(t); C_0 = 1, C_1 = 2*alpha*t."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return _eval_shaped(lambda x: gegenbauer_column(n, alpha, x), n, t)


def gegenbauer_at_one(n: int, alpha: float) -> float:
    """C_n^alpha(1) = Gamma(n+2*alpha) / (Gamma(2*alpha) n!), computed in logs."""
    if n == 0:
        return 1.0
    return math.exp(math.lgamma(n + 2.0 * alpha) - math.lgamma(2.0 * alpha)
                    - math.lgamma(n + 1.0))


def zonal_basis(n: int, d: int, t):
    """Unit-L^2 zonal harmonic of degree n on S^d, as a function of t = cos(angle)."""
    return _eval_shaped(lambda x: zonal_basis_column(n, d, x), n, t)


def zonal_kernel(n: int, d: int, t):
    """Reproducing kernel of the degree-n harmonic subspace.

    Z_n^d(x . y) = (dim/area) * C_n^alpha(t)/C_n^alpha(1) with alpha = (d-1)/2;
    integrating Z_n^d(x . y) f(y) over S^d projects band-limited f onto
    degree n.  Uses the exact eigenspace dimension so the reproducing
    identity holds without asymptotic slack.
    """
    if d < 2:
        raise ValueError(f"zonal kernel needs d >= 2, got {d}")
    alpha = (d - 1) / 2.0
    scale = eigenspace_dim(n, d) / surface_area(d) / gegenbauer_at_one(n, alpha)
    return scale * gegenbauer(n, alpha, t)


def project(f: CoefficientTable, n: int) -> CoefficientTable:
    """Orthogonal projection onto the degree-n harmonic subspace."""
    if not 0 <= n <= f.N:
        raise ValueError(f"degree {n} outside band [0, {f.N}]")
    out = CoefficientTable.zeros(f.N, f.d)
    out.a[n] = f.a[n]
    return out


def fractional_weight(f: CoefficientTable, s: float) -> CoefficientTable:
    """Smoothing/roughening multiplier (1+n)^s on degree-n coefficients."""
    w = (1.0 + np.arange(f.N + 1)) ** float(s)
    return CoefficientTable(f.N, f.d, f.a * (w if f.zonal else w[:, None]))


def longitudes(grid) -> np.ndarray:
    """The longitudes 2 pi j / L of a sphere grid's L columns."""
    return 2.0 * np.pi * np.arange(grid.lon_count) / grid.lon_count


def samples_at(u, j: int) -> np.ndarray:
    return _synthesize(u.history(j, j + 1)[0], u.grid)


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


class TimeResolutionError(RuntimeError):
    """Doubling the time grid moved a mixed norm beyond the requested tolerance."""


def mixed_norm_checked(u, p: float, q: float, rtol: float = 1e-8) -> float:
    """norms.mixed_norm(u, p, q), recomputed from samples on a doubled time grid (free-evolution
    fields only, refused before any work): TimeResolutionError if it moves beyond rtol."""
    if not u.free:
        raise ValueError("resolution check requires a free-evolution field")
    result = norms.mixed_norm(u, p, q)
    finer = SpaceTimeField(TimeGrid(2 * u.tg.M), u.grid, u.base)
    refined = norms._norm_of_sums(norms._time_power_sums(finer, q), finer, p, q)
    if abs(refined - result) > rtol * max(abs(result), 1e-300):
        raise TimeResolutionError(
            f"mixed norm moved from {result!r} to {refined!r} under time-grid doubling"
        )
    return result
