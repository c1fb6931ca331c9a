"""Closed-form special functions on the d-sphere.

Laplacian eigenvalues, the surface area of S^d, and the columns the transforms
read, every degree up to a band at once: orthonormalized associated Legendre
functions (the colatitude factor of spherical harmonics on S^2), Gegenbauer
polynomials and the orthonormal zonal basis for general dimension.  Eigenspace
dimensions, single-degree values and the zonal reproducing kernel are test
oracles (tests/oracles.py).

Conventions (used consistently across the package):
  * harmonics are orthonormal: integral of |Y_{n,m}|^2 over S^d is 1,
    so Y_{0,0} = 1/sqrt(4*pi) on S^2;
  * the degree-n eigenvalue of the (positive) sphere Laplacian is n(n+d-1);
  * all recurrences run upward in degree from normalized seeds, which is
    stable for degrees well past 512.

Everything here is a pure function of its arguments; the only shared state is
the memo of the zonal normalizers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "eigenvalues_upto",
    "surface_area",
    "legendre_column",
    "gegenbauer_column",
    "zonal_basis_column",
]


def eigenvalues_upto(N: int, d: int) -> np.ndarray:
    """The integer Laplacian eigenvalues lambda_n = n(n+d-1) for n = 0..N."""
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    n = np.arange(N + 1)
    return n * (n + d - 1)


def surface_area(d: int) -> float:
    """Total surface measure of S^d: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _check_domain(t: np.ndarray) -> None:
    if np.any(np.abs(t) > 1.0 + 1e-15):
        raise ValueError("argument outside [-1, 1]")


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


def gegenbauer_column(n_max: int, alpha: float, t) -> np.ndarray:
    """Gegenbauer polynomials C_n^alpha(t) for n = 0..n_max, shape (n_max+1, len(t))."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(t)
    out = np.zeros((n_max + 1, t.size))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * alpha * t
    for n in range(2, n_max + 1):
        out[n] = (2.0 * (n + alpha - 1.0) * t * out[n - 1]
                  - (n + 2.0 * alpha - 2.0) * out[n - 2]) / n
    return out


@lru_cache(maxsize=None)
def _zonal_norm_const(n: int, d: int) -> float:
    """Normalizer c so that c*C_n^alpha has unit L^2(S^d) norm as a zonal function.

    Uses the Gegenbauer weighted-L^2 norm
    integral of C_n^alpha(t)^2 (1-t^2)^(alpha-1/2) dt
      = pi 2^(1-2 alpha) Gamma(n+2 alpha) / ((n+alpha) Gamma(alpha)^2 n!)
    with alpha = (d-1)/2, together with the S^(d-1) area factor.
    """
    alpha = (d - 1) / 2.0
    log_h = (math.log(math.pi) + (1.0 - 2.0 * alpha) * math.log(2.0)
             + math.lgamma(n + 2.0 * alpha) - math.log(n + alpha)
             - 2.0 * math.lgamma(alpha) - math.lgamma(n + 1.0))
    return math.exp(-0.5 * (log_h + math.log(surface_area(d - 1))))


def zonal_basis_column(n_max: int, d: int, t) -> np.ndarray:
    """Orthonormal zonal basis values, shape (n_max+1, len(t)).

    Row n is the degree-n zonal harmonic as a function of t = x . pole,
    normalized to unit L^2(S^d) norm.  For d = 2 this reduces to the
    orthonormalized Legendre column (m = 0).
    """
    if d < 2:
        raise ValueError(f"zonal basis needs d >= 2, got {d}")
    cols = gegenbauer_column(n_max, (d - 1) / 2.0, t)
    scale = np.array([_zonal_norm_const(n, d) for n in range(n_max + 1)])
    return cols * scale[:, None]
