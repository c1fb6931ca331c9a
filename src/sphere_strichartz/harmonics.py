"""Closed-form special functions on the d-sphere.

Laplacian eigenvalues, the surface area of S^d, and the columns the transforms
read, every degree up to a band at once: orthonormalized associated Legendre
functions (the colatitude factor of spherical harmonics on S^2) from the one
Legendre recurrence, _order_block_rows, which grids reads in order blocks and
legendre_column one order at a time, Gegenbauer polynomials and the orthonormal
zonal basis for general dimension.  Eigenspace dimensions, the scalar one-order
Legendre recurrence, single-degree values and the zonal reproducing kernel are
test oracles (tests/oracles.py).

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
from itertools import islice

import numpy as np

__all__ = [
    "eigenvalues_upto",
    "surface_area",
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


def _order_block_rows(t: np.ndarray, N: int, width: int, first: int = 0):
    """Yield (m0, n, row) for the order blocks m0 = first, first + width, ... and n = m0..N.

    row[m - m0] = Pbar_n^m(t) for the orders m0 <= m < min(m0 + width, N + 1), shape
    (orders, K), +0.0 for m > n; Y_{n,m} = Pbar_n^m(cos theta) e^{i m phi} has unit L^2 norm on
    S^2, with the Condon-Shortley sign.  The package's one Legendre recurrence, one degree per
    step: the diagonal Pbar_m^m is a running product carried through the orders below `first`
    and from block to block, then Pbar_{m+1}^m = sqrt(2m+3) t Pbar_m^m and Pbar_n^m =
    a (t Pbar_{n-1}^m - b Pbar_{n-2}^m), elementwise in t, so any `first` and `width` give the
    same bits.  Rows live in two rolling (width, K) buffers: a yielded row is valid until the
    generator advances twice.
    """
    K = t.size
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    n_ = np.arange(N + 1)[:, None]
    buf, scratch = np.empty((2, width, K)), np.empty((width, K))
    tt = np.broadcast_to(t, (width, K)).copy()  # same-shape operands: one inner loop
    diag = np.full(K, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(1, first):  # Pbar_m^m for the orders below the first block
        np.multiply(diag, -math.sqrt((2 * m + 1) / (2.0 * m)) * s, diag)
    for m0 in range(first, N + 1, width):
        w = min(width, N + 1 - m0)
        kk = np.arange(m0, m0 + w) ** 2  # the block's orders only: (N+1, w) coefficients
        with np.errstate(divide="ignore", invalid="ignore"):  # entries m >= n - 1 are unread
            a = np.sqrt((4.0 * n_ * n_ - 1.0) / (n_ * n_ - kk))[:, :, None]  # [n, m - m0, 1]
            b = np.sqrt(((n_ - 1.0) ** 2 - kk) / (4.0 * (n_ - 1.0) ** 2 - 1.0))[:, :, None]
        rows = buf[:, :w]
        rows.fill(0.0)
        prev, new, tw, sw = rows[m0 % 2], rows[(m0 + 1) % 2], tt[:w], scratch[:w]  # swapped below
        for n in range(m0, N + 1):
            prev, new = new, prev  # new still holds row n - 2
            k = n - 1 - m0  # the orders m <= n - 2: all w of them once k >= w, in whole rows
            if k > 0:  # a * (t * P[n-1] - b * P[n-2]) over row n - 2; a positional out is cheaper
                x, y, p, q, an, bn = ((tw, sw, prev, new, a[n], b[n]) if k >= w else
                                      (tw[:k], sw[:k], prev[:k], new[:k], a[n, :k], b[n, :k]))
                np.multiply(x, p, y)
                np.multiply(bn, q, q)
                np.subtract(y, q, q)
                np.multiply(an, q, q)
            if m0 < n <= m0 + w:  # order n - 1
                np.multiply(np.sqrt(2 * n + 1.0) * t, prev[n - 1 - m0], out=new[n - 1 - m0])
            if n < m0 + w:  # order n
                if n:
                    np.multiply(diag, -math.sqrt((2 * n + 1) / (2.0 * n)) * s, diag)
                new[n - m0] = diag
            yield m0, n, new


# perfbench/tracer.py wraps this name; ROADMAP item 25 stage B makes it private after item 1c.
def legendre_column(m: int, n_max: int, t: np.ndarray) -> np.ndarray:
    """Pbar_n^m(t) for the one order m and n = 0..n_max, shape (n_max+1, K), +0.0 for n < m:
    the first block of _order_block_rows, one order wide, started at m."""
    out = np.zeros((n_max + 1, t.size))
    for _, n, row in islice(_order_block_rows(t, n_max, 1, m), n_max + 1 - m):
        out[n] = row[0]
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
