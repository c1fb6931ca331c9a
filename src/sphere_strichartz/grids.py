"""Quadrature grids on the sphere and the harmonic analysis/synthesis maps.

Two pipelines:

  * S^2 ("sphere" tables): Gauss-Legendre colatitudes x uniform longitudes,
    full (n, m) coefficient tables, forward/inverse transform by longitude
    FFT + colatitude quadrature against orthonormalized Legendre functions.
  * zonal functions on S^d, d >= 3 ("zonal" tables): Gauss-Jacobi nodes for
    the weight (1-t^2)^((d-2)/2), one coefficient per degree in the
    orthonormal zonal basis.  The d = 2 rule is only the S^2 grid's colatitude rule.

A grid built with band parameter B integrates products of two band-B fields
exactly: B+1 Gauss colatitudes (exact through polynomial degree 2B+1) and
2B+2 longitudes (alias-free for azimuthal frequencies through 2B+1).
Grids are immutable and cached by their (band, d) key.

One batched kernel per direction, _synthesize and _analyze, serves both grid kinds: a zonal
table is one matmul against its basis table.  On S^2 they read Pbar_n^m(t_k) in order-block
slabs, so every matmul sees the same operands as with one full (N+1, N+1, K) table.  A small
table is built once and cached whole; a larger one is never stored: each pass recomputes it
in blocks of 8 orders, one recurrence step per degree, into one buffer.  One kernel makes the
samples (H_n f)(z) for any range of colatitude rows, with the bits of the whole grid's: of
every degree from the slabs, or of one degree n from its Legendre row.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .harmonics import gegenbauer_column, legendre_column, surface_area, zonal_basis_column

__all__ = [
    "ResourceLimitError",
    "SphereGrid",
    "ZonalGrid",
    "CoefficientTable",
    "max_band_limit",
    "build_sphere_grid",
    "build_zonal_grid",
    "grid_for",
    "forward_sht",
    "inverse_sht",
    "integrate",
    "pole_values",
]

_DEFAULT_MAX_N = 1024


class ResourceLimitError(RuntimeError):
    """Requested band limit exceeds the configured maximum, or its table cannot be allocated."""


def max_band_limit() -> int:
    """Band-limit cap; override with the SPHERE_STRICHARTZ_MAX_N env var."""
    raw = os.environ.get("SPHERE_STRICHARTZ_MAX_N", "")
    if not raw:
        return _DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"SPHERE_STRICHARTZ_MAX_N must be an integer >= 0, got {raw!r}")
    return cap


def _check_band(N: int) -> None:
    if N < 0:
        raise ValueError(f"band limit must be >= 0, got {N}")
    cap = max_band_limit()
    if N > cap:
        raise ResourceLimitError(f"band limit {N} exceeds configured maximum {cap}")


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on S^2: samples are indexed [colatitude, longitude]."""

    band: int
    t: np.ndarray          # (K,) Gauss-Legendre nodes, cos(colatitude), ascending
    t_weights: np.ndarray  # (K,) Gauss-Legendre weights
    lon_count: int
    d = 2  # a class attribute, not a field: every sphere grid is on S^2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.t.size, self.lon_count)

    @property
    def phi(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.lon_count) / self.lon_count

    def weights(self) -> np.ndarray:
        """Full surface-quadrature weights, shape (K, L)."""
        return np.broadcast_to(
            self.t_weights[:, None] * (2.0 * np.pi / self.lon_count), self.shape
        )


@dataclass(frozen=True)
class ZonalGrid:
    """Gauss-Jacobi grid on (-1, 1) for zonal functions on S^d."""

    band: int
    d: int
    t: np.ndarray          # (K,) nodes, ascending
    t_weights: np.ndarray  # (K,) weights for the measure (1-t^2)^((d-2)/2) dt

    @property
    def shape(self) -> tuple[int]:
        return (self.t.size,)

    def weights(self) -> np.ndarray:
        """Surface-quadrature weights (includes the S^(d-1) area factor)."""
        return self.t_weights * surface_area(self.d - 1)


def build_sphere_grid(N: int) -> SphereGrid:
    """Quadrature grid on S^2 exact for products of two band-N fields."""
    _check_band(N)
    return _build_sphere_grid(N)


@lru_cache(maxsize=None)
def _build_sphere_grid(N: int) -> SphereGrid:
    rule = _build_zonal_grid(N, 2)  # the colatitude rule is the d = 2 zonal (Gauss-Legendre) one
    return SphereGrid(band=N, t=rule.t, t_weights=rule.t_weights, lon_count=2 * N + 2)


def build_zonal_grid(N: int, d: int) -> ZonalGrid:
    """Gauss-Jacobi grid for zonal functions on S^d, exact for band-N products."""
    _check_band(N)
    if d < 2:
        raise ValueError(f"zonal grids need d >= 2, got {d}")
    return _build_zonal_grid(N, d)


@lru_cache(maxsize=None)
def _build_zonal_grid(N: int, d: int) -> ZonalGrid:
    K = N + 1
    if d == 2:
        t, w = leggauss(K)
    else:
        # Golub-Welsch: nodes are the eigenvalues of the Jacobi matrix of C_n^lam, lam = (d-1)/2,
        # refined by one Newton step on C_K^lam with (1-t^2) C_K' = -K t C_K + (K+2lam-1) C_{K-1}
        lam, n = (d - 1) / 2.0, np.arange(1.0, K)
        off = np.sqrt(n * (n + 2 * lam - 1) / (4 * (n + lam) * (n + lam - 1)))
        t = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        C = gegenbauer_column(K, lam, t)
        t = t - C[K] * (1 - t * t) / (-K * t * C[K] + (K + 2 * lam - 1) * C[K - 1])
        # Gauss-Jacobi weights: the Christoffel numbers 1 / sum_n phi_n(t_k)^2 of the orthonormal
        # zonal basis, divided by the S^(d-1) area that `weights()` multiplies back in
        phi = zonal_basis_column(N, d, t)
        w = 1.0 / (surface_area(d - 1) * np.sum(phi * phi, axis=0))
    t.setflags(write=False)
    w.setflags(write=False)
    return ZonalGrid(band=N, d=d, t=t, t_weights=w)


def grid_for(N: int, d: int, oversample: float = 2.0):
    """Grid able to integrate |f|^2-type products of band-N fields, scaled by `oversample`."""
    band = max(N, math.ceil(oversample * N))
    if d == 2:
        return build_sphere_grid(band)
    return build_zonal_grid(band, d)


def _table_shape(N: int, d: int) -> tuple:
    """A table's layout: (N+1, 2N+1) on S^2, zonal (N+1,) on S^d for d >= 3."""
    if N < 0:
        raise ValueError(f"band limit must be >= 0, got {N}")
    return (N + 1, 2 * N + 1) if d == 2 else (N + 1,)


@dataclass
class CoefficientTable:
    """Spectral representation of a band-limited field on S^d, laid out by _table_shape.

    For d = 2 the column index of `a` is m + N, with entries zero for |m| > n.  A zonal
    table (d >= 3) holds one coefficient per degree.  Coefficients are taken against the
    orthonormal basis, so the L^2 norm is the plain euclidean norm of `a`.
    """

    N: int
    d: int
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        expected = _table_shape(self.N, self.d)
        if self.a.shape != expected:
            raise ValueError(f"coefficient array shape {self.a.shape} != {expected}")
        if not np.all(np.isfinite(self.a.view(float))):
            raise ValueError("coefficients must be finite")

    @property
    def zonal(self) -> bool:  # one coefficient per degree, on S^d for d >= 3
        return self.d != 2

    @classmethod
    def zeros(cls, N: int, d: int) -> "CoefficientTable":
        return cls(N=N, d=d, a=np.zeros(_table_shape(N, d), dtype=complex))

    @classmethod
    def unit_mode(cls, N: int, n: int, m: int = 0, d: int = 2) -> "CoefficientTable":
        """Table holding a single unit coefficient at (n, m) (or degree n, zonal)."""
        out = cls.zeros(N, d)
        if not 0 <= n <= N or (out.zonal and m != 0):
            raise ValueError(f"no mode n={n}, m={m} in a band-{N} {'zonal ' * out.zonal}table")
        if abs(m) > n:
            raise ValueError(f"|m| <= n violated: n={n}, m={m}")
        out.a[(n,) if out.zonal else (n, m + N)] = 1.0
        return out

    def copy(self) -> "CoefficientTable":
        return CoefficientTable(N=self.N, d=self.d, a=self.a.copy())

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.a))

    def __add__(self, other: "CoefficientTable") -> "CoefficientTable":
        self._check_compatible(other)
        return CoefficientTable(self.N, self.d, self.a + other.a)

    def __sub__(self, other: "CoefficientTable") -> "CoefficientTable":
        self._check_compatible(other)
        return CoefficientTable(self.N, self.d, self.a - other.a)

    def __mul__(self, c) -> "CoefficientTable":
        return CoefficientTable(self.N, self.d, self.a * c)

    __rmul__ = __mul__

    def _check_compatible(self, other: "CoefficientTable") -> None:
        if (self.N, self.d) != (other.N, other.d):
            raise ValueError("incompatible coefficient tables")


def _order_block_rows(t: np.ndarray, N: int, width: int):
    """Yield (m0, n, row) for the order blocks m0 = 0, width, 2*width, ... and n = m0..N.

    row[m - m0] = Pbar_n^m(t) for the orders m0 <= m < min(m0 + width, N + 1), shape
    (orders, K), +0.0 for m > n.
    legendre_column's recurrence run for a block of orders at once, one degree n per step,
    with the same operations in the same order, so each entry matches it bit for bit; the
    diagonal Pbar_m^m is one running product carried from block to block.  Rows live in two
    rolling (width, K) buffers: a yielded row is valid until the generator advances twice.
    """
    K = t.size
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    n_ = np.arange(N + 1)[:, None]
    buf, scratch = np.empty((2, width, K)), np.empty((width, K))
    tt = np.broadcast_to(t, (width, K)).copy()  # same-shape operands: one inner loop
    diag = np.full(K, 1.0 / math.sqrt(4.0 * math.pi))
    for m0 in range(0, N + 1, width):
        w = min(width, N + 1 - m0)
        kk = np.arange(m0, m0 + w) ** 2  # the block's orders only: (N+1, w) coefficients
        with np.errstate(divide="ignore", invalid="ignore"):  # entries m >= n - 1 are unread
            a = np.sqrt((4.0 * n_ * n_ - 1.0) / (n_ * n_ - kk))[:, :, None]  # [n, m - m0, 1]
            b = np.sqrt(((n_ - 1.0) ** 2 - kk) / (4.0 * (n_ - 1.0) ** 2 - 1.0))[:, :, None]
        rows = buf[:, :w]
        rows.fill(0.0)
        for n in range(m0, N + 1):
            prev, new = rows[(n - 1) % 2], rows[n % 2]  # new still holds row n - 2
            k = min(n - 1 - m0, w)  # the orders m <= n - 2
            if k > 0:
                # a * (t * P[n-1] - b * P[n-2]), written over row n - 2
                tp = np.multiply(tt[:k], prev[:k], out=scratch[:k])
                np.multiply(b[n, :k], new[:k], out=new[:k])
                np.subtract(tp, new[:k], out=new[:k])
                np.multiply(a[n, :k], new[:k], out=new[:k])
            if m0 < n <= m0 + w:  # order n - 1
                np.multiply(np.sqrt(2 * n + 1.0) * t, prev[n - 1 - m0], out=new[n - 1 - m0])
            if n < m0 + w:  # order n
                if n:
                    np.multiply(diag, -np.sqrt((2 * n + 1) / (2.0 * n)) * s, out=diag)
                new[n - m0] = diag
            yield m0, n, new


def _legendre_row(t: np.ndarray, n: int) -> np.ndarray:
    """Pbar_n^m(t) for m = 0..n at nodes symmetric about 0, shape (n+1, K), in O(nK) memory.

    The recurrence runs on the first Kh = ceil(K/2) nodes; node k >= Kh mirrors node K-1-k,
    times (-1)^(n+m), so an exact zero there may carry the other sign: only |H_n f| reads it.
    """
    K = t.size
    Kh = (K + 1) // 2
    for *_, H in _order_block_rows(t[:Kh], n, n + 1):  # one block of every order, to degree n
        pass
    row = np.empty((n + 1, K))
    row[:, :Kh] = H
    sign = np.where((n + np.arange(n + 1)) % 2, -1.0, 1.0)[:, None]
    np.multiply(H[:, : K - Kh][:, ::-1], sign, out=row[:, Kh:])
    return row


def _legendre_blocks(grid: SphereGrid, N: int, width: int, ks: slice = slice(None)):
    """Yield (m0, m1, block): Pbar_n^m at the nodes ks for m0 <= m < m1, entry [m - m0, n, k].

    Blocks of `width` orders, each written into one (width, N+1, K) buffer (so valid until the
    next) one degree row at a time; the rows n < m0 that the previous block wrote are set to
    +0.0.  A failed allocation of the buffer raises ResourceLimitError.
    """
    shape = (width, N + 1, grid.t[ks].size)
    try:
        out = np.empty(shape)
    except MemoryError:
        what = "table" if width == N + 1 else f"block of {width} orders"
        raise ResourceLimitError(f"Legendre {what} for grid band {grid.band}, N = {N} needs "
                                 f"{8 * math.prod(shape) / 1e9:.3g} GB") from None
    for m0, n, row in _order_block_rows(grid.t[ks], N, width):
        if n == m0:
            block = out[: len(row)]
            block[:, max(m0 - width, 0) : m0] = 0.0
        block[:, n] = row
        if n == N:
            yield m0, m0 + len(block), block


# 16 entries: a Picard solve at N = 4, 5, 6 alone reads 9 (grid band, N) keys.  Only tables
# of at most _CACHED_TABLE_BYTES are stored, so the cache never holds more than 128 MiB.
@lru_cache(maxsize=16)
def _legendre_tables(grid_band: int, N: int) -> np.ndarray:
    """Pbar_n^m at all grid nodes, m-major: entry [m, n, k], shape (N+1, N+1, K), read-only."""
    for _, _, P in _legendre_blocks(build_sphere_grid(grid_band), N, N + 1):
        pass
    P.setflags(write=False)
    return P


_CACHED_TABLE_BYTES = 8 << 20  # larger Legendre tables are streamed in order blocks
_BLOCK_ORDERS = 8  # orders per streamed block: 4.2 MB at N = 256, 67 MB at N = 1024


def _legendre_slabs(grid: SphereGrid, N: int, ks: slice = slice(None)):
    """Yield (m0, m1, slab): Pbar_n^m at the K grid nodes ks (all) for the orders m0 <= m < m1.

    Each slab has shape (m1-m0, N+1, K), entry [m - m0, n, k], +0.0 in the rows n < m, and is
    C-contiguous for all nodes.  A table of at most _CACHED_TABLE_BYTES is one slab, built once
    and cached; a larger one is recomputed at the nodes ks (the same bits: the recurrence is
    elementwise in t) on every pass, in blocks of _BLOCK_ORDERS orders in one buffer: a slab
    is valid until the next.
    """
    if 8 * (N + 1) ** 2 * grid.t.size <= _CACHED_TABLE_BYTES:
        yield 0, N + 1, _legendre_tables(grid.band, N)[:, :, ks]
        return
    yield from _legendre_blocks(grid, N, min(_BLOCK_ORDERS, N + 1), ks)


@lru_cache(maxsize=8)
def _zonal_tables(grid_band: int, N: int, d: int) -> np.ndarray:
    grid = build_zonal_grid(grid_band, d)
    return zonal_basis_column(N, d, grid.t)


def _work_buffer(work: dict | None, name: str, shape: tuple, dtype=complex) -> np.ndarray:
    """An uninitialized array of `shape`: a new one without `work`, else a view of work[name].

    work[name] is reallocated only when it is too small, so the blocks of one pass that share
    a `work` dict share its buffers.
    """
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = work.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = work[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


_FFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"  # numpy.fft takes `out=` from 2.0


def _fft_into(fft, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """fft(x, axis=-1, norm="forward") written into `out`.

    Before numpy 2.0 a few rows at a time: each row's transform is independent of the others.
    """
    if _FFT_OUT:
        return fft(x, axis=-1, norm="forward", out=out)
    for i in range(0, len(x), 8):
        out[i : i + 8] = fft(x[i : i + 8], axis=-1, norm="forward")
    return out


def _synthesize(a: np.ndarray, grid, work: dict | None = None) -> np.ndarray:
    """Batched synthesis on a sphere or zonal grid: a[..., *table] -> values[..., *grid].

    A zonal table is a @ T.  On S^2, a[..., N+1, 2N+1] -> values[..., K, L] in one Legendre
    pass for every leading batch index: per order m the real table Pbar^m(t)^T multiplies a
    real, contiguous, m-major block that holds the +m and -m columns of all batch entries as
    float pairs.  The longitude FFT runs in place, so with a `work` dict (see _work_buffer)
    the values are work["spec"], valid until its next use.
    """
    if isinstance(grid, ZonalGrid):
        return a @ _zonal_tables(grid.band, a.shape[-1] - 1, grid.d)
    N = a.shape[-1] // 2
    K, L = grid.shape
    flat = a.reshape(-1, N + 1, 2 * N + 1)
    X = _work_buffer(work, "X", (N + 1, N + 1, len(flat), 2))  # [m, n, b, +/-]
    X[..., 0] = flat[:, :, N:].T
    X[..., 1] = flat[:, :, N::-1].T
    X[1::2, :, :, 1] *= -1.0  # basis convention Y_{n,-m} = (-1)^m Pbar_n^m e^{-i m phi}
    Xf = X.view(float).reshape(N + 1, N + 1, -1)
    Y = _work_buffer(work, "Y", (N + 1, K, Xf.shape[-1]), float)
    for m0, m1, slab in _legendre_slabs(grid, N):
        np.matmul(slab.transpose(0, 2, 1), Xf[m0:m1], out=Y[m0:m1])
    del slab  # a streamed block is freed before `spec` is allocated
    Y = Y.reshape(N + 1, K, -1, 4).view(complex)  # [m, k, b, +/-]
    spec = _work_buffer(work, "spec", (len(flat), K, L))
    spec[:, :, N + 1 : L - N] = 0.0
    spec[:, :, : N + 1] = Y[..., 0].T
    spec[:, :, L - N :] = Y[:0:-1, :, :, 1].T
    return _fft_into(np.fft.ifft, spec, spec).reshape(*a.shape[:-2], K, L)


def _degree_synthesis(a: np.ndarray, grid, ks: slice = slice(None), row=None) -> np.ndarray:
    """Per-degree components of one table, entry n = (H_n f)(z), at the grid colatitudes ks.

    No Legendre sum: row n of the longitude spectrum is a_{n,m} Pbar_n^m(t), by broadcasting,
    and each colatitude row is transformed alone, so any ks gives the bits of the whole grid.
    With row = (n, _legendre_row(grid.t, n)) only degree n is made, as entry 0, from that row.
    """
    if isinstance(grid, ZonalGrid):
        return a[:, None] * _zonal_tables(grid.band, a.shape[0] - 1, grid.d)[:, ks]
    N = a.shape[1] // 2
    slabs = _legendre_slabs(grid, N, ks)
    if row is not None:  # one slab of the orders 0..n, entry [m, 0, k]
        n, P = row
        a, slabs = a[n : n + 1], [(0, n + 1, P[:, None, ks])]
    K, L = grid.t[ks].size, grid.lon_count
    sign = np.where(np.arange(1, N + 1) % 2, -1.0, 1.0)  # (-1)^m for m = 1..N
    neg = (a[:, :N][:, ::-1] * sign)[:, None]  # [n, 1, m - 1]: the -m coefficients, signed
    spec = np.zeros((len(a), K, L), dtype=complex)
    for m0, m1, slab in slabs:
        P = slab.transpose(1, 2, 0)  # [n, k, m - m0]
        np.multiply(a[:, None, N + m0 : N + m1], P, out=spec[:, :, m0:m1])
        lo = max(m0, 1)  # column L - m holds order -m, for m = lo..m1-1
        np.multiply(neg[:, :, lo - 1 : m1 - 1], P[:, :, lo - m0 :],
                    out=spec[:, :, L - lo : L - m1 : -1])
    return _fft_into(np.fft.ifft, spec, spec)


_DEGREE_ROWS = 16  # colatitude rows per longitude spectrum of _degree_abs


def _degree_abs(a: np.ndarray, grid: SphereGrid, n: int) -> np.ndarray:
    """np.abs(_degree_synthesis(a, grid)[n]) as a float (K, L) array, in O(nK) memory: the
    kernel on degree n's Legendre row, _DEGREE_ROWS colatitudes at a time."""
    row = (n, _legendre_row(grid.t, n))
    out = np.empty(grid.shape)
    for k0 in range(0, grid.t.size, _DEGREE_ROWS):
        ks = slice(k0, k0 + _DEGREE_ROWS)
        np.abs(_degree_synthesis(a, grid, ks, row)[0], out=out[ks])
    return out


def _analyze(values: np.ndarray, grid, N: int, work: dict | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Batched band-N analysis: values[..., *grid] -> a[..., *table], written into `out` if given.

    A zonal grid gives (w v) @ T.T.  On S^2, values[..., K, L] -> a[..., N+1, 2N+1] in one pass
    for the whole batch: callers cut long histories into blocks of time nodes.  With a `work`
    dict its buffers come from it, and the longitude spectrum goes into work["spec"]: values
    held there (a synthesis' output) are overwritten, others are not.  Without one, the
    spectrum is freed once X holds it, and a missing `out` is allocated after the first
    Legendre pass has freed its block.
    """
    if isinstance(grid, ZonalGrid):
        return np.matmul(grid.weights() * values, _zonal_tables(grid.band, N, grid.d).T, out=out)
    K, L = grid.shape
    flat = values.reshape(-1, K, L)
    # longitude analysis: F[k, m mod L] = (1 / L) sum_j values e^{-i m phi_j}
    F = _fft_into(np.fft.fft, flat, _work_buffer(work, "spec", flat.shape))
    X = _work_buffer(work, "X", (N + 1, K, len(F), 2))  # [m, k, b, +/-]
    X[0, :, :, 1] = 0.0
    X[..., 0] = F[:, :, : N + 1].T
    X[1:, :, :, 1] = F[:, :, : L - N - 1 : -1].T
    del F
    X *= (2.0 * np.pi * grid.t_weights)[:, None, None]  # colatitude quadrature weights
    Xf = X.view(float).reshape(N + 1, K, -1)
    Y = _work_buffer(work, "Y", (N + 1, N + 1, Xf.shape[-1]), float)
    for m0, m1, slab in _legendre_slabs(grid, N):
        np.matmul(slab, Xf[m0:m1], out=Y[m0:m1])
    del slab
    if out is None:
        out = np.empty((*values.shape[:-2], N + 1, 2 * N + 1), dtype=complex)
    Y = Y.reshape(N + 1, N + 1, -1, 4).view(complex)  # [m, n, b, +/-]
    Y[1::2, :, :, 1] *= -1.0  # Y_{n,-m} = (-1)^m Pbar_n^m e^{-i m phi}
    ab = out.reshape(len(flat), N + 1, 2 * N + 1)
    ab[:, :, N::-1] = Y[..., 1].T
    ab[:, :, N:] = Y[..., 0].T  # overwrites the m = 0 column written above
    return out


def _check_fit(grid, N: int, d: int) -> None:
    """ValueError unless a band-N table on S^d (zonal for d >= 3, else full) fits `grid`."""
    if (d != 2, d) != (isinstance(grid, ZonalGrid), grid.d):
        table = f"{'zonal' if d != 2 else 'full'} S^{d} table"
        grid_kind = f"{'zonal' if isinstance(grid, ZonalGrid) else 'sphere'} S^{grid.d} grid"
        raise ValueError(f"a {table} does not fit a {grid_kind}")
    if N > grid.band:
        raise ValueError(f"table band {N} exceeds grid band {grid.band}")


def _as_samples(values, grid) -> np.ndarray:
    """`values` as an array of its own dtype; ValueError unless its shape is the grid's."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
    return values


def forward_sht(values: np.ndarray, grid: SphereGrid | ZonalGrid, N: int) -> CoefficientTable:
    """Band-N analysis at a grid's nodes: a full S^2 table on a sphere grid, a zonal S^d table on
    a zonal grid. Exact for band-limited input when the grid band is >= the input band."""
    _check_fit(grid, N, grid.d)
    values = _as_samples(values, grid).astype(complex, copy=False)
    if isinstance(grid, ZonalGrid):  # T @ (w v), not _analyze's (w v) @ T.T: other rounding
        a = _zonal_tables(grid.band, N, grid.d) @ (grid.weights() * values)
    else:
        a = _analyze(values, grid, N)
    return CoefficientTable(N, grid.d, a)


def inverse_sht(coeffs: CoefficientTable, grid: SphereGrid | ZonalGrid) -> np.ndarray:
    """Synthesis at the nodes of a table's grid: S^2 for a full table, zonal for d >= 3."""
    _check_fit(grid, coeffs.N, coeffs.d)
    return _synthesize(coeffs.a, grid)


# Aliases kept only because perfbench/tracer.py wraps these names; ROADMAP item 15 deletes them.
forward_zonal, inverse_zonal = forward_sht, inverse_sht


def integrate(values: np.ndarray, grid) -> complex | float:
    """Surface integral of sampled values by the grid quadrature."""
    values = _as_samples(values, grid)
    total = np.sum(grid.weights() * values)
    return float(total.real) if not np.iscomplexobj(values) else complex(total)


def pole_values(coeffs: CoefficientTable) -> np.ndarray:
    """Field values at the two poles t = +1, -1 (only m = 0 modes contribute on S^2)."""
    if coeffs.zonal:
        B = zonal_basis_column(coeffs.N, coeffs.d, np.array([1.0, -1.0]))
        return coeffs.a @ B
    P = legendre_column(0, coeffs.N, np.array([1.0, -1.0]))
    return coeffs.a[:, coeffs.N] @ P
