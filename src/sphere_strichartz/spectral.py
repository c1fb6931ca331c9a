"""Diagonal spectral operators and space-time synthesis.

The flow solved here is i u_t + Delta u = 0 with the positive-Laplacian
convention, so each degree-n coefficient picks up the phase e^{+i lambda_n t},
lambda_n = n(n+d-1).  Because every lambda_n is an integer, solutions are
exactly 2*pi-periodic in time; `propagate` reduces t modulo float64(2*pi)
before forming phases so the discrete flow inherits that periodicity exactly
instead of up to lambda_max * ulp(2*pi).

`SpaceTimeField` holds a solution on a uniform time grid.  Given `tables`,
the explicit spectral history (one coefficient table per time node, the form
the Picard solver manipulates), it stores that; without it the field is the
free evolution of its initial table, and samples are synthesized on demand
by an exact phase-table product over one time period (not an FFT).  Both
produce identical sample values.  A difference `u - v` is an explicit history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import CoefficientTable, _check_fit, _degree_synthesis, _synthesize
from .harmonics import eigenvalues_upto

__all__ = [
    "TimeGrid",
    "SpaceTimeField",
    "project",
    "propagate",
    "fractional_weight",
    "synthesize_history",
    "synthesize_by_degree",
    "nyquist_time_grid",
    "random_field",
]

_TWO_PI = 2.0 * math.pi
# Bytes of complex series per space chunk of a free field, about one core's L2 cache: smaller
# chunks pay more per-call overhead, larger ones spill to main memory.  A quarter of it bounds
# a block of the per-degree samples that the free path synthesizes.
_SERIES_CHUNK_BYTES = 2 * 2**20
# Time nodes per block of an explicit history (iter_time_blocks, the Picard map, Gram sums).
_TIME_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """M uniform time nodes t_j = 2 pi j / M on the periodic interval [0, 2 pi)."""

    M: int

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)):
            raise ValueError(f"the number of time nodes must be an integer, got M={self.M!r}")
        if self.M < 1:
            raise ValueError(f"need at least one time node, got M={self.M}")

    @property
    def dt(self) -> float:
        return _TWO_PI / self.M

    @property
    def times(self) -> np.ndarray:
        return _TWO_PI * np.arange(self.M) / self.M


def _row_blocks(n: int, rows: int):
    """Yield (i0, i1) for consecutive blocks of `rows` rows that tile range(n), rows >= 2.

    numpy computes a one-row product as a matrix-vector product, whose bits differ from the
    matrix-matrix product that every larger block gets, so no block has one row unless n = 1:
    the first block is the largest: it absorbs a one-row remainder and then holds rows + 1.
    """
    i0, i1 = 0, min(n, rows + 1 if n % rows == 1 else rows)
    while i0 < n:
        yield i0, i1
        i0, i1 = i1, min(i1 + rows, n)


def nyquist_time_grid(N: int, d: int) -> TimeGrid:
    """Default time grid: M = 4 * (lambda_N + 1) nodes.

    The rectangle rule on this grid integrates |u|^q exactly for band-N free
    evolutions and even q up to 4 (the top time frequency of |u|^4 is
    2*lambda_N < M).
    """
    return TimeGrid(4 * (int(eigenvalues_upto(N, d)[-1]) + 1))


def project(f: CoefficientTable, n: int) -> CoefficientTable:
    """Orthogonal projection onto the degree-n harmonic subspace."""
    if not 0 <= n <= f.N:
        raise ValueError(f"degree {n} outside band [0, {f.N}]")
    out = CoefficientTable.zeros(f.N, f.d)
    out.a[n] = f.a[n]
    return out


def reduce_time(t: float) -> float:
    """Reduce a time to [0, 2 pi) exactly (fmod is exact in IEEE arithmetic)."""
    tr = math.fmod(float(t), _TWO_PI)
    return tr + _TWO_PI if tr < 0.0 else tr


def free_phases(times, f: CoefficientTable) -> np.ndarray:
    """e^{i lambda_n t_j}, shape (len(times), N+1[, 1]): f.a times row j is f evolved to t_j."""
    phases = np.exp(1j * np.outer(times, eigenvalues_upto(f.N, f.d)))
    return phases if f.zonal else phases[:, :, None]


def propagate(f: CoefficientTable, t: float) -> CoefficientTable:
    """Free Schrodinger evolution by time t: degree-n coefficients times e^{i lambda_n t}."""
    phases = free_phases([reduce_time(t)], f)[0]
    return CoefficientTable(f.N, f.d, f.a * phases)


def fractional_weight(f: CoefficientTable, s: float) -> CoefficientTable:
    """Smoothing/roughening multiplier (1+n)^s on degree-n coefficients."""
    w = (1.0 + np.arange(f.N + 1)) ** float(s)
    return CoefficientTable(f.N, f.d, f.a * (w if f.zonal else w[:, None]))


def synthesize_by_degree(f: CoefficientTable, grid) -> np.ndarray:
    """Sampled per-degree components (H_n f)(z): shape (N+1, *grid.shape)."""
    _check_fit(grid, f.N, f.d)
    return _degree_synthesis(f.a, grid)


@dataclass
class SpaceTimeField:
    """Solution samples/history on a time grid x spatial grid.

    `tables`, when given, is the explicit spectral history, shape
    (M, *coefficient shape).  Without it the field is the free evolution of
    `base`, and histories/samples are generated on demand (memory-light even
    when M * table size would be huge).  `u - v` is the explicit history of the
    difference.
    """

    tg: TimeGrid
    grid: object
    base: CoefficientTable
    tables: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.tables is not None:
            expected = (self.tg.M, *self.base.a.shape)
            if self.tables.shape != expected:
                raise ValueError(f"history shape {self.tables.shape} != {expected}")

    @property
    def free(self) -> bool:
        """True for the free evolution of `base`, which stores no history."""
        return self.tables is None

    @property
    def N(self) -> int:
        return self.base.N

    @property
    def d(self) -> int:
        return self.base.d

    def history(self, j0: int = 0, j1: int | None = None) -> np.ndarray:
        """Spectral history of time nodes j0..j1-1, shape (j1-j0, *coefficient shape)."""
        if not self.free:
            return self.tables[j0:j1]
        return self.base.a * free_phases(self.tg.times[j0:j1], self.base)

    def materialize(self) -> "SpaceTimeField":
        """Explicit-history copy of this field (intended for modest M * table size)."""
        if self.tables is not None:
            return self
        return SpaceTimeField(self.tg, self.grid, self.base.copy(), tables=self.history())

    def samples_at(self, j: int) -> np.ndarray:
        return _synthesize(self.history(j, j + 1)[0], self.grid)

    def iter_time_blocks(self, work: dict | None = None):
        """Yield (j0, samples of shape (b, *grid.shape)), one batched transform per block.

        With a `work` dict the transforms reuse its buffers from block to block (see
        grids._work_buffer), and the yielded samples are valid until the next step.
        """
        for j0 in range(0, self.tg.M, _TIME_BLOCK):
            yield j0, _synthesize(self.history(j0, j0 + _TIME_BLOCK), self.grid, work)

    def iter_space_chunks(self):
        """Yield (flat z slice, series of shape (rows, P)) for free fields: one time period.

        With g = gcd(M, lambda_1..lambda_N) and P = M/g, u(t_{j+P}, z) = u(t_j, z) exactly, and
        series[:, j] = u(t_j, z) = sum_n E_n(z) W[n, j] is an exact phase-table product with
        W[n, j] = e^{2 pi i ((lambda_n/g) j mod P)/P}, reduced in integers (needs lambda_N < M).

        Only W is held whole.  A chunk is at most `rows` points, as many as fit in
        _SERIES_CHUNK_BYTES of series (independent of N and M while two fit), cut by _row_blocks
        from kr = max(1, rows // L) colatitude rows (a zonal grid's K points): never fewer than 2
        unless the grid has one point, and the first is the largest, so one buffer holds every
        series, a view valid until the next step.  E_n(z) is made a block of whole kr-row groups
        at a time, at most _SERIES_CHUNK_BYTES / 4 (or one group), as each block has a fixed cost.
        """
        if not self.free:
            raise ValueError("space-chunk iteration requires a free-evolution field")
        _check_fit(self.grid, self.N, self.d)
        lam = eigenvalues_upto(self.N, self.d)
        if lam[-1] >= self.tg.M:
            raise ValueError(f"time grid too coarse: lambda_N={lam[-1]} >= M={self.tg.M}")
        g = math.gcd(self.tg.M, *lam.tolist())
        P = self.tg.M // g
        W = np.exp(2j * np.pi / P * (np.outer(lam // g, np.arange(P)) % P))
        rows = max(2, _SERIES_CHUNK_BYTES // (16 * P))
        K, L = self.grid.shape[0], math.prod(self.grid.shape[1:])  # L = 1 on a zonal grid
        kr = K if L == 1 else max(1, rows // L)
        kb = kr * max(1, _SERIES_CHUNK_BYTES // 4 // (16 * len(W) * kr * L))
        series = np.empty((next(_row_blocks(min(kr, K) * L, rows))[1], P), dtype=complex)
        for b0 in range(0, K, kb):
            E = _degree_synthesis(self.base.a, self.grid, slice(b0, b0 + kb)).reshape(len(W), -1)
            for k0 in range(0, E.shape[1], kr * L):
                for z0, z1 in _row_blocks(min(kr * L, E.shape[1] - k0), rows):
                    np.matmul(E[:, k0 + z0:k0 + z1].T, W, out=series[:z1 - z0])
                    yield slice(b0 * L + k0 + z0, b0 * L + k0 + z1), series[:z1 - z0]

    def __sub__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        """Explicit history of self - other, written a time block at a time (a free operand's
        history is never whole); ValueError unless both share their grids."""
        if self.tg.M != other.tg.M:
            raise ValueError("mismatched time grids")
        keys = [(type(g).__name__, g.band, g.d, g.shape) for g in (self.grid, other.grid)]
        if keys[0] != keys[1]:
            raise ValueError(f"mismatched spatial grids (type, band, d, shape): {keys}")
        base = self.base - other.base
        out = np.empty((self.tg.M, *base.a.shape), dtype=complex)
        for j0, j1 in _row_blocks(self.tg.M, _TIME_BLOCK):
            np.subtract(self.history(j0, j1), other.history(j0, j1), out=out[j0:j1])
        return SpaceTimeField(self.tg, self.grid, base, tables=out)


def synthesize_history(f: CoefficientTable, tg: TimeGrid, grid) -> SpaceTimeField:
    """Free evolution of f on the given time grid: history[j] = propagate(f, t_j)."""
    _check_fit(grid, f.N, f.d)
    return SpaceTimeField(tg, grid, f.copy())


def random_field(N: int, d: int, rng: np.random.Generator) -> CoefficientTable:
    """Unit-L^2 band-limited field from i.i.d. complex gaussian coefficients (zonal for d != 2)."""
    if d != 2:
        tab = CoefficientTable(N, d, rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))
    else:
        tab = CoefficientTable.zeros(N, 2)
        for n in range(N + 1):
            cols = slice(N - n, N + n + 1)
            tab.a[n, cols] = (rng.standard_normal(2 * n + 1)
                              + 1j * rng.standard_normal(2 * n + 1))
    tab.a /= np.linalg.norm(tab.a)
    return tab
