"""Differential tests: batched transform kernel, block-wise Picard path and
one-period time synthesis against the simple code they replaced (kept here as
references)."""

import contextlib
import math
import mmap
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from sphere_strichartz import grids, norms, spectral
from sphere_strichartz.experiments import kappa_pq, strichartz_ratio

from sphere_strichartz.grids import (
    CoefficientTable,
    _analyze,
    _degree_synthesis,
    _legendre_slabs,
    _legendre_tables,
    _synthesize,
    build_sphere_grid,
    build_zonal_grid,
    forward_sht,
    grid_for,
    integrate,
    inverse_sht,
)
from sphere_strichartz.harmonics import _order_block_rows, eigenvalues_upto
from sphere_strichartz.norms import _time_power_sums, _time_sums, lp_norm
from sphere_strichartz.potential import (
    PotentialSpec,
    PotentialTerm,
    _duhamel_phases,
    _duhamel_step,
    apply_phi,
    contraction_check,
    duhamel_apply,
    picard_solve,
    x_norm,
)
from sphere_strichartz.spectral import (
    SpaceTimeField,
    TimeGrid,
    nyquist_time_grid,
    random_field,
    synthesize_by_degree,
    synthesize_history,
)

from oracles import legendre_column, project, triebel_lizorkin_norm

BATCH_SHAPES = [(), (1,), (7,), (3, 5)]
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _degree_abs(a, grid, n):
    """|H_n f| as field_lp_norm forms it: the per-point loop on degree n's Legendre row."""
    return grids._per_point(a, grid, lambda E, out: np.abs(E[0], out=out), n)


def _sign(m):
    return -1.0 if (m < 0 and m % 2) else 1.0


def ref_inverse(a, grid):
    """Per-slice, per-order synthesis of one (N+1, 2N+1) table."""
    N = a.shape[0] - 1
    K, L = grid.shape
    spec = np.zeros((K, L), dtype=complex)
    for m in range(N + 1):
        P = legendre_column(m, N, grid.t)
        spec[:, m % L] += a[:, m + N] @ P
        if m > 0:
            spec[:, (-m) % L] += _sign(-m) * (a[:, N - m] @ P)
    return np.fft.ifft(spec, axis=1) * L


def ref_forward(values, grid, N):
    """Per-slice, per-order analysis of one (K, L) sample array."""
    K, L = grid.shape
    wF = grid.t_weights[:, None] * np.fft.fft(values, axis=1) * (2.0 * np.pi / L)
    a = np.zeros((N + 1, 2 * N + 1), dtype=complex)
    for m in range(N + 1):
        P = legendre_column(m, N, grid.t)
        a[:, m + N] = P @ wF[:, m % L]
        if m > 0:
            a[:, N - m] = _sign(-m) * (P @ wF[:, (-m) % L])
    return a


def ref_duhamel(G, tg):
    """The step recursion I_{j+1} = e^{i lam dt} (I_j + dt/2 G_j) + dt/2 G_{j+1}."""
    tables = G.materialize().tables
    dt = tg.dt
    lam = np.arange(G.N + 1) * (np.arange(G.N + 1) + G.d - 1)
    step = np.exp(1j * lam * dt)
    if not G.base.zonal:
        step = step[:, None]
    out = np.zeros_like(tables)
    for j in range(tg.M - 1):
        out[j + 1] = step * (out[j] + 0.5 * dt * tables[j]) + 0.5 * dt * tables[j + 1]
    return out


def ref_apply_phi(w, f, V):
    """Phi(w) from all-M samples of V, one slice at a time."""
    grid = w.grid
    we = w.materialize()
    Vvals = V.values(w.tg.times, V.spatial_samples(grid))
    G = np.empty_like(we.tables)
    for j in range(w.tg.M):
        tab = CoefficientTable(w.N, w.d, we.tables[j])
        if tab.zonal:
            G[j] = forward_sht(Vvals[j] * inverse_sht(tab, grid), grid, w.N).a
        else:
            G[j] = forward_sht(Vvals[j] * inverse_sht(tab, grid), grid, w.N).a
    integral = ref_duhamel(SpaceTimeField(w.tg, grid, w.base * 0.0, tables=G), w.tg)
    free = synthesize_history(f, w.tg, grid).materialize().tables
    return free - 1j * integral


def whole_history_apply_phi(w, f, V):
    """Phi(w) as the whole free history minus 1j times a separately stored Duhamel integral."""
    grid, tg = w.grid, w.tg
    B = V.spatial_samples(grid)
    amps = V.amplitudes(tg.times)
    G = np.empty((tg.M, *w.base.a.shape), dtype=complex)
    for j0 in range(0, tg.M, 64):
        samples = _synthesize(w.history(j0, j0 + 64), grid)
        j1 = j0 + len(samples)
        Vblock = np.tensordot(amps[:, j0:j1].T, B, axes=1)
        G[j0:j1] = _analyze(Vblock * samples, grid, w.N)
    lam = np.arange(w.N + 1) * (np.arange(w.N + 1) + w.d - 1)
    phases = np.exp(2j * np.pi / tg.M * (np.outer(np.arange(tg.M), lam) % tg.M))
    phases = phases if w.base.zonal else phases[:, :, None]
    H = phases.conj() * G
    integral = np.cumsum(H, axis=0)
    integral -= 0.5 * H
    integral -= 0.5 * H[0]
    integral *= tg.dt * phases
    free = synthesize_history(f, tg, grid).history()
    return free - 1j * integral


def _potential(d, rng):
    return PotentialSpec([
        PotentialTerm(np.array([1, -1]), np.array([0.02, 0.02]), random_field(1, d, rng)),
        PotentialTerm(np.array([0, 3]), np.array([0.01, 0.005j]), random_field(2, d, rng)),
    ])


def _tables(rng, N, shape):
    fields = [random_field(N, 2, rng).a for _ in range(math.prod(shape))]
    return np.array(fields).reshape(*shape, N + 1, 2 * N + 1)


def _stream(monkeypatch, orders):
    """Stream every table in blocks of `orders` orders."""
    monkeypatch.setattr(grids, "_CACHED_TABLE_BYTES", 0)
    monkeypatch.setattr(grids, "_BLOCK_ORDERS", orders)


@pytest.mark.parametrize("streamed", [True, False])
def test_legendre_table_layout(streamed, monkeypatch, fresh_legendre_caches):
    grid = build_sphere_grid(9)
    P = _legendre_tables(grid.band, 6)
    assert P.shape == (7, 7, 10) and P.flags.c_contiguous and not P.flags.writeable
    for m in range(7):
        np.testing.assert_array_equal(P[m], legendre_column(m, 6, grid.t))
    if streamed:  # slabs of 3 orders from one reused buffer
        _stream(monkeypatch, 3)
    seen = []
    for m0, m1, slab in _legendre_slabs(grid, 6):
        seen.append((m0, m1))
        assert slab.shape == (m1 - m0, 7, grid.t.size) and slab.flags.c_contiguous
        assert slab.flags.writeable == streamed  # else the cached table as one slab
        for m in range(m0, m1):
            np.testing.assert_array_equal(slab[m - m0], legendre_column(m, 6, grid.t))
    assert seen == ([(0, 3), (3, 6), (6, 7)] if streamed else [(0, 7)])


def ref_legendre_rows(t, N):
    """The blocked recurrence's reference: all orders, one degree per step, a and b per step."""
    rows = np.empty((2, N + 1, t.size))
    scratch = np.empty((max(N - 1, 0), t.size))
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    kk = np.arange(N + 1) ** 2
    rows[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    yield rows[0, :1]
    for n in range(1, N + 1):
        prev, new = rows[(n - 1) % 2], rows[n % 2]
        if n >= 2:
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - kk[: n - 1]))[:, None]
            b = np.sqrt(((n - 1.0) ** 2 - kk[: n - 1]) / (4.0 * (n - 1.0) ** 2 - 1.0))[:, None]
            tp = np.multiply(t, prev[: n - 1], out=scratch[: n - 1])
            np.multiply(b, new[: n - 1], out=new[: n - 1])
            np.subtract(tp, new[: n - 1], out=new[: n - 1])
            np.multiply(a, new[: n - 1], out=new[: n - 1])
        np.multiply(np.sqrt(2 * n + 1.0) * t, prev[n - 1], out=new[n - 1])
        np.multiply(prev[n - 1], -np.sqrt((2 * n + 1) / (2.0 * n)) * s, out=new[n])
        yield new[: n + 1]


def ref_full_node_table(band, N):
    """The (N+1, N+1, K) table from the recurrence run at all K nodes: the slabs' reference."""
    t = build_sphere_grid(band).t
    shape = (N + 1, N + 1, t.size)
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    P = np.frombuffer(buf, dtype=float).reshape(shape)
    for n, row in enumerate(ref_legendre_rows(t, N)):
        P[: n + 1, n] = row
    return P


@pytest.mark.parametrize("band,N", [(0, 0), (1, 1), (2, 2), (17, 9), (64, 64), (512, 256)])
def test_legendre_rows_equal_reference_rows(band, N):
    t = build_sphere_grid(band).t
    for nodes in (t, t[: (t.size + 1) // 2], t[[0, -1]]):  # all nodes, one hemisphere, poles
        rows = _order_block_rows(nodes, N, N + 1)  # one block holding every order
        for (_, n, row), ref in zip(rows, ref_legendre_rows(nodes, N), strict=True):
            assert row[: n + 1].tobytes() == ref.tobytes()


# K <= 3, odd and even K, one cached slab and many streamed blocks; from N = 256 the
# recurrence gives zeros whose sign differs between t and -t
@pytest.mark.parametrize("band,N", [(0, 0), (1, 1), (2, 1), (2, 2), (9, 6), (17, 9), (63, 40),
                                    (64, 64), (128, 128), (512, 256), (512, 512)])
def test_slabs_equal_full_node_table(band, N, monkeypatch, fresh_legendre_caches):
    ref = ref_full_node_table(band, N)
    grid = build_sphere_grid(band)
    cached = 8 * (N + 1) ** 2 * grid.t.size <= grids._CACHED_TABLE_BYTES
    for orders in ([None, 1, 5] if cached else [None]):  # default sizes, then forced streams
        if orders:
            _stream(monkeypatch, orders)
        width = N + 1 if cached and not orders else grids._BLOCK_ORDERS
        covered = 0
        for m0, m1, slab in _legendre_slabs(grid, N):
            assert m0 == covered and m1 - m0 == min(width, N + 1 - m0)
            assert slab.flags.c_contiguous
            assert slab.tobytes() == ref[m0:m1].tobytes()
            covered = m1
        assert covered == N + 1


_ref_table = lru_cache(maxsize=8)(ref_full_node_table)


def ref_sht_synthesis(a, grid):
    """The synthesis kernel on the whole full-node table: one stacked matmul over all orders."""
    N = a.shape[-1] // 2
    K, L = grid.shape
    flat = a.reshape(-1, N + 1, 2 * N + 1)
    X = np.empty((N + 1, N + 1, len(flat), 2), dtype=complex)
    X[..., 0] = flat[:, :, N:].T
    X[..., 1] = flat[:, :, N::-1].T
    X[1::2, :, :, 1] *= -1.0
    P = _ref_table(grid.band, N)
    Y = np.matmul(P.transpose(0, 2, 1), X.view(float).reshape(N + 1, N + 1, -1))
    Y = Y.reshape(N + 1, K, -1, 4).view(complex)
    spec = np.zeros((len(flat), K, L), dtype=complex)
    spec[:, :, : N + 1] = Y[..., 0].T
    spec[:, :, L - N :] = Y[:0:-1, :, :, 1].T
    return np.fft.ifft(spec, axis=-1, norm="forward").reshape(*a.shape[:-2], K, L)


def ref_sht_analysis(values, grid, N):
    """The analysis kernel on the whole full-node table."""
    K, L = grid.shape
    P = _ref_table(grid.band, N)
    flat = values.reshape(-1, K, L)
    a = np.empty((len(flat), N + 1, 2 * N + 1), dtype=complex)
    for b0 in range(0, len(flat), 64):
        F = np.fft.fft(flat[b0 : b0 + 64], axis=-1, norm="forward")
        X = np.zeros((N + 1, K, len(F), 2), dtype=complex)
        X[..., 0] = F[:, :, : N + 1].T
        X[1:, :, :, 1] = F[:, :, : L - N - 1 : -1].T
        X *= (2.0 * np.pi * grid.t_weights)[:, None, None]
        Y = np.matmul(P, X.view(float).reshape(N + 1, K, -1))
        Y = Y.reshape(N + 1, N + 1, -1, 4).view(complex)
        Y[1::2, :, :, 1] *= -1.0
        out = a[b0 : b0 + 64]
        out[:, :, N::-1] = Y[..., 1].T
        out[:, :, N:] = Y[..., 0].T
    return a.reshape(*values.shape[:-2], N + 1, 2 * N + 1)


def ref_degree_synthesis(a, grid):
    """Per-degree components of one table from the whole full-node table."""
    N = a.shape[0] - 1
    K, L = grid.shape
    P = _ref_table(grid.band, N).transpose(1, 2, 0)
    sign = np.where(np.arange(1, N + 1) % 2, -1.0, 1.0)
    spec = np.zeros((N + 1, K, L), dtype=complex)
    np.multiply(a[:, None, N:], P, out=spec[:, :, : N + 1])
    np.multiply((a[:, :N][:, ::-1] * sign)[:, None], P[:, :, 1:], out=spec[:, :, : L - N - 1 : -1])
    return np.fft.ifft(spec, axis=-1, norm="forward")


def ref_single_degree_synthesis(a, n, grid):
    """Values of a degree-n table from that degree's Legendre row at all K nodes."""
    N = a.shape[-1] // 2
    K, L = grid.shape
    for row in ref_legendre_rows(grid.t, n):
        pass
    P = row.T
    sign = np.where(np.arange(1, n + 1) % 2, -1.0, 1.0)
    spec = np.zeros((K, L), dtype=complex)
    np.multiply(a[n, N : N + n + 1], P, out=spec[:, : n + 1])
    np.multiply(a[n, N - n : N][::-1] * sign, P[:, 1:], out=spec[:, : L - n - 1 : -1])
    return np.fft.ifft(spec, axis=-1, norm="forward")


def _assert_kernels_equal_full_node_kernels(a, vals, n, grid):
    N = a.shape[-1] // 2
    one = a.reshape(-1, N + 1, 2 * N + 1)[0]
    single = np.zeros_like(one)
    single[n] = one[n]
    assert grids._synthesize(a, grid).tobytes() == ref_sht_synthesis(a, grid).tobytes()
    assert grids._analyze(vals, grid, N).tobytes() == ref_sht_analysis(vals, grid, N).tobytes()
    assert grids._degree_synthesis(one, grid).tobytes() == ref_degree_synthesis(one, grid).tobytes()
    assert (_degree_abs(single, grid, n).tobytes()
            == np.abs(ref_single_degree_synthesis(single, n, grid)).tobytes())


@SETTINGS
@given(N=st.integers(0, 24), extra=st.integers(0, 8), shape=st.sampled_from(BATCH_SHAPES),
       orders=st.sampled_from([None, 1, 2, 5]), seed=st.integers(0, 2**32 - 1))
@example(N=0, extra=0, shape=(), orders=None, seed=0)  # K = 1
@example(N=1, extra=0, shape=(3, 5), orders=1, seed=1)  # K = 2
@example(N=2, extra=0, shape=(7,), orders=2, seed=2)  # K = 3
@example(N=24, extra=8, shape=(7,), orders=5, seed=3)
# batches above one 64-node time block: one analysis pass against the reference's 64-slice cuts
@example(N=3, extra=1, shape=(65,), orders=None, seed=4)
@example(N=5, extra=2, shape=(2, 65), orders=2, seed=5)
def test_slab_kernels_equal_full_node_kernels(N, extra, shape, orders, seed):
    grid = build_sphere_grid(N + extra)
    rng = np.random.default_rng(seed)
    a = _tables(rng, N, shape)
    vals = (rng.standard_normal((*shape, *grid.shape))
            + 1j * rng.standard_normal((*shape, *grid.shape)))
    # the cached whole table, or blocks of `orders` orders streamed on every pass
    with (mock.patch.multiple(grids, _CACHED_TABLE_BYTES=0, _BLOCK_ORDERS=orders)
          if orders else contextlib.nullcontext()):
        _assert_kernels_equal_full_node_kernels(a, vals, int(rng.integers(N + 1)), grid)


@SETTINGS
@given(N=st.integers(0, 24), extra=st.integers(0, 8),
       shape=st.sampled_from(BATCH_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_batched_synthesis_equals_per_slice(N, extra, shape, seed):
    grid = build_sphere_grid(N + extra)
    a = _tables(np.random.default_rng(seed), N, shape)
    vals = _synthesize(a, grid)
    assert vals.shape == (*shape, *grid.shape)
    flat = vals.reshape(-1, *grid.shape)
    for j, tab in enumerate(a.reshape(-1, *a.shape[-2:])):
        assert np.max(np.abs(flat[j] - ref_inverse(tab, grid))) <= 1e-14


@SETTINGS
@given(N=st.integers(0, 24), extra=st.integers(0, 8),
       shape=st.sampled_from(BATCH_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_batched_analysis_equals_per_slice(N, extra, shape, seed):
    grid = build_sphere_grid(N + extra)
    rng = np.random.default_rng(seed)
    vals = (rng.standard_normal((*shape, *grid.shape))
            + 1j * rng.standard_normal((*shape, *grid.shape)))
    a = _analyze(vals, grid, N)
    assert a.shape == (*shape, N + 1, 2 * N + 1)
    flat = a.reshape(-1, N + 1, 2 * N + 1)
    for j, v in enumerate(vals.reshape(-1, *grid.shape)):
        assert np.max(np.abs(flat[j] - ref_forward(v, grid, N))) <= 1e-14


@SETTINGS
@given(N=st.integers(0, 24), extra=st.integers(0, 8),
       shape=st.sampled_from(BATCH_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_batched_round_trip_and_parseval(N, extra, shape, seed):
    grid = build_sphere_grid(N + extra)
    a = _tables(np.random.default_rng(seed), N, shape)
    vals = _synthesize(a, grid)
    assert np.max(np.abs(_analyze(vals, grid, N) - a), initial=0.0) <= 1e-13
    for tab, v in zip(a.reshape(-1, *a.shape[-2:]), vals.reshape(-1, *grid.shape)):
        assert integrate(np.abs(v) ** 2, grid) == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(forward_sht(v, grid, N).a - tab)) <= 1e-13


@SETTINGS
@given(N=st.integers(0, 24), extra=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_per_degree_synthesis_equals_per_order_loop(N, extra, seed):
    grid = build_sphere_grid(N + extra)
    f = random_field(N, 2, np.random.default_rng(seed))
    E = synthesize_by_degree(f, grid)
    assert E.shape == (N + 1, *grid.shape)
    for n in range(N + 1):
        assert np.max(np.abs(E[n] - ref_inverse(project(f, n).a, grid))) <= 1e-14


def _assert_degree_abs_equals_all_degrees(a, grid, degrees):
    E = _degree_synthesis(a, grid)
    for n in degrees:
        assert _degree_abs(a, grid, n).tobytes() == np.abs(E[n]).tobytes(), n


# K = 103 and 162 nodes; both Legendre tables are streamed, 8 (N+1)^2 K > 8 MiB
@pytest.mark.parametrize("N,band", [(102, 102), (80, 161)])
def test_single_degree_synthesis_equals_streamed_all_degrees(N, band):
    # |H_n f| from one degree's Legendre row against the magnitude of the order-block kernel
    grid = build_sphere_grid(band)
    assert 8 * (N + 1) ** 2 * grid.t.size > grids._CACHED_TABLE_BYTES
    rng = np.random.default_rng(N)
    a = rng.standard_normal((N + 1, 2 * N + 1)) + 1j * rng.standard_normal((N + 1, 2 * N + 1))
    _assert_degree_abs_equals_all_degrees(a, grid, (0, 1, 17, N // 2, N - 1, N))


# With chunks of 16 colatitude rows: K = 1, 2 and 3 nodes, less than one chunk; K = 64, four
# whole chunks; K = 65 and 97, a partial last chunk.  Odd K puts a node at t = 0, where
# Pbar_n^m(0) = 0 for odd n + m.  Every degree n = 0..N, odd and even.
@pytest.mark.parametrize("N,band", [(0, 0), (1, 1), (2, 2), (20, 63), (33, 64), (48, 96)])
def test_degree_abs_equals_all_degree_synthesis(N, band):
    grid = build_sphere_grid(band)
    assert grids._DEGREE_ROWS == 16  # the chunking the cases above are chosen for
    rng = np.random.default_rng(band)
    a = rng.standard_normal((N + 1, 2 * N + 1)) + 1j * rng.standard_normal((N + 1, 2 * N + 1))
    _assert_degree_abs_equals_all_degrees(a, grid, range(N + 1))


def test_degree_abs_equals_all_degree_synthesis_at_mirrored_zeros():
    # At n = 256 on the band-512 grid, _legendre_row's mirror gives nodes 505..512 an exact
    # zero of the other sign than the recurrence there, which np.abs must erase.  The streamed
    # all-degree kernel runs its recurrence at the last 12 rows themselves.
    grid, n = build_sphere_grid(512), 256
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n + 1, 2 * n + 1)) + 1j * rng.standard_normal((n + 1, 2 * n + 1))
    ks = slice(grid.t.size - 12, None)
    want = np.abs(_degree_synthesis(a, grid, ks)[n])
    assert _degree_abs(a, grid, n)[ks].tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_per_degree_synthesis_zonal(d):
    grid = grid_for(9, d, 1.0)  # the S^2 grid at d = 2
    f = random_field(7, max(d, 3), np.random.default_rng(d))  # unit coefficients, one per degree
    if d == 2:  # a zonal field on S^2: the full table with only its m = 0 column
        f, column = CoefficientTable.zeros(7, 2), f.a
        f.a[:, 7] = column
    E = synthesize_by_degree(f, grid)
    for n in range(8):
        np.testing.assert_allclose(E[n], inverse_sht(project(f, n), grid), atol=1e-15)


@SETTINGS
@given(N=st.integers(0, 12), d=st.integers(2, 4), extra=st.integers(0, 4),
       shape=st.sampled_from(BATCH_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_batched_zonal_round_trip(N, d, extra, shape, seed):
    grid = build_zonal_grid(N + extra, d)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((*shape, N + 1)) + 1j * rng.standard_normal((*shape, N + 1))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    assert np.max(np.abs(_analyze(_synthesize(a, grid), grid, N) - a)) <= 1e-12


@SETTINGS
@given(N=st.integers(0, 8), M=st.integers(1, 160), zonal=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cumulative_duhamel_equals_step_recursion(N, M, zonal, seed):
    rng = np.random.default_rng(seed)
    d = 3 if zonal else 2
    shape = (N + 1,) if zonal else (N + 1, 2 * N + 1)
    G = (rng.standard_normal((M, *shape)) + 1j * rng.standard_normal((M, *shape)))
    G /= math.sqrt(G[0].size)
    tg = TimeGrid(M)
    base = CoefficientTable.zeros(N, d)
    field = SpaceTimeField(tg, grid_for(N, d), base, tables=G)
    out = duhamel_apply(field).tables
    assert np.max(np.abs(out - ref_duhamel(field, tg))) <= 1e-13


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("M", [1, 64, 150])
def test_blocked_apply_phi_equals_all_m_reference(M, d):
    rng = np.random.default_rng(M)
    N = 4
    f = random_field(N, d, rng)
    V = _potential(d, rng)
    grid = grid_for(N + V.band, d, 2.0)
    w = synthesize_history(random_field(N, d, rng), TimeGrid(M), grid).materialize()
    got = apply_phi(w, f, V).tables
    assert np.max(np.abs(got - ref_apply_phi(w, f, V))) <= 1e-13
    # a free-mode field gives the same map as its materialized history
    wf = synthesize_history(w.base, w.tg, grid)
    assert np.max(np.abs(apply_phi(wf, f, V).tables - got)) <= 1e-14


def _map_case(case, d, rng):
    """Potentials for the coefficient-space map: spatial bands 0-3, two terms, none, and a term
    whose spatial table is zero."""
    def term(band, freqs=(1, -1), coeffs=(0.02, 0.02)):
        return PotentialTerm(np.array(freqs), np.array(coeffs), random_field(band, d, rng))

    if case == "empty":
        return PotentialSpec([])
    if case == "zero term":
        return PotentialSpec([term(1), PotentialTerm(np.array([2]), np.array([0.3]),
                                                     CoefficientTable.zeros(2, d))])
    if case == "two terms":
        return PotentialSpec([term(3), term(1, (0, 3), (0.01, 0.005j))])
    return PotentialSpec([term(int(case[-1]))])


@pytest.mark.parametrize("M", [64, 65, 129])
@pytest.mark.parametrize("case", ["band 0", "band 1", "band 2", "band 3", "two terms", "empty",
                                  "zero term"])
@pytest.mark.parametrize("d", [2, 3])
def test_coefficient_map_equals_all_m_transform_reference(d, case, M):
    # P_N(V w) from the per-term order-shift operators against the per-node transform map; 65
    # and 129 leave a one-node last block
    rng = np.random.default_rng([d, M, len(case)])
    N = 4
    f = random_field(N, d, rng)
    V = _map_case(case, d, rng)
    grid = grid_for(N + V.band, d, 2.0)
    w = synthesize_history(random_field(N, d, rng), TimeGrid(M), grid).materialize()
    w.tables[1:] += 0.1 * w.tables[:-1]  # not a free evolution
    want = ref_apply_phi(w, f, V)
    assert np.max(np.abs(apply_phi(w, f, V).tables - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("M", [1, 65, 150])
@pytest.mark.parametrize("d, N", [(2, 5), (3, 5), (2, 0)])
def test_gram_power_sums_equal_sampled_sums(d, N, M):
    # An explicit history whose nodes and degrees span 12 decades: its q = 2 sums from the
    # per-ring Gram matrices against |u|^2 of its samples, summed node by node
    rng = np.random.default_rng([d, N, M])
    grid = grid_for(N + 1, d, 2.0)
    u = synthesize_history(random_field(N, d, rng), TimeGrid(M), grid).materialize()
    u.tables[1:] += 0.3 * u.tables[:-1]
    u.tables[...] *= 10.0 ** rng.uniform(-6, 6, (M,) + (1,) * u.base.a.ndim)
    u.tables[...] *= 10.0 ** rng.uniform(-3, 3, (N + 1,) + (1,) * (u.base.a.ndim - 1))
    got, want = _time_sums(u, 2.0), whole_block_power_sums(u, 2.0)  # the Gram route
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
    for p in (2.0, 4.0, 6.0, math.inf):
        ref = lp_norm(np.sqrt(want * (2.0 * np.pi / M)), grid, p)
        assert abs(norms.mixed_norm(u, p, 2.0) - ref) <= 1e-14 * ref


def test_apply_phi_rejects_non_finite_products():
    N = 2
    grid = grid_for(N + 1, 2, 2.0)
    w = synthesize_history(random_field(N, 2, np.random.default_rng(0)), TimeGrid(8), grid)
    # finite inputs (a PotentialTerm rejects an inf coefficient) whose product V overflows
    V = PotentialSpec([PotentialTerm(np.array([0]), np.array([1e308]),
                                     CoefficientTable.unit_mode(1, 1, 0) * 1e308)])
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError):
        apply_phi(w, random_field(N, 2, np.random.default_rng(1)), V)


def ref_time_samples(u):
    """All M samples u(t_j, z), shape (M, n_points): E_n(z) in bin lambda_n of a
    zero-filled length-M spectrum, inverse FFT along time."""
    M = u.tg.M
    n = np.arange(u.N + 1)
    E = synthesize_by_degree(u.base, u.grid).reshape(u.N + 1, -1)
    spec = np.zeros((M, E.shape[1]), dtype=complex)
    spec[n * (n + u.d - 1)] = E
    return np.fft.ifft(spec, axis=0) * M


@SETTINGS
@given(N=st.integers(0, 10), d=st.sampled_from([2, 3, 4]), extra=st.integers(1, 60),
       q=st.sampled_from([2.0, 3.0, 4.0]), chunk=st.integers(1, 97),
       seed=st.integers(0, 2**32 - 1))
def test_one_period_synthesis_equals_full_m_reference(N, d, extra, q, chunk, seed):
    # M = lambda_N + extra runs over odd and even M; g = 2 for even d and even M
    rng = np.random.default_rng(seed)
    grid = grid_for(N, d, 2.0)
    M = N * (N + d - 1) + extra
    u = synthesize_history(random_field(N, d, rng), TimeGrid(M), grid)
    ref = ref_time_samples(u)
    lam = [n * (n + d - 1) for n in range(1, N + 1)]
    P = M // math.gcd(M, *lam)
    if d % 2 == 0 and M % 2 == 0 and N >= 1:
        assert M // P % 2 == 0
    scale = np.max(np.abs(ref))
    covered = 0
    with chunk_budget(u, chunk):
        for sl, series in u.iter_space_chunks():
            assert series.shape == (sl.stop - sl.start, P)
            assert np.max(np.abs(series - ref[:P, sl].T)) <= 1e-13 * scale
            covered += series.shape[0]
    assert covered == ref.shape[1]
    # the period: all M samples repeat with P
    assert np.max(np.abs(ref - ref[np.arange(M) % P])) <= 1e-13 * scale
    want = np.sum(np.abs(ref) ** q, axis=0).reshape(grid.shape)
    np.testing.assert_allclose(_time_power_sums(u, q), want, rtol=1e-13)


def ref_one_period_factors(u):
    """Per-degree samples E (N+1, points) and phase table W (N+1, P) of a free field."""
    lam = eigenvalues_upto(u.N, u.d).astype(int)
    g = math.gcd(u.tg.M, *lam.tolist())
    P = u.tg.M // g
    W = np.exp(2j * np.pi / P * (np.outer(lam // g, np.arange(P)) % P))
    return synthesize_by_degree(u.base, u.grid).reshape(u.N + 1, -1), W


def ref_allocating_power_sums(u, q):
    """Free-field power sums as computed before the chunk buffers: 1024-point chunks, each
    with a fresh (chunk, P) series and fresh |series| and |series|^q arrays."""
    E, W = ref_one_period_factors(u)
    P = W.shape[1]
    S = np.zeros(u.grid.shape)
    flat = S.reshape(-1)
    for z0 in range(0, E.shape[1], 1024):
        z1 = min(z0 + 1024, E.shape[1])
        series = E[:, z0:z1].T @ W
        flat[z0:z1] = (u.tg.M // P) * np.sum(np.abs(series) ** q, axis=-1)
    return S


def chunk_budget(u, chunk):
    """spectral._SERIES_CHUNK_BYTES patched to hold `chunk` points of u's one-period series
    (left as it is for None)."""
    if chunk is None:
        return contextlib.nullcontext()
    P = u.tg.M // math.gcd(u.tg.M, *eigenvalues_upto(u.N, u.d).astype(int).tolist())
    return mock.patch.object(spectral, "_SERIES_CHUNK_BYTES", 16 * P * chunk)


def chunk_rows(u, chunk=None):
    """Row counts of the yielded chunks, checking that they tile the grid in order."""
    rows, z = [], 0
    with chunk_budget(u, chunk):
        for sl, series in u.iter_space_chunks():
            assert sl.start == z and series.shape[0] == sl.stop - sl.start
            rows.append(series.shape[0])
            z = sl.stop
    assert z == math.prod(u.grid.shape)
    return rows


@SETTINGS
@given(N=st.integers(0, 8), d=st.sampled_from([2, 3, 4]),
       q=st.sampled_from([2.0, 3.0, 4.0, 6.0]), big_period=st.booleans(),
       extra=st.integers(1, 60), rows=st.integers(2, 40), one_point_tail=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(N=2, d=2, q=4.0, big_period=True, extra=1, rows=2, one_point_tail=False, seed=0)
@example(N=3, d=3, q=6.0, big_period=True, extra=7, rows=2, one_point_tail=False, seed=1)
@example(N=6, d=4, q=3.0, big_period=False, extra=5, rows=2, one_point_tail=True, seed=2)
@example(N=5, d=2, q=2.0, big_period=False, extra=9, rows=2, one_point_tail=True, seed=3)
def test_chunk_buffers_equal_allocating_loop(N, d, q, big_period, extra, rows, one_point_tail,
                                             seed):
    rng = np.random.default_rng(seed)
    if big_period:
        # odd M and N >= 2 give g = 1, so P = M and one series row exceeds the budget: every
        # chunk is at the 2-row floor (3 rows when it absorbs a one-point remainder)
        N = min(max(N, 2), 3)
        grid = build_sphere_grid(N) if d == 2 else grid_for(N, d, 2.0)
        M = 2**17 + 2 * extra + 1
    else:
        grid = grid_for(N, d, 2.0)
        M = N * (N + d - 1) + extra
    u = synthesize_history(random_field(N, d, rng), TimeGrid(M), grid)
    P = M // math.gcd(M, *eigenvalues_upto(N, d).astype(int).tolist())
    Z = math.prod(grid.shape)
    if big_period:
        assert 16 * P > spectral._SERIES_CHUNK_BYTES
        budget = spectral._SERIES_CHUNK_BYTES
    else:
        # a budget of r rows; r divides Z - 1 when a one-point remainder is wanted
        divisors = [k for k in range(2, Z) if (Z - 1) % k == 0]
        r = divisors[rows % len(divisors)] if one_point_tail and divisors else rows
        budget = 16 * P * r
    with mock.patch.object(spectral, "_SERIES_CHUNK_BYTES", budget):
        got = _time_power_sums(u, q)
        sizes = chunk_rows(u)
    if Z > 1:
        assert min(sizes) >= 2
    assert sizes[0] == max(sizes)
    if big_period:
        assert max(sizes) <= 3
    assert np.array_equal(got, ref_allocating_power_sums(u, q))


@pytest.mark.parametrize("chunk", [None, 1, 2, 3, 4, 12, 13, 337, 1000])
@pytest.mark.parametrize("d", [2, 3])
def test_space_chunks_never_yield_one_row(chunk, d):
    # the zonal grid has 13 points and the sphere grid 13 * 26 = 338: chunks of 1 (taken
    # as 2), 2, 3, 4 and 12 points leave one point over on the first, 337 on the second
    rng = np.random.default_rng(21)
    N = 6
    u = synthesize_history(random_field(N, d, rng), nyquist_time_grid(N, d),
                           grid_for(N, d, 2.0))
    sizes = chunk_rows(u, chunk)
    assert min(sizes) >= 2
    assert sizes[0] == max(sizes)
    if chunk is not None:
        assert max(sizes) <= max(2, chunk) + 1
    E, W = ref_one_period_factors(u)
    with chunk_budget(u, chunk):
        for sl, series in u.iter_space_chunks():
            assert np.array_equal(series, E[:, sl].T @ W)


def ref_whole_e_series(u):
    """One period of u's series at every grid point, shape (points, P): the whole per-degree
    array E of the whole-grid reference kernel, times W in the chunks of the whole-E loop
    (_row_blocks over all points), at the current _SERIES_CHUNK_BYTES."""
    E = ref_degree_synthesis(u.base.a, u.grid).reshape(u.N + 1, -1)
    W = ref_one_period_factors(u)[1]
    rows = max(2, spectral._SERIES_CHUNK_BYTES // (16 * W.shape[1]))
    series = np.empty((E.shape[1], W.shape[1]), dtype=complex)
    for z0, z1 in spectral._row_blocks(E.shape[1], rows):
        series[z0:z1] = E[:, z0:z1].T @ W
    return series


# d = 2, (N, grid band, chunk points, M, rows of each synthesized block of E): K x L grids of
# 1 x 2, 3 x 6, 8 x 16 and 13 x 26 points, with P = M (P = 1 at N = 0).  Chunk budgets below L
# (every row cut, with and without a one-point remainder: 26 = 6 + 5 * 4), between L and 2L
# (one row per chunk) and of 3 rows (chunks of 3, 3, 3, 3 and 1 rows on 13 rows; 3, 3 and 2
# on 8), and the default budget.  A block of E holds whole chunk rows, up to a quarter of
# the budget: single rows, several, and a last block shorter than the others.
@pytest.mark.parametrize("N, band, chunk, M, blocks", [
    (0, 0, None, 7, [1]), (1, 2, None, 9, [3]), (1, 2, 2, 9, [1] * 3),
    (6, 12, 5, 49, [1] * 13), (6, 12, 4, 49, [1] * 13), (6, 12, 40, 49, [2] * 6 + [1]),
    (6, 12, 78, 49, [3] * 4 + [1]), (5, 7, 50, 37, [3, 3, 2]), (6, 12, 5, 443, [3] * 4 + [1]),
    (6, 12, 78, 57, [6, 6, 1]), (6, 12, None, 49, [13])])
@pytest.mark.parametrize("q", [2.0, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("streamed", [False, True])
def test_row_block_chunks_equal_whole_e_reference(N, band, chunk, M, blocks, q, streamed,
                                                  monkeypatch, fresh_legendre_caches):
    # every yielded series and the power sums have the bits of the whole-E path, with the
    # Legendre table cached or recomputed at each block's colatitudes in blocks of 3 orders
    if streamed:
        _stream(monkeypatch, 3)
    grid = build_sphere_grid(band)
    K, L = grid.shape
    u = synthesize_history(random_field(N, 2, np.random.default_rng([N, band, M])), TimeGrid(M),
                           grid)
    synthesized = []

    def spy(a, grid, ks=slice(None)):
        E = _degree_synthesis(a, grid, ks)
        synthesized.append(E.shape[1])
        return E

    with chunk_budget(u, chunk):
        ref = ref_whole_e_series(u)
        monkeypatch.setattr(spectral, "_degree_synthesis", spy)
        P = ref.shape[1]
        rows = max(2, spectral._SERIES_CHUNK_BYTES // (16 * P))
        slices = []
        for sl, series in u.iter_space_chunks():
            assert series.tobytes() == ref[sl].tobytes()
            slices.append(sl)
        got = _time_power_sums(u, q)
    assert synthesized == blocks * 2  # one pass for the series, one for the power sums
    kr = max(1, rows // L)
    sizes = [sl.stop - sl.start for sl in slices]
    assert [sl.start for sl in slices] == [0] + list(np.cumsum(sizes)[:-1])
    assert sum(sizes) == K * L and min(sizes) >= 2 and sizes[0] == max(sizes)
    if rows < L:  # chunks of at most `rows` points cut from each row alike
        assert sizes == [z1 - z0 for z0, z1 in spectral._row_blocks(L, rows)] * K
        assert max(sizes) <= rows + (L % rows == 1)
    else:  # one chunk of kr whole rows each, and a shorter last one
        assert sizes == [min(kr, K - k0) * L for k0 in range(0, K, kr)]
    assert all(b % kr == 0 for b in blocks[:-1])
    want = (u.tg.M // P) * np.sum(np.abs(ref) ** q, axis=-1)
    assert got.tobytes() == want.reshape(grid.shape).tobytes()


def test_free_power_sums_peak_below_half_of_whole_per_degree_samples():
    # N = 32 on a band-128 grid: the whole E = (H_n f)(z), (N+1, K, L) complex, would be
    # 33 * 129 * 258 * 16 bytes, 16.8 MiB.  M = lambda_N + 1 = 1057 is the period, so a chunk
    # holds 124 points, fewer than the 258 longitudes: E is synthesized three colatitude rows
    # (408 kB) at a time, and the peak is W, one series chunk, the |.|^q buffer of a quarter
    # chunk plus one row (32 x 1057 floats) and the sums: 0.245 of the whole E.  A |.|^q buffer
    # of the whole chunk reads 0.290; the bound leaves 0.025 (0.42 MiB) of margin.
    N = 32
    grid = build_sphere_grid(128)
    u = synthesize_history(random_field(N, 2, np.random.default_rng(32)),
                           TimeGrid(N * (N + 1) + 1), grid)
    e_bytes = 16 * (N + 1) * math.prod(grid.shape)
    assert e_bytes >= 16 * 2**20
    _legendre_tables(grid.band, N)  # the cached Legendre table is built outside the trace
    S, peak = _traced_peak(_time_power_sums, u, 4.0)
    assert S.shape == grid.shape and np.all(S > 0)
    assert peak < 0.27 * e_bytes


@pytest.mark.parametrize("N", [20, 64])
def test_resonant_l4_sums_peak_at_most_the_sampled_peak(N):
    # the benchmark's largest and criterion 8's q = 4 case: grid band 2N, M = the 5-smooth
    # next_fast_len(2 lambda_N + 2).  The resonant sums hold a 16-row block of E_n(z), |E|^2
    # and three collision buffers of a quarter of _SERIES_CHUNK_BYTES; the sampled sums hold W,
    # one series chunk of _SERIES_CHUNK_BYTES and a block of E_n(z)
    grid = grid_for(N, 2, 2.0)
    u = synthesize_history(random_field(N, 2, np.random.default_rng([40, N])),
                           TimeGrid(next_fast_len(2 * N * (N + 1) + 2)), grid)
    _legendre_tables(grid.band, N)  # the cached Legendre table is built outside the trace
    resonant, peak = _traced_peak(norms._resonant_l4_sums, u)
    sampled, sampled_peak = _traced_peak(_time_power_sums, u, 4.0)
    np.testing.assert_allclose(resonant, sampled, rtol=1e-13)
    assert peak <= sampled_peak


FREE_PAIRS = ((4.0, 4.0), (math.inf, 2.0), (6.0, 2.0))


@pytest.mark.parametrize("time_grid", ["smooth", "nyquist"])
@pytest.mark.parametrize("p, q", FREE_PAIRS)
@pytest.mark.parametrize("N", [12, 16, 20])
def test_sampled_strichartz_ratio_unchanged_by_chunk_buffers(N, p, q, time_grid):
    # the benchmark's 18 free-field mixed-norm op kinds, at one seed: at q = 2 the ratio must be
    # the same float as with the allocating 1024-point loop.  Both time grids have M > 2 lambda_N,
    # so q = 4 takes the resonant sums, which must agree with that loop's samples to rounding.
    grid = grid_for(N, 2, max(2.0, (2.0 if p == math.inf else p) / 2.0))
    lam = N * (N + 1)
    tg = TimeGrid(next_fast_len(2 * lam + 2)) if time_grid == "smooth" \
        else nyquist_time_grid(N, 2)
    f = random_field(N, 2, np.random.default_rng([6201, N]))
    s = kappa_pq(p, q, 2)
    got = strichartz_ratio(f, p, q, s, grid=grid, tg=tg, method="sampled")
    with mock.patch.object(norms, "_time_power_sums", ref_allocating_power_sums), \
            mock.patch.object(norms, "_resonant_l4_sums",
                              lambda u: ref_allocating_power_sums(u, 4.0)):
        want = strichartz_ratio(f, p, q, s, grid=grid, tg=tg, method="sampled")
    if q == 4.0:
        assert abs(got - want) <= 1e-13 * want
    else:
        assert got == want


def whole_block_power_sums(u, q):
    """Time power sums of an explicit history as computed before the quarter pieces: |x|^q of
    each whole block of iter_time_blocks, summed over the block and added to the sums."""
    S = np.zeros(u.grid.shape)
    for _, x in u.iter_time_blocks():
        S += np.sum(np.abs(x) ** q, axis=0)
    return S


@pytest.mark.parametrize("M", [1, 2, 65, 66, 69, 127, 344])
@pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("d, N", [(2, 3), (3, 3), (3, 0)])
def test_quarter_block_power_sums_equal_whole_block_sums(d, N, q, M):
    # last blocks of 1, 2, 1, 2, 5, 63 and 24 nodes; (3, 0) is a grid of one point, whose
    # blocks numpy sums pairwise, so they are not cut
    rng = np.random.default_rng([d, N, M])
    grid = grid_for(N, d, 2.0)
    u = synthesize_history(random_field(N, d, rng), TimeGrid(M), grid).materialize()
    u.tables[1:] += 0.3 * u.tables[:-1]  # not a free evolution
    got, want = _time_sums(u, q), whole_block_power_sums(u, q)
    if q == 2.0:  # the Gram sums: no samples, so rounding only; the samples' sums keep the bits
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
        assert _time_power_sums(u, q).tobytes() == want.tobytes()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [None, 8, 9, 10, 11])
@pytest.mark.parametrize("q", [2.0, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("d", [2, 3])
def test_quarter_chunk_power_sums_equal_allocating_loop(d, q, rows):
    # first chunks of 8, 9, 10 and 11 rows (0, 1, 2 and 3 mod 4) on 26 longitudes or 13 zonal
    # points, cut into pieces of 2 or 3 rows with a last piece of 2, 3, 1 and 2, and the
    # default budget's one chunk
    rng = np.random.default_rng([d, int(q)])
    N = 6
    u = synthesize_history(random_field(N, d, rng), nyquist_time_grid(N, d), grid_for(N, d, 2.0))
    if rows is not None:
        assert chunk_rows(u, rows)[0] == rows
    with chunk_budget(u, rows):
        got = _time_power_sums(u, q)
    assert got.tobytes() == ref_allocating_power_sums(u, q).tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("M", [1, 63, 64, 128, 150])
def test_apply_phi_equals_whole_history_composition(M, d):
    rng = np.random.default_rng(M + 10 * d)
    N = 4
    f = random_field(N, d, rng)
    V = _potential(d, rng)
    grid = grid_for(N + V.band, d, 2.0)
    w = synthesize_history(random_field(N, d, rng), TimeGrid(M), grid).materialize()
    w.tables[1:] += 0.1 * w.tables[:-1]  # not a free evolution
    want = whole_history_apply_phi(w, f, V)  # P_N(V w) by transforms: equal up to rounding
    assert np.max(np.abs(apply_phi(w, f, V).tables - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("zonal", [False, True])
def test_duhamel_apply_leaves_input_unchanged(zonal):
    rng = np.random.default_rng(7)
    N, M, d = 5, 96, 3 if zonal else 2
    shape = (N + 1,) if zonal else (N + 1, 2 * N + 1)
    G = rng.standard_normal((M, *shape)) + 1j * rng.standard_normal((M, *shape))
    before = G.copy()
    base = CoefficientTable.zeros(N, d)
    duhamel_apply(SpaceTimeField(TimeGrid(M), grid_for(N, d), base, tables=G))
    assert np.array_equal(G, before)


def whole_history_duhamel(G, conj, scaled):
    """The Duhamel integral from H = e^{-i lambda t} G and one cumulative sum of all of H."""
    H = np.multiply(conj, G)
    out = np.cumsum(H, axis=0)
    H *= 0.5
    out -= H
    out -= H[0]
    out *= scaled
    return out


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("M", [64, 65, 129, 344, 584])
def test_blockwise_duhamel_equals_whole_history_cumsum(M, d, in_place):
    # 65 and 129 leave a one-node remainder, which duhamel_apply's first block absorbs and the
    # Picard map's cut keeps as a last block; 344 and 584 are the Picard grids at N = 6 and 8.
    # Signed zeros and exact zeros are in G.  duhamel_apply writes a new history; in place, as
    # the Picard map runs it, each 64-node block's step is written over G with H in a work
    # buffer.
    rng = np.random.default_rng([M, d])
    zero = CoefficientTable.zeros(5, d)
    shape = (M, *zero.a.shape)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    G[0] = 0.0
    G[::7, 1] = -0.0
    conj, scaled = _duhamel_phases(TimeGrid(M), zero)
    want = whole_history_duhamel(G, conj, scaled)
    before = G.copy()
    if in_place:
        carry, work = None, {}
        for j0 in range(0, M, 64):
            carry = _duhamel_step(G[j0:j0 + 64], j0, conj, scaled, carry, G[j0:j0 + 64], work)
        got = G
    else:
        got = duhamel_apply(SpaceTimeField(TimeGrid(M), grid_for(5, d), zero, tables=G)).tables
        assert G.tobytes() == before.tobytes()
    assert got.tobytes() == want.tobytes()


def _readme_picard_problem(N):
    """README's potential 0.03 cos(t) Y_{1,0}, a random band-N field and picard_solve's grids."""
    f = random_field(N, 2, np.random.default_rng(N))
    V = PotentialSpec([PotentialTerm(np.array([1, -1]), np.array([0.015, 0.015]),
                                     CoefficientTable.unit_mode(1, 1, 0))])
    return f, V, grid_for(N + V.band, 2, 2.0), TimeGrid(8 * (N * (N + 1) + 1))


@pytest.mark.parametrize("N", [8, 12])
def test_apply_phi_peak_allocation_below_2_5_histories(N):
    # A call of the map allocates one history and writes each block of Phi(w) into it: P_N(V w)
    # from one matmul, its Duhamel sum and the free evolution.  Beside it the map holds its
    # operators and phase tables, the block's padded operand and product, and its build's
    # transforms of 64 unit tables, freed before the first block: 2.34 histories at N = 8 and
    # 1.66 at N = 12 (2.45 and 1.69 with the transform map, whose block of samples on the
    # oversampled grid was half a history at N = 8).  A second block of samples at N = 8, or H
    # or its cumulative sum in a history of its own at N = 12 (2.15), would break the bound.
    f, V, grid, tg = _readme_picard_problem(N)
    w = synthesize_history(f, tg, grid).materialize()
    apply_phi(w, f, V)  # builds the cached Legendre tables
    tracemalloc.start()
    try:
        apply_phi(w, f, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2.5 if N == 8 else 1.8) * w.tables.nbytes


@pytest.mark.parametrize("N", [8, 12, 14, 16])
def test_picard_solve_peak_allocation_below_3_5_histories(N):
    # One history: each iterate is one pass of the map over u's time blocks, which writes
    # Phi(u) over u's block once the increment's block is summed into the X-norm.  Beside u, the
    # pass holds the map's block buffers, whose slots the increment's Gram sums reuse (the
    # Legendre stage's longitude coefficients, their transposed copy and the Gram of a chunk of
    # rings), the running Gram blocks, a block of Phi(u) and the map's phase tables: 2.48
    # histories at N = 8, 1.64 at N = 12, 1.48 at N = 14 and 1.38 at N = 16 (2.64, 1.77, 1.58
    # and 1.45 with the transform map and sampled sums).  A |u|^2 buffer of a whole block of
    # samples read 2.83, 1.86, 1.65 and 1.49 there, and Phi(u) in a history of its own beside u
    # 2.69 at N = 12.
    f, V, grid, tg = _readme_picard_problem(N)
    s = kappa_pq(4.0, 2.0, 2)
    picard_solve(f, V, p=4.0, s=s, tg=tg)  # builds the cached Legendre tables
    tracemalloc.start()
    try:
        u, _ = picard_solve(f, V, p=4.0, s=s, tg=tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.grid is grid
    assert peak < {8: 2.7, 12: 1.8, 14: 1.62, 16: 1.48}[N] * u.tables.nbytes


@pytest.mark.parametrize("d, M", [(2, 64), (2, 129), (3, 65), (3, 150)])
def test_contraction_check_equals_three_history_expression(d, M):
    # Phi(v) is subtracted from Phi(w) a block at a time; the ratio is the same float as with
    # both images and their difference held whole
    rng = np.random.default_rng([d, M])
    N = 4
    V = _potential(d, rng)
    grid = grid_for(N + V.band, d, 2.0)
    w, v = (synthesize_history(random_field(N, d, rng), TimeGrid(M), grid).materialize()
            for _ in range(2))
    w.tables[1:] += 0.1 * w.tables[:-1]  # not a free evolution
    s = kappa_pq(4.0, 2.0, d)
    zero = CoefficientTable.zeros(N, d)
    want = x_norm(apply_phi(w, zero, V) - apply_phi(v, zero, V), 4.0, s) / x_norm(w - v, 4.0, s)
    assert contraction_check(V, w, v, 4.0, s) == want


@pytest.mark.parametrize("N", [8, 12])
def test_contraction_check_peak_allocation_below_2_7_histories(N):
    # One new history, Phi(w), from which Phi(v) is subtracted a block at a time; each map's
    # block buffers are freed before x_norm allocates its own: 2.34 histories at N = 8 and 1.67
    # at N = 12 (2.57 and 1.74 with the transform map).
    # Phi(w), Phi(v) and their difference held whole read 4.35 and 3.64, and the first map's
    # buffers kept alive through x_norm 3.51 and 2.16.
    f, V, grid, tg = _readme_picard_problem(N)
    w = synthesize_history(f, tg, grid).materialize()
    v = synthesize_history(random_field(N, 2, np.random.default_rng(N + 100)), tg,
                           grid).materialize()
    s = kappa_pq(4.0, 2.0, 2)
    contraction_check(V, w, v, 4.0, s)  # builds the cached Legendre tables
    ratio, peak = _traced_peak(contraction_check, V, w, v, 4.0, s)
    assert 0.0 < ratio < 0.5
    assert peak < {8: 2.65, 12: 1.8}[N] * w.tables.nbytes


def test_difference_of_free_fields_peak_allocation_below_1_3_histories():
    # `w - v` writes the difference into one new history a block of _TIME_BLOCK nodes at a
    # time, synthesizing each free operand's block there: 1.15 histories at N = 12 on
    # README's grids (M = 1256).  Both whole histories formed first read 2.08.
    f, _, grid, tg = _readme_picard_problem(12)
    w = synthesize_history(f, tg, grid)
    v = synthesize_history(random_field(12, 2, np.random.default_rng(112)), tg, grid)
    diff, peak = _traced_peak(w.__sub__, v)
    assert diff.tables.tobytes() == (w.history() - v.history()).tobytes()
    assert peak < 1.3 * diff.tables.nbytes


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the bytes that tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("direction", ["inverse", "forward"])
def test_sht_peak_allocation_below_one_block_and_2_5_tables(direction):
    # At N = 256 the Legendre functions stream in blocks of 8 orders.  Inverse: the pass
    # holds X and Y (a table each) beside a block, then X, Y and the values once the block is
    # freed.  Forward: X and Y beside a block, and the output after the block is freed.  The
    # last block alive beside the values, or the spectrum and the output alive beside X and
    # the block, take the peak to 3 tables or more beyond the block.
    N = 256
    grid = build_sphere_grid(N)
    f = random_field(N, 2, np.random.default_rng(256))
    values = inverse_sht(f, grid)
    want = forward_sht(values, grid, N)
    if direction == "inverse":
        got, peak = _traced_peak(inverse_sht, f, grid)
        assert got.tobytes() == values.tobytes()
    else:
        got, peak = _traced_peak(forward_sht, values, grid, N)
        assert got.a.tobytes() == want.a.tobytes()
    assert peak < grids._BLOCK_ORDERS * (N + 1) * grid.t.size * 8 + 2.5 * f.a.nbytes


@pytest.mark.parametrize("kernel", ["single degree", "all degrees"])
def test_degree_synthesis_peak_allocation_below_1_5_outputs(kernel):
    # All degrees: the longitude spectrum is the output, transformed in place; an out-of-place
    # FFT allocates a second one.  Single degree: the float |H_n f| beside degree n's Legendre
    # row (a quarter of it at grid band 2n) and one chunk of spectrum with the FFT's copy of
    # it, 1.36 outputs; a whole complex (K, L) spectrum would be 2 outputs by itself.
    rng = np.random.default_rng(20)
    if kernel == "single degree":
        a = rng.standard_normal((257, 513)) + 1j * rng.standard_normal((257, 513))
        out, peak = _traced_peak(_degree_abs, a, build_sphere_grid(512), 256)
        assert out.shape == (513, 1026) and out.dtype == float
        assert peak < 1.4 * out.nbytes
    else:
        a = rng.standard_normal((21, 41)) + 1j * rng.standard_normal((21, 41))
        grid = build_sphere_grid(60)  # 61 x 122, grid_for(20, 2, 3.0)
        _degree_synthesis(a, grid)  # builds the cached Legendre table
        out, peak = _traced_peak(_degree_synthesis, a, grid)
        assert out.shape == (21, 61, 122)
    assert peak < 1.5 * out.nbytes


@pytest.mark.parametrize("norm", ["l2t_profile_exact", "triebel_lizorkin_norm"])
def test_per_point_norms_peak_below_one_row_block(norm):
    # N = 96 on grid_for(96, 2, 2.0), 193 x 386 points, a streamed table: all per-degree
    # samples would be 116 MB (a 166 MB peak).  Streamed, the peak is one _DEGREE_ROWS-row
    # block of them, two float temporaries of its shape and the float output.
    N = 96
    grid = grid_for(N, 2, 2.0)
    assert 8 * (N + 1) ** 2 * grid.t.size > grids._CACHED_TABLE_BYTES
    f = random_field(N, 2, np.random.default_rng(N))
    if norm == "l2t_profile_exact":
        _, peak = _traced_peak(norms.l2t_profile_exact, f, grid)
    else:
        _, peak = _traced_peak(triebel_lizorkin_norm, f, grid, 4.0, 2.0, 0.5)
    block = 16 * (N + 1) * grids._DEGREE_ROWS * grid.shape[1]
    assert peak < block + 2 * (block // 2) + 8 * math.prod(grid.shape)


def _streamed_block_orders(grid, N, ks=slice(None)):
    return [(m0, m1) for m0, m1, _ in _legendre_slabs(grid, N, ks)]


def test_streamed_block_orders_cover_a_full_grid_blocks_bytes(monkeypatch):
    # N = 80 on band 160 (K = 161, a streamed table): 8 orders over all K nodes, and as many
    # orders over k nodes as 8 K // k, so a one-row block runs the recurrence once, not 11 times
    grid, N = build_sphere_grid(160), 80
    assert 8 * (N + 1) ** 2 * grid.t.size > grids._CACHED_TABLE_BYTES
    assert _streamed_block_orders(grid, N) == [(m, min(m + 8, N + 1)) for m in range(0, N + 1, 8)]
    assert _streamed_block_orders(grid, N, slice(16, 32)) == [(0, 80), (80, 81)]
    passes, blocks = [], grids._legendre_blocks

    def counted(*args):
        passes.append(args[2])  # the block width
        yield from blocks(*args)

    monkeypatch.setattr(grids, "_legendre_blocks", counted)
    a = _tables(np.random.default_rng(80), N, ())
    _degree_synthesis(a, grid, slice(7, 8))
    assert passes == [N + 1]


def test_one_row_degree_blocks_equal_whole_grid():
    # N = 80 on band 160, a streamed table: each row is one block of all N + 1 orders, and
    # gives the bits of the whole grid's 8-order blocks
    grid, N = build_sphere_grid(160), 80
    a = _tables(np.random.default_rng(N), N, ())
    E = _degree_synthesis(a, grid)
    for k in range(grid.t.size):
        assert _degree_synthesis(a, grid, slice(k, k + 1)).tobytes() == E[:, k:k + 1].tobytes()


def test_lp_norm_peak_allocation_below_0_75_inputs():
    # w |v|^p is formed in one float array, half a complex input's bytes (0.62 inputs with the
    # ufunc buffer of `*= weights` at this size); a second float temporary makes it a whole one.
    grid = build_sphere_grid(128)
    rng = np.random.default_rng(128)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    for p in (2.0, 3.0, 4.0):
        _, peak = _traced_peak(lp_norm, v, grid, p)
        assert peak < 0.75 * v.nbytes


def test_fft_fallback_equals_out_path(monkeypatch):
    # numpy < 2 has no `out=` on numpy.fft: _fft_into then transforms 8 rows at a time.  Batches
    # and degree counts above 8, and a streamed table (N = 128), cover its row loop.
    rng = np.random.default_rng(8)
    cases = [(build_sphere_grid(band), rng.standard_normal((B, N + 1, 2 * N + 1))
              + 1j * rng.standard_normal((B, N + 1, 2 * N + 1)))
             for band, N, B in ((20, 20, 11), (40, 20, 70), (128, 128, 2))]

    def kernels():
        got = []
        for grid, a in cases:
            N = a.shape[-2] - 1
            values = _synthesize(a, grid)
            got += [values, _analyze(values, grid, N), _degree_synthesis(a[0], grid),
                    _degree_abs(a[0], grid, N // 2)]
        return got

    want = kernels()
    monkeypatch.setattr(grids, "_FFT_OUT", False)
    got = kernels()
    assert len(got) == len(want) == 12
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_time_blocks_share_their_transform_buffers(d):
    # One work dict across the blocks of a pass: the same bits as transforms with buffers of
    # their own, and after the first block no buffer is allocated again.
    rng = np.random.default_rng(31 + d)
    N = 4
    grid = grid_for(N + 1, d, 2.0)
    w = synthesize_history(random_field(N, d, rng), TimeGrid(150), grid).materialize()
    w.tables[1:] += 0.1 * w.tables[:-1]
    work, seen = {}, []
    for j0, samples in w.iter_time_blocks(work):
        block = w.history(j0, j0 + 64)
        want = _synthesize(block, grid)
        assert samples.tobytes() == want.tobytes()
        got = _analyze(samples, grid, N, work)
        assert got.tobytes() == _analyze(want, grid, N).tobytes()
        seen.append({name: buf.ctypes.data for name, buf in work.items()})
    assert len(seen) == 3 and seen[1] == seen[2]
    if d == 2:
        assert sorted(seen[1]) == ["X", "Y", "spec"]
