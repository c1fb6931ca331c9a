import dataclasses
import math
import mmap
import re

import numpy as np
import pytest
from scipy.special import roots_jacobi

from sphere_strichartz import grids
from sphere_strichartz.experiments import make_family
from sphere_strichartz.grids import (
    CoefficientTable,
    ResourceLimitError,
    _build_zonal_grid,
    _legendre_row,
    _legendre_slabs,
    _legendre_tables,
    build_sphere_grid,
    build_zonal_grid,
    forward_sht,
    grid_for,
    integrate,
    inverse_sht,
    max_band_limit,
    pole_values,
)
from sphere_strichartz.harmonics import _order_block_rows, gegenbauer_column, surface_area
from sphere_strichartz.cli import run
from sphere_strichartz.experiments import kappa_pq
from sphere_strichartz.norms import l2t_profile_exact, mixed_norm
from sphere_strichartz.potential import PotentialSpec, PotentialTerm, picard_solve
from sphere_strichartz.spectral import (
    TimeGrid,
    random_field,
    synthesize_by_degree,
    synthesize_history,
)

from oracles import associated_legendre, legendre_column, longitudes, project, zonal_kernel


def test_trivial_grid():
    g = build_sphere_grid(0)
    assert g.shape == (1, 2)
    assert integrate(np.ones(g.shape), g) == pytest.approx(4 * math.pi, abs=1e-14)


def test_sphere_grid_weights_positive():
    g = build_sphere_grid(256)
    assert np.all(g.t_weights > 0)
    assert g.shape == (257, 514)


def test_grid_cache_returns_same_object():
    assert build_sphere_grid(8) is build_sphere_grid(8)
    assert build_zonal_grid(8, 3) is build_zonal_grid(8, 3)


def test_band_limit_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        build_sphere_grid(2000)
    monkeypatch.setenv("SPHERE_STRICHARTZ_MAX_N", "100")
    with pytest.raises(ResourceLimitError):
        build_sphere_grid(101)


def test_zonal_grid_reduces_to_legendre_for_d2():
    zg = build_zonal_grid(12, 2)
    sg = build_sphere_grid(12)
    np.testing.assert_allclose(zg.t, sg.t, atol=1e-15)
    np.testing.assert_allclose(zg.t_weights, sg.t_weights, atol=1e-15)


def test_zonal_total_mass_d3():
    zg = build_zonal_grid(8, 3)
    assert float(np.sum(zg.weights())) == pytest.approx(2 * math.pi**2, abs=1e-13)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_zonal_total_mass_general(d):
    zg = build_zonal_grid(10, d)
    assert float(np.sum(zg.weights())) == pytest.approx(surface_area(d), rel=1e-13)


def test_gegenbauer_orthogonality_under_zonal_grid():
    d, N = 3, 12
    zg = build_zonal_grid(N, d)
    C = gegenbauer_column(N, (d - 1) / 2, zg.t)
    G = (C * zg.t_weights) @ C.T
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-12


def test_forward_constant_field():
    N = 8
    g = build_sphere_grid(N)
    tab = forward_sht(np.ones(g.shape), g, N)
    assert tab.a[0, 0 + tab.N] == pytest.approx(math.sqrt(4 * math.pi), rel=1e-14)
    others = tab.a.copy()
    others[0, N] = 0
    assert np.max(np.abs(others)) < 1e-13


def test_forward_recovers_unit_mode():
    N = 8
    g = build_sphere_grid(N)
    y32 = inverse_sht(CoefficientTable.unit_mode(N, 3, 2), g)
    tab = forward_sht(y32, g, N)
    err = tab.a.copy()
    err[3, 2 + N] -= 1.0
    assert np.max(np.abs(err)) < 1e-12


def test_inverse_of_delta_matches_direct_evaluation():
    # synthesized Y_{3,2} equals Pbar_3^2(t) e^{2 i phi} at the grid points
    N = 6
    g = build_sphere_grid(N)
    vals = inverse_sht(CoefficientTable.unit_mode(N, 3, 2), g)
    direct = associated_legendre(3, 2, g.t)[:, None] * np.exp(2j * longitudes(g))[None, :]
    np.testing.assert_allclose(vals, direct, atol=1e-13)


def test_inverse_zero_table():
    g = build_sphere_grid(4)
    vals = inverse_sht(CoefficientTable.zeros(4, 2), g)
    assert np.max(np.abs(vals)) == 0.0


@pytest.mark.parametrize("N", [8, 16, 64, 256])
def test_round_trip_sphere(N):
    rng = np.random.default_rng(N)
    f = random_field(N, 2, rng)
    g = build_sphere_grid(N)
    back = forward_sht(inverse_sht(f, g), g, N)
    assert np.max(np.abs(back.a - f.a)) < 1e-12


def test_round_trip_on_oversampled_grid():
    rng = np.random.default_rng(5)
    f = random_field(16, 2, rng)
    g = grid_for(16, 2, 2.0)
    back = forward_sht(inverse_sht(f, g), g, 16)
    assert np.max(np.abs(back.a - f.a)) < 1e-12


@pytest.mark.parametrize("d,N", [(2, 16), (3, 16), (3, 128), (5, 24)])
def test_round_trip_zonal(d, N):
    rng = np.random.default_rng(d * 1000 + N)
    f = random_field(N, max(d, 3), rng)  # unit coefficients, one per degree
    if d == 2:  # a zonal field on S^2: the full table with only its m = 0 column
        f, column = CoefficientTable.zeros(N, 2), f.a
        f.a[:, N] = column
    g = grid_for(N, d, 1.0)  # the S^2 grid at d = 2
    back = forward_sht(inverse_sht(f, g), g, N)
    assert np.max(np.abs(back.a - f.a)) < 1e-12


@pytest.mark.parametrize("N,rtol", [(64, 1e-12), (128, 1e-12), (256, 1e-12), (512, 1e-11)])
def test_zonal_d3_weights_match_gauss_chebyshev(N, rtol):
    # d = 3 is Gauss-Jacobi(1/2, 1/2), i.e. Gauss-Chebyshev of the second kind:
    # t_k = cos(k pi / (K+1)), w_k = pi / (K+1) sin^2(k pi / (K+1))
    K = N + 1
    theta = np.pi * np.arange(K, 0, -1) / (K + 1)
    zg = build_zonal_grid(N, 3)
    np.testing.assert_allclose(zg.t, np.cos(theta), rtol=0, atol=1e-15)
    np.testing.assert_allclose(zg.t_weights, np.pi / (K + 1) * np.sin(theta) ** 2, rtol=rtol)


def _slab_table(band, N):
    """The full-height (N+1, N+1, K) table assembled from the slabs.

    Checks that the slabs cover the orders in sequence, are C-contiguous and hold +0.0 in
    the rows n < m; those rows of the result stay untouched zeros, so at large N only the
    pages of rows n >= m are ever written.
    """
    grid = build_sphere_grid(band)
    K = grid.t.size
    shape = (N + 1, N + 1, K)  # a private mapping: numpy would back np.zeros with huge pages
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    P = np.frombuffer(buf, dtype=float).reshape(shape)
    covered = 0
    for m0, m1, slab in _legendre_slabs(grid, N):
        assert m0 == covered < m1 and slab.shape == (m1 - m0, N + 1, K)
        assert slab.flags.c_contiguous
        for m in range(m0, m1):
            assert slab[m - m0, :m].tobytes() == bytes(8 * m * K)
            P[m, m:] = slab[m - m0, m:]
        covered = m1
    assert covered == N + 1
    return P


@pytest.mark.parametrize("band,N", [(0, 0), (1, 1), (2, 2), (16, 8), (40, 20), (128, 128)])
def test_legendre_table_equals_per_order_columns(band, N, fresh_legendre_caches):
    # the all-orders recurrence repeats legendre_column's arithmetic, so equality is exact
    t = build_sphere_grid(band).t
    P = _slab_table(band, N)
    np.testing.assert_array_equal(P, np.stack([legendre_column(m, N, t) for m in range(N + 1)]))
    m, n = np.indices((N + 1, N + 1))
    assert np.all(P[n < m] == 0.0)


# K = band + 1 nodes: odd K, and even K at (1, 1), (17, 9) and (63, 40)
@pytest.mark.parametrize("band,N", [(0, 0), (1, 1), (16, 8), (17, 9), (64, 64), (63, 40),
                                    (128, 128), (256, 256), (512, 256), (512, 512)])
def test_legendre_rows_equal_table_rows(band, N, fresh_legendre_caches):
    t = build_sphere_grid(band).t
    P = _slab_table(band, N)
    for n, (m0, n_, row) in enumerate(_order_block_rows(t, N, N + 1)):  # one block: every order
        assert (m0, n_, row.shape) == (0, n, (N + 1, t.size))
        assert row.tobytes() == P[:, n].tobytes()  # with +0.0 for the orders m > n
    for n in {0, N // 3, N}:  # one hemisphere of nodes to degree n, then mirrored
        row, ref, Kh = _legendre_row(t, n), P[: n + 1, n], (t.size + 1) // 2
        np.testing.assert_array_equal(row, ref)  # so every nonzero entry has its sign bit too
        # the bits of the recurrence's own hemisphere; an exact zero at a mirrored node may
        # take the other sign, which only |H_n f| reads
        assert row[:, :Kh].tobytes() == ref[:, :Kh].tobytes()
    for m in {min(1, N), N // 2, N}:  # the per-order reference recurrence
        np.testing.assert_array_equal(P[m], legendre_column(m, N, t))


@pytest.mark.parametrize("oversample", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_single_degree_synthesis_equals_inverse_sht(n, oversample):
    # the Legendre sum of inverse_sht adds exact zeros for the other degrees
    rng = np.random.default_rng(n)
    for f in (make_family("random-eigenspace", n, 2, rng=rng),
              project(random_field(n + 5, 2, rng), n)):
        grid = grid_for(f.N, 2, oversample)
        got = grids._per_point(f.a, grid, lambda E, out: np.abs(E[0], out=out), n)
        assert np.array_equal(got, np.abs(inverse_sht(f, grid)))


def test_legendre_table_map_failure_is_resource_limit(monkeypatch, capsys):
    empty = np.empty

    def refuse_large(shape, *args, **kwargs):  # as if memory ran out at 100 kB
        if 8 * math.prod(np.atleast_1d(shape)) >= 100_000:
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    _legendre_tables.cache_clear()
    monkeypatch.setattr(np, "empty", refuse_large)
    try:
        # the cached table at all K = 41 nodes, and at 25
        with pytest.raises(ResourceLimitError, match=r"^Legendre table for grid band 40, "
                                                     r"N = 20 needs 0.000145 GB$"):
            _legendre_tables(40, 20)
        assert run(["selftest", "--N", "24"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Legendre table for grid band 24, N = 24 needs 0.000125 GB")
        assert "Traceback" not in err
        # a streamed block of 8 orders
        monkeypatch.setattr(grids, "_CACHED_TABLE_BYTES", 0)
        with pytest.raises(ResourceLimitError, match=r"^Legendre block of 8 orders for grid "
                                                     r"band 40, N = 40 needs 0.000108 GB$"):
            next(_legendre_slabs(build_sphere_grid(40), 40))
    finally:
        _legendre_tables.cache_clear()


def test_streamed_one_node_block_failure_names_a_block(monkeypatch):
    # a streamed block over one node holds all N + 1 orders, and is not the whole table
    def refuse(shape, *args, **kwargs):
        raise MemoryError("Unable to allocate")

    grid = build_sphere_grid(80)
    monkeypatch.setattr(grids, "_CACHED_TABLE_BYTES", 0)
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(ResourceLimitError, match=r"^Legendre block of 41 orders for grid band 80, "
                                                 r"N = 40 needs 1.34e-05 GB$"):
        next(_legendre_slabs(grid, 40, slice(3, 4)))


@pytest.mark.parametrize("value", ["abc", "1.5", "-5"])
def test_band_limit_cap_must_be_a_nonnegative_integer(value, monkeypatch, capsys):
    monkeypatch.setenv("SPHERE_STRICHARTZ_MAX_N", value)
    with pytest.raises(ValueError, match=f"SPHERE_STRICHARTZ_MAX_N .* got '{value}'"):
        max_band_limit()
    assert run(["selftest", "--N", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SPHERE_STRICHARTZ_MAX_N must be an integer >= 0, got '{value}'")
    assert "Traceback" not in err


@pytest.mark.parametrize("d", [3, 4, 5, 7, 10])
@pytest.mark.parametrize("K", [1, 2, 3, 17, 257, 1025])
def test_zonal_nodes_match_scipy_gauss_jacobi(d, K):
    zg = _build_zonal_grid(K - 1, d)
    a = (d - 2) / 2.0
    np.testing.assert_allclose(zg.t, roots_jacobi(K, a, a)[0], rtol=0, atol=2e-15)
    assert np.all(np.isfinite(zg.t_weights)) and np.all(zg.t_weights > 0)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("N", [256, 512])
def test_zonal_round_trip_and_parseval_large_band(d, N):
    rng = np.random.default_rng(10 * N + d)
    f = random_field(N, d, rng)
    zg = build_zonal_grid(N, d)
    vals = inverse_sht(f, zg)
    assert np.max(np.abs(forward_sht(vals, zg, N).a - f.a)) <= 1e-12
    assert abs(integrate(np.abs(vals) ** 2, zg) - np.sum(np.abs(f.a) ** 2)) <= 1e-12


def test_zonal_constant_has_single_coefficient():
    zg = build_zonal_grid(6, 3)
    tab = forward_sht(np.ones(zg.shape), zg, 6)
    assert abs(tab.a[0]) == pytest.approx(math.sqrt(surface_area(3)), rel=1e-13)
    assert np.max(np.abs(tab.a[1:])) < 1e-13


def test_zonal_kernel_purity():
    # analyzed zonal kernel has only the degree-n coefficient
    n, d, N = 5, 3, 10
    zg = build_zonal_grid(N, d)
    vals = zonal_kernel(n, d, zg.t)
    tab = forward_sht(vals, zg, N)
    others = tab.a.copy()
    others[n] = 0
    assert np.max(np.abs(others)) < 1e-12
    assert abs(tab.a[n]) > 0.1


@pytest.mark.parametrize("N", [0, 1, 7, 40])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_forward_sht_on_zonal_grid_is_the_table_times_weighted_samples(d, N):
    # The zonal analysis forms T @ (w v); _analyze's (w v) @ T.T rounds otherwise, which would
    # move the round-trip errors selftest prints.
    zg = build_zonal_grid(N, d)
    vals = inverse_sht(random_field(N, d, np.random.default_rng([d, N])), zg)
    want = grids._zonal_tables(zg.band, N, d) @ (zg.weights() * vals)
    assert forward_sht(vals, zg, N).a.tobytes() == want.tobytes()


def test_parseval_both_pipelines():
    rng = np.random.default_rng(77)
    f = random_field(16, 2, rng)
    g = build_sphere_grid(16)
    vals = inverse_sht(f, g)
    assert integrate(np.abs(vals) ** 2, g) == pytest.approx(
        float(np.sum(np.abs(f.a) ** 2)), abs=1e-12
    )
    zf = random_field(16, 3, rng)
    zg = build_zonal_grid(16, 3)
    zvals = inverse_sht(zf, zg)
    assert integrate(np.abs(zvals) ** 2, zg) == pytest.approx(
        float(np.sum(np.abs(zf.a) ** 2)), abs=1e-12
    )


def test_integrate_examples():
    N = 6
    g = build_sphere_grid(N)
    assert integrate(np.ones(g.shape), g) == pytest.approx(4 * math.pi, rel=1e-14)
    y10 = inverse_sht(CoefficientTable.unit_mode(N, 1, 0), g)
    assert abs(integrate(y10, g)) < 1e-14
    y21 = inverse_sht(CoefficientTable.unit_mode(N, 2, 1), g)
    assert integrate(np.abs(y21) ** 2, g) == pytest.approx(1.0, abs=1e-13)


def test_integrate_linear_and_positive():
    rng = np.random.default_rng(9)
    g = build_sphere_grid(5)
    u = rng.standard_normal(g.shape)
    v = rng.standard_normal(g.shape)
    lhs = integrate(2.0 * u + 3.0 * v, g)
    assert lhs == pytest.approx(2 * integrate(u, g) + 3 * integrate(v, g), abs=1e-12)
    assert integrate(np.abs(u), g) > 0


def test_shape_and_band_errors():
    g = build_sphere_grid(4)
    with pytest.raises(ValueError):
        integrate(np.ones((2, 3)), g)
    with pytest.raises(ValueError):
        forward_sht(np.ones((3, 3)), g, 2)
    with pytest.raises(ValueError):
        forward_sht(np.ones(g.shape), g, 9)  # band above grid band
    with pytest.raises(ValueError):
        inverse_sht(CoefficientTable.zeros(9, 2), g)
    zg = build_zonal_grid(4, 3)
    with pytest.raises(ValueError):
        inverse_sht(CoefficientTable.zeros(9, 3), zg)
    with pytest.raises(ValueError):
        inverse_sht(CoefficientTable.zeros(2, 4), zg)  # wrong d


def test_coefficient_table_validation():
    with pytest.raises(ValueError):
        CoefficientTable(N=2, d=2, a=np.zeros((2, 5)))  # bad shape
    with pytest.raises(ValueError):
        CoefficientTable(N=1, d=3, a=np.zeros((2, 3)))  # full table needs d=2
    with pytest.raises(ValueError, match=re.escape("shape (3,) != (3, 5)")):
        CoefficientTable(N=2, d=2, a=np.zeros(3))  # a zonal table needs d >= 3
    bad = np.zeros(3, dtype=complex)
    bad[1] = np.nan
    with pytest.raises(ValueError):
        CoefficientTable(N=2, d=3, a=bad)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_table_layout_follows_from_d(d):
    # one shape rule for the constructor, zeros, unit_mode and random_field; `zonal` is read
    # from d and is no parameter
    shape = (5, 9) if d == 2 else (5,)
    tables = [CoefficientTable(4, d, np.zeros(shape)), CoefficientTable.zeros(4, d),
              CoefficientTable.unit_mode(4, 2, d=d), random_field(4, d, np.random.default_rng(d))]
    tables += [t.copy() for t in tables] + [tables[1] + tables[2], 2.0 * tables[3]]
    for f in tables:
        assert f.a.shape == shape and f.zonal == (f.d != 2)
    with pytest.raises(AttributeError):
        tables[0].zonal = d == 2
    with pytest.raises(TypeError):
        CoefficientTable(4, d, np.zeros(shape), zonal=d != 2)
    negative = [lambda: CoefficientTable.zeros(-1, d), lambda: CoefficientTable(-1, d, []),
                lambda: random_field(-1, d, np.random.default_rng(0))]
    for make in negative:
        with pytest.raises(ValueError, match=re.escape("band limit must be >= 0, got -1")):
            make()


def test_sphere_grid_dimension_is_not_a_field():
    g = build_sphere_grid(3)
    assert g.d == 2 and "d" not in {f.name for f in dataclasses.fields(g)}
    with pytest.raises(TypeError):
        grids.SphereGrid(band=3, t=g.t, t_weights=g.t_weights, lon_count=8, d=2)


def test_unit_mode_rejects_order_above_degree():
    with pytest.raises(ValueError, match=re.escape("|m| <= n violated: n=2, m=-3")):
        CoefficientTable.unit_mode(4, 2, -3)
    for args, kwargs, message in [
        ((4, 2, 3), dict(d=3), "no mode n=2, m=3 in a band-4 zonal table"),
        ((4, -1), dict(d=3), "no mode n=-1, m=0 in a band-4 zonal table"),
        ((4, 5), {}, "no mode n=5, m=0 in a band-4 table"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            CoefficientTable.unit_mode(*args, **kwargs)


def test_pole_values():
    tab = CoefficientTable.unit_mode(6, 3, 0)
    north, south = pole_values(tab)
    assert north == pytest.approx(associated_legendre(3, 0, 1.0), rel=1e-13)
    assert south == pytest.approx(associated_legendre(3, 0, -1.0), rel=1e-13)
    # m != 0 modes vanish at the poles
    tab2 = CoefficientTable.unit_mode(6, 4, 2)
    np.testing.assert_allclose(np.abs(pole_values(tab2)), 0.0, atol=1e-15)


def test_reproducing_kernel_recovers_harmonic():
    # quadrature of Z_5(x . y) Y_{5,3}(y) over y recovers Y_{5,3}(x)
    N = 10  # grid band >= 5 + 5
    g = build_sphere_grid(N)
    y53 = inverse_sht(CoefficientTable.unit_mode(5, 5, 3), g)
    w = g.weights()
    tt, pp = np.meshgrid(g.t, longitudes(g), indexing="ij")
    sin_t = np.sqrt(1 - tt**2)
    for kx, jx in [(3, 5), (7, 0), (5, 9)]:
        tx, px = g.t[kx], longitudes(g)[jx]
        cosang = tx * tt + math.sqrt(1 - tx**2) * sin_t * np.cos(px - pp)
        got = np.sum(w * zonal_kernel(5, 2, np.clip(cosang, -1, 1)) * y53)
        assert got == pytest.approx(y53[kx, jx], abs=1e-11)


def test_zonal_kernel_orthogonality_under_quadrature():
    # integral of Z_n(x.y) Z_m(x'.y) dsigma(y) = delta_{nm} Z_n(x.x')
    N = 12
    g = build_sphere_grid(N)
    tt, pp = np.meshgrid(g.t, longitudes(g), indexing="ij")
    sin_t = np.sqrt(1 - tt**2)

    def cos_angle(tx, px):
        return np.clip(tx * tt + math.sqrt(1 - tx**2) * sin_t * np.cos(px - pp), -1, 1)

    w = g.weights()
    x = (g.t[4], longitudes(g)[3])
    x2 = (g.t[9], longitudes(g)[11])
    zn_x = zonal_kernel(4, 2, cos_angle(*x))
    zm_x2 = zonal_kernel(6, 2, cos_angle(*x2))
    zn_x2 = zonal_kernel(4, 2, cos_angle(*x2))
    cross = np.sum(w * zn_x * zm_x2)
    assert abs(cross) < 1e-11
    same = np.sum(w * zn_x * zn_x2)
    cos_xx2 = x[0] * x2[0] + math.sqrt(1 - x[0] ** 2) * math.sqrt(1 - x2[0] ** 2) * math.cos(
        x[1] - x2[1]
    )
    assert same == pytest.approx(zonal_kernel(4, 2, cos_xx2), abs=1e-11)


def _mismatches():
    """pytest params (call, table kind, grid kind), one per entry point: a table, or the table
    an entry point analyzes into, handed a grid of another kind or dimension."""
    rng = np.random.default_rng(3)
    z3, full = random_field(4, 3, rng), random_field(4, 2, rng)
    zg2, sg = build_zonal_grid(8, 2), build_sphere_grid(8)
    return [
        pytest.param(lambda: synthesize_by_degree(z3, zg2), "zonal S^3", "zonal S^2",
                     id="synthesize_by_degree"),
        pytest.param(lambda: l2t_profile_exact(z3, zg2), "zonal S^3", "zonal S^2",
                     id="l2t_profile_exact"),
        pytest.param(lambda: mixed_norm(synthesize_history(z3, TimeGrid(160), zg2), 4.0, 2.0),
                     "zonal S^3", "zonal S^2", id="synthesize_history"),
        pytest.param(lambda: inverse_sht(z3, sg), "zonal S^3", "sphere S^2",
                     id="inverse_zonal"),
        pytest.param(lambda: inverse_sht(full, zg2), "full S^2", "zonal S^2", id="inverse_sht"),
        pytest.param(lambda: forward_sht(np.ones(zg2.shape), zg2, 4), "full S^2", "zonal S^2",
                     id="forward_sht"),
    ]


@pytest.mark.parametrize("call, table, grid", _mismatches())
def test_table_on_grid_of_another_kind_raises_naming_both(call, table, grid):
    # A mismatched pair must fail before any work, with one message naming both kinds, not
    # return numbers in the wrong basis or shape.
    message = f"a {table} table does not fit a {grid} grid"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_legendre_table_cache_holds_a_picard_op(fresh_legendre_caches):
    # One benchmark Picard op: solves at N = 4, 5 and 6 with one band-1 potential, which read
    # 9 (grid band, N) table keys.  After one op has filled the cache, the next rebuilds none.
    B = CoefficientTable.unit_mode(1, 1, 0)
    V = PotentialSpec([PotentialTerm(np.array([1, -1]), np.array([0.015, 0.015]), B)])
    rng = np.random.default_rng(11)
    fields = [random_field(N, 2, rng) for N in (4, 5, 6)]
    s = kappa_pq(4.0, 2.0, 2)

    def op():
        for f in fields:
            picard_solve(f, V, p=4.0, s=s)

    op()
    before = _legendre_tables.cache_info()
    op()
    after = _legendre_tables.cache_info()
    assert after.currsize <= after.maxsize
    assert after.misses == before.misses, f"{after.misses - before.misses} tables rebuilt"
    assert after.hits > before.hits
