import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_strichartz import norms, spectral
from sphere_strichartz.grids import (
    CoefficientTable,
    _synthesize,
    build_sphere_grid,
    build_zonal_grid,
    grid_for,
)
from sphere_strichartz.harmonics import eigenvalues_upto
from sphere_strichartz.norms import mixed_norm
from sphere_strichartz.spectral import (
    SpaceTimeField,
    TimeGrid,
    _row_blocks,
    nyquist_time_grid,
    propagate,
    random_field,
    reduce_time,
    synthesize_by_degree,
    synthesize_history,
)

from oracles import associated_legendre, fractional_weight, longitudes, project, samples_at

TWO_PI = 2.0 * math.pi


def lattice_times(rng, count, span=TWO_PI, h=2.0**-47):
    """Random times quantized to a 2^-47 lattice, so t + 2*pi stays exact."""
    return np.floor(rng.uniform(0, span, count) / h) * h


def test_project_fixed_point_and_orthogonality():
    f = CoefficientTable.unit_mode(8, 3, 2)
    np.testing.assert_array_equal(project(f, 3).a, f.a)
    assert np.max(np.abs(project(f, 5).a)) == 0.0


def test_project_out_of_band():
    f = CoefficientTable.zeros(4, 2)
    with pytest.raises(ValueError):
        project(f, 5)


def test_projections_resolve_identity():
    rng = np.random.default_rng(0)
    f = random_field(8, 2, rng)
    total = CoefficientTable.zeros(8, 2)
    for n in range(9):
        total = total + project(f, n)
    assert np.max(np.abs(total.a - f.a)) < 1e-13


def test_projection_idempotent_and_self_adjoint():
    rng = np.random.default_rng(1)
    f = random_field(6, 2, rng)
    g = random_field(6, 2, rng)
    pf = project(f, 4)
    np.testing.assert_array_equal(project(pf, 4).a, pf.a)
    lhs = np.vdot(project(f, 4).a, g.a)
    rhs = np.vdot(f.a, project(g, 4).a)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_propagate_at_zero_is_identity():
    rng = np.random.default_rng(2)
    f = random_field(8, 2, rng)
    np.testing.assert_array_equal(propagate(f, 0.0).a, f.a)


def test_propagate_full_period_is_identity():
    rng = np.random.default_rng(3)
    f = random_field(16, 2, rng)
    assert np.max(np.abs(propagate(f, TWO_PI).a - f.a)) == 0.0


def test_propagate_single_mode_phase():
    # degree-1 on S^2 has eigenvalue 2, so the coefficient phase is e^{2it}
    f = CoefficientTable.unit_mode(4, 1, 0)
    t = 0.8371
    got = propagate(f, t).a[1, 0 + f.N]
    assert got == pytest.approx(np.exp(2j * t), abs=1e-15)


def test_propagate_unitary():
    rng = np.random.default_rng(4)
    f = random_field(32, 2, rng)
    for t in rng.uniform(0, 10 * TWO_PI, 20):
        assert abs(propagate(f, t).l2_norm() - f.l2_norm()) < 1e-14


def test_propagate_periodicity_random_lattice_times():
    rng = np.random.default_rng(5)
    f = random_field(32, 2, rng)
    for t in lattice_times(rng, 20):
        lhs = propagate(f, t + TWO_PI)
        rhs = propagate(f, t)
        assert np.max(np.abs(lhs.a - rhs.a)) <= 1e-13


def test_propagate_group_law():
    rng = np.random.default_rng(6)
    f = random_field(16, 2, rng)
    for _ in range(10):
        s, t = lattice_times(rng, 2, span=math.pi)
        lhs = propagate(propagate(f, s), t)
        rhs = propagate(f, s + t)
        assert np.max(np.abs(lhs.a - rhs.a)) < 1e-13


def lattice(lo, hi, h=2.0**-39):
    """Times k h in [lo, hi]: below 2 pi they have at most 42 significant bits, so
    lambda_n t is exact for every lambda_n < 2^11 (N <= 32, d <= 4)."""
    return st.integers(math.ceil(lo / h), math.floor(hi / h)).map(lambda k: k * h)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(N=st.integers(0, 32), d=st.sampled_from([2, 3, 4]),
       s=lattice(0, 3.14), t=lattice(0, 3.14), r=lattice(-6.28, 6.28),
       seed=st.integers(0, 2**32 - 1))
def test_propagate_group_law_property(N, d, s, t, r, seed):
    f = random_field(N, d, np.random.default_rng(seed))
    # s + t < 2 pi: no time wraps and every phase argument is exact, so only exp rounds
    lhs = propagate(propagate(f, s), t)
    assert np.max(np.abs(lhs.a - propagate(f, s + t).a)) <= 1e-13
    # r and -r reduce to times summing to fl(2 pi), and each reduced time is rounded once
    # in lambda_n r_reduced: degree n turns by up to lambda_n (|2 pi - fl(2 pi)| + 2 pi eps)
    back = propagate(propagate(f, r), -r)
    lam = eigenvalues_upto(N, d) if f.zonal else eigenvalues_upto(N, d)[:, None]
    bound = 1e-15 + np.abs(f.a) * lam * 2 * TWO_PI * np.finfo(float).eps
    assert np.all(np.abs(back.a - f.a) <= bound)


def test_propagate_commutes_with_projection():
    rng = np.random.default_rng(7)
    f = random_field(10, 2, rng)
    t = 1.234
    lhs = project(propagate(f, t), 6)
    rhs = propagate(project(f, 6), t)
    np.testing.assert_array_equal(lhs.a, rhs.a)


def test_propagate_zonal_pipeline():
    rng = np.random.default_rng(8)
    f = random_field(12, 3, rng)
    t = 2.5
    got = propagate(f, t)
    lam = np.array([eigenvalues_upto(n, 3)[n] for n in range(13)])
    np.testing.assert_allclose(got.a, f.a * np.exp(1j * lam * t), atol=1e-15)


def test_fractional_weight_examples():
    rng = np.random.default_rng(9)
    f = random_field(8, 2, rng)
    np.testing.assert_array_equal(fractional_weight(f, 0.0).a, f.a)
    y3 = CoefficientTable.unit_mode(8, 3, 1)
    w3 = fractional_weight(y3, 1.0)
    assert w3.a[3, 1 + w3.N] == pytest.approx(4.0, rel=1e-15)
    roundtrip = fractional_weight(fractional_weight(f, 0.7), -0.7)
    assert np.max(np.abs(roundtrip.a - f.a)) < 1e-14


def test_synthesize_by_degree_sums_to_field():
    rng = np.random.default_rng(10)
    f = random_field(8, 2, rng)
    g = build_sphere_grid(8)
    E = synthesize_by_degree(f, g)
    from sphere_strichartz.grids import inverse_sht

    np.testing.assert_allclose(E.sum(axis=0), inverse_sht(f, g), atol=1e-12)


def test_history_constant_mode():
    y00 = CoefficientTable.unit_mode(2, 0, 0)
    g = build_sphere_grid(2)
    u = synthesize_history(y00, TimeGrid(8), g)
    for j in (0, 3, 7):
        np.testing.assert_allclose(
            samples_at(u, j), np.full(g.shape, 1 / math.sqrt(4 * math.pi)), atol=1e-14
        )


def test_history_single_mode_has_time_independent_modulus():
    f = CoefficientTable.unit_mode(6, 4, 2)
    g = build_sphere_grid(6)
    u = synthesize_history(f, TimeGrid(16), g)
    ref = np.abs(samples_at(u, 0))
    for j in range(1, 16):
        np.testing.assert_allclose(np.abs(samples_at(u, j)), ref, atol=1e-13)


def test_history_matches_direct_summation():
    # two-mode field against a hand-rolled evaluation at random grid points
    N = 5
    f = CoefficientTable.zeros(N, 2)
    f.a[2, 1 + N] = 0.7 - 0.2j
    f.a[4, -3 + N] = 0.1 + 1.1j
    g = build_sphere_grid(N)
    tg = TimeGrid(12)
    u = synthesize_history(f, tg, g)
    rng = np.random.default_rng(11)
    for _ in range(20):
        j = int(rng.integers(0, tg.M))
        k = int(rng.integers(0, g.shape[0]))
        l = int(rng.integers(0, g.shape[1]))
        t, tk, ph = tg.times[j], g.t[k], longitudes(g)[l]
        direct = (
            f.a[2, 1 + f.N] * np.exp(1j * eigenvalues_upto(2, 2)[2] * t)
            * associated_legendre(2, 1, tk) * np.exp(1j * ph)
            + f.a[4, -3 + f.N] * np.exp(1j * eigenvalues_upto(4, 2)[4] * t)
            * (-1.0) * associated_legendre(4, 3, tk) * np.exp(-3j * ph)
        )
        assert samples_at(u, j)[k, l] == pytest.approx(direct, abs=1e-12)


def test_materialized_history_matches_free():
    rng = np.random.default_rng(12)
    f = random_field(6, 2, rng)
    g = build_sphere_grid(6)
    u = synthesize_history(f, TimeGrid(10), g)
    ue = u.materialize()
    for j in (0, 4, 9):
        np.testing.assert_allclose(ue.tables[j], u.history(j, j + 1)[0], atol=1e-15)
        np.testing.assert_allclose(samples_at(ue, j), samples_at(u, j), atol=1e-13)


def test_space_chunks_match_per_time_samples(monkeypatch):
    # d = 2: every lambda_n is even, so one period is P = M/2 nodes
    rng = np.random.default_rng(13)
    f = random_field(5, 2, rng)
    g = grid_for(5, 2, 2.0)
    tg = nyquist_time_grid(5, 2)
    u = synthesize_history(f, tg, g)
    P = tg.M // 2
    series = np.empty((*g.shape, P), dtype=complex)
    monkeypatch.setattr(spectral, "_SERIES_CHUNK_BYTES", 16 * P * 37)  # chunks of 37 points
    for sl, block in u.iter_space_chunks():
        assert block.shape == (sl.stop - sl.start, P)
        series.reshape(-1, P)[sl] = block
    for j in (0, tg.M // 3, P + 1, tg.M - 1):
        np.testing.assert_allclose(series[..., j % P], samples_at(u, j), atol=1e-12)


def test_space_chunks_zonal(monkeypatch):
    # d = 3: gcd(lambda_1, lambda_2) = gcd(3, 8) = 1, so the period is all M nodes
    rng = np.random.default_rng(14)
    f = random_field(6, 3, rng)
    g = grid_for(6, 3, 2.0)
    tg = nyquist_time_grid(6, 3)
    u = synthesize_history(f, tg, g)
    P = tg.M
    series = np.empty((*g.shape, P), dtype=complex)
    monkeypatch.setattr(spectral, "_SERIES_CHUNK_BYTES", 16 * P * 5)  # chunks of 5 points
    for sl, block in u.iter_space_chunks():
        assert block.shape == (sl.stop - sl.start, P)
        series.reshape(-1, P)[sl] = block
    for j in (0, tg.M - 1):
        np.testing.assert_allclose(series[..., j % P], samples_at(u, j), atol=1e-12)


def test_band_overflow_guard():
    f = random_field(8, 2, np.random.default_rng(15))
    g = build_sphere_grid(4)
    with pytest.raises(ValueError):
        synthesize_history(f, TimeGrid(4), g)


def test_nyquist_grid_size():
    tg = nyquist_time_grid(16, 2)
    assert tg.M == 4 * (16 * 17 + 1)


def test_spacetime_subtraction_and_scaling():
    rng = np.random.default_rng(16)
    f = random_field(4, 2, rng)
    g = build_sphere_grid(4)
    u = synthesize_history(f, TimeGrid(6), g)
    diff = u - SpaceTimeField(u.tg, g, u.base * 0.5)
    ue = u.materialize()
    np.testing.assert_allclose(diff.materialize().tables, 0.5 * ue.tables, atol=1e-15)


def test_spacetime_subtraction_needs_the_same_grids():
    rng = np.random.default_rng(17)
    f = random_field(4, 2, rng)
    u = synthesize_history(f, TimeGrid(6), build_sphere_grid(4))
    other = synthesize_history(f, TimeGrid(6), build_sphere_grid(5))
    with pytest.raises(ValueError, match="spatial grids"):
        u - other
    with pytest.raises(ValueError, match="spatial grids"):
        other - u
    with pytest.raises(ValueError, match="time grids"):
        u - synthesize_history(f, TimeGrid(7), build_sphere_grid(4))
    # zonal grids of the same band and size on S^3 and S^4
    z3 = synthesize_history(random_field(4, 3, rng), TimeGrid(6), grid_for(4, 3))
    z4 = synthesize_history(random_field(4, 4, rng), TimeGrid(6), grid_for(4, 4))
    assert z3.grid.shape == z4.grid.shape
    with pytest.raises(ValueError, match="spatial grids"):
        z3 - z4


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["explicit-history", "free-M-at-most-lambda-N",
                                  "free-M-above-lambda-N"])
def test_space_time_field_checks_its_fit_when_built(kind, d):
    # a band-6 field on a band-2 grid, or on a grid of the other kind (zonal S^3 for a full
    # table, S^2 for a zonal one), is refused when it is built, before any route reads it
    f = random_field(6, d, np.random.default_rng(0))
    M = 20 if kind == "free-M-at-most-lambda-N" else 200  # lambda_6 = 42 on S^2, 48 on S^3
    assert (M <= eigenvalues_upto(6, d)[-1]) == (kind == "free-M-at-most-lambda-N")
    tables = None if kind.startswith("free") else np.ones((M, *f.a.shape), complex)
    table, grid_kind, other = (("full S^2", "zonal S^3", grid_for(6, 3)) if d == 2 else
                               ("zonal S^3", "sphere S^2", grid_for(6, 2)))
    for grid, message in [(grid_for(2, d, 1.0), "table band 6 exceeds grid band 2"),
                          (other, f"a {table} table does not fit a {grid_kind} grid")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            SpaceTimeField(TimeGrid(M), grid, f, tables=tables)
        if tables is None:
            with pytest.raises(ValueError, match=re.escape(message)):
                synthesize_history(f, TimeGrid(M), grid)


def test_fit_is_checked_once_when_built_and_by_no_route(monkeypatch):
    # the field owns its fit check: the space-chunk, resonant, time-block and Gram routes of
    # mixed_norm, and u - v, make none
    calls = []
    monkeypatch.setattr(spectral, "_check_fit", lambda *args: calls.append(args))
    monkeypatch.setattr(norms, "_check_fit", lambda *args: calls.append(args))
    f, grid = random_field(6, 2, np.random.default_rng(1)), grid_for(6, 2, 2.0)
    u = synthesize_history(f, TimeGrid(200), grid)  # M > 2 lambda_6 = 84: resonant at q = 4
    w = u.materialize()
    assert calls == [(grid, 6, 2)] * 2
    calls.clear()
    for v, q in [(u, 3.0), (u, 4.0), (w, 3.0), (w, 2.0)]:
        mixed_norm(v, 4.0, q)
    u - w
    assert calls == [(grid, 6, 2)]  # the difference's own construction


@pytest.mark.parametrize("name", ["grid", "base", "tables", "tg"])
@pytest.mark.parametrize("kind", ["explicit-history", "free"])
def test_space_time_field_is_frozen(kind, name):
    # a field that passed its fit and history-shape checks keeps them: `w.grid =
    # grid_for(2, 2, 1.0)` on a band-6 history once gave an under-resolved mixed norm
    f = random_field(6, 2, np.random.default_rng(0))
    u = synthesize_history(f, TimeGrid(200), grid_for(6, 2, 2.0))
    w = u.materialize() if kind == "explicit-history" else u
    before = mixed_norm(w, 4.0, 2.0)
    value = {"grid": grid_for(2, 2, 1.0), "base": random_field(2, 2, np.random.default_rng(1)),
             "tables": np.ones((20, 3, 5), complex), "tg": TimeGrid(20)}[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(w, name, value)
    assert w.grid is u.grid and w.tg == TimeGrid(200) and w.free == (kind == "free")
    assert w.base.N == 6 and np.array_equal(w.base.a, f.a)
    assert mixed_norm(w, 4.0, 2.0) == before


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("above", [0, 1], ids=["M-lambda-N", "M-lambda-N-plus-1"])
@pytest.mark.parametrize("kind", ["explicit-history", "free"])
def test_periodic_is_the_one_period_rule(kind, above, d, monkeypatch):
    # u.periodic alone says whether a field's samples come a period at a time: iter_space_chunks
    # serves exactly those fields, and _time_sums' q = 2 route samples exactly those
    N = 4
    lam = int(eigenvalues_upto(N, d)[-1])
    grid = grid_for(N, d, 2.0)
    u = synthesize_history(random_field(N, d, np.random.default_rng([d, above])),
                           TimeGrid(lam + above), grid)
    u = u.materialize() if kind == "explicit-history" else u
    assert u.periodic == (u.free and u.tg.M > lam) == (kind == "free" and above == 1)
    assert not hasattr(norms, "_periodic")
    if u.periodic:
        assert sum(len(x) for _, x in u.iter_space_chunks()) == math.prod(grid.shape)
    else:
        message = (f"time grid too coarse: lambda_N={lam} >= M={lam + above}" if u.free else
                   "space-chunk iteration requires a free-evolution field")
        with pytest.raises(ValueError, match=re.escape(message)):
            next(u.iter_space_chunks())
    routes = []
    monkeypatch.setattr(norms, "_gram_power_sums", lambda *args: routes.append("gram"))
    monkeypatch.setattr(norms, "_time_power_sums", lambda *args: routes.append("samples"))
    norms._time_sums(u, 2.0)
    assert routes == ["samples" if u.periodic else "gram"]


@pytest.mark.parametrize("d, N", [(2, 0), (2, 7), (2, 40), (3, 1), (3, 12), (3, 64)])
@pytest.mark.parametrize("t", [-37.25, -TWO_PI, -1e-3, -0.0, 0.7, TWO_PI, 50.0])
def test_propagate_equals_direct_phase_product(d, N, t):
    # propagate's coefficients are, bit for bit, f.a * exp(1j * lambda_n * reduce_time(t))
    # formed directly.
    f = random_field(N, d, np.random.default_rng(N))
    n = np.arange(N + 1)
    phases = np.exp(1j * (n * (n + d - 1)).astype(float) * reduce_time(t))
    want = f.a * (phases if f.zonal else phases[:, None])
    assert propagate(f, t).a.tobytes() == want.tobytes()


def test_row_blocks_tile_in_order_with_no_one_row_block():
    for n in range(1, 301):
        for rows in range(2, 71):
            blocks = list(_row_blocks(n, rows))
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))  # in order, no gap
            sizes = [i1 - i0 for i0, i1 in blocks]
            assert sizes[0] == max(sizes) <= rows + 1
            assert min(sizes) >= 2 or n == 1, (n, rows, sizes)


@pytest.mark.xfail(strict=True, reason=(
    "iter_time_blocks cuts M = 65 into 64 + 1 nodes; on a zonal grid the one-node block is "
    "a matrix-vector product, whose bits differ from the same node's row in a larger block"))
def test_one_node_time_block_equals_node_of_whole_synthesis():
    grid = build_zonal_grid(24, 3)
    f = random_field(12, 3, np.random.default_rng(0))
    u = synthesize_history(f, TimeGrid(65), grid)
    whole = _synthesize(u.history(), grid)
    j0, last = list(u.iter_time_blocks())[-1]
    assert (j0, last.shape) == (64, (1, grid.t.size))
    assert last[0].tobytes() == whole[64].tobytes()


@pytest.mark.parametrize("make, message", [
    (lambda: next(SpaceTimeField(TimeGrid(16), grid_for(3, 2, 2.0), CoefficientTable.zeros(3, 2),
                                 tables=np.zeros((16, 4, 7), complex)).iter_space_chunks()),
     "space-chunk iteration requires a free-evolution field"),
    (lambda: next(synthesize_history(random_field(4, 2, np.random.default_rng(0)),
                                     TimeGrid(20), grid_for(4, 2, 2.0)).iter_space_chunks()),
     "time grid too coarse: lambda_N=20 >= M=20"),
    (lambda: SpaceTimeField(TimeGrid(8), grid_for(3, 2, 2.0), CoefficientTable.zeros(3, 2),
                            tables=np.zeros((8, 4, 5), complex)),
     "history shape (8, 4, 5) != (8, 4, 7)"),
    (lambda: TimeGrid(0), "need at least one time node, got M=0"),
    (lambda: TimeGrid(2.5), "the number of time nodes must be an integer, got M=2.5"),
    (lambda: TimeGrid(64.0), "the number of time nodes must be an integer, got M=64.0"),
    (lambda: nyquist_time_grid(-1, 2), "degree must be >= 0, got -1"),
    (lambda: nyquist_time_grid(4, 0), "sphere dimension must be >= 1, got 0"),
], ids=["space-chunks-of-explicit-history", "space-chunks-lambda-N-at-M",
        "history-shape", "no-time-node", "non-integer-time-nodes", "float-time-nodes",
        "nyquist-negative-band", "nyquist-dimension-0"])
def test_validation_errors(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
