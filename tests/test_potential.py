import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sphere_strichartz import potential, spectral
from sphere_strichartz.experiments import estimate_strichartz_constant, kappa_pq
from sphere_strichartz.grids import (
    CoefficientTable,
    _analyze,
    _synthesize,
    grid_for,
    inverse_sht,
)
from sphere_strichartz.harmonics import eigenvalues_upto, surface_area
from sphere_strichartz.norms import _sobolev_norms, lp_norm, mixed_norm
from sphere_strichartz.potential import (
    DivergenceError,
    PicardReport,
    PotentialSpec,
    PotentialTerm,
    apply_phi,
    contraction_check,
    duhamel_apply,
    holder_conjugate,
    l2_drift,
    picard_solve,
    x_norm,
)
from sphere_strichartz.spectral import (
    SpaceTimeField,
    TimeGrid,
    _row_blocks,
    free_phases,
    random_field,
    synthesize_history,
)

TWO_PI = 2.0 * math.pi


def cos_t_potential(eps, N=1, n=1, m=0):
    """V(x, t) = eps * cos(t) * Y_{n,m}(x) (real-valued for m = 0)."""
    B = CoefficientTable.unit_mode(N, n, m)
    return PotentialSpec(
        [PotentialTerm(np.array([1, -1]), np.array([eps / 2, eps / 2]), B)]
    )


def explicit_field(tab, M, grid, rng=None, n_time_modes=2):
    """Random explicit-history field with a few smooth time harmonics."""
    rng = rng or np.random.default_rng(0)
    tg = TimeGrid(M)
    tables = np.zeros((M, *tab.a.shape), dtype=complex)
    for l in range(-n_time_modes, n_time_modes + 1):
        amp = rng.standard_normal(tab.a.shape) + 1j * rng.standard_normal(tab.a.shape)
        tables += np.exp(1j * l * tg.times).reshape((-1,) + (1,) * tab.a.ndim) * amp
    mask = np.zeros(tab.a.shape, bool)
    for n in range(tab.N + 1):
        mask[n, tab.N - n : tab.N + n + 1] = True
    tables *= mask
    return SpaceTimeField(tg, grid, tab, tables=tables)


def test_x_norm_free_constant():
    y00 = CoefficientTable.unit_mode(2, 0, 0)
    g = grid_for(2, 2, 2.0)
    u = synthesize_history(y00, TimeGrid(32), g)
    assert x_norm(u, 2.0, 0.0) == pytest.approx(1 + math.sqrt(TWO_PI), rel=1e-12)


def test_x_norm_zero_and_homogeneity():
    rng = np.random.default_rng(1)
    f = random_field(4, 2, rng)
    g = grid_for(4, 2, 2.0)
    u = synthesize_history(f, TimeGrid(16), g).materialize()
    zero = SpaceTimeField(u.tg, g, f * 0.0, tables=np.zeros_like(u.tables))
    assert x_norm(zero, 4.0, 0.5) == 0.0
    scaled = SpaceTimeField(u.tg, g, f * -2.5j, tables=u.tables * -2.5j)
    assert x_norm(scaled, 4.0, 0.5) == pytest.approx(
        2.5 * x_norm(u, 4.0, 0.5), rel=1e-12
    )


def test_duhamel_zero():
    g = grid_for(4, 2, 2.0)
    tab = CoefficientTable.zeros(4, 2)
    G = SpaceTimeField(TimeGrid(16), g, tab, tables=np.zeros((16, 5, 9), complex))
    out = duhamel_apply(G)
    assert np.max(np.abs(out.tables)) == 0.0


def test_duhamel_degree_zero_exact():
    # lambda = 0 and constant G: flat integrand, trapezoid is exact: t * g0
    g = grid_for(2, 2, 2.0)
    tab = CoefficientTable.unit_mode(2, 0, 0)
    M = 32
    tg = TimeGrid(M)
    tables = np.repeat(tab.a[None], M, axis=0) * 0.3
    G = SpaceTimeField(tg, g, tab, tables=tables)
    out = duhamel_apply(G)
    for j in (0, 7, 31):
        assert out.tables[j, 0, 2] == pytest.approx(0.3 * tg.times[j], abs=1e-13)


def test_duhamel_single_degree_closed_form_and_order():
    # constant-in-time G at degree n: I(t) = g (e^{i lam t} - 1)/(i lam),
    # trapezoid error O(dt^2): doubling M shrinks it ~4x
    n, N = 3, 4
    lam = eigenvalues_upto(n, 2)[n]
    g = grid_for(N, 2, 2.0)
    coeff = 0.8 - 0.4j
    errs = {}
    for M in (64, 128):
        tg = TimeGrid(M)
        tab = CoefficientTable.unit_mode(N, n, 1)
        tables = np.repeat(tab.a[None], M, axis=0) * coeff
        out = duhamel_apply(SpaceTimeField(tg, g, tab, tables=tables))
        exact = coeff * (np.exp(1j * lam * tg.times) - 1.0) / (1j * lam)
        errs[M] = np.max(np.abs(out.tables[:, n, 1 + N] - exact))
    assert errs[64] < 2e-2
    assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.15)


def test_apply_phi_with_zero_potential_is_free():
    rng = np.random.default_rng(2)
    f = random_field(4, 2, rng)
    g = grid_for(4, 2, 2.0)
    w = synthesize_history(f, TimeGrid(24), g).materialize()
    out = apply_phi(w, f, PotentialSpec([]))
    free = synthesize_history(f, w.tg, g).materialize()
    assert np.max(np.abs(out.tables - free.tables)) < 1e-14


def test_apply_phi_with_zero_state_is_free():
    rng = np.random.default_rng(3)
    f = random_field(3, 2, rng)
    g = grid_for(4, 2, 2.0)
    zero_tab = CoefficientTable.zeros(3, 2)
    w = SpaceTimeField(TimeGrid(16), g, zero_tab,
                       tables=np.zeros((16, 4, 7), complex))
    out = apply_phi(w, f, cos_t_potential(0.5))
    free = synthesize_history(f, w.tg, g).materialize()
    assert np.max(np.abs(out.tables - free.tables)) < 1e-14


def test_apply_phi_is_affine():
    rng = np.random.default_rng(4)
    f = random_field(3, 2, rng)
    g = grid_for(4, 2, 2.0)
    V = cos_t_potential(0.2)
    w = explicit_field(CoefficientTable.zeros(3, 2), 16, g, rng)
    v = explicit_field(CoefficientTable.zeros(3, 2), 16, g, rng)
    lhs = apply_phi(w, f, V) - apply_phi(v, f, V)
    zero = SpaceTimeField(w.tg, g, w.base * 0.0, tables=(w - v).materialize().tables * 0.0)
    rhs = apply_phi(w - v, f, V) - apply_phi(zero, f, V)
    assert np.max(np.abs(lhs.history() - rhs.history())) < 1e-12


def test_apply_phi_band_overflow():
    rng = np.random.default_rng(5)
    f = random_field(4, 2, rng)
    g = grid_for(4, 2, 1.0)  # band 4 grid cannot hold band-5 products
    w = synthesize_history(f, TimeGrid(8), g).materialize()
    with pytest.raises(ValueError):
        apply_phi(w, f, cos_t_potential(0.1))


def test_apply_phi_rejects_initial_data_of_another_band():
    rng = np.random.default_rng(25)
    g = grid_for(6, 2, 2.0)
    w = synthesize_history(random_field(4, 2, rng), TimeGrid(8), g).materialize()
    for N in (0, 3):  # a band-0 table would broadcast over every degree
        with pytest.raises(ValueError, match="initial data of band"):
            apply_phi(w, random_field(N, 2, rng), cos_t_potential(0.1))


def test_holder_conjugate():
    assert holder_conjugate(4.0) == pytest.approx(2.0)
    assert holder_conjugate(6.0) == pytest.approx(1.5)
    assert holder_conjugate(math.inf) == 1.0
    with pytest.raises(ValueError):
        holder_conjugate(2.0)


def test_picard_zero_potential_one_shot():
    rng = np.random.default_rng(6)
    f = random_field(5, 2, rng)
    u, rep = picard_solve(f, PotentialSpec([]), p=4.0, s=0.2, tol=1e-8)
    assert rep.iterations == 1
    assert rep.converged
    assert rep.residual <= 1e-12
    free = synthesize_history(f, u.tg, u.grid).materialize()
    assert np.max(np.abs(u.tables - free.tables)) <= 1e-12


def test_picard_small_potential_contracts():
    rng = np.random.default_rng(7)
    f = random_field(6, 2, rng)
    V = cos_t_potential(0.03)
    u, rep = picard_solve(f, V, p=4.0, s=0.125, tol=1e-8, seed=11)
    assert rep.converged
    assert rep.smallness_ok
    assert rep.contraction_ratio <= 0.5
    assert rep.iterations <= 30
    assert rep.residual <= 1e-6
    assert rep.residual <= 10 * 1e-8  # converged solution solves its own equation
    # geometric decay: increments fit a clean log-linear law
    logs = np.log(rep.increments)
    ks = np.arange(len(logs), dtype=float)
    slope, _ = np.polyfit(ks, logs, 1)
    resid = logs - np.polyval(np.polyfit(ks, logs, 1), ks)
    assert slope < math.log(0.5)
    assert np.max(np.abs(resid)) < 0.5


def test_picard_rejects_low_regularity():
    rng = np.random.default_rng(8)
    f = random_field(4, 2, rng)
    with pytest.raises(ValueError):
        picard_solve(f, PotentialSpec([]), p=4.0, s=0.05)


def test_picard_divergence_error():
    rng = np.random.default_rng(9)
    f = random_field(4, 2, rng)
    V = cos_t_potential(80.0)
    with pytest.raises(DivergenceError):
        picard_solve(f, V, p=4.0, s=0.125, tol=1e-10, max_iter=12, seed=1)


def test_picard_no_convergence_applies_the_map_max_iter_times(monkeypatch):
    # README's potential contracts, but not to 1e-30 in two steps: the solve gives up
    # after exactly max_iter passes of the map, with no residual pass after them
    calls = []
    blocks = potential._PicardMap.blocks

    def counted(self, w):
        calls.append(w.tg.M)
        return blocks(self, w)

    monkeypatch.setattr(potential._PicardMap, "blocks", counted)
    f = random_field(6, 2, np.random.default_rng(5))
    with pytest.raises(DivergenceError, match="no convergence to tol=1e-30 within 2 iterations"):
        picard_solve(f, cos_t_potential(0.03), p=4.0, s=0.125, tol=1e-30, max_iter=2)
    assert len(calls) == 2


@pytest.mark.parametrize("d", [2, 3])
def test_picard_solve_refuses_time_frequencies_that_alias(d):
    # On M time nodes e^{i l t} is e^{i (l - M) t}, so V needs M > 2 max|freq|.  The check comes
    # before V is sampled: on the default grid (168 nodes at d = 2, 232 at 3) a frequency of
    # 10^9 would otherwise sample V at 1.6e10 times.
    f = random_field(4, d, np.random.default_rng(d))
    s = kappa_pq(4.0, 2.0, d)

    def V(freq):
        return PotentialSpec([PotentialTerm([freq, -freq], [0.015, 0.015],
                                            CoefficientTable.unit_mode(1, 1, 0, d=d))])

    with pytest.raises(ValueError, match="^potential time frequency 32 needs more than 64 time "
                                         "nodes, got M = 64$"):
        picard_solve(f, V(32), 4.0, s, tg=TimeGrid(64))
    with pytest.raises(ValueError, match="^potential time frequency 1000000000 "):
        picard_solve(f, V(10**9), 4.0, s)
    u, rep = picard_solve(f, V(31), 4.0, s, tg=TimeGrid(64))
    assert u.tg.M == 64 and rep.residual <= 1e-6


def test_potential_term_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="time_freqs and time_coeffs must have matching shapes"):
        PotentialTerm(np.array([1, -1]), np.array([0.5]), CoefficientTable.unit_mode(1, 1, 0))


@pytest.mark.parametrize("freqs, coeffs", [([1, 2.5], [0.5, 0.5]), ([1, np.nan], [0.5, 0.5]),
                                           ([1, 2], [0.5, np.inf]), ([1, 2], [0.5, np.nan * 1j])])
def test_potential_term_rejects_non_integral_freqs_and_non_finite_coeffs(freqs, coeffs):
    # a frequency is not truncated to an integer, and the entry that fails is named
    with pytest.raises(ValueError, match="^time entry 1: "):
        PotentialTerm(freqs, coeffs, CoefficientTable.unit_mode(1, 1, 0))
    term = PotentialTerm([1.0, -2.0], [0.5, 0.5], CoefficientTable.unit_mode(1, 1, 0))
    assert term.time_freqs.tolist() == [1, -2] and term.time_freqs.dtype == int


def test_contraction_check_zero_potential():
    rng = np.random.default_rng(10)
    g = grid_for(4, 2, 2.0)
    w = explicit_field(CoefficientTable.zeros(3, 2), 16, g, rng)
    v = explicit_field(CoefficientTable.zeros(3, 2), 16, g, rng)
    assert contraction_check(PotentialSpec([]), w, v, 4.0, 0.2) == 0.0


def test_contraction_check_scales_with_potential():
    rng = np.random.default_rng(11)
    g = grid_for(5, 2, 2.0)
    w = explicit_field(CoefficientTable.zeros(4, 2), 32, g, rng)
    v = explicit_field(CoefficientTable.zeros(4, 2), 32, g, rng)
    r1 = contraction_check(cos_t_potential(0.01), w, v, 4.0, 0.2)
    r2 = contraction_check(cos_t_potential(0.02), w, v, 4.0, 0.2)
    assert r2 / r1 == pytest.approx(2.0, rel=0.10)


def test_contraction_check_small_regime():
    rng = np.random.default_rng(12)
    g = grid_for(5, 2, 2.0)
    w = explicit_field(CoefficientTable.zeros(4, 2), 32, g, rng)
    v = explicit_field(CoefficientTable.zeros(4, 2), 32, g, rng)
    assert contraction_check(cos_t_potential(0.03), w, v, 4.0, 0.2) <= 0.5
    with pytest.raises(ValueError):
        contraction_check(cos_t_potential(0.03), w, w, 4.0, 0.2)


def test_duality_ratio_stable_under_refinement():
    # ||duhamel(G)||_{L^p(L^2_t)} / ||G||_{L^p'(L^2_t)} for fixed band-4 G,
    # re-evaluated with band and time resolution doubled: +-10%
    rng = np.random.default_rng(13)
    small = random_field(4, 2, rng)
    p, p_dual = 4.0, 4.0 / 3.0

    def ratio(N, M):
        g = grid_for(N, 2, 2.0)
        tab = CoefficientTable.zeros(N, 2)
        tab.a[:5, N - 4 : N + 5] = small.a
        tg = TimeGrid(M)
        tables = np.zeros((M, *tab.a.shape), complex)
        for l, amp in ((0, 1.0), (1, 0.5), (-2, 0.25)):
            tables += amp * np.exp(1j * l * tg.times)[:, None, None] * tab.a[None]
        G = SpaceTimeField(tg, g, tab, tables=tables)
        out = duhamel_apply(G)
        return mixed_norm(out, p, 2.0) / mixed_norm(G, p_dual, 2.0)

    base = ratio(4, 128)
    assert ratio(8, 128) == pytest.approx(base, rel=0.10)
    assert ratio(4, 256) == pytest.approx(base, rel=0.10)
    assert ratio(8, 256) == pytest.approx(base, rel=0.10)


def test_mass_drift_quadratic_in_dt():
    rng = np.random.default_rng(14)
    f = random_field(5, 2, rng)
    V = cos_t_potential(0.05)  # real potential: continuum flow is unitary
    u1, _ = picard_solve(f, V, p=4.0, s=0.125, tg=TimeGrid(256), seed=2)
    u2, _ = picard_solve(f, V, p=4.0, s=0.125, tg=TimeGrid(512), seed=2)
    d1, d2 = l2_drift(u1), l2_drift(u2)
    assert d1 / d2 == pytest.approx(4.0, rel=0.3)


def test_potential_norm_and_band():
    V = cos_t_potential(0.25, N=2, n=2, m=0)
    assert V.band == 2
    g = grid_for(4, 2, 2.0)
    # sup_t |eps cos t Y20(z)| = eps |Y20(z)|; L^2_x of that = eps
    assert lp_norm(V.sup_t_profile(g), g, 2.0) == pytest.approx(0.25, rel=1e-10)


def test_potential_json_round_trip():
    eps = 0.125
    V = cos_t_potential(eps, N=3, n=2, m=1)
    blob = json.dumps(V.to_json_dict(), sort_keys=True)
    V2 = PotentialSpec.from_json_dict(json.loads(blob))
    assert V2.band == 2  # rebuilt table trims to the highest active degree
    g = grid_for(4, 2, 2.0)
    times = np.linspace(0, TWO_PI, 7)
    np.testing.assert_allclose(V.values(times, V.spatial_samples(g)),
                               V2.values(times, V2.spatial_samples(g)), atol=1e-14)


def test_potential_json_round_trip_zonal_d3():
    B = CoefficientTable(3, 3, np.array([0.0, 0.5, 0.0, -0.25j]))
    V = PotentialSpec([PotentialTerm(np.array([1, -1]), np.array([0.01, 0.01]), B)])
    V2 = PotentialSpec.from_json_dict(json.loads(json.dumps(V.to_json_dict())), d=3)
    (term,) = V2.terms
    assert term.spatial.zonal and term.spatial.d == 3
    np.testing.assert_array_equal(term.spatial.a, B.a)
    g = grid_for(4, 3, 2.0)
    times = np.linspace(0, TWO_PI, 5)
    np.testing.assert_array_equal(V.values(times, V.spatial_samples(g)),
                                  V2.values(times, V2.spatial_samples(g)))


def test_potential_json_d3_rejects_nonzero_order():
    data = {"terms": [{"time_coeffs": [{"freq": 0, "re": 1.0}],
                       "spatial_coeffs": [{"n": 1, "m": 0, "re": 1.0},
                                          {"n": 2, "m": -1, "re": 1.0}]}]}
    with pytest.raises(ValueError, match=r"potential term 0, entry 1: m = -1"):
        PotentialSpec.from_json_dict(data, d=3)
    assert not PotentialSpec.from_json_dict(data, d=2).terms[0].spatial.zonal


def test_potential_json_validation():
    with pytest.raises(ValueError):
        PotentialSpec.from_json_dict(
            {"terms": [{"time_coeffs": [{"freq": 0, "re": 1.0}],
                        "spatial_coeffs": [{"n": 1, "m": 2, "re": 1.0, "im": 0.0}]}]}
        )
    with pytest.raises(ValueError):
        PotentialSpec.from_json_dict(
            {"terms": [{"time_coeffs": [{"freq": 0, "re": 1.0}],
                        "spatial_coeffs": []}]}
        )


@pytest.mark.parametrize("rows", [None, 16, 96, 1024])
@pytest.mark.parametrize("d", [2, 3])
def test_sup_t_profile_equals_whole_array_max(d, rows, monkeypatch):
    rng = np.random.default_rng(23 + d)
    grid = grid_for(6, d, 2.0)
    if rows is not None:  # slices of 16, 96 or all nodes instead of _TIME_BLOCK = 64
        monkeypatch.setattr(potential, "_TIME_BLOCK", rows)
    cases = [
        PotentialSpec([]),
        PotentialSpec([PotentialTerm(np.array([1, -1]), np.array([0.015, 0.015]),
                                     random_field(1, d, rng))]),
        # max frequency 40: 656 nodes
        PotentialSpec([
            PotentialTerm(np.array([0, 3]), np.array([0.2, 0.1j]), random_field(2, d, rng)),
            PotentialTerm(np.array([-40, 7]), np.array([0.05 - 0.02j, 0.3]),
                          random_field(3, d, rng)),
        ]),
    ]
    synthesized = []
    monkeypatch.setattr(potential, "inverse_sht",
                        lambda tab, g: synthesized.append(tab) or inverse_sht(tab, g))
    for V in cases:
        max_freq = max((int(np.max(np.abs(t.time_freqs))) for t in V.terms), default=0)
        M = max(512, 16 * (max_freq + 1))
        # reference: V at all M sampled times as one array, then the max over time
        times = 2.0 * np.pi * np.arange(M) / M
        want = np.max(np.abs(V.values(times, V.spatial_samples(grid))), axis=0)
        synthesized.clear()
        got = V.sup_t_profile(grid)
        assert got.shape == grid.shape
        assert got.tobytes() == want.tobytes()
        assert len(synthesized) == len(V.terms)  # each term's samples once, not once per block


def _random_history(N, d, M, grid, rng):
    if d == 2:
        return explicit_field(CoefficientTable.zeros(N, 2), M, grid, rng)
    tables = rng.standard_normal((M, N + 1)) + 1j * rng.standard_normal((M, N + 1))
    return SpaceTimeField(TimeGrid(M), grid, CoefficientTable.zeros(N, d),
                          tables=tables)


def ref_x_norm(u, p, s):
    """x_norm written out: the Sobolev sup over the whole history, plus the mixed norm."""
    return float(np.max(_sobolev_norms(u.history(), s, u.base.zonal))) + mixed_norm(u, p, 2.0)


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("d", [2, 3])
def test_difference_is_formed_blockwise(d, rows, monkeypatch):
    # `w - v` is an explicit history; x_norm's mixed part reads it one block of `rows` time
    # nodes at a time (iter_time_blocks), and the block moves its value by rounding only.
    rng = np.random.default_rng(24 + d)
    N = 3
    g = grid_for(N + 1, d, 2.0)
    cases = []
    for M in (16, 64, 150):
        w, v = _random_history(N, d, M, g, rng), _random_history(N, d, M, g, rng)
        cases.append((w - v, w.tables - v.tables))
    u = synthesize_history(random_field(N, d, rng), TimeGrid(16), g)  # free, no tables
    v = _random_history(N, d, 16, g, rng)
    cases.append((u - v, u.materialize().tables - v.tables))
    whole = [[x_norm(diff, p, 0.3) for p in (4.0, math.inf)] for diff, _ in cases]
    if rows is not None:  # blocks of `rows` time nodes instead of _TIME_BLOCK = 64
        monkeypatch.setattr(spectral, "_TIME_BLOCK", rows)
    for (diff, want), norms in zip(cases, whole):
        assert not diff.free
        assert diff.tables.tobytes() == want.tobytes()
        for p, norm in zip((4.0, math.inf), norms):
            got = x_norm(diff, p, 0.3)
            assert got == ref_x_norm(diff, p, 0.3)
            assert math.isclose(got, norm, rel_tol=1e-15, abs_tol=0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("M", [1, 64, 65, 129, 344])
def test_blockwise_x_norm_equals_whole_history_sup(M, d):
    # x_norm takes the Sobolev sup one block of time nodes at a time; the largest node is put
    # in the last block, so the running max has to carry it.  A free field takes the same path.
    rng = np.random.default_rng([M, d])
    N = 4
    u = _random_history(N, d, M, grid_for(N + 1, d, 2.0), rng)
    u.tables[-1] *= 3.0
    fields = [u]
    if M > eigenvalues_upto(N, d)[-1]:  # a free field, whose time grid resolves lambda_N
        fields.append(synthesize_history(random_field(N, d, rng), TimeGrid(M), u.grid))
    s = kappa_pq(4.0, 2.0, d)
    for field in fields:
        for p in (4.0, math.inf):
            assert x_norm(field, p, s) == ref_x_norm(field, p, s)


def _two_term_zonal_potential(d):
    """README's 0.03 cos(t) Y_{1,0} on S^d plus (0.01 + 0.005i e^{2it}) Y_{2,0}."""
    return PotentialSpec([
        PotentialTerm([1, -1], [0.015, 0.015], CoefficientTable.unit_mode(1, 1, 0, d=d)),
        PotentialTerm([0, 2], [0.01, 0.005j], CoefficientTable.unit_mode(2, 2, 0, d=d)),
    ])


@pytest.mark.parametrize("d, N", [(2, 12), (3, 6)])
def test_picard_increments_equal_explicit_differences(d, N):
    # picard_solve writes each increment over the iterate it replaces; the same iteration with
    # the explicit difference `-` gives the same floats.  At d = 2, N = 12 (M = 1256) a history
    # is 6.5 MB, larger than one chunk of the sup part that x_norm once cut.
    f = random_field(N, d, np.random.default_rng(40 + d))
    V = cos_t_potential(0.03) if d == 2 else _two_term_zonal_potential(d)
    p, s = 4.0, kappa_pq(4.0, 2.0, d)
    u, rep = picard_solve(f, V, p, s)
    w = synthesize_history(f, u.tg, u.grid).materialize()
    increments = []
    for _ in range(rep.iterations):
        w_next = apply_phi(w, f, V)
        increments.append(ref_x_norm(w_next - w, p, s))
        w = w_next
    assert increments == rep.increments
    assert ref_x_norm(apply_phi(w, f, V) - w, p, s) == rep.residual
    assert w.tables.tobytes() == u.tables.tobytes()


def two_history_phi(w, f, V):
    """The Picard map as one whole history: V w re-analyzed into G for all M nodes, the Duhamel
    integral from one cumulative sum over all of H = e^{-i lambda t} G, then the free
    evolution minus 1j times it."""
    B = V.spatial_samples(w.grid).reshape(len(V.terms), -1)
    amps = V.amplitudes(w.tg.times)
    G = np.empty_like(w.tables)
    work = {}
    for j0, samples in w.iter_time_blocks(work):
        flat = samples.reshape(len(samples), -1)
        for r0, r1 in _row_blocks(len(flat), potential._V_ROWS):
            np.multiply(amps[:, j0 + r0:j0 + r1].T @ B, flat[r0:r1], out=flat[r0:r1])
        potential._analyze(samples, w.grid, w.N, work, out=G[j0:j0 + len(samples)])
    conj, scaled = potential._duhamel_phases(w.tg, f)
    H = conj * G
    integral = np.cumsum(H, axis=0)
    H *= 0.5
    integral -= H
    integral -= H[0]
    integral *= scaled
    return SpaceTimeField(w.tg, w.grid, f.copy(),
                          tables=f.a * free_phases(w.tg.times, f) - 1j * integral)


def two_history_picard_solve(f, V, p, s, tol=1e-8, max_iter=30, tg=None, seed=0):
    """picard_solve as it was before each iterate became one pass: Phi(u) in a history of its
    own, the increment written over u, and x_norm of the increment read after the map."""
    grid = grid_for(f.N + V.band, f.d, 2.0)
    tg = tg or TimeGrid(max(64, 8 * (int(eigenvalues_upto(f.N, f.d)[-1]) + 1)))
    v_norm = lp_norm(V.sup_t_profile(grid), grid, holder_conjugate(p))
    c_eff = 2.0 * estimate_strichartz_constant(p, s, f.N, f.d, np.random.default_rng(seed))
    u = synthesize_history(f, tg, grid).materialize()
    increments, ratios, bad_streak = [], [], 0
    for _ in range(max_iter):
        u_next = two_history_phi(u, f, V)
        np.subtract(u_next.tables, u.tables, out=u.tables)
        delta = ref_x_norm(u, p, s)
        if increments:
            ratios.append(delta / increments[-1] if increments[-1] > 0 else 0.0)
            bad_streak = bad_streak + 1 if ratios[-1] >= 1.0 else 0
            if bad_streak >= 3:
                raise DivergenceError(
                    "no contraction for 3 consecutive iterates; the smallness "
                    f"condition (C+C^2)||V|| <= 1/2 is violated "
                    f"(gate value {(c_eff + c_eff**2) * v_norm:.3g})")
        increments.append(delta)
        u = u_next
        if delta <= tol:
            break
    else:
        raise DivergenceError(f"no convergence to tol={tol} within {max_iter} iterations "
                              f"(last increment {increments[-1]:.3g})")
    residual = ref_x_norm(two_history_phi(u, f, V) - u, p, s)
    return u, increments, ratios, residual, max(ratios) if ratios else 0.0


def _one_term_potential(d):
    """README's 0.03 cos(t) Y_{1,0}, on S^d."""
    return PotentialSpec([PotentialTerm([1, -1], [0.015, 0.015],
                                        CoefficientTable.unit_mode(1, 1, 0, d=d))])


@pytest.mark.parametrize("terms", [1, 2])
@pytest.mark.parametrize("M", [64, 65, 129, 344, None])
@pytest.mark.parametrize("d", [2, 3])
def test_streamed_picard_solve_equals_two_history_loop(d, M, terms):
    # Each iterate is one pass over u's time blocks that writes Phi(u) over u and sums the
    # increment's X-norm; the two-history loop gives the same floats.  65 and 129 leave a
    # one-node last block; None is picard_solve's default grid (168 nodes at d = 2, 232 at 3).
    f = random_field(4, d, np.random.default_rng([d, terms]))
    V = _one_term_potential(d) if terms == 1 else _two_term_zonal_potential(d)
    p, s = 4.0, kappa_pq(4.0, 2.0, d)
    tg = None if M is None else TimeGrid(M)
    u, rep = picard_solve(f, V, p, s, tg=tg)
    want_u, increments, ratios, residual, contraction = two_history_picard_solve(f, V, p, s,
                                                                                 tg=tg)
    assert u.tables.tobytes() == want_u.tables.tobytes()
    assert rep.increments == increments and rep.ratios == ratios
    assert rep.residual == residual and rep.contraction_ratio == contraction
    assert rep.iterations == len(increments) > 2


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", ["no contraction", "max_iter"])
def test_streamed_picard_solve_keeps_both_divergence_messages(case, d):
    f = random_field(4, d, np.random.default_rng(9 + d))
    if case == "no contraction":  # too large a potential: three non-contracting steps
        V = PotentialSpec([PotentialTerm([1, -1], [40.0, 40.0],
                                         CoefficientTable.unit_mode(1, 1, 0, d=d))])
        kwargs = dict(tol=1e-10, max_iter=12, seed=1)
    else:  # README's potential cannot reach 1e-30 in two iterates
        V, kwargs = _one_term_potential(d), dict(tol=1e-30, max_iter=2)
    p, s = 4.0, kappa_pq(4.0, 2.0, d)
    with pytest.raises(DivergenceError) as want:
        two_history_picard_solve(f, V, p, s, **kwargs)
    with pytest.raises(DivergenceError) as got:
        picard_solve(f, V, p, s, **kwargs)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(case.replace("max_iter", "no convergence"))


@pytest.mark.parametrize("M", [64, 65, 344])
@pytest.mark.parametrize("d", [2, 3])
def test_blockwise_l2_drift_equals_whole_history_norms(d, M):
    # l2_drift takes the row norms _TIME_BLOCK nodes at a time; each row's norm is its own, so
    # the drift is the whole-history expression's, bitwise, for explicit and free fields.
    rng = np.random.default_rng([M, d, 7])
    N = 4
    grid = grid_for(N + 1, d, 2.0)
    explicit = _random_history(N, d, M, grid, rng)
    explicit.tables[M // 2] *= 1.5
    for u in (explicit, synthesize_history(random_field(N, d, rng), TimeGrid(M), grid)):
        norms = np.linalg.norm(u.history().reshape(M, -1), axis=1)
        want = float(np.max(np.abs(norms - norms[0])))
        assert np.float64(l2_drift(u)).tobytes() == np.float64(want).tobytes()
    assert l2_drift(explicit) > 0.0


# to_json_dict of the spec built in the test below, recorded from the nested-loop version
# it replaced: entries in (n, m) order, m from -n to n, the sign of a zero kept.
_JSON_LITERAL = (
    '{"terms": [{"time_coeffs": [{"freq": 1, "re": 0.015, "im": 0.0}, '
    '{"freq": -1, "re": 0.015, "im": 0.0}], "spatial_coeffs": ['
    '{"n": 0, "m": 0, "re": 0.5, "im": 0.0}, {"n": 1, "m": -1, "re": -0.0, "im": -0.25}, '
    '{"n": 1, "m": 1, "re": 0.75, "im": 0.0}, {"n": 2, "m": -2, "re": 1.5, "im": -0.5}, '
    '{"n": 2, "m": 0, "re": -2.0, "im": 0.0}, {"n": 3, "m": -1, "re": 0.125, "im": 0.0}, '
    '{"n": 3, "m": 3, "re": 0.25, "im": 1.0}]}, '
    '{"time_coeffs": [{"freq": 0, "re": 1.0, "im": 0.0}, {"freq": 2, "re": 0.0, "im": 0.5}], '
    '"spatial_coeffs": [{"n": 1, "m": 0, "re": 0.5, "im": 0.25}, '
    '{"n": 4, "m": 0, "re": -1.0, "im": 0.0}]}]}'
)


def test_potential_to_json_dict_order_and_values():
    full = CoefficientTable.zeros(3, 2)
    for n, m, c in [(0, 0, 0.5), (1, -1, -0.25j), (1, 1, 0.75), (2, -2, 1.5 - 0.5j),
                    (2, 0, -2.0), (3, -1, 0.125), (3, 3, 0.25 + 1j)]:
        full.a[n, m + 3] = c
    zonal = CoefficientTable.zeros(4, 3)
    zonal.a[1], zonal.a[4] = 0.5 + 0.25j, -1.0
    V = PotentialSpec([PotentialTerm([1, -1], [0.015, 0.015], full),
                       PotentialTerm([0, 2], [1.0, 0.5j], zonal)])
    assert json.dumps(V.to_json_dict()) == _JSON_LITERAL


def test_potential_json_round_trip_skips_entries_outside_the_band():
    # a full table may hold entries at |m| > n, which no transform reads: the file leaves
    # them out, so it loads again and V's samples are unchanged
    B = random_field(2, 2, np.random.default_rng(31))
    B.a[0, 0] = 0.5  # (n, m) = (0, -2)
    V = PotentialSpec([PotentialTerm([1, -1], [0.015, 0.015], B)])
    back = PotentialSpec.from_json_dict(json.loads(json.dumps(V.to_json_dict())))
    grid = grid_for(2, 2, 2.0)
    assert back.spatial_samples(grid).tobytes() == V.spatial_samples(grid).tobytes()


@pytest.mark.parametrize("d, bound", [(2, 5.73e-8), (3, 8.04e-8)])
def test_picard_solve_is_second_order_against_a_closed_form(d, bound):
    # V = 0.03 cos(t) Y_00 is constant in space, so the exact solution of i u_t = (-Delta + V) u
    # is exp(-i 0.03 sin(t) / sqrt|S^d|) e^{it Delta} f.  The trapezoid rule makes the error
    # O(dt^2): each doubling of M divides it by 4.  The bound is 1.5 times the error measured
    # at M = 512.
    N = 6
    f = random_field(N, d, np.random.default_rng(d))
    V = PotentialSpec([PotentialTerm([1, -1], [0.015, 0.015],
                                     CoefficientTable.unit_mode(0, 0, d=d))])
    errors = []
    for M in (128, 256, 512):
        tg = TimeGrid(M)
        u, _ = picard_solve(f, V, 4.0, kappa_pq(4.0, 2.0, d), tol=1e-13, tg=tg)
        phase = np.exp(-0.03j * np.sin(tg.times) / math.sqrt(surface_area(d)))
        exact = phase.reshape(-1, *[1] * f.a.ndim) * f.a * free_phases(tg.times, f)
        errors.append(np.max(np.abs(u.tables - exact)))
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(coarse / fine - 4.0) <= 0.01, errors
    assert errors[-1] <= bound


def _galerkin_reference(f, V, times):
    """Coefficients at `times` of the Galerkin system c' = i Lambda c - i sum_k a_k(t) P_N(B_k c)
    from c(0) = f, integrated by DOP853.  Each P_N(B_k .) is a matrix, built from one batched
    synthesis and analysis of the basis tables on the solve's grid, where the product is exact."""
    N, d, shape, size = f.N, f.d, f.a.shape, f.a.size
    grid = grid_for(N + V.band, d, 2.0)
    basis = _synthesize(np.eye(size, dtype=complex).reshape(size, *shape), grid)
    P = [_analyze(B * basis, grid, N).reshape(size, size).T for B in V.spatial_samples(grid)]
    freqs = sorted({int(l) for term in V.terms for l in term.time_freqs})
    Q = np.zeros((len(freqs), size, size), dtype=complex)  # a(t) P = sum_l e^{ilt} Q_l
    for term, Pk in zip(V.terms, P):
        for l, c in zip(term.time_freqs, term.time_coeffs):
            Q[freqs.index(l)] += c * Pk
    lam = np.broadcast_to(eigenvalues_upto(N, d).reshape(-1, *[1] * (f.a.ndim - 1)), shape)
    lam, freqs = lam.reshape(-1), np.array(freqs)

    def rhs(t, c):
        return 1j * lam * c - 1j * (np.exp(1j * freqs * t) @ (Q @ c))

    sol = solve_ivp(rhs, (0.0, times[-1]), f.a.reshape(-1).astype(complex), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y.T.reshape(len(times), *shape)


@pytest.mark.parametrize("d, bound", [(2, 2.95e-7), (3, 4.99e-7)])
def test_picard_solve_is_second_order_against_the_galerkin_system(d, bound):
    # V varies in space (README's Y_{1,0} term at d = 2, two zonal terms at d = 3), so the
    # reference is the Galerkin system that the map truncates to: its only error is the
    # trapezoid rule's O(dt^2), and each doubling of M divides it by 4.  The bound is 1.5 times
    # the error measured at M = 1024.
    N = 6
    f = random_field(N, d, np.random.default_rng(d))
    V = cos_t_potential(0.03) if d == 2 else _two_term_zonal_potential(d)
    exact = _galerkin_reference(f, V, TimeGrid(1024).times)
    errors = []
    for M in (256, 512, 1024):
        u, _ = picard_solve(f, V, 4.0, kappa_pq(4.0, 2.0, d), tol=1e-13, tg=TimeGrid(M))
        errors.append(np.max(np.abs(u.tables - exact[::1024 // M])))
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(coarse / fine - 4.0) <= 0.01, errors
    assert errors[-1] <= bound
