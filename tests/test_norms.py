import math

import numpy as np
import pytest

from sphere_strichartz.grids import (
    CoefficientTable,
    build_sphere_grid,
    forward_sht,
    grid_for,
    inverse_sht,
)
from sphere_strichartz.norms import (
    TimeResolutionError,
    _sobolev_norms,
    l2t_profile_exact,
    lp_norm,
    mixed_norm,
    sobolev_norm,
    triebel_lizorkin_norm,
)
from sphere_strichartz.spectral import (
    SpaceTimeField,
    TimeGrid,
    nyquist_time_grid,
    random_field,
    synthesize_by_degree,
    synthesize_history,
)

TWO_PI = 2.0 * math.pi


def test_lp_norm_constants():
    g = build_sphere_grid(4)
    ones = np.ones(g.shape)
    assert lp_norm(ones, g, 2.0) == pytest.approx(math.sqrt(4 * math.pi), rel=1e-14)
    y00 = inverse_sht(CoefficientTable.unit_mode(4, 0, 0), g)
    for p in (1.0, 2.0, 3.0, 6.0):
        want = (4 * math.pi) ** (1 / p) / math.sqrt(4 * math.pi)
        assert lp_norm(y00, g, p) == pytest.approx(want, rel=1e-13)
    assert lp_norm(y00, g, 2.0) == pytest.approx(1.0, rel=1e-13)


def test_lp_norm_refinement_oracle():
    # p=4 norm of Y_{10,0} against a 4x oversampled quadrature
    f = CoefficientTable.unit_mode(10, 10, 0)
    g2 = grid_for(10, 2, 2.0)
    g8 = grid_for(10, 2, 8.0)
    a = lp_norm(inverse_sht(f, g2), g2, 4.0)
    b = lp_norm(inverse_sht(f, g8), g8, 4.0)
    assert a == pytest.approx(b, abs=1e-9)


def test_lp_norm_validation():
    g = build_sphere_grid(2)
    with pytest.raises(ValueError):
        lp_norm(np.ones(g.shape), g, 0.5)
    with pytest.raises(ValueError):
        lp_norm(np.ones((1, 1)), g, 2.0)


def test_lp_norm_of_integers_equals_float64():
    # |v| of an integer array is an integer array, which cannot take `**=` a float power
    g = build_sphere_grid(6)
    v = np.arange(g.t.size * g.lon_count).reshape(g.shape) - 40
    for p in (1, 2, 2.5, 3.0, 4, math.inf):
        assert lp_norm(v, g, p) == lp_norm(v.astype(float), g, p)


def test_lp_norm_monotone_on_probability_space():
    rng = np.random.default_rng(0)
    f = random_field(8, 2, rng)
    g = grid_for(8, 2, 4.0)
    vals = inverse_sht(f, g)
    normalized = [
        lp_norm(vals, g, p) / (4 * math.pi) ** (1 / p) for p in (1.0, 2.0, 3.0, 4.0, 6.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(normalized, normalized[1:]))


def test_sobolev_norm_examples():
    y00 = CoefficientTable.unit_mode(4, 0, 0)
    for s in (-1.0, 0.0, 2.5):
        assert sobolev_norm(y00, s) == pytest.approx(1.0, rel=1e-15)
    y31 = CoefficientTable.unit_mode(8, 3, 1)
    assert sobolev_norm(y31, 1.0) == pytest.approx(4.0, rel=1e-15)
    two = CoefficientTable.zeros(4, 2)
    two.a[1, 4] = 1.0
    two.a[3, 4] = 1.0
    assert sobolev_norm(two, 0.5) == pytest.approx(math.sqrt(6.0), rel=1e-14)


def test_sobolev_is_l2_at_zero():
    rng = np.random.default_rng(1)
    f = random_field(10, 2, rng) * 3.0
    assert sobolev_norm(f, 0.0) == pytest.approx(f.l2_norm(), rel=1e-14)


def test_triebel_lizorkin_f022_is_l2():
    rng = np.random.default_rng(2)
    f = random_field(16, 2, rng)
    g = grid_for(16, 2, 2.0)
    assert triebel_lizorkin_norm(f, g, 2.0, 2.0, 0.0) == pytest.approx(
        f.l2_norm(), abs=1e-12
    )


def test_triebel_lizorkin_single_mode():
    f = CoefficientTable.unit_mode(6, 5, 2)
    g = grid_for(6, 2, 2.0)
    vals = inverse_sht(f, g)
    for p, q, r in [(4.0, 2.0, 0.7), (2.0, 7.0, -0.3), (math.inf, 2.0, 1.0)]:
        want = (1 + 5) ** r * lp_norm(vals, g, p)
        assert triebel_lizorkin_norm(f, g, p, q, r) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_triebel_lizorkin_weights_the_degree_axis(d):
    # a band-N grid has K = N + 1 colatitudes, so a weight vector over the N + 1 degrees would
    # also broadcast along colatitude; r != 0 tells the two axes apart
    N = 6
    f = random_field(N, d, np.random.default_rng(40))
    g = grid_for(N, d, 1.0)
    assert g.shape[0] == N + 1
    E = synthesize_by_degree(f, g).reshape(N + 1, -1)
    w = (1.0 + np.arange(N + 1.0)) ** 0.8
    inner = np.sqrt(np.sum((w[:, None] * np.abs(E)) ** 2, axis=0)).reshape(g.shape)
    assert triebel_lizorkin_norm(f, g, 3.0, 2.0, 0.8) == pytest.approx(
        lp_norm(inner, g, 3.0), rel=1e-13
    )


def test_triebel_lizorkin_q_monotone():
    rng = np.random.default_rng(3)
    f = random_field(12, 2, rng)
    g = grid_for(12, 2, 2.0)
    for p in (2.0, 4.0):
        a = triebel_lizorkin_norm(f, g, p, 2.0, 0.3)
        b = triebel_lizorkin_norm(f, g, p, 4.0, 0.3)
        c = triebel_lizorkin_norm(f, g, p, math.inf, 0.3)
        assert b <= a + 1e-12
        assert c <= b + 1e-12


def test_inner_lq_sum_monotone_pointwise():
    # the inner weighted ell^q sum decreases in q at every grid point
    from sphere_strichartz.spectral import synthesize_by_degree

    rng = np.random.default_rng(30)
    f = random_field(10, 2, rng)
    g = grid_for(10, 2, 2.0)
    weighted = (1.0 + np.arange(11.0))[:, None, None] ** 0.3 * np.abs(
        synthesize_by_degree(f, g)
    )
    inner2 = np.sum(weighted**2, axis=0) ** 0.5
    inner4 = np.sum(weighted**4, axis=0) ** 0.25
    assert np.all(inner4 <= inner2 + 1e-12)


def test_triebel_lizorkin_r_monotone_constant_one():
    rng = np.random.default_rng(4)
    f = random_field(10, 2, rng)
    g = grid_for(10, 2, 2.0)
    assert triebel_lizorkin_norm(f, g, 3.0, 2.0, 0.5) >= triebel_lizorkin_norm(
        f, g, 3.0, 2.0, 0.2
    )


def test_l2t_profile_constants():
    y00 = CoefficientTable.unit_mode(2, 0, 0)
    g = build_sphere_grid(2)
    prof = l2t_profile_exact(y00, g)
    np.testing.assert_allclose(prof, 1 / math.sqrt(2.0), atol=1e-14)


def test_l2t_profile_single_mode():
    f = CoefficientTable.unit_mode(6, 4, 1)
    g = build_sphere_grid(6)
    prof = l2t_profile_exact(f, g)
    np.testing.assert_allclose(
        prof, math.sqrt(TWO_PI) * np.abs(inverse_sht(f, g)), atol=1e-13
    )


def test_l2t_profile_matches_time_sampling():
    # the exact-identity oracle: sampled L^2_t norm on the Nyquist grid
    rng = np.random.default_rng(5)
    f = random_field(8, 2, rng)
    g = grid_for(8, 2, 2.0)
    tg = nyquist_time_grid(8, 2)
    u = synthesize_history(f, tg, g).materialize()
    acc = np.zeros(g.shape)
    for j in range(tg.M):
        acc += np.abs(u.samples_at(j)) ** 2
    sampled = np.sqrt(acc * TWO_PI / tg.M)
    np.testing.assert_allclose(sampled, l2t_profile_exact(f, g), atol=1e-10)


def test_mixed_norm_q2_equals_profile_norm():
    rng = np.random.default_rng(6)
    f = random_field(8, 2, rng)
    g = grid_for(8, 2, 2.0)
    u = synthesize_history(f, nyquist_time_grid(8, 2), g)
    prof = l2t_profile_exact(f, g)
    for p in (2.0, 4.0, math.inf):
        assert mixed_norm(u, p, 2.0) == pytest.approx(
            lp_norm(prof, g, p), rel=1e-10
        )


def test_mixed_norm_explicit_history_path():
    rng = np.random.default_rng(7)
    f = random_field(6, 2, rng)
    g = grid_for(6, 2, 2.0)
    u = synthesize_history(f, nyquist_time_grid(6, 2), g)
    assert mixed_norm(u.materialize(), 4.0, 2.0) == pytest.approx(
        mixed_norm(u, 4.0, 2.0), rel=1e-12
    )


def test_mixed_norm_p4_q4_footnote_identity():
    # ||u||_4^4 over the product space equals ||u^2||_2^2 computed by
    # per-time spatial Parseval of the squared samples
    rng = np.random.default_rng(8)
    N = 8
    f = random_field(N, 2, rng)
    g = grid_for(N, 2, 2.0)
    tg = nyquist_time_grid(N, 2)
    u = synthesize_history(f, tg, g)
    path1 = mixed_norm(u, 4.0, 4.0) ** 4
    acc = 0.0
    for j in range(tg.M):
        sq = u.samples_at(j) ** 2
        coeffs = forward_sht(sq, g, 2 * N)
        acc += float(np.sum(np.abs(coeffs.a) ** 2))
    path2 = acc * TWO_PI / tg.M
    assert path1 == pytest.approx(path2, rel=1e-10)


def test_mixed_norm_constants():
    y00 = CoefficientTable.unit_mode(2, 0, 0)
    g = build_sphere_grid(2)
    u = synthesize_history(y00, TimeGrid(16), g)
    for p in (2.0, 4.0):
        want = math.sqrt(TWO_PI) * (4 * math.pi) ** (1 / p - 0.5)
        assert mixed_norm(u, p, 2.0) == pytest.approx(want, rel=1e-13)


def test_mixed_norm_stable_under_time_doubling():
    rng = np.random.default_rng(9)
    f = random_field(6, 2, rng)
    g = grid_for(6, 2, 2.0)
    u = synthesize_history(f, nyquist_time_grid(6, 2), g)
    for q in (2.0, 4.0):
        a = mixed_norm(u, 4.0, q, check_resolution=True, rtol=1e-10)
        assert a > 0


def test_mixed_norm_resolution_error_fires_when_underresolved():
    # q=3 with M=40 aliases the beat frequency of |u|^3 (lambda gap 20);
    # doubling to 80 strips half the alias set and moves the value by ~0.1
    f = CoefficientTable.zeros(4, 2)
    f.a[0, 4] = 1.0
    f.a[4, 4] = 1.0
    g = grid_for(4, 2, 2.0)
    u = synthesize_history(f, TimeGrid(40), g)
    with pytest.raises(TimeResolutionError):
        mixed_norm(u, 2.0, 3.0, check_resolution=True, rtol=1e-6)


def test_mixed_norm_rejects_bad_q():
    f = CoefficientTable.unit_mode(2, 1, 0)
    g = build_sphere_grid(2)
    u = synthesize_history(f, TimeGrid(8), g)
    with pytest.raises(ValueError):
        mixed_norm(u, 2.0, math.inf)


def test_mixed_norm_accepts_q_equal_1():
    # q = 1 is the smallest inner exponent: for one degree |u(t, z)| = |f(z)|, so the
    # L^1_t norm is 2 pi |f(z)| and the L^2_z norm of that is 2 pi ||f||_2
    f = CoefficientTable.unit_mode(6, 4, 2)
    u = synthesize_history(f, nyquist_time_grid(6, 2), grid_for(6, 2, 2.0))
    assert mixed_norm(u, 2.0, 1.0) == pytest.approx(TWO_PI, rel=1e-12)
    with pytest.raises(ValueError, match="inner exponent must satisfy 1 <= q < inf, got 0.5"):
        mixed_norm(u, 2.0, 0.5)


def test_triebel_lizorkin_q_boundaries():
    # q = 0 is rejected; any q > 0 is taken, q = 0.5 included
    f = random_field(5, 2, np.random.default_rng(4))
    g = grid_for(5, 2, 2.0)
    with pytest.raises(ValueError, match="q must be > 0 or inf, got 0"):
        triebel_lizorkin_norm(f, g, 2.0, 0.0, 0.0)
    inner = np.sum(np.abs(synthesize_by_degree(f, g)) ** 0.5, axis=0) ** 2.0
    assert triebel_lizorkin_norm(f, g, 2.0, 0.5, 0.0) == pytest.approx(
        lp_norm(inner, g, 2.0), rel=1e-13
    )


def test_resolution_check_refines_by_doubling():
    # q = 6 on S^2 with lambda_N = 20 < M = 25 <= 1.5 lambda_N: |u|^6 is a trigonometric
    # polynomial in t with even frequencies up to 3 lambda_N = 60.  M and 2M nodes both alias
    # exactly the frequencies +-50, so the doubled sums agree up to rounding; 3M nodes
    # alias none.
    f = random_field(4, 2, np.random.default_rng(0))
    g = grid_for(4, 2, 2.0)
    u = synthesize_history(f, TimeGrid(25), g)
    base = mixed_norm(u, 4.0, 6.0)
    tripled = mixed_norm(SpaceTimeField(TimeGrid(75), g, f), 4.0, 6.0)
    assert abs(tripled - base) > 1e-4 * base
    assert mixed_norm(u, 4.0, 6.0, check_resolution=True, rtol=1e-12) == base


def test_resolution_check_accepts_an_unmoved_norm_at_rtol_0():
    # a degree-0 field has one-node time series, so M and 2M nodes give the same bits
    f = CoefficientTable.unit_mode(0, 0, 0) * 0.7
    u = synthesize_history(f, TimeGrid(8), grid_for(0, 2, 2.0))
    for q in (1.0, 2.0, 3.0, 6.0):
        assert mixed_norm(u, 4.0, q, check_resolution=True, rtol=0.0) > 0


def test_resolution_check_tolerance_is_relative():
    # scaled by 1e3 the norm is about 1e3, so rtol * |norm| and rtol / |norm| are 1e6 apart;
    # M = 24 aliases the frequencies +-24 and +-48 of |u|^6 and 2M only +-48, so doubling
    # moves the norm by about 2e-3 of itself
    f = random_field(4, 2, np.random.default_rng(0)) * 1e3
    g = grid_for(4, 2, 2.0)
    u = synthesize_history(f, TimeGrid(24), g)
    base = mixed_norm(u, 4.0, 6.0)
    move = abs(mixed_norm(SpaceTimeField(TimeGrid(48), g, f), 4.0, 6.0) - base) / base
    assert 1e-3 < move < 1e-2 and base > 100.0
    assert mixed_norm(u, 4.0, 6.0, check_resolution=True, rtol=2 * move) == base
    with pytest.raises(TimeResolutionError):
        mixed_norm(u, 4.0, 6.0, check_resolution=True, rtol=move / 2)


def test_resolution_check_default_rtol_is_1e_8():
    # Y00 plus eps times the previous test's field: |u|^6 at M = 24 aliases only products of
    # two cross terms, so doubling moves the norm by about 1.1e-2 eps^2 of itself, 2e-8 at
    # eps = 1.34e-3 and 5e-9 at eps = 6.7e-4: the default rtol must raise on the first and
    # pass the second
    f = random_field(4, 2, np.random.default_rng(0))
    g = grid_for(4, 2, 2.0)
    for eps, lo, hi, raises in [(1.34e-3, 1.5e-8, 3e-8, True), (6.7e-4, 3e-9, 7e-9, False)]:
        h = CoefficientTable.unit_mode(4, 0, 0) + f * eps
        u = synthesize_history(h, TimeGrid(24), g)
        base = mixed_norm(u, 4.0, 6.0)
        move = abs(mixed_norm(SpaceTimeField(TimeGrid(48), g, h), 4.0, 6.0) - base) / base
        assert lo < move < hi
        if raises:
            with pytest.raises(TimeResolutionError):
                mixed_norm(u, 4.0, 6.0, check_resolution=True)
        else:
            assert mixed_norm(u, 4.0, 6.0, check_resolution=True) == base


def test_resolution_check_floors_the_norm_at_1e_300():
    # scaled by 1e-302 the norm (p = inf, q = 1) is about 3e-302, below the floor, so the
    # tolerance is rtol * 1e-300: the same move passes at rtol = 2 move / 1e-300 and raises at
    # a quarter of that.  Without the floor the first call would raise as well.
    f = random_field(4, 2, np.random.default_rng(0)) * 1e-302
    g = grid_for(4, 2, 2.0)
    u = synthesize_history(f, TimeGrid(24), g)
    base = mixed_norm(u, math.inf, 1.0)
    move = abs(mixed_norm(SpaceTimeField(TimeGrid(48), g, f), math.inf, 1.0) - base)
    assert base < 1e-301 and move > 1e-3 * base
    assert mixed_norm(u, math.inf, 1.0, check_resolution=True, rtol=2 * move / 1e-300) == base
    with pytest.raises(TimeResolutionError):
        mixed_norm(u, math.inf, 1.0, check_resolution=True, rtol=move / 2e-300)


def test_resolution_check_requires_a_free_field():
    f = random_field(3, 2, np.random.default_rng(1))
    u = synthesize_history(f, TimeGrid(16), grid_for(3, 2, 2.0)).materialize()
    with pytest.raises(ValueError, match="resolution check requires a free-evolution field"):
        mixed_norm(u, 4.0, 2.0, check_resolution=True)


@pytest.mark.parametrize("explicit", [False, True])
def test_mixed_norm_rejects_vacuous_underflow(explicit):
    # |u| < 1 everywhere, so |u|^q underflows to 0 although u is not 0
    f = random_field(6, 2, np.random.default_rng(21))
    u = synthesize_history(f, nyquist_time_grid(6, 2), grid_for(6, 2, 2.0))
    u = u.materialize() if explicit else u
    with np.errstate(under="ignore"), pytest.raises(FloatingPointError, match="vacuous"):
        mixed_norm(u, 4.0, 1e308)


@pytest.mark.parametrize("explicit", [False, True])
def test_mixed_norm_rejects_overflow(explicit):
    f = random_field(6, 2, np.random.default_rng(22))
    f.a *= 1e3
    u = synthesize_history(f, nyquist_time_grid(6, 2), grid_for(6, 2, 2.0))
    u = u.materialize() if explicit else u
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        mixed_norm(u, 4.0, 200.0)


@pytest.mark.parametrize("explicit", [False, True])
def test_mixed_norm_allows_exact_zeros(explicit):
    # Y_1^0 vanishes on the equator node of the 3-point Gauss grid at every time
    g = build_sphere_grid(2)
    u = synthesize_history(CoefficientTable.unit_mode(2, 1, 0), TimeGrid(8), g)
    u = u.materialize() if explicit else u
    assert np.any(u.samples_at(0) == 0)
    assert mixed_norm(u, 2.0, 3.0) > 0


def test_norms_are_finite_or_fail():
    # a zero field has norm 0; a nonzero one whose |v|^p or weighted sum leaves float range
    # raises, where it returned 0 or inf
    g = build_sphere_grid(2)
    assert lp_norm(np.zeros(g.shape), g, 1e308) == 0.0
    for value, p in [(0.5, 1e308), (2.0, 1e308), (np.nan, 4.0), (np.inf, math.inf)]:
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="vacuous L"):
            lp_norm(np.full(g.shape, value), g, p)
    batch = np.zeros((3, 4))
    np.testing.assert_array_equal(_sobolev_norms(batch, 0.5, True), np.zeros(3))
    batch[1, 3] = 1e-200  # its square underflows: a zero norm for a nonzero row
    with pytest.raises(FloatingPointError, match="Sobolev norm at s = 0.5"):
        _sobolev_norms(batch, 0.5, True)
    with pytest.raises(FloatingPointError, match="Sobolev norm at s = 0.5"):
        _sobolev_norms(batch.reshape(3, 2, 2), 0.5, False)  # |a|^2 underflows in the row sums
    with pytest.raises(FloatingPointError, match="Sobolev norm at s = 400"):
        sobolev_norm(CoefficientTable.unit_mode(8, 8, 0), 400.0)
