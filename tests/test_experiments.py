import math
import re
import tracemalloc

import numpy as np
import pytest

from sphere_strichartz import experiments
from sphere_strichartz.experiments import (
    ExponentFit,
    field_lp_norm,
    fit_loglog,
    geometric_degrees,
    kappa_p,
    kappa_pq,
    make_family,
    p_critical,
    projection_ratio_sweep,
    sharpness_rows,
    steepest_fit,
    strichartz_ratio,
)
from sphere_strichartz.grids import (
    CoefficientTable,
    build_sphere_grid,
    build_zonal_grid,
    grid_for,
    inverse_sht,
    pole_values,
)
from sphere_strichartz.harmonics import legendre_column
from sphere_strichartz.norms import lp_norm
from sphere_strichartz.spectral import project, random_field

INF = math.inf


def test_kappa_p_examples():
    for d in (2, 3, 5):
        assert kappa_p(2.0, d) == 0.0
    assert kappa_p(INF, 2) == pytest.approx(0.5, abs=1e-16)
    assert kappa_p(6.0, 2) == pytest.approx(1 / 6, abs=1e-15)
    assert kappa_p(8.0, 2) == pytest.approx(0.25, abs=1e-16)


def test_kappa_p_continuous_at_critical():
    for d in range(2, 9):
        pc = p_critical(d)
        sub = (d - 1) / 2 * (0.5 - 1 / pc)
        sup = d * (0.5 - 1 / pc) - 0.5
        assert abs(sub - sup) <= 1e-15
        assert kappa_p(pc, d) == pytest.approx(sub, abs=1e-15)


def test_kappa_p_validation():
    with pytest.raises(ValueError):
        kappa_p(1.5, 2)
    with pytest.raises(ValueError):
        kappa_p(4.0, 1)


def test_kappa_pq_examples():
    for p in (2.0, 4.0, 17.0, INF):
        assert kappa_pq(p, 2.0, 3) == kappa_p(p, 3)
    assert kappa_pq(4.0, 4.0, 2) == pytest.approx(3 / 8, abs=1e-15)
    assert kappa_pq(INF, 2.0, 2) == pytest.approx(0.5, abs=1e-16)


def test_kappa_pq_minus_kappa_p_is_sq():
    for p, q, d in [(3.0, 2.0, 2), (7.0, 5.0, 4), (INF, 3.0, 2)]:
        assert kappa_pq(p, q, d) - kappa_p(p, d) == pytest.approx(
            0.5 - 1 / q, abs=1e-15
        )
    with pytest.raises(ValueError):
        kappa_pq(4.0, INF, 2)


def test_fit_loglog_exact_power_law():
    ns = [4, 8, 16, 32, 64]
    fit = fit_loglog([(n, 3.0 * n**0.7) for n in ns])
    assert fit.slope == pytest.approx(0.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.stderr < 1e-12
    assert (fit.n_min, fit.n_max, fit.count) == (4, 64, 5)


def test_fit_loglog_constant():
    fit = fit_loglog([(n, 2.5) for n in (3, 9, 27, 81)])
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_fit_loglog_noisy_recovery():
    rng = np.random.default_rng(0)
    ns = geometric_degrees(16, 256, 15)
    pts = [(n, 1.7 * n**0.42 * (1 + rng.uniform(-0.01, 0.01))) for n in ns]
    fit = fit_loglog(pts)
    assert fit.slope == pytest.approx(0.42, abs=0.02)


def test_fit_loglog_validation():
    with pytest.raises(ValueError):
        fit_loglog([(1, 1.0), (2, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog([(1, 1.0), (2, -2.0), (3, 3.0)])


def test_geometric_degrees():
    degs = geometric_degrees(16, 256, 12)
    assert degs[0] == 16 and degs[-1] == 256
    assert list(degs) == sorted(set(degs))


@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (1, 9), (3, 40), (16, 256), (17, 18),
                                    (100, 1024)])
def test_geometric_degrees_equal_np_unique(lo, hi):
    for count in (1, 2, 5, 11, 12, 40):
        want = tuple(int(v) for v in np.unique(np.rint(np.geomspace(lo, hi, count)).astype(int)))
        got = geometric_degrees(lo, hi, count)
        assert got == want
        assert all(type(n) is int for n in got)


def test_make_family_zonal_ratio_closed_form():
    # sup/L2 ratio of the normalized zonal kernel: sqrt((2n+1)/(4 pi))
    f = make_family("zonal-kernel", 10, 2)
    assert f.l2_norm() == pytest.approx(1.0, abs=1e-12)
    ratio = field_lp_norm(f, INF) / f.l2_norm()
    assert ratio == pytest.approx(math.sqrt(21 / (4 * math.pi)), rel=1e-12)
    assert ratio == pytest.approx(1.29272, rel=1e-5)


def test_make_family_highest_weight_structure():
    # |values| proportional to (sin theta)^n, independent of longitude
    n = 7
    f = make_family("highest-weight", n, 2)
    g = grid_for(n, 2, 2.0)
    vals = np.abs(inverse_sht(f, g))
    assert np.max(np.std(vals, axis=1) / np.max(vals)) < 1e-13
    prof = vals[:, 0]
    expect = (1 - g.t**2) ** (n / 2.0)
    ratio = prof / expect
    assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, rel=1e-10)


def test_make_family_random_eigenspace():
    rng = np.random.default_rng(1)
    f = make_family("random-eigenspace", 6, 2, rng=rng)
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)
    per_degree = np.linalg.norm(f.a, axis=1)
    assert per_degree[6] == pytest.approx(1.0, rel=1e-12)
    assert np.max(per_degree[:6]) == 0.0


def test_make_family_validation():
    with pytest.raises(ValueError):
        make_family("highest-weight", 4, 3)
    with pytest.raises(ValueError):
        make_family("random-eigenspace", 4, 3)
    with pytest.raises(ValueError):
        make_family("nope", 4, 2)
    with pytest.raises(ValueError):
        make_family("zonal-kernel", 0, 2)


def test_field_lp_norm_profile_matches_full_grid():
    # the colatitude fast path equals the generic 2-D quadrature
    for kind, n in [("zonal-kernel", 8), ("highest-weight", 9)]:
        f = make_family(kind, n, 2)
        g = grid_for(n, 2, 2.0)
        vals = inverse_sht(f, g)
        assert field_lp_norm(f, 4.0) == pytest.approx(
            lp_norm(vals, g, 4.0), rel=1e-12
        )
    rng = np.random.default_rng(2)
    f = make_family("random-eigenspace", 8, 2, rng=rng)
    g = grid_for(8, 2, 2.0)
    assert field_lp_norm(f, 4.0) == pytest.approx(
        lp_norm(inverse_sht(f, g), g, 4.0), rel=1e-12
    )


@pytest.mark.parametrize("p", [4.0, 6.0, INF])
def test_field_lp_norm_single_degree_path_equals_table_path(p, monkeypatch):
    # |H_n f| from one Legendre row gives the same floats as |inverse_sht| on the full table
    rng = np.random.default_rng(7)
    fields = [make_family("random-eigenspace", n, 2, rng=rng) for n in (1, 17, 64)]
    fields += [project(random_field(40, 2, rng), n) for n in (2, 33)]
    fast = [field_lp_norm(f, p) for f in fields]
    degrees = []

    def table_path(a, grid, n):
        degrees.append(n)
        return np.abs(inverse_sht(CoefficientTable(len(a) - 1, 2, a), grid))

    monkeypatch.setattr(experiments, "_degree_abs", table_path)
    assert fast == [field_lp_norm(f, p) for f in fields]
    assert degrees == [1, 17, 64, 2, 33]  # every field took the one-degree path


def test_field_lp_norm_single_degree_path_makes_no_copy():
    # |H_n f| is raised to p in place: the peak is the one-degree kernel's (1.36 float (K, L)
    # outputs at grid band 2n, see test_batched); a copy of |H_n f| for lp_norm makes it 2.01
    f = make_family("random-eigenspace", 256, 2, rng=np.random.default_rng(256))
    out_bytes = 8 * math.prod(build_sphere_grid(512).shape)
    tracemalloc.start()
    try:
        field_lp_norm(f, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out_bytes


def test_field_lp_norm_single_degree_vacuous_norm_fails(monkeypatch):
    # |H_1 f| < 0.5 everywhere, so |H_1 f|^1100 underflows to 0 at every node: the nonzero
    # coefficients tell that 0 from the norm of a zero field
    monkeypatch.setenv("SPHERE_STRICHARTZ_MAX_N", "2000")  # the grid band is 550
    f = make_family("random-eigenspace", 1, 2, rng=np.random.default_rng(1))
    with np.errstate(under="ignore"), pytest.raises(FloatingPointError, match="vacuous L"):
        field_lp_norm(f, 1100.0)
    assert field_lp_norm(f, 100.0) > 0.0


def _reference_colatitude_lp_norm(f, p, oversample=2.0):
    """field_lp_norm's former hand-written colatitude quadrature, for tables whose |f| depends
    on colatitude only: sum(w |g|^p)^(1/p), or max |g| for p = inf."""
    nu = oversample if p == INF else max(oversample, p / 2.0)
    band = max(f.N, math.ceil(nu * f.N))
    if f.zonal:
        g = build_zonal_grid(band, f.d)
        w, absg = g.weights(), np.abs(inverse_sht(f, g))
    else:
        (col,) = np.nonzero(np.any(f.a != 0, axis=0))[0]
        g = build_sphere_grid(band)
        P = legendre_column(abs(int(col) - f.N), f.N, g.t)
        w, absg = g.t_weights * (2.0 * np.pi), np.abs(f.a[:, col] @ P)
    res = float(np.max(absg)) if p == INF else float(np.sum(w * absg ** p) ** (1.0 / p))
    if p == INF:
        res = max(res, float(np.max(np.abs(pole_values(f)))))
    return res


def _colatitude_tables():
    rng = np.random.default_rng(31)
    tables = [random_field(N, d, rng) for d in (3, 4) for N in (1, 9, 24)]
    for f in tables[:3]:  # the d = 3 coefficients on S^2 too: a full table's m = 0 column
        tables.append(CoefficientTable.zeros(f.N, 2))
        tables[-1].a[:, f.N] = f.a
    tables += [make_family("zonal-kernel", n, d) for d in (3, 4) for n in (5, 40)]
    for N, m in [(12, 0), (12, 3), (12, -3), (12, 12), (12, -12), (30, 3), (30, -30)]:
        tab = CoefficientTable.zeros(N, 2)  # one active order m, random degrees |m|..N
        k = N + 1 - abs(m)
        tab.a[abs(m):, m + N] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        tables.append(tab)
    tables += [CoefficientTable.unit_mode(n, n, m) for n in (7, 33) for m in (0, 3, -3, n, -n)]
    return tables


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 7.5, INF])
def test_field_lp_norm_colatitude_path_equals_reference_quadrature(p):
    # the colatitude path through lp_norm gives the former hand-written sum's floats
    for f in _colatitude_tables():
        assert field_lp_norm(f, p) == _reference_colatitude_lp_norm(f, p), (f.N, f.d, f.zonal)


@pytest.mark.parametrize("N", [3, 8, 13])
@pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 7.5, INF])
def test_field_lp_norm_full_synthesis_path_equals_reference(p, N):
    # a d = 2 table with several degrees and several orders is synthesized whole on the grid
    # grid_for sizes for |f|^p; at p = inf the pole values join the grid maximum
    f = random_field(N, 2, np.random.default_rng(N))
    grid = grid_for(N, 2, 2.0 if p == INF else max(2.0, p / 2.0))
    want = lp_norm(inverse_sht(f, grid), grid, p)
    if p == INF:
        want = max(want, float(np.max(np.abs(pole_values(f)))))
    assert field_lp_norm(f, p) == want


def test_sweep_p2_is_flat():
    rows, fit = projection_ratio_sweep(2, 2.0, "zonal-kernel", (8, 16, 32, 64))
    assert all(r == pytest.approx(1.0, rel=1e-10) for _, r in rows)
    assert fit.slope == pytest.approx(0.0, abs=1e-10)


def test_sweep_p_inf_zonal_slope_short():
    rows, fit = projection_ratio_sweep(2, INF, "zonal-kernel", geometric_degrees(16, 128, 8))
    for n, r in rows:
        assert r == pytest.approx(math.sqrt((2 * n + 1) / (4 * math.pi)), rel=1e-11)
    assert fit.slope == pytest.approx(0.5, abs=0.02)


def test_sweep_p4_highest_weight_beta_oracle():
    # closed form via Beta integrals: ||Y_nn||_4^4 = I_{2n} / (2 pi I_n^2),
    # I_k = integral of (1-t^2)^k dt = sqrt(pi) Gamma(k+1)/Gamma(k+3/2)
    def log_I(k):
        return 0.5 * math.log(math.pi) + math.lgamma(k + 1) - math.lgamma(k + 1.5)

    rows, fit = projection_ratio_sweep(2, 4.0, "highest-weight", geometric_degrees(16, 128, 8))
    for n, r in rows:
        want = math.exp(0.25 * (log_I(2 * n) - 2 * log_I(n) - math.log(2 * math.pi)))
        assert r == pytest.approx(want, rel=1e-11)
    assert fit.slope == pytest.approx(0.125, abs=0.02)


def test_sweep_config_validation(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("make_family called before the sweep's checks")

    monkeypatch.setattr(experiments, "make_family", no_work)  # every check fails before any work
    for kwargs, message in [
        (dict(p=1.0), "p must be >= 2, got 1.0"),
        (dict(p=4.0, degrees=(8, 4)), "degrees must be strictly ascending and >= 1"),
        (dict(p=4.0, family="bogus"), "unknown family 'bogus'"),
        (dict(p=4.0, oversample=math.nan), "oversample must be a finite number > 0, got nan"),
        (dict(p=1e308), "p = 1e+308 needs a grid band of 5e+307 * 256"),
        (dict(d=1, p=4.0), "need d >= 2, got 1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            projection_ratio_sweep(**{"d": 2, **kwargs})


def test_strichartz_ratio_constant_mode():
    from sphere_strichartz.grids import CoefficientTable

    f = CoefficientTable.unit_mode(2, 0, 0)
    assert strichartz_ratio(f, 2.0, 2.0, 0.0) == pytest.approx(
        math.sqrt(2 * math.pi), rel=1e-12
    )


def test_strichartz_ratio_single_degree_identity():
    # closed single-degree reduction vs honest time sampling, q=2 and q=4
    rng = np.random.default_rng(3)
    f = make_family("random-eigenspace", 6, 2, rng=rng)
    for p, q in [(4.0, 2.0), (INF, 2.0), (4.0, 4.0)]:
        closed = strichartz_ratio(f, p, q, 0.3, method="auto")
        sampled = strichartz_ratio(f, p, q, 0.3, method="sampled")
        assert closed == pytest.approx(sampled, rel=1e-10)


def test_strichartz_ratio_single_degree_algebraic_form():
    # q=2 single degree: sqrt(2 pi) ||H_n g||_p / ((1+n)^s ||H_n g||_2)
    rng = np.random.default_rng(4)
    f = make_family("random-eigenspace", 5, 2, rng=rng)
    s = 0.4
    want = math.sqrt(2 * math.pi) * field_lp_norm(f, 4.0) / (1 + 5) ** s
    assert strichartz_ratio(f, 4.0, 2.0, s) == pytest.approx(want, rel=1e-12)


def test_strichartz_ratio_monotone_in_s():
    rng = np.random.default_rng(5)
    f = random_field(8, 2, rng)
    vals = [strichartz_ratio(f, 4.0, 2.0, s) for s in (0.0, 0.25, 0.5, 1.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_strichartz_ratio_zonal_family_bounded_at_threshold():
    # within a factor 2 across n in [16, 256] at s = kappa_{p,2}
    s = kappa_pq(INF, 2.0, 2)
    ratios = [
        strichartz_ratio(make_family("zonal-kernel", n, 2), INF, 2.0, s)
        for n in geometric_degrees(16, 256, 7)
    ]
    assert max(ratios) / min(ratios) < 2.0


def test_strichartz_ratio_guards():
    from sphere_strichartz.grids import CoefficientTable

    with pytest.raises(ValueError):
        strichartz_ratio(CoefficientTable.zeros(4, 2), 4.0, 2.0, 0.5)
    f = CoefficientTable.unit_mode(4, 2, 0)
    with pytest.raises(ValueError):
        strichartz_ratio(f, 4.0, 2.0, -0.1)


@pytest.mark.parametrize("f, method, message", [
    (CoefficientTable.unit_mode(4, 2, 1), "exact", "unknown method 'exact'"),
], ids=["unknown-method"])
def test_strichartz_ratio_method_validation(f, method, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        strichartz_ratio(f, 4.0, 2.0, 0.5, method=method)


def test_sharpness_sweep_slopes():
    degs = geometric_degrees(16, 128, 8)
    below = steepest_fit(sharpness_rows(INF, 0.3, 2, degs))
    assert below.slope == pytest.approx(0.2, abs=0.03)
    at = steepest_fit(sharpness_rows(INF, 0.5, 2, degs))
    assert at.slope == pytest.approx(0.0, abs=0.03)


def test_sharpness_sweep_picks_steeper_family():
    # at p=4 (subcritical) the highest-weight family dominates the zonal one
    degs = geometric_degrees(16, 128, 8)
    fit = steepest_fit(sharpness_rows(4.0, 0.0, 2, degs))
    assert fit.slope == pytest.approx(kappa_pq(4.0, 2.0, 2), abs=0.03)


def test_sharpness_sweep_d3():
    degs = geometric_degrees(8, 64, 6)
    fit = steepest_fit(sharpness_rows(INF, 0.5, 3, degs))
    assert fit.slope == pytest.approx(kappa_pq(INF, 2.0, 3) - 0.5, abs=0.05)


def test_sharpness_rows_feed_the_sweep_fit():
    degs = geometric_degrees(16, 64, 5)
    per_family = sharpness_rows(INF, 0.4, 2, degs)
    assert list(per_family) == ["zonal-kernel", "highest-weight"]
    for fam, rows in per_family.items():
        assert [n for n, _ in rows] == list(degs)
        n, r = rows[-1]
        assert r == strichartz_ratio(make_family(fam, n, 2), INF, 2.0, 0.4)
    fit = steepest_fit(per_family)
    assert fit in [fit_loglog(rows) for rows in per_family.values()]
    assert fit.slope == max(fit_loglog(rows).slope for rows in per_family.values())
