"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N` pass/fail line.  Random
draws are seeded, so the whole module is deterministic.
"""

import math

import numpy as np
import pytest
from scipy.fft import next_fast_len

from sphere_strichartz.experiments import (
    geometric_degrees,
    kappa_p,
    kappa_pq,
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
    forward_sht,
    grid_for,
    integrate,
    inverse_sht,
)
from sphere_strichartz.norms import l2t_profile_exact, lp_norm, mixed_norm
from sphere_strichartz.potential import (
    PotentialSpec,
    PotentialTerm,
    l2_drift,
    picard_solve,
)
from sphere_strichartz.spectral import (
    TimeGrid,
    nyquist_time_grid,
    propagate,
    random_field,
    synthesize_history,
)

INF = math.inf
TWO_PI = 2.0 * math.pi


def test_criterion_1_exact_l2t_identity(criterion_report):
    """Time-sampled q=2 mixed norms match the spectral profile to 1e-10."""
    rng = np.random.default_rng(101)
    N = 16
    grid = grid_for(N, 2, 2.0)
    tg = nyquist_time_grid(N, 2)
    worst = 0.0
    for _ in range(20):
        f = random_field(N, 2, rng)
        u = synthesize_history(f, tg, grid)
        prof = l2t_profile_exact(f, grid)
        for p in (2.0, 4.0, INF):
            sampled = mixed_norm(u, p, 2.0)
            spectral = lp_norm(prof, grid, p)
            worst = max(worst, abs(sampled - spectral) / spectral)
    ok = worst <= 1e-10
    criterion_report("criterion 1 (exact L2_t identity)", ok,
                     f"max rel error {worst:.3e} (tol 1e-10), 20 fields, N=16")
    assert ok


def test_criterion_2_propagator_properties(criterion_report):
    """Unitarity and 2pi-periodicity to 1e-13 at 50 random times, N=32."""
    rng = np.random.default_rng(102)
    f = random_field(32, 2, rng)
    # times on a 2^-47 lattice (granularity ~7e-15) so t + 2*pi is exactly
    # representable and the check probes the propagator, not float addition
    h = 2.0**-47
    times = np.floor(rng.uniform(0, TWO_PI, 50) / h) * h
    worst_u = max(abs(propagate(f, t).l2_norm() - f.l2_norm()) for t in times)
    worst_p = max(
        float(np.max(np.abs(propagate(f, t + TWO_PI).a - propagate(f, t).a)))
        for t in times
    )
    ok = worst_u <= 1e-13 and worst_p <= 1e-13
    criterion_report("criterion 2 (propagator unitarity+periodicity)", ok,
                     f"unitarity {worst_u:.2e}, periodicity {worst_p:.2e} (tol 1e-13)")
    assert ok


def test_criterion_3_supercritical_slopes(criterion_report):
    """Zonal sweep slopes: p=inf -> 0.50 +/- 0.02 and p=8 -> 0.25 +/- 0.05."""
    degrees = geometric_degrees(16, 256, 12)
    _, fit_inf = projection_ratio_sweep(2, INF, "zonal-kernel", degrees)
    _, fit_8 = projection_ratio_sweep(2, 8.0, "zonal-kernel", degrees)
    closed = [(n, math.sqrt((2 * n + 1) / (4 * math.pi))) for n in degrees]
    from sphere_strichartz.experiments import fit_loglog

    cross = fit_loglog(closed).slope
    ok = abs(fit_inf.slope - 0.50) <= 0.02 and abs(fit_8.slope - 0.25) <= 0.05
    criterion_report(
        "criterion 3 (supercritical exponents)", ok,
        f"p=inf slope {fit_inf.slope:.4f} (0.50±0.02, closed-form check "
        f"{cross:.4f}); p=8 slope {fit_8.slope:.4f} (0.25±0.05)",
    )
    assert ok


def test_criterion_4_subcritical_slope(criterion_report):
    """Highest-weight sweep at p=4: slope 0.125 +/- 0.02."""
    degrees = geometric_degrees(16, 256, 12)
    _, fit = projection_ratio_sweep(2, 4.0, "highest-weight", degrees)
    ok = abs(fit.slope - 0.125) <= 0.02
    criterion_report("criterion 4 (subcritical exponent)", ok,
                     f"p=4 highest-weight slope {fit.slope:.4f} (0.125±0.02)")
    assert ok


def test_criterion_5_general_dimension(criterion_report):
    """d=3 zonal pipeline at p=inf: slope 1.00 +/- 0.05 over n in [16, 128]."""
    degrees = geometric_degrees(16, 128, 10)
    _, fit = projection_ratio_sweep(3, INF, "zonal-kernel", degrees)
    ok = abs(fit.slope - 1.00) <= 0.05
    criterion_report("criterion 5 (d=3 zonal exponent)", ok,
                     f"slope {fit.slope:.4f} (1.00±0.05)")
    assert ok


def test_criterion_6_kappa_continuity(criterion_report):
    """Branch agreement at p_c to machine precision for d=2..8; 1/6 at p=6."""
    worst = 0.0
    for d in range(2, 9):
        pc = p_critical(d)
        sub = (d - 1) / 2 * (0.5 - 1 / pc)
        sup = d * (0.5 - 1 / pc) - 0.5
        worst = max(worst, abs(sub - sup))
    val = kappa_p(6.0, 2)
    ok = worst <= 1e-15 and abs(val - 1 / 6) <= 1e-15
    criterion_report("criterion 6 (kappa continuity)", ok,
                     f"max branch gap {worst:.2e} (tol 1e-15); "
                     f"kappa(6, d=2) = {val:.16f}")
    assert ok


def test_criterion_7_sharpness_below_threshold(criterion_report):
    """Growth slope 0.10 +/- 0.03 at s = kappa - 0.1 and 0.00 +/- 0.03 at s = kappa."""
    degrees = geometric_degrees(16, 256, 12)
    below = steepest_fit(sharpness_rows(INF, 0.4, 2, degrees))
    at = steepest_fit(sharpness_rows(INF, 0.5, 2, degrees))
    ok = abs(below.slope - 0.10) <= 0.03 and abs(at.slope) <= 0.03
    criterion_report("criterion 7 (q=2 sharpness)", ok,
                     f"slope(s=0.4) {below.slope:.4f} (0.10±0.03); "
                     f"slope(s=0.5) {at.slope:.4f} (0.00±0.03)")
    assert ok


def test_criterion_8_boundedness_at_threshold(criterion_report):
    """Ratio at s = kappa_{p,q} does not grow: ratio(64) <= 1.2 ratio(16)."""
    rng = np.random.default_rng(108)
    details = []
    ok = True
    for p, q, nu in ((4.0, 4.0, 2.0), (INF, 2.0, 2.0), (6.0, 2.0, 3.0)):
        s = kappa_pq(p, q, 2)
        ratios = {}
        for N in (16, 64):
            f = random_field(N, 2, rng)
            grid = grid_for(N, 2, nu)
            # leanest exact rectangle rule: |u|^q has top time frequency
            # q/2 * lambda_N <= 2 lambda_N here, so M > 2 lambda_N suffices;
            # a 5-smooth M keeps the time FFT fast
            lam = N * (N + 1)
            tg = TimeGrid(next_fast_len(2 * lam + 2))
            ratios[N] = strichartz_ratio(f, p, q, s, grid=grid, tg=tg,
                                         method="sampled")
        growth = ratios[64] / ratios[16]
        ok = ok and growth <= 1.2
        label = "inf" if p == INF else f"{p:g}"
        details.append(f"(p={label},q={q:g}): {growth:.3f}")
    criterion_report("criterion 8 (boundedness at threshold)", ok,
                     "growth factors " + ", ".join(details) + " (need <= 1.2)")
    assert ok


def test_criterion_9_p4_product_identity(criterion_report):
    """||u||_4^4 over the product space equals ||u^2||_2^2 to 1e-10."""
    rng = np.random.default_rng(109)
    N = 16
    f = random_field(N, 2, rng)
    grid = grid_for(N, 2, 2.0)
    tg = nyquist_time_grid(N, 2)
    u = synthesize_history(f, tg, grid)
    path1 = mixed_norm(u, 4.0, 4.0) ** 4
    acc = 0.0
    for j in range(tg.M):
        sq = u.samples_at(j) ** 2
        acc += float(np.sum(np.abs(forward_sht(sq, grid, 2 * N).a) ** 2))
    path2 = acc * TWO_PI / tg.M
    rel = abs(path1 - path2) / path2
    ok = rel <= 1e-10
    criterion_report("criterion 9 (p=q=4 identity)", ok,
                     f"quadrature vs Parseval rel diff {rel:.3e} (tol 1e-10)")
    assert ok


def test_criterion_10_picard_solver(criterion_report):
    """V=0 exact; small separable V: contraction, residual, dt^2 mass drift."""
    rng = np.random.default_rng(110)
    N = 6
    f = random_field(N, 2, rng)

    u0, rep0 = picard_solve(f, PotentialSpec([]), p=4.0, s=kappa_pq(4.0, 2.0, 2),
                            tol=1e-8, seed=4)
    free = synthesize_history(f, u0.tg, u0.grid).materialize()
    free_err = float(np.max(np.abs(u0.tables - free.tables)))

    B = CoefficientTable.unit_mode(1, 1, 0)
    V = PotentialSpec([PotentialTerm(np.array([1, -1]),
                                     np.array([0.015, 0.015]), B)])
    s = kappa_pq(4.0, 2.0, 2)
    u1, rep = picard_solve(f, V, p=4.0, s=s, tol=1e-8, max_iter=30,
                           tg=TimeGrid(256), seed=4)
    u2, _ = picard_solve(f, V, p=4.0, s=s, tol=1e-8, max_iter=30,
                         tg=TimeGrid(512), seed=4)
    drift_ratio = l2_drift(u1) / l2_drift(u2)

    ok = (
        free_err <= 1e-12
        and rep.smallness_ok
        and rep.contraction_ratio <= 0.5
        and rep.converged
        and rep.iterations <= 30
        and rep.residual <= 1e-6
        and 3.0 <= drift_ratio <= 5.0
    )
    criterion_report(
        "criterion 10 (Picard solver)", ok,
        f"V=0 err {free_err:.1e}; ratio {rep.contraction_ratio:.3f} (<=0.5); "
        f"{rep.iterations} iterates; residual {rep.residual:.2e} (<=1e-6); "
        f"drift ratio under M doubling {drift_ratio:.2f} (~4)",
    )
    assert ok


def test_criterion_11_transform_selftest(criterion_report):
    """Round trip and Parseval at N=128 on both pipelines, to 1e-12."""
    rng = np.random.default_rng(111)
    N = 128
    g = build_sphere_grid(N)
    f = random_field(N, 2, rng)
    vals = inverse_sht(f, g)
    rt_sphere = float(np.max(np.abs(forward_sht(vals, g, N).a - f.a)))
    pv_sphere = abs(integrate(np.abs(vals) ** 2, g) - np.sum(np.abs(f.a) ** 2))

    zg = build_zonal_grid(N, 3)
    zf = random_field(N, 3, rng)
    zvals = inverse_sht(zf, zg)
    rt_zonal = float(np.max(np.abs(forward_sht(zvals, zg, N).a - zf.a)))
    pv_zonal = abs(integrate(np.abs(zvals) ** 2, zg) - np.sum(np.abs(zf.a) ** 2))

    ok = max(rt_sphere, rt_zonal) <= 1e-12 and max(pv_sphere, pv_zonal) <= 1e-12
    criterion_report(
        "criterion 11 (transform self-test)", ok,
        f"round-trip S^2 {rt_sphere:.2e}, zonal d=3 {rt_zonal:.2e}; "
        f"Parseval {max(pv_sphere, pv_zonal):.2e} (tol 1e-12)",
    )
    assert ok
