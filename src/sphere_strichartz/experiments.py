"""Quantitative experiments: projection-growth exponents, extremal families,
log-log sweeps, space-time ratio checks, and sharpness-below-threshold fits.

The projection-norm growth exponent kappa_p has two regimes split at the
critical exponent p_c = 2(d+1)/(d-1):

    kappa_p = (d-1)/2 * (1/2 - 1/p)      for 2 <= p <= p_c
    kappa_p = d * (1/2 - 1/p) - 1/2      for p > p_c

and the space-time exponent is kappa_{p,q} = (1/2 - 1/q) + kappa_p.  The
two classical witness families realize the two regimes: zonal kernels
(point concentration, supercritical) and highest-weight harmonics
(great-circle concentration, subcritical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (CoefficientTable, _per_point, build_zonal_grid, grid_for, inverse_sht,
                    max_band_limit, pole_values)
from .harmonics import legendre_column
from .norms import _abs_lp_norm, _check_p, lp_norm, mixed_norm, sobolev_norm
from .spectral import nyquist_time_grid, random_field, synthesize_history

__all__ = [
    "ExponentFit",
    "p_critical",
    "kappa_p",
    "kappa_pq",
    "make_family",
    "field_lp_norm",
    "projection_ratio_sweep",
    "strichartz_ratio",
    "sharpness_rows",
    "steepest_fit",
    "fit_loglog",
    "geometric_degrees",
    "estimate_strichartz_constant",
]

FAMILIES = ("zonal-kernel", "highest-weight", "random-eigenspace")


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(ratio) against log(degree)."""

    slope: float
    intercept: float
    stderr: float
    n_min: int
    n_max: int
    count: int


def geometric_degrees(lo: int, hi: int, count: int = 12) -> tuple:
    """Up to `count` (12: the CLI's 'a:b') log-spaced integer degrees in [lo, hi], deduplicated."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got {lo}, {hi}")
    # sorted(set(...)), not np.unique, which imports numpy.ma (DEFAULT_DEGREES runs at import)
    return tuple(sorted({int(v) for v in np.rint(np.geomspace(lo, hi, count))}))


# default fit window: small degrees pollute the asymptotics
DEFAULT_DEGREES = geometric_degrees(16, 256)


def p_critical(d: int) -> float:
    """Regime-splitting exponent 2(d+1)/(d-1)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    return 2.0 * (d + 1) / (d - 1)


def kappa_p(p: float, d: int) -> float:
    """Sharp L^2 -> L^p projection growth exponent, piecewise around p_c."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if not p >= 2:
        raise ValueError(f"p must be >= 2, got {p}")
    inv_p = 0.0 if p == math.inf else 1.0 / p
    if p <= p_critical(d):
        return (d - 1) / 2.0 * (0.5 - inv_p)
    return d * (0.5 - inv_p) - 0.5


def kappa_pq(p: float, q: float, d: int) -> float:
    """Space-time regularity threshold (1/2 - 1/q) + kappa_p."""
    if not 2 <= q < math.inf:
        raise ValueError(f"q must be in [2, inf), got {q}")
    return (0.5 - 1.0 / q) + kappa_p(p, d)


def make_family(kind: str, n: int, d: int,
                rng: np.random.Generator | None = None) -> CoefficientTable:
    """Unit-L^2 degree-n witness field.

    zonal-kernel: the normalized reproducing kernel centered at the pole
    (point concentration; supercritical witness).  highest-weight (d=2
    only): the harmonic concentrating on a great circle.  random-eigenspace
    (d=2 only): i.i.d. gaussian coefficients within degree n.
    """
    if n < 1:
        raise ValueError(f"witness degree must be >= 1, got {n}")
    if kind == "zonal-kernel":
        return CoefficientTable.unit_mode(n, n, 0, d=d)
    if kind == "highest-weight":
        if d != 2:
            raise ValueError("highest-weight family requires d = 2")
        return CoefficientTable.unit_mode(n, n, n, d=2)
    if kind == "random-eigenspace":
        if d != 2:
            raise ValueError("random-eigenspace family requires d = 2")
        rng = rng if rng is not None else np.random.default_rng(0)
        tab = CoefficientTable.zeros(n, 2)
        row = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        tab.a[n] = row / np.linalg.norm(row)
        return tab
    raise ValueError(f"unknown family {kind!r}")


def _colatitude_profile(f: CoefficientTable, band: int):
    """(values, colatitude grid) when the d = 2 table f has a single longitude frequency m, else
    None.  |f| then depends on colatitude only, the longitude average is exact for any L, and the
    L^p quadrature collapses to the colatitude rule, whose weights carry the circle's length
    2 pi = surface_area(1).
    """
    nz = np.nonzero(np.any(f.a != 0, axis=0))[0]
    if nz.size != 1:
        return None
    g = build_zonal_grid(band, 2)  # the S^2 grid's colatitude rule
    m = int(nz[0]) - f.N
    return f.a[:, nz[0]] @ legendre_column(abs(m), f.N, g.t), g


def _lp_oversample(p: float, N: int, oversample: float = 2.0) -> float:
    """Grid oversampling for |f|^p at band N: max(oversample, p/2), oversample at p = inf."""
    _check_p(p)  # before any work: p < 1 or nan would fail only once |f| is sampled
    nu, cap = oversample if p == math.inf else max(oversample, p / 2.0), max_band_limit()
    if not nu * N <= cap:  # the grid band, or its overflow to inf, is above the band cap
        raise ValueError(f"p = {p:g} needs a grid band of {nu:g} * {N}, above the cap {cap}")
    return nu


def field_lp_norm(f: CoefficientTable, p: float, oversample: float = 2.0) -> float:
    """L^p norm of a band-limited field, on a grid sized for |f|^p.

    For finite even p the quadrature is exact once the grid band reaches
    p*N/2; the band used is max(oversample, p/2) * N.  For p = inf the grid
    maximum is augmented with the pole values (Gauss colatitude grids have
    no node at t = +-1, where zonal witnesses peak) when f has an m = 0 part:
    only Y_{n,0} is nonzero at a pole.
    """
    grid = grid_for(f.N, f.d, _lp_oversample(p, f.N, oversample))
    prof = None if f.zonal else _colatitude_profile(f, grid.band)
    if prof is not None:
        res = lp_norm(*prof, p)
    elif not f.zonal and (n := np.nonzero(np.any(f.a != 0, axis=1))[0]).size == 1:  # |H_n f|
        m = _per_point(f.a, grid, lambda E, out: np.abs(E[0], out=out), int(n[0]))  # no copy
        res = _abs_lp_norm(m, grid, p, f.a)
    else:  # a zonal table, or a d = 2 table with more than one active order and degree
        res = lp_norm(inverse_sht(f, grid), grid, p)
    if p == math.inf and (f.zonal or f.a[:, f.N].any()):
        res = max(res, float(np.max(np.abs(pole_values(f)))))
    return res


def projection_ratio_sweep(d: int, p: float, family: str = "zonal-kernel",
                           degrees=DEFAULT_DEGREES, oversample: float = 2.0, seed: int = 0):
    """Per-degree ratios ||H_n f_n||_p / ||f_n||_2 and their log-log fit."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    degrees = tuple(int(n) for n in degrees)
    if list(degrees) != sorted(set(degrees)) or (degrees and degrees[0] < 1):
        raise ValueError("degrees must be strictly ascending and >= 1")
    _check_points(len(degrees))
    kappa_p(p, d)  # ValueError unless d >= 2 and p >= 2
    if not 0 < oversample < math.inf:
        raise ValueError(f"oversample must be a finite number > 0, got {oversample}")
    _lp_oversample(p, max(degrees, default=0), oversample)  # before any work
    rng = np.random.default_rng(seed)
    rows = []
    for n in degrees:
        f = make_family(family, n, d, rng=rng)  # a degree-n table: its own projection
        ratio = field_lp_norm(f, p, oversample) / f.l2_norm()
        rows.append((n, ratio))
    return rows, fit_loglog(rows)


def strichartz_ratio(f: CoefficientTable, p: float, q: float, s: float,
                     grid=None, tg=None, method: str = "auto") -> float:
    """Mixed-norm-to-Sobolev quotient of the free evolution of f.

    method="auto" uses the exact single-degree reduction when f lives in
    one eigenspace (|u(t,z)| = |f(z)| for all t, so the inner time norm is
    (2 pi)^{1/q} |f(z)|); otherwise, and always with method="sampled", the
    mixed norm is the rectangle rule on tg (default: the Nyquist grid with
    margin 4), summed by the kernel that norms._time_sums' route table picks.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    nu = _lp_oversample(p, f.N)  # before any work: fails if the grid band overflows
    denom = sobolev_norm(f, s)
    if denom == 0.0:
        raise ValueError("zero field")
    if method not in ("auto", "sampled"):
        raise ValueError(f"unknown method {method!r}")
    active = np.nonzero(np.any(f.a.reshape(f.N + 1, -1) != 0, axis=1))[0]
    if method == "auto" and active.size == 1:
        num = (2.0 * math.pi) ** (1.0 / q) * field_lp_norm(f, p)
    else:
        if grid is None:
            grid = grid_for(f.N, f.d, nu)
        if tg is None:
            tg = nyquist_time_grid(f.N, f.d)
        u = synthesize_history(f, tg, grid)
        num = mixed_norm(u, p, q)
    return num / denom


def sharpness_rows(p: float, s: float, d: int, degrees) -> dict:
    """{family: [(n, q=2 ratio at regularity s), ...]} over the witness families of S^d."""
    fams = ("zonal-kernel", "highest-weight") if d == 2 else ("zonal-kernel",)
    return {fam: [(n, strichartz_ratio(make_family(fam, n, d), p, 2.0, s)) for n in degrees]
            for fam in fams}


def steepest_fit(per_family: dict) -> ExponentFit:
    """The log-log fit with the largest slope over the families' rows (first on ties)."""
    return max((fit_loglog(rows) for rows in per_family.values()), key=lambda fit: fit.slope)


def _check_points(count: int) -> None:
    """ValueError unless a log-log fit gets at least 3 points."""
    if count < 3:
        raise ValueError(f"need at least 3 points, got {count}")


def fit_loglog(points) -> ExponentFit:
    """Ordinary least squares of log(ratio) on log(n), with slope stderr."""
    pts = [(float(n), float(r)) for n, r in points]
    _check_points(len(pts))
    ns, rs = np.array(pts).T
    if np.any(ns <= 0) or np.any(rs <= 0):
        raise ValueError("log-log fit needs strictly positive inputs")
    x, y, k = np.log(ns), np.log(rs), len(pts)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    sigma2 = float(np.sum(resid ** 2)) / max(k - 2, 1)
    return ExponentFit(slope=slope, intercept=intercept, stderr=math.sqrt(sigma2 / sxx),
                       n_min=int(ns.min()), n_max=int(ns.max()), count=k)


def estimate_strichartz_constant(p: float, s: float, N: int, d: int,
                                 rng: np.random.Generator) -> float:
    """Empirical bound for the q=2 free-evolution constant: max ratio over probes.

    Probes are four random band-N fields plus the two degree-N witnesses; used by
    the potential solver's smallness gate (with a safety factor there).
    """
    best = 0.0
    for _ in range(4):
        f = random_field(N, d, rng)
        best = max(best, strichartz_ratio(f, p, 2.0, s))
    for rows in sharpness_rows(p, s, d, [max(N, 1)]).values():
        best = max(best, rows[0][1])
    return best
