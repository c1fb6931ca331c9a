"""Schrodinger flow with a potential: Duhamel integral, Picard iteration.

The equation i u_t = (-Delta + V) u with separable, band-limited
V(x, t) = sum_k a_k(t) B_k(x) is solved as the fixed point of

    Phi(w) = e^{i t Delta} f  -  i * int_0^t e^{i (t-tau) Delta} (V w)(tau) dtau

on a uniform time grid.  The -i prefactor makes the fixed point solve the
stated equation (for real V the continuum flow is then L^2-unitary, which
is what the mass-drift diagnostic checks).  The time integral is composite
trapezoid (second order); the spatial product V*w is formed in sample space
on an oversampled grid and re-analyzed band-exactly, so the iteration is a
Galerkin truncation with no aliasing in the retained coefficients.

Iteration stops when the X-norm increment (sup-in-time Sobolev part plus
the L^p_x(L^2_t) part) drops below tol; three consecutive non-contracting
increments raise DivergenceError, pointing at the potential-smallness
requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiments import estimate_strichartz_constant, kappa_pq
from .grids import CoefficientTable, _analyze, grid_for, inverse_sht
from .harmonics import eigenvalues_upto
from .norms import _sobolev_norms, lp_norm, mixed_norm
from .spectral import (
    _SERIES_CHUNK_BYTES,
    _TIME_BLOCK,
    SpaceTimeField,
    TimeGrid,
    _row_blocks,
    free_phases,
    synthesize_history,
)

__all__ = [
    "DivergenceError",
    "PotentialTerm",
    "PotentialSpec",
    "PicardReport",
    "x_norm",
    "duhamel_apply",
    "apply_phi",
    "picard_solve",
    "contraction_check",
    "l2_drift",
]

# Time nodes per product V(t_j) of the Picard map, cut by spectral._row_blocks.
_V_ROWS = 16


class DivergenceError(RuntimeError):
    """Picard iteration failed to contract (potential too large)."""


@dataclass
class PotentialTerm:
    """One separable term a(t) * B(x): trigonometric in t, band-limited in x."""

    time_freqs: np.ndarray    # (F,) integer time frequencies
    time_coeffs: np.ndarray   # (F,) complex coefficients of a(t) = sum c e^{i l t}
    spatial: CoefficientTable

    def __post_init__(self):
        self.time_freqs = np.asarray(self.time_freqs, dtype=int)
        self.time_coeffs = np.asarray(self.time_coeffs, dtype=complex)
        if self.time_freqs.shape != self.time_coeffs.shape:
            raise ValueError("time_freqs and time_coeffs must have matching shapes")


@dataclass
class PotentialSpec:
    """Separable potential sum_k a_k(t) B_k(x)."""

    terms: list

    @property
    def band(self) -> int:
        return max((t.spatial.N for t in self.terms), default=0)

    def spatial_samples(self, grid) -> np.ndarray:
        out = [inverse_sht(term.spatial, grid) for term in self.terms]  # zonal: its zonal grid
        return np.array(out) if out else np.zeros((0, *grid.shape))

    def amplitudes(self, times: np.ndarray) -> np.ndarray:
        """a_k(t_j) for every term and requested time, shape (len(terms), len(times))."""
        amps = [np.exp(1j * np.outer(times, t.time_freqs)) @ t.time_coeffs for t in self.terms]
        return np.array(amps, dtype=complex).reshape(len(self.terms), len(times))

    def values(self, times: np.ndarray, grid) -> np.ndarray:
        """V(t_j, z) for every requested time, shape (len(times), *grid.shape)."""
        return np.tensordot(self.amplitudes(times).T, self.spatial_samples(grid), axes=1)

    def sup_t_profile(self, grid) -> np.ndarray:
        """Pointwise sup over t of |V(t, z)| by dense trigonometric sampling (>= 512 nodes).

        V is sampled _TIME_BLOCK nodes at a time; the running max is exact, so the profile
        equals the max over all nodes at once.
        """
        max_freq = max(
            (int(np.max(np.abs(t.time_freqs))) if t.time_freqs.size else 0
             for t in self.terms),
            default=0,
        )
        M = max(512, 16 * (max_freq + 1))
        times = 2.0 * np.pi * np.arange(M) / M
        prof = np.zeros(grid.shape)
        for j0, j1 in _row_blocks(M, _TIME_BLOCK):
            vals = self.values(times[j0:j1], grid)
            np.maximum(prof, np.max(np.abs(vals), axis=0), out=prof)
        return prof

    def to_json_dict(self) -> dict:
        out = {"terms": []}
        for term in self.terms:
            tc = [
                {"freq": int(f), "re": float(c.real), "im": float(c.imag)}
                for f, c in zip(term.time_freqs, term.time_coeffs)
            ]
            tab = term.spatial
            a = tab.a.reshape(tab.N + 1, -1)  # a zonal table is one column, m = 0
            m0 = 0 if tab.zonal else -tab.N  # the order of column 0
            sc = [{"n": int(n), "m": int(j) + m0, "re": float(a[n, j].real),
                   "im": float(a[n, j].imag)}
                  for n, j in zip(*np.nonzero(a)) if abs(j + m0) <= n]  # no transform reads |m| > n
            out["terms"].append({"time_coeffs": tc, "spatial_coeffs": sc})
        return out

    @classmethod
    def from_json_dict(cls, data: dict, d: int = 2) -> "PotentialSpec":
        terms = []
        for i, raw in enumerate(data.get("terms", [])):
            try:
                freqs = [int(e["freq"]) for e in raw["time_coeffs"]]
                coeffs = [complex(e["re"], e.get("im", 0.0)) for e in raw["time_coeffs"]]
                entries = raw["spatial_coeffs"]
                if not entries:
                    raise ValueError("potential term with empty spatial_coeffs")
                N = max(int(e["n"]) for e in entries)
                tab = CoefficientTable.zeros(N, d)  # S^d, d >= 3: zonal terms
                for j, e in enumerate(entries):
                    n, m = int(e["n"]), int(e["m"])
                    if abs(m) > n:
                        raise ValueError(f"|m| <= n violated in potential file: n={n}, m={m}")
                    if tab.zonal and m != 0:
                        raise ValueError(f"potential term {i}, entry {j}: m = {m}, but d = {d} "
                                         f"potentials are zonal and need m = 0")
                    tab.a[(n,) if tab.zonal else (n, m + N)] = complex(e["re"], e.get("im", 0.0))
            except KeyError as exc:
                raise ValueError(f"potential term {i} is missing key {exc.args[0]!r}") from None
            terms.append(PotentialTerm(np.array(freqs), np.array(coeffs), tab))
        return cls(terms)


@dataclass
class PicardReport:
    iterations: int
    increments: list
    ratios: list
    contraction_ratio: float
    residual: float
    converged: bool
    smallness_ok: bool
    c0_estimate: float
    v_norm: float


def x_norm(u: SpaceTimeField, p: float, s: float) -> float:
    """Solution-space norm: max over time nodes of the W^s norm, plus L^p_x(L^2_t).

    Neither part reads the whole history at once: the sup part takes chunks of about
    _SERIES_CHUNK_BYTES of it, the mixed norm one block of time nodes at a time.
    """
    rows = max(1, _SERIES_CHUNK_BYTES // (16 * u.base.a.size))
    sup_part = float(np.max([np.max(_sobolev_norms(u.history(j0, j0 + rows), s, u.base.zonal))
                             for j0 in range(0, u.tg.M, rows)]))
    return sup_part + mixed_norm(u, p, 2.0)


def _duhamel_phases(tg: TimeGrid, f: CoefficientTable):
    """(e^{-i lambda t_j}, dt e^{i lambda t_j}), shaped to multiply a history of f's kind.

    lambda t_j = 2 pi (lambda j mod M) / M is reduced exactly in integers.
    """
    lam = eigenvalues_upto(f.N, f.d)
    phases = np.exp(2j * np.pi / tg.M * (np.outer(np.arange(tg.M), lam) % tg.M))
    phases = phases if f.zonal else phases[:, :, None]
    return phases.conj(), tg.dt * phases


def _duhamel(G: np.ndarray, conj: np.ndarray, scaled: np.ndarray,
             H: np.ndarray | None = None) -> np.ndarray:
    """dt e^{i lambda t_j} (sum_{k<=j} H_k - (H_0 + H_j)/2) with H = e^{-i lambda t} G.

    H is written into `H` when given (G itself, to reuse its buffer), else into a new array;
    G is read only.
    """
    H = np.multiply(conj, G, out=H)
    out = np.cumsum(H, axis=0)
    H *= 0.5
    out -= H
    out -= H[0]
    out *= scaled
    return out


def duhamel_apply(G: SpaceTimeField) -> SpaceTimeField:
    """Time-ordered integral int_0^{t_j} e^{i (t_j - tau) Delta} G(tau) dtau on G's time grid.

    Composite trapezoid in tau through the propagated spectral coefficients,
    in the exact cumulative-sum form I_j = e^{i lambda t_j} dt (sum_{k<=j} H_k
    - (H_0 + H_j)/2) with H_k = e^{-i lambda t_k} G_k; spectral in space,
    O(dt^2) in time.  G is not written.
    """
    out = _duhamel(G.history(), *_duhamel_phases(G.tg, G.base))
    return SpaceTimeField(G.tg, G.grid, G.base * 0.0, tables=out)


class _PicardMap:
    """Phi(w) = e^{i t Delta} f - i Duhamel(V w) on one time grid and one spatial grid.

    What does not depend on w is built once: V's spatial samples B, its amplitudes
    a_k(t_j) at all M nodes, the Duhamel phase tables and the free-evolution phases
    e^{i lambda t_j}.  Each application forms V w one block of time nodes at a time (the
    blocks of `w.iter_time_blocks`, with V = sum_k a_k(t_j) B_k(z) built per block, so V is
    never sampled at all M nodes at once) and re-analyzes it into its own history buffer G;
    the blocks share the transforms' buffers.  e^{-i lambda t} G is written over G, and the
    free part is added into the integral one block at a time.  So w, G and the integral are
    the only histories alive.
    """

    def __init__(self, f: CoefficientTable, V: PotentialSpec, tg: TimeGrid, grid):
        self.f, self.tg, self.grid, self.band = f, tg, grid, V.band
        self.B = V.spatial_samples(grid).reshape(len(V.terms), math.prod(grid.shape))  # [k, z]
        self.amps = V.amplitudes(tg.times)
        self.conj, self.scaled = _duhamel_phases(tg, f)
        self.free = free_phases(tg.times, f)

    def __call__(self, w: SpaceTimeField) -> SpaceTimeField:
        if self.band + w.N > self.grid.band:
            raise ValueError(
                f"product band {self.band + w.N} overflows grid band {self.grid.band}"
            )
        if w.base.a.shape != self.f.a.shape:
            raise ValueError(f"history of band {w.N} but initial data of band {self.f.N}")
        G = np.empty((self.tg.M, *self.f.a.shape), dtype=complex)
        work = {}
        V = np.empty((_V_ROWS + 1, self.B.shape[1]), dtype=complex)
        for j0, samples in w.iter_time_blocks(work):
            j1 = j0 + len(samples)
            flat = samples.reshape(j1 - j0, -1)
            for r0, r1 in _row_blocks(len(flat), _V_ROWS):  # V w, V built _V_ROWS nodes at a time
                np.dot(self.amps[:, j0 + r0:j0 + r1].T, self.B, out=V[:r1 - r0])
                np.multiply(V[:r1 - r0], flat[r0:r1], out=flat[r0:r1])
            _analyze(samples, self.grid, w.N, work, out=G[j0:j1])
            if not np.all(np.isfinite(G[j0:j1].view(float))):
                raise ValueError("coefficients must be finite")
        del work, samples, flat, V
        out = _duhamel(G, self.conj, self.scaled, H=G)
        del G  # now H, which the integral no longer needs
        for j0, j1 in _row_blocks(self.tg.M, _TIME_BLOCK):
            out[j0:j1] = self.f.a * self.free[j0:j1] - 1j * out[j0:j1]
        return SpaceTimeField(self.tg, self.grid, self.f.copy(), tables=out)


def apply_phi(w: SpaceTimeField, f: CoefficientTable, V: PotentialSpec) -> SpaceTimeField:
    """One fixed-point map application: free evolution of f minus i * Duhamel(V w)."""
    return _PicardMap(f, V, w.tg, w.grid)(w)


def holder_conjugate(p: float) -> float:
    """q with 1/q + 2/p = 1 (equivalently 1/q + 1/(p/2) = 1); needs p > 2."""
    if not p > 2:
        raise ValueError(f"pairing exponent requires p > 2, got {p}")
    if p == math.inf:
        return 1.0
    return p / (p - 2.0)


def picard_solve(
    f: CoefficientTable,
    V: PotentialSpec,
    p: float,
    s: float,
    tol: float = 1e-8,
    max_iter: int = 30,
    tg: TimeGrid | None = None,
    seed: int = 0,
) -> tuple[SpaceTimeField, PicardReport]:
    """Fixed-point solution of the potential-perturbed flow, with diagnostics.

    Iterates u_0 = free evolution, u_{k+1} = Phi(u_k); stops when the X-norm
    increment falls below tol.  One map Phi is built per solve, and the
    increment u_{k+1} - u_k is formed one block of time nodes at a time, so
    at most three histories are alive.  The smallness gate compares
    (C + C^2) ||V||_{L^q_x(L^inf_t)} against 1/2 with C = 2 * (empirical
    free-evolution constant); its outcome is reported, not enforced.
    Raises DivergenceError after three consecutive non-contracting steps.
    """
    d = f.d
    q = holder_conjugate(p)
    threshold = kappa_pq(p, 2.0, d)
    if s < threshold - 1e-12:
        raise ValueError(f"regularity s={s} below threshold {threshold}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    grid = grid_for(f.N + V.band, d, 2.0)
    if tg is None:
        tg = TimeGrid(max(64, 8 * (int(eigenvalues_upto(f.N, d)[-1]) + 1)))

    v_norm = lp_norm(V.sup_t_profile(grid), grid, q)  # ||V||_{L^q_x(L^inf_t)}
    c0_est = estimate_strichartz_constant(p, s, f.N, d, np.random.default_rng(seed))
    c_eff = 2.0 * c0_est
    smallness_ok = (c_eff + c_eff**2) * v_norm <= 0.5

    phi = _PicardMap(f, V, tg, grid)
    u = synthesize_history(f, tg, grid).materialize()
    increments: list[float] = []
    ratios: list[float] = []
    bad_streak = 0
    for _ in range(max_iter):
        u_next = phi(u)
        delta = x_norm(u_next - u, p, s)
        if increments:
            ratio = delta / increments[-1] if increments[-1] > 0 else 0.0
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 3:
                raise DivergenceError(
                    "no contraction for 3 consecutive iterates; the smallness "
                    f"condition (C+C^2)||V|| <= 1/2 is violated "
                    f"(gate value {(c_eff + c_eff**2) * v_norm:.3g})"
                )
        increments.append(delta)
        u = u_next
        if delta <= tol:
            break
    else:
        raise DivergenceError(
            f"no convergence to tol={tol} within {max_iter} iterations "
            f"(last increment {increments[-1]:.3g})"
        )
    residual = x_norm(phi(u) - u, p, s)
    report = PicardReport(
        iterations=len(increments),
        increments=increments,
        ratios=ratios,
        contraction_ratio=max(ratios) if ratios else 0.0,
        residual=residual,
        converged=True,
        smallness_ok=smallness_ok,
        c0_estimate=c0_est,
        v_norm=v_norm,
    )
    return u, report


def contraction_check(V: PotentialSpec, w: SpaceTimeField, v: SpaceTimeField,
                      p: float, s: float) -> float:
    """||Phi(w) - Phi(v)||_X / ||w - v||_X; Phi is affine so f drops out."""
    denom = x_norm(w - v, p, s)
    if denom == 0.0:
        raise ValueError("w and v coincide")
    zero = CoefficientTable.zeros(w.N, w.d)
    phi = _PicardMap(zero, V, w.tg, w.grid)  # one map for both: w and v share their grids
    return x_norm(phi(w) - phi(v), p, s) / denom


def l2_drift(u: SpaceTimeField) -> float:
    """Max deviation of ||u(t_j)||_2 from its initial value across the history."""
    norms = np.linalg.norm(u.history().reshape(u.tg.M, -1), axis=1)
    return float(np.max(np.abs(norms - norms[0])))
