"""Schrodinger flow with a potential: Duhamel integral, Picard iteration.

The equation i u_t = (-Delta + V) u with separable, band-limited
V(x, t) = sum_k a_k(t) B_k(x) is solved as the fixed point of

    Phi(w) = e^{i t Delta} f  -  i * int_0^t e^{i (t-tau) Delta} (V w)(tau) dtau

on a uniform time grid.  The -i prefactor makes the fixed point solve the
stated equation (for real V the continuum flow is then L^2-unitary, which
is what the mass-drift diagnostic checks).  The time integral is composite
trapezoid (second order); the spatial product is the Galerkin projection
P_N(V w), applied by coefficient operators built once from band-exact
transforms, so the iteration has no aliasing in the retained coefficients.

Iteration stops when the X-norm increment (sup-in-time Sobolev part plus
the L^p_x(L^2_t) part) drops below tol; three consecutive non-contracting
increments raise DivergenceError, which names the smallness gate's outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .experiments import estimate_strichartz_constant, kappa_pq
from .grids import CoefficientTable, _analyze, _synthesize, _work_buffer, grid_for, inverse_sht
from .harmonics import eigenvalues_upto
from .norms import _norm_of_sums, _sobolev_norms, _time_sums, lp_norm, mixed_norm
from .spectral import (
    _TIME_BLOCK,
    SpaceTimeField,
    TimeGrid,
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

class DivergenceError(RuntimeError):
    """Picard iteration failed to contract (potential too large)."""


@dataclass(frozen=True)
class PotentialTerm:
    """One separable term a(t) * B(x): trigonometric in t, band-limited in x; frozen."""

    time_freqs: np.ndarray    # (F,) integer time frequencies
    time_coeffs: np.ndarray   # (F,) complex coefficients of a(t) = sum c e^{i l t}
    spatial: CoefficientTable

    def __post_init__(self):
        freqs = np.asarray(self.time_freqs, dtype=float)
        with np.errstate(invalid="ignore"):  # casts of nan, inf and huge values: rejected below
            object.__setattr__(self, "time_freqs", freqs.astype(int))
        object.__setattr__(self, "time_coeffs", np.asarray(self.time_coeffs, dtype=complex))
        if self.time_freqs.shape != self.time_coeffs.shape:
            raise ValueError("time_freqs and time_coeffs must have matching shapes")
        bad = np.flatnonzero((self.time_freqs != freqs) | ~np.isfinite(self.time_coeffs))
        if bad.size:
            raise ValueError(f"time entry {bad[0]}: freq = {freqs[bad[0]]:g} must be an integer "
                             f"and the coefficient {self.time_coeffs[bad[0]]} finite")


@dataclass(frozen=True)
class PotentialSpec:
    """Separable potential sum_k a_k(t) B_k(x); frozen, with its terms stored as a tuple."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def band(self) -> int:
        return max((t.spatial.N for t in self.terms), default=0)

    @property
    def max_freq(self) -> int:
        """Largest |time frequency| over all terms; 0 for a potential without any."""
        return max((abs(int(freq)) for t in self.terms for freq in t.time_freqs), default=0)

    def spatial_samples(self, grid) -> np.ndarray:
        out = [inverse_sht(term.spatial, grid) for term in self.terms]  # zonal: its zonal grid
        return np.array(out) if out else np.zeros((0, *grid.shape))

    def amplitudes(self, times: np.ndarray) -> np.ndarray:
        """a_k(t_j) for every term and requested time, shape (len(terms), len(times))."""
        amps = [np.exp(1j * np.outer(times, t.time_freqs)) @ t.time_coeffs for t in self.terms]
        return np.array(amps, dtype=complex).reshape(len(self.terms), len(times))

    def values(self, times: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """V(t_j, z) for every requested time from samples = spatial_samples(grid), shape
        (len(times), *grid.shape)."""
        return np.tensordot(self.amplitudes(times).T, samples, axes=1)

    def sup_t_profile(self, grid) -> np.ndarray:
        """Pointwise sup over t of |V(t, z)| by dense trigonometric sampling (>= 512 nodes).

        V is sampled _TIME_BLOCK nodes at a time, from one synthesis of its spatial samples; the
        running max is exact, so the profile equals the max over all nodes at once.
        """
        M = max(512, 16 * (self.max_freq + 1))
        times = 2.0 * np.pi * np.arange(M) / M
        prof = np.zeros(grid.shape)
        samples = self.spatial_samples(grid)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf V fails the gate's lp_norm
            for j0 in range(0, M, _TIME_BLOCK):  # as SpaceTimeField.history_blocks cuts M
                vals = self.values(times[j0:j0 + _TIME_BLOCK], samples)
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
        """Potential of parsed JSON; ValueError, naming the term and entry, for a missing key, an
        object or list that is not one, or a value that is not a finite number (freq, n, m: int)."""
        terms = []
        data = _json(data, dict, "a potential file")
        for i, raw in enumerate(_json(data.get("terms", []), list, "potential terms")):
            _json(raw, dict, f"potential term {i}")
            try:
                tc, sc = (_json(raw[key], list, key) for key in ("time_coeffs", "spatial_coeffs"))
                time = [_fields(e, "freq re im", f"time entry {j}") for j, e in enumerate(tc)]
                entries = [_fields(e, "n m re im", f"entry {j}") for j, e in enumerate(sc)]
                if not entries:
                    raise ValueError("spatial_coeffs is empty")
                for j, (n, m, _, _) in enumerate(entries):
                    if not (float(n).is_integer() and float(m).is_integer() and abs(m) <= n):
                        raise ValueError(f"entry {j}: n = {n}, m = {m}: not integers with |m| <= n")
                N = int(max(e[0] for e in entries))
                tab = CoefficientTable.zeros(N, d)  # S^d, d >= 3: zonal terms
                for j, (n, m, re, im) in enumerate(entries):
                    if tab.zonal and m != 0:
                        raise ValueError(f"entry {j}: m = {m:g}, but d = {d} potentials are zonal")
                    tab.a[(int(n),) if tab.zonal else (int(n), int(m) + N)] = complex(re, im)
                terms.append(PotentialTerm([t[0] for t in time], [complex(*t[1:]) for t in time],
                                           CoefficientTable(N, d, tab.a)))  # checks the filled a
            except KeyError as exc:
                raise ValueError(f"potential term {i} is missing key {exc.args[0]!r}") from None
            except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
                raise ValueError(f"potential term {i}, {exc}") from None
        return cls(terms)


def _json(value, kind: type, what: str):
    """value if it is a JSON object (kind dict), list (list) or number (float), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        name = {dict: "object", list: "list", float: "number"}[kind]
        raise ValueError(f"{what} must be a JSON {name}, got {type(value).__name__}")
    return value


def _fields(entry, keys: str, where: str) -> list:
    """The JSON numbers entry[key] for the keys of a JSON object entry; "im" is 0 if absent."""
    entry = {"im": 0, **_json(entry, dict, where)}
    return [_json(entry[key], float, f"{where}: {key}") for key in keys.split()]


@dataclass
class PicardReport:
    iterations: int
    increments: list
    ratios: list
    contraction_ratio: float
    residual: float
    smallness_ok: bool
    c0_estimate: float
    v_norm: float
    converged = True  # a class attribute, not a field: picard_solve raises DivergenceError else


def x_norm(u: SpaceTimeField, p: float, s: float) -> float:
    """Solution-space norm: max over time nodes of the W^s norm, plus L^p_x(L^2_t), for any
    field: the max runs over u's history_blocks (exact), and mixed_norm streams u."""
    sup_part = max(float(np.max(_sobolev_norms(h, s, u.base.zonal)))
                   for _, h in u.history_blocks())
    return sup_part + mixed_norm(u, p, 2.0)


def _duhamel_phases(tg: TimeGrid, f: CoefficientTable):
    """(e^{-i lambda t_j}, dt e^{i lambda t_j}), shaped to multiply a history of f's kind.

    lambda t_j = 2 pi (lambda j mod M) / M is reduced exactly in integers.
    """
    lam = eigenvalues_upto(f.N, f.d)
    phases = np.exp(2j * np.pi / tg.M * (np.outer(np.arange(tg.M), lam) % tg.M))
    phases = phases if f.zonal else phases[:, :, None]
    return phases.conj(), tg.dt * phases


def _duhamel_step(G: np.ndarray, j0: int, conj: np.ndarray, scaled: np.ndarray, carry,
                  out: np.ndarray, work: dict | None = None):
    """duhamel_apply on nodes j0..j0+len(G)-1 from G there, into out (which may be G), H in
    work["X"] if given.  `carry`, None at j0 = 0, is the previous block's return: H_0/2 and the
    last partial sum, added to this block's first row, so each partial sum is a whole-H cumsum's."""
    H = np.multiply(conj[j0:j0 + len(G)], G, out=_work_buffer(work, "X", G.shape))
    first = H[0] * 0.5
    h0 = first if carry is None else carry[0]
    if carry is not None:
        H[0] += carry[1]
    S = np.cumsum(H, axis=0, out=out)
    last = S[-1].copy()
    H *= 0.5
    H[0] = first  # H_j / 2, with no carry in it
    S -= H
    S -= h0
    S *= scaled[j0:j0 + len(G)]
    return h0, last


def duhamel_apply(G: SpaceTimeField) -> SpaceTimeField:
    """Time-ordered integral int_0^{t_j} e^{i (t_j - tau) Delta} G(tau) dtau on G's time grid.

    Composite trapezoid in tau through the propagated spectral coefficients,
    in the exact cumulative-sum form I_j = e^{i lambda t_j} dt (sum_{k<=j} H_k
    - (H_0 + H_j)/2) with H_k = e^{-i lambda t_k} G_k; spectral in space,
    O(dt^2) in time.  The integral is written into a new history; G is not written.
    """
    conj, scaled = _duhamel_phases(G.tg, G.base)
    out, carry = np.empty((G.tg.M, *G.base.a.shape), dtype=complex), None
    for j0, h in G.history_blocks():  # any cut: the carry keeps the bits
        carry = _duhamel_step(h, j0, conj, scaled, carry, out[j0:j0 + len(h)])
    return SpaceTimeField(G.tg, G.grid, G.base * 0.0, tables=out)


class _PicardMap:
    """Phi(w) = e^{i t Delta} f - i Duhamel(V w) on one time grid, in coefficient space: built
    once are P_N(B_k .) (`ops`, _couplings), a_k(t_j), the phase tables and the `work` dict of
    every pass.  A pass (`blocks`) reads w _TIME_BLOCK nodes at a time: one batched matmul forms
    P_N(V w) = sum_k a_k(t_j) P_N(B_k w), the Duhamel sum advances and the free evolution is
    added.  It makes no history: apply_phi collects its blocks, `increment` writes them over w.
    """

    def __init__(self, f: CoefficientTable, V: PotentialSpec, tg: TimeGrid, grid):
        if V.band + f.N > grid.band:
            raise ValueError(f"product band {V.band + f.N} overflows grid band {grid.band}")
        self.f, self.shift = f, 0 if f.zonal else V.band
        self.ops = _couplings(V, f, grid, self.shift)
        self.amps, self.free, self.work = V.amplitudes(tg.times), free_phases(tg.times, f), {}
        self.conj, self.scaled = _duhamel_phases(tg, f)

    def blocks(self, w: SpaceTimeField, out: np.ndarray | None = None):
        """Yield (j0, Phi(w) on w's time block at j0), written into the same rows of the history
        `out` when given, else valid until the next step.  w's block at j0 is read before it is
        yielded and never after, so it may then be written."""
        if w.base.a.shape != self.f.a.shape:
            raise ValueError(f"history of band {w.N} but initial data of band {self.f.N}")
        orders, rows, s, carry = self.ops.shape[0], self.f.N + 1, self.shift, None
        for j0, h in w.history_blocks():
            j1 = j0 + len(h)
            # X[s + m, k, n, j] = a_k(t_j) w_j[n, m] between s zero orders: order m' of P_N(V w)
            # reads X's contiguous rows m'..m' + 2s (slots shared with increment's Gram sums)
            X = _work_buffer(self.work, "gram", (orders + 2 * s, len(self.amps), rows, len(h)))
            X[:s], X[orders + s:] = 0.0, 0.0
            np.multiply(h.reshape(len(h), rows, orders).T[:, None],
                        self.amps[None, :, None, j0:j1], out=X[s:orders + s])
            X = as_strided(X, (orders, self.ops.shape[2], len(h)), (X.strides[0], *X.strides[2:]))
            Gt = np.matmul(self.ops, X, out=_work_buffer(self.work, "Y", (orders, rows, len(h))))
            G = out[j0:j1] if out is not None else _work_buffer(self.work, "G", h.shape)
            G.reshape(len(h), rows, orders)[...] = Gt.T
            if not np.all(np.isfinite(G.view(float))):
                raise ValueError("coefficients must be finite")
            carry = _duhamel_step(G, j0, self.conj, self.scaled, carry, G, self.work)
            free = _work_buffer(self.work, "X", G.shape)  # f evolved: one operand broadcasts
            free[...] = self.f.a
            np.multiply(free, self.free[j0:j1], out=free)
            np.subtract(free, np.multiply(G, 1j, out=G), out=G)  # 1j * G: exact products
            del X, Gt, free  # their slots are free for the caller's buffers
            yield j0, G

    def increment(self, u: SpaceTimeField, p: float, s: float, write: bool = True) -> float:
        """x_norm(Phi(u) - u) from one pass, as x_norm sums it: each block's largest Sobolev norm
        and its Gram sums; with `write`, Phi(u) is written over u's block once it is summed."""
        sup = []  # filled as _time_sums draws the deltas, before max(sup) reads it

        def deltas():
            for j0, G in self.blocks(u):
                ub = u.tables[j0:j0 + len(G)]
                delta = np.subtract(G, ub, out=ub if write else G)
                sup.append(float(np.max(_sobolev_norms(delta, s, u.base.zonal))))
                yield delta
                if write:
                    ub[...] = G

        return _norm_of_sums(_time_sums(u, 2.0, deltas(), self.work), u, p, 2.0) + max(sup)


def _couplings(V: PotentialSpec, f: CoefficientTable, grid, s: int) -> np.ndarray:
    """ops[m', n', (i, k, n)] = coefficient (n', m') of P_N(B_k Y_{n,m}), column m = m' + i - s:
    band-exact transforms on `grid` of unit tables, _TIME_BLOCK at a time; only |i - s| <= B_k's
    band b is kept (Gaunt: B_k moves orders by at most b)."""
    orders = 1 if f.zonal else 2 * f.N + 1
    ops = np.zeros((orders, f.N + 1, 2 * s + 1, len(V.terms), f.N + 1), dtype=complex)
    n, m = np.divmod(np.arange(f.a.size), orders)
    units, work = np.flatnonzero(np.abs(m - orders // 2) <= n), {}  # the (n, m) with |m| <= n
    for k, (term, B) in enumerate(zip(V.terms, V.spatial_samples(grid))):
        i = s + np.arange(-min(s, term.spatial.N), min(s, term.spatial.N) + 1)
        for c in np.split(units, range(_TIME_BLOCK, len(units), _TIME_BLOCK)):
            Y = np.equal.outer(c, np.arange(f.a.size)).astype(complex)
            samples = _synthesize(Y.reshape(len(c), *f.a.shape), grid, work)
            samples *= B
            R = _analyze(samples, grid, f.N, work).reshape(len(c), f.N + 1, orders)
            t = m[c, None] + s - i  # the target columns, [unit, i]
            iu, ii = np.nonzero((t >= 0) & (t < orders))
            ops[t[iu, ii], :, i[ii], k, n[c][iu]] = R[iu, :, t[iu, ii]]
    return ops.reshape(orders, f.N + 1, -1)


def apply_phi(w: SpaceTimeField, f: CoefficientTable, V: PotentialSpec) -> SpaceTimeField:
    """Phi(w): f's free evolution minus i * Duhamel(V w), one pass written into a new history."""
    out = np.empty((w.tg.M, *f.a.shape), dtype=complex)
    for _ in _PicardMap(f, V, w.tg, w.grid).blocks(w, out):
        pass
    return SpaceTimeField(w.tg, w.grid, f.copy(), tables=out)


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
    increment falls below tol.  One map Phi is built per solve, and each
    iterate is one pass of it over u's time blocks: a block of Phi(u) is
    formed, the X-norm of Phi(u) - u there is summed, and Phi(u) is written
    over u's block, so one history is alive beside block buffers.  The smallness
    gate compares (C + C^2) ||V||_{L^q_x(L^inf_t)} against 1/2 with C = 2 *
    (empirical free-evolution constant); its outcome is reported, not enforced.
    Raises DivergenceError after three consecutive non-contracting steps, and ValueError
    before any work when tg has M <= 2 max|freq| nodes, on which V's time frequencies alias.
    """
    d = f.d
    q = holder_conjugate(p)
    threshold = kappa_pq(p, 2.0, d)
    if s < threshold - 1e-12:
        raise ValueError(f"regularity s={s} below threshold {threshold}")
    if max_iter < 1 or not tol >= 0:
        raise ValueError(f"max_iter must be >= 1 and tol >= 0, got {max_iter} and tol = {tol}")
    grid = grid_for(f.N + V.band, d, 2.0)
    if tg is None:
        tg = TimeGrid(max(64, 8 * (int(eigenvalues_upto(f.N, d)[-1]) + 1)))
    if 2 * V.max_freq >= tg.M:  # e^{i l t} on M nodes is e^{i (l - M) t}: V would alias
        raise ValueError(f"potential time frequency {V.max_freq} needs more than "
                         f"{2 * V.max_freq} time nodes, got M = {tg.M}")

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
        delta = phi.increment(u, p, s)  # u now holds Phi(u)
        if increments:
            ratio = delta / increments[-1] if increments[-1] > 0 else 0.0
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 3:
                why = (f"the increment stalled at {delta:.3g}, though (C+C^2)||V|| <= 1/2"
                       if smallness_ok else
                       "the smallness condition (C+C^2)||V|| <= 1/2 is violated")
                raise DivergenceError(f"no contraction for 3 consecutive iterates; {why} "
                                      f"(gate value {(c_eff + c_eff**2) * v_norm:.3g})")
        increments.append(delta)
        if delta <= tol:
            break
    else:
        raise DivergenceError(
            f"no convergence to tol={tol} within {max_iter} iterations "
            f"(last increment {increments[-1]:.3g})"
        )
    residual = phi.increment(u, p, s, write=False)  # Phi(u) - u, with u left as it is
    report = PicardReport(
        iterations=len(increments),
        increments=increments,
        ratios=ratios,
        contraction_ratio=max(ratios) if ratios else 0.0,
        residual=residual,
        smallness_ok=smallness_ok,
        c0_estimate=c0_est,
        v_norm=v_norm,
    )
    return u, report


def contraction_check(V: PotentialSpec, w: SpaceTimeField, v: SpaceTimeField,
                      p: float, s: float) -> float:
    """||Phi(w) - Phi(v)||_X / ||w - v||_X; Phi is affine so f drops out."""
    if (denom := x_norm(w - v, p, s)) == 0.0:
        raise ValueError("w and v coincide")
    phi = _PicardMap(CoefficientTable.zeros(w.N, w.d), V, w.tg, w.grid)  # v shares w's grids
    diff = SpaceTimeField(w.tg, w.grid, phi.f, np.empty((w.tg.M, *phi.f.a.shape), dtype=complex))
    for (_, Gw), (_, Gv) in zip(phi.blocks(w, diff.tables), phi.blocks(v)):  # one map, in step:
        Gw -= Gv  # a step rewrites every buffer it reads, so the two passes can share them
    del phi  # its block buffers are freed before x_norm allocates its own
    return x_norm(diff, p, s) / denom


def l2_drift(u: SpaceTimeField) -> float:
    """Max deviation of ||u(t_j)||_2 from its initial value; norms u's history_blocks."""
    norms = np.concatenate([np.linalg.norm(h.reshape(len(h), -1), axis=1)
                            for _, h in u.history_blocks()])
    return float(np.max(np.abs(norms - norms[0])))
