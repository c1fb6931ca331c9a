"""Norms: L^p on the sphere, spectral Sobolev, mixed space-time
L^p_z(L^q_t), and the exact spectral L^2_t profile.

Degree weights are (1+n)^s throughout (the n=0 mode would otherwise be
annihilated), and the Sobolev norm is the square-summed convention
(sum over n of (1+n)^{2s} ||H_n f||_2^2)^{1/2}.

`mixed_norm` is an honest rectangle-rule time quadrature on all M nodes (a
free field's one period, counted M/P times); its agreement with
`l2t_profile_exact` at q=2 is a verification target, not a shortcut.  Its
inner time sums come from one of three kernels (samples, per-ring Gram
matrices, resonant degree pairs), and `_time_sums` alone picks which: its
docstring is the route table.  Its resolution check (the norm recomputed on a doubled time
grid), which no subcommand runs, is the test oracle tests/oracles.py::mixed_norm_checked.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import (CoefficientTable, _as_samples, _check_fit, _legendre_stage, _per_point,
                    _work_buffer)
from .harmonics import eigenvalues_upto
from .spectral import _SERIES_CHUNK_BYTES, _TIME_BLOCK, _TWO_PI, SpaceTimeField

__all__ = [
    "lp_norm",
    "sobolev_norm",
    "l2t_profile_exact",
    "mixed_norm",
]


def _finite_or_fail(norms, x: np.ndarray, what: str):
    """`norms`, a float or one per leading index of x; FloatingPointError if one is not finite,
    or is 0 where x has a nonzero entry.  A Picard op makes about 150 checks: floats skip numpy,
    and x is read only at zero norms (a Picard increment's first node is exactly 0)."""
    if np.ndim(norms) == 0:
        bad = not 0.0 < norms < math.inf and (norms != 0.0 or np.any(x))
    else:
        bad = not np.isfinite(norms).all() or (
            not norms.all() and np.any(x.reshape(*norms.shape, -1)[norms == 0]))
    if bad:
        raise FloatingPointError(f"non-finite or vacuous {what}")
    return norms


def lp_norm(values: np.ndarray, grid, p: float) -> float:
    """Quadrature L^p norm of sampled values; p = inf is the max over the grid."""
    values = _as_samples(values, grid)
    return _abs_lp_norm(np.abs(values).astype(float, copy=False), grid, p, values)


def _check_p(p: float) -> float:
    """p, the outer exponent of an L^p norm; ValueError unless p >= 1 (p = inf passes)."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return p


def _abs_lp_norm(m: np.ndarray, grid, p: float, x) -> float:
    """lp_norm from m = |values| as floats (int |v| cannot `**=`), which it overwrites with
    w |v|^p at finite p.  `x` is read only at a zero norm: it is nonzero where the values are."""
    if _check_p(p) == math.inf:
        return _finite_or_fail(float(np.max(m)), x, "L^inf norm")
    with np.errstate(over="ignore"):  # an inf, which fails below
        m **= p
    m *= grid.weights()
    return _finite_or_fail(float(np.sum(m) ** (1.0 / p)), x, f"L^{p:g} norm")


def sobolev_norm(f: CoefficientTable, s: float) -> float:
    """Spectral Sobolev norm (sum_n (1+n)^{2s} ||H_n f||^2)^{1/2}; L^2 at s=0."""
    with np.errstate(over="ignore", invalid="ignore"):  # (1+n)^s * 0 = nan: fails below
        return float(_sobolev_norms(f.a, s, f.zonal))


def _sobolev_norms(a: np.ndarray, s: float, zonal: bool) -> np.ndarray:
    """Sobolev norms over leading batch axes of a[..., N+1] (zonal) or a[..., N+1, 2N+1]."""
    per_degree = np.abs(a) if zonal else np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))
    w = (1.0 + np.arange(per_degree.shape[-1])) ** float(s)
    norms = np.linalg.norm(w * per_degree, axis=-1)
    return _finite_or_fail(norms, a, f"Sobolev norm at s = {s:g}")


def l2t_profile_exact(f: CoefficientTable, grid) -> np.ndarray:
    """Exact time-L^2 profile of the free evolution, computed spectrally.

    Returns z -> (sum_n 2 pi |H_n f(z)|^2)^{1/2} with no time sampling: the
    cross terms of |u(t,z)|^2 integrate to zero over the period because the
    eigenvalues n(n+d-1) are pairwise distinct.  Summed _DEGREE_ROWS colatitudes at a time.
    """
    _check_fit(grid, f.N, f.d)
    return _per_point(f.a, grid,
                      lambda E, out: np.sqrt(_TWO_PI * np.sum(np.abs(E) ** 2, axis=0), out=out))


def _norm_of_sums(S: np.ndarray, u: SpaceTimeField, p: float, q: float) -> float:
    """The L^p norm of the time profile (2 pi / M sum_j |u(t_j, z)|^q)^{1/q} from the sums S."""
    return lp_norm((S * (_TWO_PI / u.tg.M)) ** (1.0 / q), u.grid, p)


def _resonances(N: int, d: int):
    """(a, b, c, e, w) arrays over the pairs of degree pairs a <= b, c <= e, (a, b) != (c, e),
    with lambda_a + lambda_b = lambda_c + lambda_e, each once; w = (1 + (a != b)) (1 + (c != e))
    counts the ordered pairs.  The pair sums are sorted in integers: equal sums k places apart
    are also k - 1 apart, so the search ends at the first k with none."""
    a, b, lam = *np.triu_indices(N + 1), eigenvalues_upto(N, d)
    sums = lam[a] + lam[b]
    order = np.argsort(sums, kind="stable")
    sums, i, j, k = sums[order], [np.zeros(0, int)], [np.zeros(0, int)], 1
    while (hit := np.flatnonzero(sums[k:] == sums[:-k])).size:
        i.append(order[hit])
        j.append(order[hit + k])
        k += 1
    i, j = np.concatenate(i), np.concatenate(j)
    return a[i], b[i], a[j], b[j], (1.0 + (a[i] != b[i])) * (1.0 + (a[j] != b[j]))


def _resonant_l4_sums(u: SpaceTimeField) -> np.ndarray:
    """sum_j |u(t_j, z)|^4 of a free field on M > 2 lambda_N nodes, with no time sample: there
    the rectangle rule is exact for the frequencies lambda_a + lambda_b - lambda_c - lambda_e of
    |u|^4, so with E_n = H_n f the sums are M (2 (sum_a |E_a|^2)^2 - sum_a |E_a|^4
    + 2 Re sum w E_a E_b conj(E_c E_e)) over the _resonances.  E comes from _per_point; the
    collision products go through three buffers of a quarter of _SERIES_CHUNK_BYTES."""
    a, b, c, e, w = _resonances(u.N, u.d)

    def sums(E, out):
        E = E.reshape(len(E), -1)
        n = max(1, min(len(w), _SERIES_CHUNK_BYTES // (4 * 3 * 16 * E.shape[1])))
        x, y, z = np.empty((3, n, E.shape[1]), dtype=complex)
        cross = np.zeros(E.shape[1], dtype=complex)
        for k0 in range(0, len(w), n):  # take's "clip": "raise" would copy through a buffer
            ks, m = slice(k0, k0 + n), min(n, len(w) - k0)
            ab = np.multiply(E.take(a[ks], 0, x[:m], "clip"), E.take(b[ks], 0, y[:m], "clip"),
                             out=x[:m])
            cd = np.multiply(E.take(c[ks], 0, y[:m], "clip"), E.take(e[ks], 0, z[:m], "clip"),
                             out=y[:m])
            cross += w[ks] @ np.multiply(ab, np.conjugate(cd, out=cd), out=ab)
        e2 = np.abs(E)
        e2 *= e2
        s2 = np.sum(e2, axis=0)
        total = 2.0 * s2 * s2 - np.sum(np.multiply(e2, e2, out=e2), axis=0) + 2.0 * cross.real
        np.multiply(total.reshape(out.shape), u.tg.M, out=out)
        _finite_or_fail(out, np.moveaxis(E.reshape(len(E), *out.shape), 0, -1),
                        "time power sums of |u|^4")

    with np.errstate(over="ignore", invalid="ignore"):  # an inf or a nan, which fails in sums
        return _per_point(u.base.a, u.grid, sums)


def _time_sums(u: SpaceTimeField, q: float, blocks=None, work=None) -> np.ndarray:
    """sum_j |u(t_j, z)|^q over all M nodes, from the one kernel that this route table picks:
    - a free field at q = 4 on M > 2 lambda_N nodes: _resonant_l4_sums, from the resonant degree
      pairs lambda_a + lambda_b = lambda_c + lambda_e (Bourgain, GAFA 1993; Burq, Gerard &
      Tzvetkov, Invent. Math. 2005);
    - q = 2 where not u.periodic (an explicit history, or a free field on M <= lambda_N nodes):
      _gram_power_sums, from per-ring Gram matrices, over `blocks` (else u's history_blocks);
    - anything else: _time_power_sums, from samples of space chunks (u.periodic) or time blocks.
    The first two sum the same rectangle rule with no time sample, where it is exact."""
    if q == 4 and u.free and u.tg.M > 2 * eigenvalues_upto(u.N, u.d)[-1]:
        return _resonant_l4_sums(u)
    if q == 2 and not u.periodic:
        return _gram_power_sums(u, blocks, {} if work is None else work)
    return _time_power_sums(u, q)


def _time_power_sums(u: SpaceTimeField, q: float) -> np.ndarray:
    """sum_j |u(t_j, z)|^q over all M samples; FloatingPointError if |u|^q leaves float range.
    |x|^q is formed a quarter chunk or block at a time; numpy adds a block's rows in order, so a
    later piece is summed with the running sum as row 0 (one-point rows: pairwise, never cut)."""
    what, periodic = f"time power sums of |u|^{q:g}", u.periodic
    S = np.zeros(math.prod(u.grid.shape))  # flat: a free chunk's key is a slice of points
    work = {}  # the first chunk or block is the largest, so one buffer holds every |x|^q
    for key, x in u.iter_space_chunks() if periodic else u.iter_time_blocks(work):
        n = len(x) if x[0].size == 1 else -(-len(x) // 4)
        mag = _work_buffer(work, "mag", (n + 1, *x.shape[1:]), float)
        for i0 in range(0, len(x), n):
            m = np.abs(x[i0:i0 + n], out=mag[1:1 + min(n, len(x) - i0)])
            m **= q  # the same dispatch as `** q`, which squares for q = 2
            if periodic:  # x: one period of P nodes
                np.sum(m, axis=-1, out=S[key][i0:i0 + len(m)])
            else:  # x: the samples of one block of time nodes; row 0: their running sum
                mag[0] = np.sum(mag[0 if i0 else 1:1 + len(m)], axis=0)
        if periodic:  # the period counted M/P times
            S[key] *= u.tg.M // x.shape[-1]
            _finite_or_fail(S[key], x, what)
        else:  # a sum once non-finite stays so
            S += mag[0].reshape(-1)
            _finite_or_fail(S, x.reshape(len(x), -1).T, what)
    return S.reshape(u.grid.shape)


def _gram_power_sums(u: SpaceTimeField, blocks, work: dict) -> np.ndarray:
    """sum_j |u(t_j, z)|^2 of an explicit history (or of its `blocks`) with no samples: per ring,
    the Gram matrix H_k = sum_j c c^H of its longitude coefficients c (_legendre_stage), kr rings
    at a time, gives S(t_k, phi) = sum_{m,m'} H_k[m, m'] e^{i (m - m') phi}, clamped at 0."""
    K, D, nonzero = u.grid.t.size, (1 if u.base.zonal else 2 * u.N + 2), False  # D: c's +/-, m
    H, kr = np.zeros((3, K, D, D)), max(1, _SERIES_CHUNK_BYTES // (64 * D * (2 * D + _TIME_BLOCK)))
    for h in blocks or (h for _, h in u.history_blocks()):
        c = _legendre_stage(h, u.grid, work)  # [m, k, j, +/-]
        c = c.view(float).reshape(*c.shape, 2).transpose(1, 4, 3, 0, 2)  # [k, re/im, +/-, m, j]
        for k0 in range(0, K, kr):
            g = _work_buffer(work, "gram", c[k0:k0 + kr].shape, float)
            g[...] = c[k0:k0 + kr]
            g = g.reshape(len(g), 2 * D, len(h))  # the real Gram of (Re c, Im c), by syrk
            G = np.matmul(g, g.transpose(0, 2, 1),
                          out=_work_buffer(work, "H", (len(g), 2 * D, 2 * D), float))
            H[:, k0:k0 + kr] += G.reshape(len(g), 2, D, 2, D)[:, [0, 1, 1], :, [0, 1, 0]]  # re re,
            # im im and im re: G is symmetric, so re im is im re transposed
        nonzero = nonzero or bool(np.any(h))
    L = math.prod(u.grid.shape[1:])  # L = 1 on a zonal grid
    m = np.outer([1, -1][:c.shape[2]], np.arange(c.shape[3])).ravel()  # the order of c[+/-, m]
    e = np.exp(2j * np.pi / L * (np.outer(np.arange(L), m) % L))
    e[:, c.shape[3]:c.shape[3] + 1] = 0.0  # c[-, 0] repeats m = 0
    S = np.empty((K, L))
    for k0 in range(0, K, kr):
        Hk = H[:, k0:k0 + kr]
        Hc = Hk[0] + Hk[1] + 1j * (Hk[2] - Hk[2].transpose(0, 2, 1))  # sum_j c c^H
        S[k0:k0 + kr] = np.sum(np.multiply(EH := e @ Hc, e.conj(), out=EH), axis=-1).real
    _finite_or_fail(float(np.max(S)), nonzero, "time power sums of |u|^2")
    return np.maximum(S, 0.0, out=S).reshape(u.grid.shape)


def mixed_norm(u: SpaceTimeField, p: float, q: float) -> float:
    """Mixed norm || z -> ||u(., z)||_{L^q_t} ||_{L^p_z}, inner time norm first.

    The inner integral is the rectangle rule on u's time grid (exact for trigonometric
    polynomials resolved by M), summed by the kernel that _time_sums' route table picks.
    """
    if not q >= 1 or q == math.inf:
        raise ValueError(f"inner exponent must satisfy 1 <= q < inf, got {q}")
    _check_p(p)
    return _norm_of_sums(_time_sums(u, q), u, p, q)
