"""Oracle for the sampled q = 4 time power sums of a free field: resonant degree pairs.

u(t, z) = sum_n e^{i lambda_n t} E_n(z) with E_n = H_n f, so u^2 has the time frequencies
lambda_a + lambda_b, and by Parseval over one period the rectangle rule on M > 2 lambda_N nodes
gives sum_j |u(t_j, z)|^4 = M sum_k |sum_{lambda_a + lambda_b = k} E_a E_b|^2 exactly (ordered
pairs a, b).  Terms with {c, d} = {a, b} give 2 (sum_a |E_a|^2)^2 - sum_a |E_a|^4; the rest come
from colliding pairs of pairs, lambda_a + lambda_b = lambda_c + lambda_d with {a, b} != {c, d},
found here in integer arithmetic (Bourgain, GAFA 1993: L^4 through counting resonances).  No
time sample is taken, so the check is independent of the phase table and the |u|^q buffers.
"""

from collections import defaultdict

import numpy as np
import pytest

from sphere_strichartz.grids import grid_for
from sphere_strichartz.norms import _time_power_sums
from sphere_strichartz.spectral import (
    TimeGrid,
    nyquist_time_grid,
    random_field,
    synthesize_by_degree,
    synthesize_history,
)


def colliding_pairs(N, d):
    """(a, b, c, d, weight) arrays over the unordered degree pairs a <= b and c <= d with
    lambda_a + lambda_b = lambda_c + lambda_d and (a, b) != (c, d), each pair of pairs once.
    The weight counts the ordered pairs: 2 for a != b, times 2 for c != d."""
    lam = [n * (n + d - 1) for n in range(N + 1)]
    by_sum = defaultdict(list)
    for a in range(N + 1):
        for b in range(a, N + 1):
            by_sum[lam[a] + lam[b]].append((a, b))
    out = [(a, b, c, e, (1 + (a != b)) * (1 + (c != e)))
           for pairs in by_sum.values()
           for i, (a, b) in enumerate(pairs) for c, e in pairs[i + 1:]]
    return tuple(np.array(col, dtype=int) for col in zip(*out))


def resonant_l4_power_sums(u):
    """M (2 (sum |E_a|^2)^2 - sum |E_a|^4 + 2 Re sum_collisions w E_a E_b conj(E_c E_d))."""
    E = synthesize_by_degree(u.base, u.grid).reshape(u.N + 1, -1)
    e2 = np.abs(E) ** 2
    cross = np.zeros(E.shape[1], dtype=complex)
    a, b, c, e, w = colliding_pairs(u.N, u.d)
    for k in range(0, len(w), 256):  # bounded (256, points) temporaries
        ks = slice(k, k + 256)
        terms = E[a[ks]] * E[b[ks]] * np.conj(E[c[ks]] * E[e[ks]])
        cross += w[ks] @ terms
    total = 2.0 * np.sum(e2, axis=0) ** 2 - np.sum(e2 ** 2, axis=0) + 2.0 * cross.real
    return (u.tg.M * total).reshape(u.grid.shape)


def test_collisions_on_s2_are_sums_of_two_odd_squares():
    # on S^2, 4 lambda_n + 1 = (2n + 1)^2: 1 + 49 = 25 + 25 gives lambda_0 + lambda_3 = 2 lambda_2
    a, b, c, e, w = colliding_pairs(8, 2)
    assert (0, 3, 2, 2, 2) in set(zip(a, b, c, e, w))
    odd = lambda n: (2 * n + 1) ** 2  # noqa: E731
    assert np.all(odd(a) + odd(b) == odd(c) + odd(e))
    assert len(w) == len(set(zip(a, b, c, e)))


@pytest.mark.parametrize("d, N", [(2, 12), (2, 24), (3, 32), (3, 48), (4, 32), (4, 48)])
@pytest.mark.parametrize("time_grid", ["nyquist", "least"])
def test_sampled_l4_power_sums_equal_resonant_pairs(d, N, time_grid):
    # the Nyquist grid M = 4 (lambda_N + 1) and the least M = 2 lambda_N + 1 without aliasing
    lam_N = N * (N + d - 1)
    tg = nyquist_time_grid(N, d) if time_grid == "nyquist" else TimeGrid(2 * lam_N + 1)
    assert tg.M > 2 * lam_N
    u = synthesize_history(random_field(N, d, np.random.default_rng([d, N])), tg,
                           grid_for(N, d))
    assert len(colliding_pairs(N, d)[0]) > 0
    np.testing.assert_allclose(_time_power_sums(u, 4.0), resonant_l4_power_sums(u), rtol=1e-13)
