import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sphere_strichartz.grids import build_zonal_grid
from sphere_strichartz.harmonics import _order_block_rows, eigenvalues_upto, surface_area
from sphere_strichartz.harmonics import legendre_column as one_order_rows

from oracles import (
    associated_legendre,
    eigenspace_dim,
    gegenbauer,
    gegenbauer_at_one,
    legendre_column,
    zonal_basis,
    zonal_kernel,
)


def test_eigenvalue_examples():
    assert eigenvalues_upto(0, 2)[0] == 0.0
    assert eigenvalues_upto(1, 2)[1] == 2.0
    assert eigenvalues_upto(3, 3)[3] == 15.0
    lam = eigenvalues_upto(12, 4)  # every degree at once, as integers
    assert lam.dtype.kind == "i" and lam.tolist() == [n * (n + 3) for n in range(13)]


def test_eigenvalue_strictly_increasing_and_injective():
    for d in (2, 3, 5):
        lams = [eigenvalues_upto(n, d)[n] for n in range(200)]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert len(set(lams)) == len(lams)


def test_eigenvalue_rejects_bad_input():
    with pytest.raises(ValueError, match="degree must be >= 0"):
        eigenvalues_upto(-1, 2)
    with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
        eigenvalues_upto(3, 0)


def test_eigenspace_dim_examples():
    assert eigenspace_dim(0, 2) == 1
    assert eigenspace_dim(4, 2) == 9
    assert eigenspace_dim(2, 3) == 9


def test_eigenspace_dim_s2_matches_2n_plus_1():
    for n in range(50):
        assert eigenspace_dim(n, 2) == 2 * n + 1


def test_eigenspace_dim_sum_is_square_on_s2():
    for N in (5, 17, 40):
        assert sum(eigenspace_dim(n, 2) for n in range(N + 1)) == (N + 1) ** 2


def test_eigenspace_dim_brute_force_harmonic_polynomials():
    # count degree-n harmonic homogeneous polynomials in d+1 variables by
    # computing the rank of the Laplacian acting on the monomial basis
    from itertools import combinations_with_replacement

    def brute_dim(n, d):
        nvars = d + 1
        monos = list(combinations_with_replacement(range(nvars), n))

        def exponents(mono):
            e = [0] * nvars
            for v in mono:
                e[v] += 1
            return tuple(e)

        basis = [exponents(m) for m in monos]
        lower = {exponents(m): i for i, m in
                 enumerate(combinations_with_replacement(range(nvars), n - 2))}
        A = np.zeros((len(lower), len(basis)))
        for j, e in enumerate(basis):
            for v in range(nvars):
                if e[v] >= 2:
                    out = list(e)
                    out[v] -= 2
                    A[lower[tuple(out)], j] += e[v] * (e[v] - 1)
        return len(basis) - np.linalg.matrix_rank(A)

    for n, d in [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3)]:
        assert eigenspace_dim(n, d) == brute_dim(n, d)


def test_surface_area_values():
    assert surface_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert surface_area(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert surface_area(3) == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_associated_legendre_degree2_closed_form():
    # P_2(t) = (3t^2 - 1)/2 orthonormalized by sqrt(5/(4 pi))
    want = math.sqrt(5 / (4 * math.pi)) * (-0.125)
    assert associated_legendre(2, 0, 0.5) == pytest.approx(want, rel=1e-14)


def test_associated_legendre_endpoint_identity():
    # m=0 at t=1: unnormalized P_n(1) = 1 for all n
    for n in (0, 1, 5, 40, 300):
        got = associated_legendre(n, 0, 1.0)
        assert got == pytest.approx(math.sqrt((2 * n + 1) / (4 * math.pi)), rel=1e-12)


@pytest.mark.parametrize("m", [0, 1, 7, 60, 128])
def test_associated_legendre_orthonormality(m):
    # quadrature oracle: 2 pi * sum w Pbar_n^m Pbar_n'^m = delta_{nn'}
    n_max = 128
    t, w = leggauss(n_max + 1)
    P = legendre_column(m, n_max, t)
    for n in range(m, n_max + 1, 7):
        for n2 in (n, min(n + 5, n_max)):
            got = 2 * math.pi * np.sum(w * P[n] * P[n2])
            assert got == pytest.approx(1.0 if n == n2 else 0.0, abs=1e-12)


@pytest.mark.parametrize("m", [0, 3, 200, 512])
def test_associated_legendre_stable_to_degree_512(m):
    # degree-512 grids carry ~5e-12 of node-precision noise (both numpy and
    # scipy nodes); the recurrence itself must not blow past that scale
    n_max = 512
    t, w = leggauss(n_max + 1)
    P = legendre_column(m, n_max, t)
    assert np.all(np.isfinite(P))
    for n in (max(m, 256), 512):
        got = 2 * math.pi * np.sum(w * P[n] * P[n])
        assert got == pytest.approx(1.0, abs=5e-11)


@pytest.mark.parametrize("N", [0, 1, 2, 9, 64, 256])
def test_one_order_rows_equal_scalar_recurrence(N):
    # the package's one-order rows (the block recurrence, one order wide) on the colatitude
    # rule _colatitude_profile reads at p = inf, band 2N (K up to 513), bit for bit the oracle's
    t = build_zonal_grid(2 * N, 2).t
    for m in range(N + 1):
        assert one_order_rows(m, N, t).tobytes() == legendre_column(m, N, t).tobytes(), m


def test_one_order_rows_at_the_poles_equal_scalar_recurrence():
    # what pole_values reads: the order m = 0 at t = +1, -1, every band to 300
    t = np.array([1.0, -1.0])
    for N in range(301):
        assert one_order_rows(0, N, t).tobytes() == legendre_column(0, N, t).tobytes(), N


def _block_table(t, N, width, first):
    """{(m, n): Pbar_n^m(t) bytes} for the orders m >= first from a run of _order_block_rows."""
    out = {}
    for m0, n, row in _order_block_rows(t, N, width, first):
        for m in range(m0, min(m0 + len(row), n + 1)):
            out[m, n] = row[m - m0].tobytes()
    return out


@pytest.mark.parametrize("width", [1, 8])
def test_block_rows_started_above_order_0_equal_a_run_from_0(width):
    N, t = 40, build_zonal_grid(33, 2).t
    whole = _block_table(t, N, width, 0)
    for first in (1, 2, 5, 8, 17, N):
        part = _block_table(t, N, width, first)
        assert part == {key: v for key, v in whole.items() if key[0] >= first}, first


def test_associated_legendre_domain_and_order_errors():
    with pytest.raises(ValueError):
        associated_legendre(2, 0, 1.5)
    with pytest.raises(ValueError):
        associated_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        associated_legendre(2, -1, 0.5)


def test_gegenbauer_base_cases():
    rng = np.random.default_rng(0)
    for alpha in (0.5, 1.0, 2.5):
        for t in rng.uniform(-1, 1, 5):
            assert gegenbauer(0, alpha, t) == 1.0
            assert gegenbauer(1, alpha, t) == pytest.approx(2 * alpha * t, rel=1e-15)
    assert gegenbauer(2, 1.0, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_gegenbauer_half_matches_legendre():
    # C_n^{1/2} = P_n: compare with the unnormalized Legendre recovered from
    # the orthonormalized one
    rng = np.random.default_rng(42)
    ts = rng.uniform(-1, 1, 100)
    for n in (1, 2, 7, 31, 256):
        geg = gegenbauer(n, 0.5, ts)
        leg = associated_legendre(n, 0, ts) / math.sqrt((2 * n + 1) / (4 * math.pi))
        np.testing.assert_allclose(geg, leg, atol=1e-13, rtol=1e-13)


def test_gegenbauer_domain_error():
    with pytest.raises(ValueError):
        gegenbauer(3, 1.0, -1.2)
    with pytest.raises(ValueError):
        gegenbauer(3, 0.0, 0.2)


def test_gegenbauer_at_one_matches_recurrence():
    for n, alpha in [(0, 1.0), (5, 0.5), (9, 1.0), (20, 2.5)]:
        assert gegenbauer_at_one(n, alpha) == pytest.approx(
            gegenbauer(n, alpha, 1.0), rel=1e-12
        )


def test_zonal_kernel_constants_and_diagonal():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        for t in rng.uniform(-1, 1, 4):
            assert zonal_kernel(0, d, t) == pytest.approx(1 / surface_area(d), rel=1e-14)
    assert zonal_kernel(10, 2, 1.0) == pytest.approx(21 / (4 * math.pi), rel=1e-13)


def test_zonal_kernel_diagonal_is_dim_over_area():
    for n, d in [(3, 2), (7, 3), (4, 6)]:
        want = eigenspace_dim(n, d) / surface_area(d)
        assert zonal_kernel(n, d, 1.0) == pytest.approx(want, rel=1e-12)


def test_zonal_basis_reduces_to_legendre_on_s2():
    rng = np.random.default_rng(11)
    ts = rng.uniform(-1, 1, 30)
    for n in (0, 1, 6, 64, 256):
        np.testing.assert_allclose(
            zonal_basis(n, 2, ts), associated_legendre(n, 0, ts),
            atol=1e-13, rtol=1e-12,
        )


def test_zonal_basis_orthonormal_under_jacobi_quadrature():
    from scipy.special import roots_jacobi

    for d in (3, 4):
        n_max = 24
        t, w = roots_jacobi(n_max + 1, (d - 2) / 2, (d - 2) / 2)
        area = surface_area(d - 1)
        B = np.array([zonal_basis(n, d, t) for n in range(n_max + 1)])
        G = area * (B * w) @ B.T
        np.testing.assert_allclose(G, np.eye(n_max + 1), atol=1e-12)


def test_zonal_kernel_l2_norm_is_sqrt_dim_over_area():
    # ||Z_n||_2^2 = Z_n(1) = dim/area, by the reproducing property
    from scipy.special import roots_jacobi

    for n, d in [(5, 2), (6, 3)]:
        t, w = roots_jacobi(2 * n + 2, (d - 2) / 2, (d - 2) / 2)
        vals = zonal_kernel(n, d, t)
        norm_sq = surface_area(d - 1) * np.sum(w * vals**2)
        assert norm_sq == pytest.approx(eigenspace_dim(n, d) / surface_area(d), rel=1e-12)
