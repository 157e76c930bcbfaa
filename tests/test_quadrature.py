"""Quadrature oracles: Gaussian moments, dV rules, Lebesgue windows, error paths."""

import math

import numpy as np
import pytest

from fockqha.quadrature import (
    _laguerre_rule,
    gaussian_grid,
    hermite_dv_grid,
    integrate,
    lebesgue_grid,
    polar_dv_grid,
)
from fockqha.symbols import heat_gaussian


def test_gaussian_weights_sum_to_one():
    for n, t in [(1, 1.0), (1, 2.0), (2, 0.5)]:
        grid = gaussian_grid(n, t, 12)
        assert abs(np.sum(grid.weights) - 1.0) < 1e-12


def test_second_moment_is_t():
    for t in [1.0, 2.0, 0.25]:
        grid = gaussian_grid(1, t, 16)
        val = integrate(grid, lambda z: np.abs(z[:, 0]) ** 2)
        assert abs(val - t) < 1e-12


def test_odd_moment_vanishes():
    grid = gaussian_grid(1, 1.0, 16)
    assert abs(integrate(grid, lambda z: z[:, 0])) < 1e-13


def test_fourth_moment_gamma_value():
    # integral of |w|^4 against mu_t is 2 t^2
    for t in [1.0, 0.5]:
        grid = gaussian_grid(1, t, 16)
        val = integrate(grid, lambda z: np.abs(z[:, 0]) ** 4)
        assert abs(val - 2.0 * t**2) < 1e-12


def test_reproducing_exponential_integrates_to_one():
    # <1, K_{z0}> = K_{z0}(0) = 1: the kernel reproduces constants
    t, z0 = 1.0, 0.7 - 0.3j
    grid = gaussian_grid(1, t, 20)
    val = integrate(grid, lambda z: np.exp(z[:, 0] * np.conj(z0) / t))
    assert abs(val - 1.0) < 1e-12


def test_monomial_exactness_against_gamma():
    # z^a conj(z)^b integrates to delta_{ab} a! t^a for |a|+|b| <= 2Q-1
    t, Q = 1.5, 10
    grid = gaussian_grid(1, t, Q)
    import math

    for a in range(6):
        for b in range(6):
            val = integrate(grid, lambda z: z[:, 0] ** a * np.conj(z[:, 0]) ** b)
            want = math.factorial(a) * t**a if a == b else 0.0
            assert abs(val - want) < 1e-12 * max(1.0, abs(want))


def test_lebesgue_total_mass():
    W, m = 2.0, 16
    grid = lebesgue_grid(W, m, 1)
    assert abs(np.sum(grid.weights) - (2 * W) ** 2) < 1e-10


def test_lebesgue_gaussian_mass():
    grid = lebesgue_grid(7.0, 40, 1)
    val = integrate(grid, heat_gaussian(1.0))
    assert abs(val - 1.0) < 1e-8


def test_lebesgue_odd_function_vanishes():
    grid = lebesgue_grid(3.0, 24, 1)
    assert abs(integrate(grid, lambda z: z[:, 0])) < 1e-12


def test_window_doubling_stability():
    # doubling W moves the f_s mass by no more than the Gaussian tail
    s, W = 1.0, 4.0
    a = integrate(lebesgue_grid(W, 48, 1), heat_gaussian(s))
    b = integrate(lebesgue_grid(2 * W, 96, 1), heat_gaussian(s))
    assert abs(a - b) < np.exp(-(W**2) / s)


def test_integrate_reports_offending_node():
    grid = lebesgue_grid(1.0, 4, 1)

    def bad(z):
        out = np.ones(z.shape[0])
        out[3] = np.nan
        return out

    with pytest.raises(ValueError, match="node"):
        integrate(grid, bad)


def test_grid_csv_export(tmp_path):
    grid = lebesgue_grid(1.0, 3, 1)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == grid.size + 1  # header + one row per node


def test_hermite_dv_grid_is_exact_for_shifted_gaussian_moments():
    # integral of |z - mu|^{2k} e^{-|z - mu|^2 / tau} dV over C is pi k! tau^{k+1}
    mu, tau, Q = 0.4 - 0.3j, 0.6, 9
    grid = hermite_dv_grid(1, tau, Q, mu)
    for k in range(Q):
        got = integrate(grid, lambda z: np.abs(z[:, 0] - mu) ** (2 * k) * np.exp(-np.abs(z[:, 0] - mu) ** 2 / tau))
        want = np.pi * math.factorial(k) * tau ** (k + 1)
        assert abs(got - want) < 1e-13 * want, k
    # same nodes as the mu_tau grid, shifted; at n = 2 the mass is (pi tau)^2
    assert np.array_equal(hermite_dv_grid(2, tau, 4).nodes, gaussian_grid(2, tau, 4).nodes)
    g2 = hermite_dv_grid(2, tau, 6, [0.1, -0.2j])
    got = integrate(g2, lambda z: np.exp(-np.sum(np.abs(z - [0.1, -0.2j]) ** 2, axis=1) / tau))
    assert abs(got - (np.pi * tau) ** 2) < 1e-13


def test_hermite_dv_weights_stay_finite_at_high_order():
    grid = hermite_dv_grid(1, 1.0, 281)
    assert np.all(np.isfinite(grid.weights)) and np.all(grid.weights > 0)
    got = integrate(grid, lambda z: np.exp(-np.abs(z[:, 0]) ** 2))
    assert abs(got - np.pi) < 1e-12


def plane_moments(grid, center, tau, m):
    """The rule's moments of (z - c)^p conj(z - c)^q e^{-|z - c|^2 / tau} at [p, q], p, q <= m, on one plane."""
    u = grid.nodes[:, 0] - center
    k = np.arange(m + 1)[:, None]
    g = grid.weights * np.exp(-np.abs(u) ** 2 / tau)
    return (u**k * g) @ (np.conj(u) ** k).T


def exact_moments(tau, m):
    """pi tau^{p+1} p! delta_pq, and the scale pi tau^{(p+q)/2+1} sqrt(p! q!) of each entry."""
    k = np.arange(m + 1)
    mag = np.sqrt(np.pi * tau ** (k + 1) * np.array([math.factorial(j) for j in k], dtype=float))
    return np.diag(mag**2), np.outer(mag, mag)


@pytest.mark.parametrize("m", [8, 9, 49])
@pytest.mark.parametrize("center", [0.0, 0.4 - 0.3j])
def test_polar_dv_grid_is_exact_for_every_moment_up_to_its_order(m, center):
    # m = 8 has an odd number of angles, one of them pi
    tau = 0.6
    grid = polar_dv_grid(1, tau, m, center)
    assert grid.size == (m + 1) * ((m + 2) // 2)
    want, scale = exact_moments(tau, m)
    err = np.abs(plane_moments(grid, center, tau, m) - want) / scale
    # measured <= 4.4e-15
    assert np.max(err) <= 1e-13


def test_polar_dv_grid_tensors_its_planes():
    tau, m, c = 0.6, 4, np.array([0.1, -0.2j])
    grid = polar_dv_grid(2, tau, m, c)
    assert grid.size == ((m + 1) * ((m + 2) // 2)) ** 2
    want, scale = exact_moments(tau, m)
    u = grid.nodes - c
    g = grid.weights * np.exp(-np.sum(np.abs(u) ** 2, axis=1) / tau)
    k = np.arange(m + 1)
    # P[p1, p2, q1, q2] against the product of the plane moments
    Z = u[:, 0, None, None] ** k[:, None] * u[:, 1, None, None] ** k
    got = np.einsum("iab,icd->abcd", Z * g[:, None, None], np.conj(Z))
    err = np.abs(got - np.einsum("ac,bd->abcd", want, want)) / np.einsum("ac,bd->abcd", scale, scale)
    # measured <= 5.9e-15
    assert np.max(err) <= 1e-13


def test_polar_dv_grid_order_is_tight():
    # at the m + 1 angles (j + 1/2) 2 pi / (m + 1), e^{i (m + 1) theta} = -1:
    # z^{m+1}, whose integral is 0, reads as -|z|^{m+1}, whose integral is
    # pi tau^{k+1} k! with k = (m + 1) / 2
    tau, m = 0.6, 9
    grid = polar_dv_grid(1, tau, m)
    got = integrate(grid, lambda z: z[:, 0] ** (m + 1) * np.exp(-np.abs(z[:, 0]) ** 2 / tau))
    want = -np.pi * tau**6 * math.factorial(5)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_polar_dv_grid_nodes_about_a_real_centre_pair_up_exactly():
    # each plane's nodes are closed under conjugation bit for bit, so about
    # a real centre the 1250 nodes of order 49 have 625 distinct moduli
    grid = polar_dv_grid(1, 1.0, 49, 0.2)
    z = grid.nodes[:, 0]
    assert grid.size == 1250
    assert np.unique(np.abs(z)).size == 625
    assert set(np.conj(z)) == set(z)
    # centred, the nodes lie on 25 circles of Laguerre radii
    centred = np.abs(polar_dv_grid(1, 1.0, 49).nodes[:, 0])
    assert np.unique(np.round(centred, 10)).size == 25


def laguerre_rule_by_mpmath(L, x0):
    """Nodes and w e^x of the L-point Gauss-Laguerre rule at 50 digits, from the float nodes x0.

    Newton on L_L, and w = x / ((L + 1)^2 L_{L+1}(x)^2): a weight formula
    other than the Christoffel sum the package uses.
    """
    import mpmath as mp

    def pair(k, x):
        prev, cur = mp.mpf(1), 1 - x
        for j in range(1, k):
            prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
        return prev, cur

    nodes, weights = [], []
    with mp.workdps(50):
        for x in x0:
            x = mp.mpf(x)
            for _ in range(8):
                prev, cur = pair(L, x)
                x -= cur * x / (L * (cur - prev))
            nodes.append(x)
            weights.append(x * mp.exp(x) / ((L + 1) ** 2 * pair(L + 1, x)[1] ** 2))
        return [float(v) for v in nodes], [float(v) for v in weights]


@pytest.mark.parametrize(
    "L, bound",
    # measured: nodes 0 / 1.1e-15 / 2.3e-15 / 7.6e-15 / 3.4e-14,
    # weights 5.3e-17 / 9.2e-16 / 1.7e-15 / 1.5e-14 / 4.2e-14
    [(1, 1e-15), (7, 5e-15), (25, 5e-15), (41, 5e-14), (61, 1e-13)],
)
def test_laguerre_rule_matches_mpmath(L, bound):
    x, w = _laguerre_rule(L)
    want_x, want_w = laguerre_rule_by_mpmath(L, x)
    assert np.max(np.abs(x - want_x) / want_x) <= bound
    assert np.max(np.abs(w - want_w) / want_w) <= bound


def test_invalid_grid_arguments():
    with pytest.raises(ValueError):
        lebesgue_grid(-1.0, 8, 1)
    with pytest.raises(ValueError):
        lebesgue_grid(1.0, 1, 1)
    with pytest.raises(ValueError):
        polar_dv_grid(1, 1.0, 0)


def test_cached_grid_arrays_are_read_only():
    grid = gaussian_grid(1, 1.0, 6)
    for arr in (grid.nodes, grid.weights, lebesgue_grid(2.0, 4, 1).nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0
