"""Quadrature oracles: Gaussian moments, dV rules, Lebesgue windows, error paths."""

import math

import numpy as np
import pytest

from fockqha.quadrature import (
    gaussian_grid,
    hermite_dv_grid,
    integrate,
    lebesgue_grid,
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


def test_invalid_grid_arguments():
    with pytest.raises(ValueError):
        lebesgue_grid(-1.0, 8, 1)
    with pytest.raises(ValueError):
        lebesgue_grid(1.0, 1, 1)


def test_cached_grid_arrays_are_read_only():
    grid = gaussian_grid(1, 1.0, 6)
    for arr in (grid.nodes, grid.weights, lebesgue_grid(2.0, 4, 1).nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0
