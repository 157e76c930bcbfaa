"""Weyl/Toeplitz/Berezin/heat oracles.

Weyl matrices are checked against high-order Gauss-Hermite quadrature of
their defining integral, which shares no code with the Laguerre
recurrence that computes them.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fockqha import operators
from fockqha.convolution import conv_op_op
from fockqha.model import (
    FockOperator,
    FockParams,
    basis_matrix,
    degree_projector,
    identity_operator,
    kernel_coefficients,
    multi_indices,
    operator_norm_2,
    pc_operator,
    rank_one,
)
from fockqha.operators import (
    _CHUNK_BYTES,
    BerezinSymbol,
    BerezinTranslateSum,
    alpha_op,
    berezin,
    berezin_values,
    heat_transform,
    heat_values,
    toeplitz,
    weyl,
    weyl_matrices,
)
from fockqha.quadrature import gaussian_grid, hermite_dv_grid
from fockqha.symbols import (
    Constant,
    Gaussian,
    GridSymbol,
    PlaneWave,
    Polynomial,
    Radial,
    SymbolSum,
    heat_gaussian,
)

P = FockParams(1, 1.0, 16, 20)


def weyl_by_quadrature(params, z, Q=160, block=1 << 16):
    """<W_z e_b, e_a> = integral of k_z(w) e_b(w - z) conj(e_a(w)) dmu_t(w).

    Gauss-Hermite quadrature of order Q per real axis, summed over blocks
    of nodes.  The integrand is entire but not polynomial, so the error
    falls with Q; at Q = 160 it is at roundoff for D <= 40, |z| <= 12.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    grid = FockParams(params.n, params.t, params.D, Q).grid()
    W = np.zeros((params.dim, params.dim), dtype=complex)
    for start in range(0, grid.size, block):
        nodes = grid.nodes[start : start + block]
        B = np.conj(basis_matrix(params, nodes)) * grid.weights[start : start + block]
        k = np.exp(nodes @ np.conj(z) / params.t - np.sum(np.abs(z) ** 2) / (2 * params.t))
        W += (B * k) @ basis_matrix(params, nodes - z).T
    return W


def dense_toeplitz(params, f, block=1 << 13):
    """The Gaussian-grid quadrature over every node: (conj(E) * w * f) @ E.T.

    E is the full dim x Q^{2n} basis matrix on the model grid, taken a
    block of nodes at a time to bound memory; a grid of at most one
    block (every n = 1 grid here) is summed in one product.
    """
    grid = params.grid()
    T = 0
    for start in range(0, grid.size, block):
        nodes, w = grid.nodes[start : start + block], grid.weights[start : start + block]
        E = basis_matrix(params, nodes)
        T = T + (np.conj(E) * w * f(nodes)) @ E.T
    return T


def test_weyl_at_origin_is_identity():
    W = weyl(P, 0.0)
    assert np.max(np.abs(W.matrix - np.eye(P.dim))) < 1e-13


def test_weyl_inverse_on_trusted_subblock():
    p = FockParams(1, 1.0, 34, 38)
    z = 0.8 - 0.3j
    prod = weyl(p, z) @ weyl(p, -z)
    proj = degree_projector(p, p.D // 2)
    resid = operator_norm_2(proj @ (prod - identity_operator(p)) @ proj)
    assert resid < 1e-8


def test_weyl_vacuum_matrix_element():
    for z in [0.5, 1.0j, 0.3 - 0.7j]:
        W = weyl(P, z)
        assert W.matrix[0, 0] == pytest.approx(np.exp(-abs(z) ** 2 / 2.0), abs=1e-12)


def test_weyl_quadrature_matches_closed_form():
    # the closed form against Q = 160 quadrature over the region the
    # convolution grids reach; the largest deviation measured is 2e-14,
    # at small |z| and D = 40
    for D in (16, 24, 40):
        p = FockParams(1, 1.0, D, D + 2)
        for r in (0.1, 0.5, 2.0, 4.0, 8.0, 12.0):
            for angle in (0.7, -2.5):
                z = r * np.exp(1j * angle)
                err = np.max(np.abs(weyl(p, z).matrix - weyl_by_quadrature(p, z)))
                assert err < 1e-13, (D, z, err)


def weyl_by_mpmath(z, t, D):
    """<W_z e_b, e_a> from the Laguerre form, summed term by term in mpmath.

    With alpha = conj(z)/sqrt(t), x = |alpha|^2, lo = min(a, b) and
    k = |a - b| the element is sqrt(lo!/(lo+k)!) u e^{-x/2} L_lo^k(x),
    u = alpha^k for a >= b and (-conj alpha)^k for a < b, and
    L_lo^k(x) = sum_j (-1)^j (lo+k)! / ((lo-j)! (k+j)!) x^j / j!.  The
    precision covers the cancellation in L, whose terms reach about
    2^(2D) e^x.
    """
    import mpmath as mp

    with mp.workdps(30 + int(0.61 * D + 0.44 * abs(z) ** 2 / t)):
        alpha = mp.conj(mp.mpc(complex(z))) / mp.sqrt(t)
        x = abs(alpha) ** 2
        fact = [mp.factorial(i) for i in range(2 * D + 1)]
        xpow = [(-x) ** j / fact[j] for j in range(D + 1)]
        out = np.empty((D + 1, D + 1), dtype=complex)
        for lo in range(D + 1):
            for k in range(D + 1 - lo):
                lag = mp.fsum(xpow[j] / (fact[lo - j] * fact[k + j]) for j in range(lo + 1))
                g = mp.sqrt(fact[lo] * fact[lo + k]) * mp.exp(-x / 2) * lag
                out[lo + k, lo] = complex(g * alpha**k)
                out[lo, lo + k] = complex(g * (-mp.conj(alpha)) ** k)
        return out


def test_weyl_matches_mpmath_where_exact_rules_reach():
    # the exact convolution rule of order 2D + 1 at width t puts nodes at
    # |z| up to 12.8 at D = 24 and 16.9 at D = 40
    for D in (24, 40):
        p = FockParams(1, 1.0, D, D + 2)
        for r in (13.0, 17.0):
            z = r * np.exp(0.7j)
            want = weyl_by_mpmath(z, p.t, D)
            diff = np.abs(weyl(p, z).matrix - want)
            assert np.max(diff) < 1e-13, (D, r, np.max(diff))
            # the entries fall to 1e-280 there; each keeps its leading digits
            normal = np.abs(want) > 1e-290
            assert np.max(diff[normal] / np.abs(want[normal])) < 1e-12, (D, r)


@pytest.mark.parametrize("D", [40, 60])
def test_weyl_matches_mpmath_near_the_origin(D):
    # the float64 recurrence cancels at small |z|, where the polar rules'
    # innermost radii lie (about 0.12 at D = 24); measured at |z| = 0.05 /
    # 0.1 / 0.3 / 1: 1.3e-14 / 4.9e-15 / 1.5e-14 / 1.7e-15 at D = 40 and
    # 4.4e-14 / 2.8e-14 / 2.8e-14 / 3.1e-15 at D = 60
    p = FockParams(1, 1.0, D, D + 2)
    for r in (0.05, 0.1, 0.3, 1.0):
        z = r * np.exp(0.7j)
        err = np.max(np.abs(weyl(p, z).matrix - weyl_by_mpmath(z, p.t, D)))
        assert err <= 5e-14, (D, r, err)


def test_weyl_matches_quadrature_n2():
    # n = 2 needs Q^4 nodes, so the oracle runs at Q = 24 (error 7e-16 here)
    p = FockParams(2, 1.0, 6, 8)
    for z in ([0.6 - 0.3j, -0.4j], [1.5, 1.0 + 1.0j]):
        err = np.max(np.abs(weyl(p, z).matrix - weyl_by_quadrature(p, z, Q=24)))
        assert err < 1e-13, (z, err)


def axis_blocks_loop_local(z, t, D):
    """operators._axis_blocks with every recurrence coefficient formed inside the loop."""
    alpha = np.conj(z) / math.sqrt(t)
    r = np.abs(alpha)
    x = (r**2)[:, None]
    k = np.arange(D + 1)
    logx = np.log(np.where(x > 0, x, 1.0))
    lfact = np.array([math.lgamma(j + 1) for j in k])
    g = np.exp(0.5 * k * logx - 0.5 * x - 0.5 * lfact)
    g = np.where((x > 0) | (k == 0), g, 0.0)
    G = np.empty((z.shape[0], D + 1, D + 1))
    G[:, 0] = g
    prev = np.zeros_like(g)
    for lo in range(D):
        nxt = ((2 * lo + 1 + k - x) * g - np.sqrt(lo * (lo + k)) * prev) / np.sqrt(
            (lo + 1) * (lo + 1 + k)
        )
        G[:, lo + 1] = nxt
        prev, g = g, nxt
    u = np.where(r > 0, alpha / np.where(r > 0, r, 1.0), 1.0)
    phase = np.ones((z.shape[0], 2 * D + 1), dtype=complex)
    phase[:, D + 1 :] = np.cumprod(np.repeat(u[:, None], D, axis=1), axis=1)
    phase[:, :D] = (np.conj(phase[:, D + 1 :]) * (-1.0) ** k[1:])[:, ::-1]
    a, b = k[:, None], k[None, :]
    return phase[:, a - b + D] * G[:, np.minimum(a, b), np.abs(a - b)]


def test_weyl_recurrence_tables_change_no_bit():
    # the coefficient tables built once per call against the same recurrence
    # with its coefficients formed per step, on the 2401-node convolution rule
    # at D = 24 (out to |z| = 12.8), and at D = 0 and 1
    for D in (0, 1, 24):
        z = hermite_dv_grid(1, 1.0, 2 * D + 1).nodes[:, 0]
        assert np.array_equal(operators._axis_blocks(z, 1.0, D), axis_blocks_loop_local(z, 1.0, D))


def factored_weyl(p, zs):
    """D_u R D_u^* from the real matrices at the moduli and the unit phases, per point."""
    r, u = operators._polar(zs, p.t)
    idx = np.array(multi_indices(p))
    R = np.ones((zs.shape[0], p.dim, p.dim))
    U = np.ones((zs.shape[0], p.dim), dtype=complex)
    for k in range(p.n):
        Rk = operators._real_blocks(r[:, k], p.D)
        R = R * Rk[:, idx[:, k, None], idx[None, :, k]]
        U = U * u[:, k, None] ** idx[:, k]
    return R, U[:, :, None] * R * np.conj(U)[:, None, :]


@pytest.mark.parametrize("D", [0, 1, 24])
def test_weyl_is_the_real_matrix_at_the_modulus_between_phases(D):
    # on the 2401-node convolution rule at D = 24 (out to |z| = 12.8), and at
    # D = 0 and 1: R_|z| is the Weyl matrix at the real point |z| bit for bit,
    # and D_u R_|z| D_u^* is W_z to rounding (measured 2.0e-15 of entries at
    # most 1 in modulus; u^a conj(u)^b and u^(a-b) round differently)
    p = FockParams(1, 1.0, D, D + 2)
    z = hermite_dv_grid(1, 1.0, 2 * D + 1).nodes
    R, factored = factored_weyl(p, z)
    r = np.abs(z[:, 0])
    assert np.array_equal(R, axis_blocks_loop_local(r, 1.0, D))
    assert np.array_equal(R, operators._axis_blocks(r, 1.0, D))
    assert np.max(np.abs(factored - weyl_matrices(p, z))) <= 1e-14


def test_weyl_is_the_real_matrix_at_the_moduli_between_phases_n2():
    # R = prod_k R_k[alpha_k, beta_k] at the moduli; measured 2.6e-16
    p = FockParams(2, 1.0, 6, 8)
    rng = np.random.default_rng(27)
    z = 3 * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
    z[0] = [0.0, 1.5j]
    R, factored = factored_weyl(p, z)
    at_moduli = operators._box_product(p, (operators._axis_blocks(r, 1.0, p.D) for r in np.abs(z).T))
    assert np.array_equal(R, at_moduli)
    assert np.max(np.abs(factored - weyl_matrices(p, z))) <= 1e-14


def test_weyl_matrices_batch_matches_single_calls():
    p = FockParams(2, 1.0, 5, 7)
    zs = np.array([[0.0, 0.0], [0.3, -0.2j], [1.0 + 2.0j, -0.5]])
    Ws = weyl_matrices(p, zs)
    assert Ws.shape == (3, p.dim, p.dim)
    for z, W in zip(zs, Ws):
        assert np.array_equal(W, weyl(p, z).matrix)
    # each n = 2 entry is the product of its one-variable entries, exactly
    p1 = FockParams(1, p.t, p.D, p.Q)
    idx = np.array(multi_indices(p))
    for z, W in zip(zs, Ws):
        W0, W1 = weyl(p1, z[0]).matrix, weyl(p1, z[1]).matrix
        want = W0[np.ix_(idx[:, 0], idx[:, 0])] * W1[np.ix_(idx[:, 1], idx[:, 1])]
        assert np.array_equal(W, want)
    with pytest.raises(ValueError, match="shape"):
        weyl_matrices(p, zs[:, :1])


def test_weyl_at_origin_emits_no_warning():
    with np.errstate(all="raise"):
        W = weyl(P, 0.0)
        weyl_matrices(FockParams(2, 1.0, 6, 8), np.zeros((2, 2)))
    assert np.array_equal(W.matrix, np.eye(P.dim))


def test_weyl_of_minus_z_is_adjoint():
    z = 1.3 - 0.4j
    assert np.array_equal(weyl(P, -z).matrix, weyl(P, z).matrix.conj().T)


def test_weyl_result_is_not_shared():
    p = FockParams(1, 1.0, 8, 10)
    weyl(p, 0.5).matrix[0, 0] = 99
    assert weyl(p, 0.5).matrix[0, 0] == pytest.approx(np.exp(-0.125), abs=1e-15)


def test_weyl_commutation_projected():
    p = FockParams(1, 1.0, 24, 28)
    z, w = 0.5, 0.25 + 0.25j
    phase = np.exp(-1j * np.imag(z * np.conj(w)) / p.t)
    diff = weyl(p, z) @ weyl(p, w) - phase * weyl(p, z + w)
    proj = degree_projector(p, p.D // 2)
    assert operator_norm_2(proj @ diff @ proj) < 1e-6


def test_alpha_at_origin_is_identity_action():
    A = pc_operator(P)
    assert np.max(np.abs(alpha_op(A, 0.0).matrix - A.matrix)) < 1e-13


def test_alpha_of_pc_berezin_is_shifted_gaussian():
    z0 = 0.6 + 0.2j
    A = alpha_op(pc_operator(P), z0)
    pts = np.array([0.0, 0.5, -0.3j])[:, None]
    got = berezin_values(A, pts)
    want = np.exp(-np.abs(pts[:, 0] - z0) ** 2 / P.t)
    assert np.max(np.abs(got - want)) < 1e-9


def test_alpha_group_action_on_trusted_subblock():
    p = FockParams(1, 1.0, 24, 28)
    A = pc_operator(p)
    z, w = 0.3, 0.2 - 0.4j
    lhs = alpha_op(alpha_op(A, w), z)
    # the group action composes with the commutation phase cancelling
    rhs = alpha_op(A, z + w)
    proj = degree_projector(p, p.D // 2)
    assert operator_norm_2(proj @ (lhs - rhs) @ proj) < 1e-8


def test_toeplitz_of_one_is_identity():
    T = toeplitz(P, Constant(1.0))
    assert np.max(np.abs(T.matrix - np.eye(P.dim))) < 1e-12


def test_toeplitz_of_constant_scales_identity():
    T = toeplitz(P, Constant(2.0 - 1.0j))
    assert np.max(np.abs(T.matrix - (2.0 - 1.0j) * np.eye(P.dim))) < 1e-12


def test_toeplitz_modulus_squared_diagonal():
    for t in [1.0, 0.5]:
        p = FockParams(1, t, 12, 16)
        T = toeplitz(p, Polynomial(terms=[((1,), (1,), 1.0)]))  # |w|^2
        want = np.diag([t * (k + 1) for k in range(p.D + 1)]).astype(complex)
        assert np.max(np.abs(T.matrix - want)) < 1e-12


def test_toeplitz_radial_symbol_is_diagonal():
    r = np.linspace(0.0, 8.0, 400)
    f = Radial(radii=r, values=np.exp(-(r**2) / 2.0))
    T = toeplitz(P, f)
    off = T.matrix - np.diag(np.diag(T.matrix))
    # non-polynomial symbol: angular exactness only up to quadrature error
    assert np.max(np.abs(off)) < 1e-4


def test_toeplitz_hermitian_for_real_symbol():
    T = toeplitz(P, Gaussian(center=0.4, width=1.5))
    assert np.max(np.abs(T.matrix - T.matrix.conj().T)) < 1e-12


def test_toeplitz_n1_is_the_dense_quadrature():
    # at n = 1 the plane-by-plane contraction is the dense sum, bit for bit;
    # a bare Gaussian takes the closed form, so the decaying symbol is a product
    for p in (P, FockParams(1, 0.7, 8, 10), FockParams(1, 1.0, 40, 42)):
        bump = Gaussian(center=0.4 - 0.2j, width=1.5) * PlaneWave(zeta=-0.3 + 0.5j)
        for f in (bump, PlaneWave(zeta=0.7 + 0.2j)):
            assert np.array_equal(toeplitz(p, f).matrix, dense_toeplitz(p, f))


def _non_separable_symbols(n):
    # on the quadrature path: a bare Gaussian would take the closed form
    r = np.linspace(0.0, 8.0, 400)
    return [
        Gaussian(center=np.linspace(0.4, -0.3j, n), width=1.5, n=n)
        * PlaneWave(zeta=np.linspace(-0.3 + 0.5j, 0.2, n), n=n),
        PlaneWave(zeta=np.arange(1, n + 1) * (0.4 + 0.3j), n=n),
        Radial(radii=r, values=np.exp(-r) * np.cos(r), n=n),
    ]


@pytest.mark.parametrize(
    "params", [FockParams(2, 1.0, 6, 8), FockParams(2, 1.0, 14, 16), FockParams(3, 1.0, 5, 7)]
)
def test_toeplitz_matches_dense_quadrature(params):
    # non-separable, non-polynomial symbols; 1.2e-15 is the largest deviation measured
    for f in _non_separable_symbols(params.n):
        want = dense_toeplitz(params, f)
        dev = np.max(np.abs(toeplitz(params, f).matrix - want)) / np.max(np.abs(want))
        assert dev <= 1e-13, (params, f, dev)


def test_toeplitz_builds_no_grid_sized_basis():
    # the dense sum held a 126 MB basis matrix and peaked at 361 MB here
    p = FockParams(2, 1.0, 14, 16)
    f = Gaussian(center=np.zeros(2, dtype=complex), width=2.0, n=2) * PlaneWave(zeta=[0.5, 0.2j], n=2)
    toeplitz(p, f)  # builds the grid and the plane factor
    tracemalloc.start()
    try:
        toeplitz(p, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_grid_toeplitz_n2_keeps_one_plane_factor():
    # K (Q^2 x (D+1)^2) and the degree-pair box are the largest arrays:
    # 2.88 MiB measured; a stack of weighted last planes, one per row of
    # the box, peaked at 3.76 MiB
    p = FockParams(2, 1.0, 14, 16)
    f = Constant(1.0, n=2)
    toeplitz(p, f)  # builds the grid
    tracemalloc.start()
    try:
        toeplitz(p, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * 2**20, peak


def gaussian_plane_by_mpmath(t, D, width, c):
    """<f e_b, e_a> for f = e^{-|w - c|^2/width} on one plane, summed at 40 digits.

    With the square completed, f dmu_t is rho e^{-|c|^2/(width + t)} times
    the Gaussian probability measure of variance s = rho t about
    m = t c/(width + t), rho = width/(width + t), whose moments are
    E[w^b conj(w)^a] = sum_j a! b!/((a - j)! (b - j)! j!) s^j m^(b-j) conj(m)^(a-j).
    Returns the (D + 1) x (D + 1) nested list of mpc values.
    """
    import mpmath as mp

    with mp.workdps(40):
        t, W, c = mp.mpf(t), mp.mpf(width), mp.mpc(c)
        rho = W / (W + t)
        s, m = rho * t, t * c / (W + t)
        scale = rho * mp.exp(-abs(c) ** 2 / (W + t))
        fact = [mp.factorial(k) for k in range(D + 1)]
        m_pow = [m**k for k in range(D + 1)]
        mbar_pow = [mp.conj(m) ** k for k in range(D + 1)]
        s_pow = [s**k for k in range(D + 1)]
        norm = [mp.sqrt(fact[k] * t**k) for k in range(D + 1)]
        return [
            [
                scale
                * mp.fsum(
                    fact[a] * fact[b] / (fact[a - j] * fact[b - j] * fact[j])
                    * s_pow[j] * m_pow[b - j] * mbar_pow[a - j]
                    for j in range(min(a, b) + 1)
                )  # fmt: skip
                / (norm[a] * norm[b])
                for b in range(D + 1)
            ]
            for a in range(D + 1)
        ]


@pytest.mark.parametrize(
    "t, D, f",
    [
        (1.0, 40, Gaussian(center=0.3, width=2.0, amplitude=0.8 - 0.5j)),
        (1.0, 40, Gaussian(center=3 + 2j, width=2.0)),
        (0.05, 40, Gaussian(center=3 + 2j, width=1.0, amplitude=-1.3j)),
        (0.05, 40, Gaussian(center=0.3, width=0.5)),
        (1.0, 24, Gaussian(center=5.0, width=1.5)),
        (0.05, 40, Gaussian(center=[3 + 2j, -0.3j], width=1.0, amplitude=0.6 + 0.2j, n=2)),
        (1.0, 24, Gaussian(center=[0.5, -4.0 + 2.0j], width=2.0, n=2)),
        (0.3, 12, Gaussian(center=[0.2, -0.4j, 0.1 + 0.1j], width=0.7, n=3)),
    ],
    ids=["n1-D40", "n1-D40-far", "n1-t0.05-far", "n1-t0.05", "n1-c5", "n2-t0.05", "n2-c4.5", "n3"],
)
def test_toeplitz_of_a_gaussian_matches_mpmath(t, D, f):
    # the closed form against the moment series at 40 digits, on every entry
    # at n = 1 and on 400 random entries otherwise; at most 2.4e-15 measured
    import mpmath as mp

    params = FockParams(f.n, t, D, D + 2)
    got = toeplitz(params, f).matrix
    centers = np.broadcast_to(np.atleast_1d(f.center), (f.n,))
    planes = [gaussian_plane_by_mpmath(t, D, f.width, c) for c in centers]
    idx = np.array(multi_indices(params))
    rng = np.random.default_rng(24)
    entries = (
        [(j, k) for j in range(params.dim) for k in range(params.dim)]
        if f.n == 1
        else rng.integers(0, params.dim, (400, 2))
    )
    dev, scale = 0.0, 0.0
    with mp.workdps(40):
        for j, k in entries:
            value = mp.mpc(f.amplitude)
            for plane, a, b in zip(planes, idx[j], idx[k]):
                value *= plane[a][b]
            want = complex(value)
            dev, scale = max(dev, abs(got[j, k] - want)), max(scale, abs(want))
    assert dev <= 1e-14 * scale, dev / scale


@pytest.mark.parametrize("c", [0.3, 1.0 + 1.0j, 2.5])
def test_toeplitz_of_a_gaussian_is_the_converged_quadrature(c):
    # dense Gauss-Hermite quadrature at Q = 60 has converged for D = 8; the
    # model's own Q = 10 misses it by 2.7e-4 to 3.8e-3 of max |T|
    f = Gaussian(center=c, width=1.5, amplitude=0.7 - 0.2j)
    want = dense_toeplitz(FockParams(1, 1.0, 8, 60), f)
    got = toeplitz(FockParams(1, 1.0, 8, 10), f).matrix
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_toeplitz_of_a_gaussian_builds_no_grid(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the closed form built a grid")

    monkeypatch.setattr(FockParams, "grid", never)
    monkeypatch.setattr(operators, "_grid_basis", never)
    for n in (1, 2, 3):
        params = FockParams(n, 0.5, 6, 8)
        T = toeplitz(params, Gaussian(center=0.2 - 0.1j, width=1.5, n=n)).matrix
        assert np.max(np.abs(T - T.conj().T)) <= 1e-15


@pytest.mark.parametrize(
    "f",
    [
        Gaussian(center=[0.1, 0.2j], n=2),
        Gaussian(center=[0.1, 0.2j], n=2) * PlaneWave(zeta=[0.5, 0.5], n=2),
    ],
    ids=["closed-form", "quadrature"],
)
def test_toeplitz_rejects_a_symbol_on_another_dimension(f):
    with pytest.raises(ValueError, match="C\\^|complex coordinates"):
        toeplitz(P, f)


@pytest.mark.parametrize(
    "kwargs",
    [{"amplitude": np.inf}, {"amplitude": np.nan}, {"center": np.nan}],
    ids=["inf-amplitude", "nan-amplitude", "nan-centre"],
)
def test_toeplitz_rejects_a_nonfinite_gaussian(kwargs):
    # as the quadrature rejects its non-finite values at the nodes; the
    # Gaussian itself raises, before any matrix is built
    with pytest.raises(ValueError, match="non-finite"):
        toeplitz(P, Gaussian(**kwargs))


def test_toeplitz_of_one_n3():
    # the dense sum would need about 1 GB of basis matrix here
    p = FockParams(3, 1.0, 6, 8)
    T = toeplitz(p, Constant(1.0, n=3))
    assert np.max(np.abs(T.matrix - np.eye(p.dim))) < 1e-12


def test_toeplitz_rejects_nonfinite_symbol():
    def bad(z):
        out = np.ones(z.shape[0])
        out[0] = np.inf
        return out

    with pytest.raises(ValueError, match="node"):
        toeplitz(P, bad)


@pytest.mark.parametrize(
    "count, row_bytes", [(0, 16), (1, 16), (1000, 16 * 41), (9, 2**18), (3, 2 * _CHUNK_BYTES)]
)
def test_blocks_cover_the_rows_in_order(count, row_bytes):
    blocks = operators._blocks(count, row_bytes)
    assert [i for rows in blocks for i in range(count)[rows]] == list(range(count))
    sizes = [len(range(count)[rows]) for rows in blocks]
    # at least one row each, and more than one only within the budget
    assert all(size >= 1 for size in sizes)
    assert all(size * row_bytes <= _CHUNK_BYTES for size in sizes if size > 1)
    if row_bytes > _CHUNK_BYTES:
        assert sizes == [1] * count


def test_berezin_of_identity_is_one():
    pts = np.array([0.0, 1.0, 1.5j, 2.0 - 1.0j])[:, None]
    vals = berezin_values(identity_operator(P), pts)
    assert np.max(np.abs(vals - 1.0)) < 1e-14


def test_berezin_of_coherent_projection():
    p = FockParams(1, 1.0, 24, 28)
    z0 = 0.5 - 0.5j
    k = kernel_coefficients(p, z0)
    A = rank_one(k, k)
    pts = np.array([0.0, 0.4 + 0.1j, 1.0])[:, None]
    want = np.exp(-np.abs(pts[:, 0] - z0) ** 2 / p.t)
    assert np.max(np.abs(berezin_values(A, pts) - want)) < 1e-10


def test_berezin_of_pc():
    pts = np.array([0.0, 0.7, 1.2j])[:, None]
    want = np.exp(-np.abs(pts[:, 0]) ** 2 / P.t)
    assert np.max(np.abs(berezin_values(pc_operator(P), pts) - want)) < 1e-12


def _off_diagonal(A, a, b, value):
    """A plus value at [a, b], a != b: no longer diagonal, so the Berezin evaluators contract densely."""
    M = A.matrix.copy()
    M[a, b] += value
    return FockOperator(A.params, M)


@pytest.mark.parametrize("off_diagonal", [False, True], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("r", [30.0, 40.0])
def test_berezin_values_far_from_the_origin(r, off_diagonal):
    # the Gaussian factor of k_z, e^{-r^2 / 2t}, underflows the norms there
    # and cancels in the ratio; the oracle sums the unscaled basis in mpmath.
    # The value tends to the top diagonal entry (2/3)^25 = 4.0e-5; the
    # entry 1e-5 at [24, 23] moves it by about 1e-5 sqrt(24) / |z|
    import mpmath as mp

    p = FockParams(1, 1.0, 24, 26)
    A = toeplitz(p, Gaussian(width=2.0))
    if off_diagonal:
        A = _off_diagonal(A, 24, 23, 1e-5)
    pts = r * np.exp(1j * np.array([0.0, 0.7, 2.0]))[:, None]
    got = berezin_values(A, pts)
    with mp.workdps(30):
        for z, value in zip(pts[:, 0], got):
            e = [mp.mpc(z) ** a / mp.sqrt(mp.factorial(a)) for a in range(p.dim)]
            num = mp.fsum(
                e[a] * mp.mpc(A.matrix[a, b]) * mp.conj(e[b])
                for a in range(p.dim)
                for b in range(p.dim)
            )
            want = complex(num / mp.fsum(abs(x) ** 2 for x in e))
            # measured <= 3.4e-16
            assert abs(value - want) <= 1e-14 * abs(want)


def _translate_sum_at_shifted_points(A, pts):
    # g = A~(. - z0) with one node z0, so g(x + z0) = A~(x)
    z0 = 0.5 - 0.2j
    return BerezinTranslateSum(A, np.full((1, A.params.n), z0), [1.0]).eval(pts + z0)


def _gaussian_berezin_by_mpmath(p, r):
    """T of e^{-|z|^2/2}, diagonal (2/3)^(|alpha|+n) at t = 1, Berezin-transformed at |z| = r.

    The squares |e_alpha(z)|^2 of one total degree k add up to x^k / k!,
    x = r^2 / t, so the value is an average over k; taken in mpmath.
    """
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(r) ** 2 / p.t
        terms = [x**k / mp.factorial(k) for k in range(p.D + 1)]
        q = mp.mpf(2) / 3
        return float(mp.fsum(q ** (k + p.n) * e for k, e in enumerate(terms)) / mp.fsum(terms))


# An entry A[1, 0] = 1 off the diagonal sends an operand to the dense
# contraction.  It adds conj(e_1(z)) e_0(z) / |E(z)|^2 <= |z| / e_60(|z|)^2,
# below 1e-100 relative far out, so the diagonal operand's oracle holds.
_OFF_DIAGONAL = pytest.mark.parametrize(
    "off_diagonal", [False, True], ids=["diagonal", "off-diagonal"]
)


@_OFF_DIAGONAL
@pytest.mark.parametrize("evaluate", [berezin_values, _translate_sum_at_shifted_points])
@pytest.mark.parametrize("r", [1500.0, 2000.0])
def test_berezin_values_do_not_overflow_far_out(r, evaluate, off_diagonal):
    # at D = 60 the unscaled basis reaches r^60 / sqrt(60!), whose square
    # passes 2^512 at both radii and overflows at r = 2000, so the columns
    # are scaled.  T of e^{-|z|^2/2} is diagonal with entries (2/3)^(k+1),
    # so the value is their average against x^k / k!, x = r^2 / t, which
    # tends to (2/3)^61 = 1.8e-11
    p = FockParams(1, 1.0, 60, 62)
    A = toeplitz(p, Gaussian(width=2.0))
    if off_diagonal:
        A = _off_diagonal(A, 1, 0, 1.0)
    pts = r * np.exp(1j * np.array([0.0, 0.7, 2.0]))[:, None]
    got = evaluate(A, pts)
    want = _gaussian_berezin_by_mpmath(p, r)
    # measured <= 3.4e-15 on both paths
    assert np.max(np.abs(got - want)) <= 1e-13 * want


@pytest.mark.parametrize("evaluate", [berezin_values, _translate_sum_at_shifted_points])
@pytest.mark.parametrize(
    "p, inside, past, message",
    [
        (FockParams(1, 1.0, 60, 62), 6.60e5, 6.62e5, r"6\.62e\+05 is past 6\.611e\+05"),
        (FockParams(2, 1.0, 14, 16), 2.56e22, 2.57e22, r"2\.57e\+22 is past 2\.564e\+22"),
    ],
    ids=["n1-D60", "n2-D14"],
)
@_OFF_DIAGONAL
def test_berezin_values_past_the_power_limit_raise(
    evaluate, p, inside, past, message, off_diagonal
):
    # the normalised basis value e_D(|z|) passes the float maximum at
    # |z| = (float_max sqrt(D!))^(1/D) sqrt(t): 6.611e5 at D = 60 and
    # 2.564e22 at D = 14.  By the multinomial theorem no e_alpha(z) is
    # larger, so up to there every value is finite and right (measured
    # 3.4e-15 and 7.1e-16 relative; the raw powers z^60 capped n = 1 at
    # 1.37e5), and past it the Euclidean |z| raises instead.  At n = 2 the point
    # (r, r) / sqrt(2) keeps each coordinate below the limit, so a check on
    # the largest coordinate would not raise
    A = toeplitz(p, Gaussian(width=2.0, n=p.n))
    if off_diagonal:
        A = _off_diagonal(A, 1, 0, 1.0)
    direction = np.full((1, p.n), 1.0 / np.sqrt(p.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(A, inside * direction)
        want = _gaussian_berezin_by_mpmath(p, inside)
        assert np.all(np.abs(got - want) <= 1e-13 * want), (got, want)
        with pytest.raises(ValueError, match=r"\|z\| = " + message):
            evaluate(A, past * direction)


@pytest.mark.parametrize(
    "p, edge",
    [(FockParams(1, 1.0, 60, 62), 92.690966774042), (FockParams(2, 1.0, 14, 16), 785737.28495419)],
    ids=["n1-D60", "n2-D14"],
)
def test_degree_weights_leave_the_table_at_two_to_the_512(monkeypatch, p, edge):
    # the table's column sum sum_{k <= D} x^k / k!, x = |w|^2 / t, is 2^512
    # at |w| = edge (by the multinomial theorem at n = 2).  A pair 1e-8
    # inside keeps its real weights; one 1e-8 outside takes the complex
    # columns, bit for bit as berezin_values scales them.  All values
    # agree with 40-digit mpmath (measured 3.4e-15 at n = 1, 1.0e-15 at n = 2)
    direction = np.exp(1j * np.array([0.3, 2.0]))[:, None] * np.full(p.n, 1.0 / np.sqrt(p.n))
    inside, outside = edge * (1 - 1e-8), edge * (1 + 1e-8)
    pts = np.concatenate([inside * direction, outside * direction])
    seen, basis = [], operators.basis_matrix

    def recording(params, points):
        seen.append(points)
        return basis(params, points)

    monkeypatch.setattr(operators, "basis_matrix", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S, norms = operators._degree_weights(p, pts)
        assert len(seen) == 1 and np.array_equal(seen[0], pts[2:])
        E = basis(p, pts[2:])
        scaled = operators._squared_norms(E)  # scales E in place first
        assert np.array_equal(S[:, 2:] / norms[2:], operators._squared_moduli(E) / scaled)
        assert np.all(norms[:2] <= 2.0**512)
        A = toeplitz(p, Gaussian(width=2.0, n=p.n))
        got = BerezinTranslateSum(A, np.zeros((1, p.n)), [1.0]).eval(pts)
    for values, r in [(got[:2], inside), (got[2:], outside)]:
        want = _gaussian_berezin_by_mpmath(p, r)
        assert np.all(np.abs(values - want) <= 1e-14 * want), (r, values, want)


@_OFF_DIAGONAL
def test_berezin_values_of_a_large_operator_stay_finite_far_out(off_diagonal):
    # <E, A E> overflowed before |E|^2 did when ||A|| > 1: A = 10 I read
    # inf + nan j from |z| = 1759 on, until columns were scaled from 2^512;
    # measured 3.6e-16 relative
    p = FockParams(1, 1.0, 60, 62)
    A = FockOperator(p, 10.0 * np.eye(p.dim))
    if off_diagonal:
        A = _off_diagonal(A, 1, 0, 1.0)
    pts = np.array([1760.0, 5e4 * np.exp(0.3j), 6.6e5 * np.exp(2.0j)])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = berezin_values(A, pts)
    assert np.max(np.abs(got - 10.0)) <= 1e-14 * 10.0, got


def _random_matrix_operator(params, seed):
    rng = np.random.default_rng(seed)
    d = params.dim
    return FockOperator(params, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


@pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("per_block", [1, 7])
@pytest.mark.parametrize("params", [FockParams(1, 0.8, 10, 12), FockParams(2, 1.3, 4, 6)])
def test_berezin_blocks_match_per_point_values(monkeypatch, params, per_block, diagonal):
    # 50 points in blocks of one or seven (one or four for a diagonal A,
    # whose rows also hold |E|^2); measured within 6.5e-16 of max |value|
    monkeypatch.setattr(operators, "_CHUNK_BYTES", 16 * params.dim * per_block)
    A = _random_matrix_operator(params, 5)
    if diagonal:
        A = FockOperator(params, np.diag(np.diagonal(A.matrix)))
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((50, params.n)) + 1j * rng.standard_normal((50, params.n))
    want = []
    for z in pts:
        # the Gaussian factor of k_z cancels in <A k_z, k_z> / <k_z, k_z>
        k = np.conj(basis_matrix(params, z[None, :])[:, 0])
        want.append(np.vdot(k, A.matrix @ k) / np.vdot(k, k))
    want = np.array(want)
    got = berezin_values(A, pts)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@_OFF_DIAGONAL
def test_berezin_values_memory_is_one_block(off_diagonal):
    # 4000 points at D = 40: the whole-array evaluation peaked at 10.5 MB of
    # traced memory, blocks of 1598 points (one _CHUNK_BYTES each) at 3.4 MB;
    # blocks of 1065 points with their |E|^2 (diagonal A) at 1.7 MB
    p = FockParams(1, 1.0, 40, 42)
    A = toeplitz(p, Gaussian(width=4.0))
    if off_diagonal:
        A = _off_diagonal(A, 1, 0, 1.0)
    rng = np.random.default_rng(8)
    pts = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))[:, None]
    tracemalloc.start()
    try:
        berezin_values(A, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * _CHUNK_BYTES, peak


@pytest.mark.parametrize("evaluate", [berezin_values, _translate_sum_at_shifted_points])
@pytest.mark.parametrize(
    "p",
    [FockParams(1, 1.0, 24, 26), FockParams(1, 1.0, 40, 42), FockParams(1, 1.0, 60, 62),
     FockParams(2, 1.0, 14, 16)],
    ids=["n1-D24", "n1-D40", "n1-D60", "n2-D14"],
)
def test_diagonal_berezin_values_match_mpmath(p, evaluate):
    # T of e^{-|z|^2/2} is diagonal, so both evaluators take the mean of its
    # diagonal against |e_alpha(z)|^2 (the translate sum from its real
    # weights); from the origin to far past the trusted window, measured
    # <= 3.7e-15 relative (D = 60)
    A = toeplitz(p, Gaussian(width=2.0, n=p.n))
    direction = np.full(p.n, 1.0 / np.sqrt(p.n))
    turns = np.exp(1j * np.array([0.0, 0.7, 2.0, 4.0]))[:, None]
    for r in [0.0, 0.3, 1.0, 3.0, 7.0, 15.0, 40.0, 300.0]:
        got = evaluate(A, r * turns * direction)
        want = _gaussian_berezin_by_mpmath(p, r)
        assert np.max(np.abs(got - want)) <= 1e-14 * want, (r, got, want)


def test_non_diagonal_operands_keep_the_dense_contraction():
    # only an operand with no nonzero entry off its diagonal takes the
    # squared moduli: a random A gets the dense contraction of both
    # evaluators, bit for bit (one block of points; one point and nodes
    # without the fold's symmetry, so that H_x pairs with A itself)
    p = FockParams(1, 1.0, 24, 26)
    A = _random_matrix_operator(p, 21)
    rng = np.random.default_rng(22)
    pts = (rng.standard_normal(30) + 1j * rng.standard_normal(30))[:, None]
    E = basis_matrix(p, pts)
    norms = operators._squared_norms(E)
    assert np.array_equal(
        berezin_values(A, pts), np.sum(E * (A.matrix @ np.conj(E)), axis=0) / norms
    )
    nodes, c = np.array([[0.3], [-0.1 + 0.4j], [0.2j]]), np.array([0.5, 0.3, 0.2])
    x = np.array([[0.7 - 0.2j]])
    E = basis_matrix(p, x - nodes)
    H = (E * (c / operators._squared_norms(E))) @ np.conj(E).T
    want = (H.reshape(1, 1, -1) @ A.matrix.reshape(-1, 1))[:, 0, 0]
    assert np.array_equal(BerezinTranslateSum(A, nodes, c).eval(x), want)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_berezin_evaluators_reject_non_finite_points(value):
    # a NaN point read NaN from berezin_values (with a warning), from the
    # translate sum and from an operator convolution (silently); an inf
    # point raised a ValueError about overflow
    p = FockParams(1, 1.0, 4, 6)
    A = weyl(p, 0.3)
    pts = np.array([[value], [0.2]])
    evaluators = [
        lambda x: berezin_values(A, x),
        BerezinTranslateSum(A, [[0.0]], [1.0]).eval,
        conv_op_op(A, A),
        lambda x: basis_matrix(p, x),
    ]
    for evaluate in evaluators:
        with pytest.raises(ValueError, match="infs or NaNs"):
            evaluate(pts)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 1.0)])
def test_weyl_and_heat_evaluators_reject_non_finite_points(value):
    # weyl read 625 non-finite entries of 625 at an inf point (577 at a
    # NaN), with a RuntimeWarning, and alpha_op passed them on; the heat
    # transform of a Gaussian read 0 at inf and NaN at nan + 1j
    p = FockParams(1, 1.0, 24, 26)
    A = weyl(p, 0.3)
    pts = np.array([[value], [0.2]])
    evaluators = [
        lambda x: weyl(p, x[0]),
        lambda x: weyl_matrices(p, x),
        lambda x: alpha_op(A, x[0]),
        lambda x: heat_values(Gaussian(), 1.0, x),
        lambda x: heat_values(Constant(1.0), 1.0, x),
    ]
    for evaluate in evaluators:
        with pytest.raises(ValueError, match="infs or NaNs"):
            evaluate(pts)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_berezin_evaluators_reject_a_non_finite_operator(value):
    # an inf entry reached BLAS ("invalid value encountered in matmul"),
    # as convolutions never let it; the structure check comes after, since
    # inf - inf is NaN
    p = FockParams(1, 1.0, 4, 6)
    for a, b in [(0, 0), (1, 0)]:
        M = np.eye(p.dim, dtype=complex)
        M[a, b] = value
        A = FockOperator(p, M)
        with pytest.raises(ValueError, match="infs or NaNs"):
            berezin_values(A, np.array([[0.2]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            BerezinTranslateSum(A, [[0.0]], [1.0])


@pytest.mark.parametrize(
    "params, m", [(FockParams(1, 1.0, 24, 26), 41), (FockParams(2, 1.0, 4, 6), 21)]
)
def test_berezin_grid_matches_the_whole_grid_evaluation(params, m):
    # the grid is sampled one slice of Re z_0 at a time; the whole grid in
    # one call gives the same values up to the rounding of other blocks
    A = weyl(params, np.full(params.n, 0.3 - 0.2j))
    grid = berezin(A, m=m)
    ax = np.linspace(-params.trusted_radius, params.trusted_radius, m)
    mesh = np.meshgrid(*[ax] * (2 * params.n), indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=-1)
    whole = berezin_values(A, coords[:, 0::2] + 1j * coords[:, 1::2]).reshape(grid.values.shape)
    assert np.max(np.abs(grid.values - whole)) <= 1e-15 * np.max(np.abs(whole))


def test_berezin_grid_memory_is_one_slice():
    # n = 2, D = 4, m = 21: 194,481 points, 3.0 MiB of values.  Forming
    # every point at once peaked at 24.5 MiB of traced memory, one slice
    # of Re z_0 at a time at 7.7 MiB
    p = FockParams(2, 1.0, 4, 6)
    A = weyl(p, [0.3, -0.2j])
    berezin(A, m=3)  # warm the model's caches
    tracemalloc.start()
    try:
        grid = berezin(A, m=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * grid.values.nbytes, peak


@pytest.mark.parametrize("evaluate", [basis_matrix, berezin_values], ids=["basis", "berezin"])
@pytest.mark.parametrize(
    "params, shape",
    [
        (FockParams(1, 1.0, 6, 8), (3,)),  # a flat array of three points
        (FockParams(1, 1.0, 6, 8), ()),
        (FockParams(1, 1.0, 6, 8), (4, 2)),
        (FockParams(2, 1.0, 4, 6), (4, 3)),  # one column too many
        (FockParams(2, 1.0, 4, 6), (4, 1)),  # one column too few
        (FockParams(2, 1.0, 4, 6), (2, 2, 2)),
    ],
)
def test_points_of_the_wrong_shape_are_rejected(evaluate, params, shape):
    pts = np.full(shape, 0.1 + 0.2j)
    first = identity_operator(params) if evaluate is berezin_values else params
    with pytest.raises(ValueError, match=re.escape(f"(P, {params.n}), got {shape}")):
        evaluate(first, pts)


@pytest.mark.parametrize("params", [FockParams(1, 1.0, 6, 8), FockParams(2, 1.0, 4, 6)])
def test_one_point_of_shape_n_is_one_row(params):
    z = np.array([0.3 - 0.1j, 0.2j][: params.n])
    A = _random_matrix_operator(params, 2)
    assert np.array_equal(basis_matrix(params, z), basis_matrix(params, z[None, :]))
    assert np.array_equal(berezin_values(A, z), berezin_values(A, z[None, :]))


def test_berezin_contraction_bound():
    rng = np.random.default_rng(3)
    A = toeplitz(P, Gaussian(center=0.2, width=1.0))
    sym = berezin(A)
    peak = np.max(np.abs(sym.values))
    assert peak <= operator_norm_2(A) + 1e-8
    del rng


def test_berezin_injectivity_proxy():
    # a nonzero finite-rank operator has a nonvanishing Berezin transform
    rng = np.random.default_rng(9)
    from fockqha.model import FockVector

    c = rng.standard_normal(P.dim) * np.exp(-0.4 * np.arange(P.dim))
    v = FockVector(P, c.astype(complex))
    A = rank_one(v, v)
    sym = berezin(A)
    assert np.max(np.abs(sym.values)) > 0.0


def test_heat_transform_of_one():
    vals = heat_values(Constant(1.0), 1.0, np.array([0.0, 1.0 + 1.0j])[:, None])
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_heat_transform_gaussian_closed_form():
    # a one-part sum keeps the Gaussian on the quadrature path
    s, t = 0.8, 0.6
    f = SymbolSum([heat_gaussian(s)])
    pts = np.array([0.0, 0.5, -1.0j])[:, None]
    got = heat_values(f, t, pts)
    want = (np.pi * (s + t)) ** (-1) * np.exp(-np.abs(pts[:, 0]) ** 2 / (s + t))
    assert np.max(np.abs(got - want)) < 1e-12


def test_heat_transform_gaussian_closed_form_n2():
    # the dimension of the integral comes from the points
    s, t = 0.8, 0.6
    pts = np.array([[0.3, 0.2j], [0.0, 0.0], [-0.5 + 0.1j, 0.4]])
    got = heat_values(SymbolSum([heat_gaussian(s, n=2)]), t, pts, Q=28)
    want = (np.pi * (s + t)) ** (-2) * np.exp(-np.sum(np.abs(pts) ** 2, axis=1) / (s + t))
    assert np.max(np.abs(got - want)) < 1e-14


def heat_of_gaussian_by_mpmath(f, t, z):
    """(pi t)^{-n} integral of f(w) exp(-|z - w|^2/t) dV(w) for a Gaussian f, by mpmath.quad.

    The integrand is a product over the 2n real axes, so it is a product of
    one-dimensional integrals, each summed by quadrature at 30 digits.
    """
    import mpmath as mp

    c = np.atleast_1d(np.asarray(f.center, dtype=complex))
    with mp.workdps(30):
        W, t = mp.mpf(f.width), mp.mpf(t)
        value = mp.mpc(f.amplitude)
        for ck, zk in zip(c, z):
            for a, x in ((ck.real, zk.real), (ck.imag, zk.imag)):
                a, x = mp.mpf(a), mp.mpf(x)
                peak = (a / W + x / t) / (1 / W + 1 / t)
                integral = mp.quad(
                    lambda u: mp.exp(-((u - a) ** 2) / W - (u - x) ** 2 / t),
                    [-mp.inf, peak, mp.inf],
                )
                value *= integral / mp.sqrt(mp.pi * t)
        return complex(value)


@pytest.mark.parametrize(
    "f, t",
    [
        (Gaussian(center=0.4 - 0.7j, width=1.3, amplitude=0.8 - 0.5j), 0.6),
        (Gaussian(center=[0.4 - 0.7j, -0.2 + 0.3j], width=0.9, amplitude=-0.3 + 1.1j, n=2), 1.7),
    ],
    ids=["n1", "n2"],
)
def test_heat_transform_of_a_gaussian_matches_mpmath(f, t):
    rng = np.random.default_rng(15)
    pts = rng.standard_normal((6, f.n)) + 1j * rng.standard_normal((6, f.n))
    got = heat_values(f, t, pts)
    assert got.dtype == complex
    want = np.array([heat_of_gaussian_by_mpmath(f, t, z) for z in pts])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "f", [Gaussian(width=1.0), Constant(1.0)], ids=["closed-form", "quadrature"]
)
def test_heat_values_rejects_a_weight_that_is_not_positive_and_finite(f, t):
    with pytest.raises(ValueError, match="positive and finite"):
        heat_values(f, t, np.zeros((2, 1)))


def test_heat_values_rejects_flat_points():
    with pytest.raises(ValueError, match="shape"):
        heat_values(Constant(1.0), 1.0, np.array([0.0, 0.5, 1.0j]))


def test_heat_values_matches_per_point_sum():
    # more points than one block of shifted points holds
    t, Q = 0.7, 40
    grid = gaussian_grid(1, t, Q)
    assert _CHUNK_BYTES // (16 * grid.size) < 100
    f = Gaussian(center=0.2 - 0.3j, width=1.5) + Polynomial(terms=[((1,), (1,), 0.1)])
    rng = np.random.default_rng(4)
    pts = (rng.standard_normal(100) + 1j * rng.standard_normal(100))[:, None]
    want = [np.sum(grid.weights * f(grid.nodes + z[None, :])) for z in pts]
    got = heat_values(f, t, pts, Q=Q)
    assert np.max(np.abs(got - want)) < 1e-14


def test_heat_values_blocks_only_move_the_boundaries(monkeypatch):
    # one point per block against the default blocks; measured 8.4e-16 of max |value|
    f = Gaussian(center=0.2 - 0.3j, width=1.5) + Polynomial(terms=[((1,), (1,), 0.1)])
    rng = np.random.default_rng(9)
    pts = (rng.standard_normal(20) + 1j * rng.standard_normal(20))[:, None]
    want = heat_values(f, 0.7, pts)
    monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
    got = heat_values(f, 0.7, pts)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_heat_values_blocks_only_move_the_boundaries_in_two_variables(monkeypatch):
    # a non-Gaussian symbol takes the quadrature path; at Q = 6 a default
    # block holds 25 points' 1296 shifted copies, so 40 points make two
    # blocks, against one point per block; measured 8.8e-16 of max |value|
    Q, f = 6, _non_separable_symbols(2)[0]
    assert 1 < _CHUNK_BYTES // (16 * 2 * Q**4) < 40
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    want = heat_values(f, 0.7, pts, Q=Q)
    monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
    got = heat_values(f, 0.7, pts, Q=Q)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "f, shape",
    [(heat_gaussian(1.0, n=2), (2, 1)), (Gaussian(width=1.0), (3, 2))],
    ids=["n2-symbol", "n1-symbol"],
)
def test_heat_values_rejects_points_of_another_dimension(f, shape):
    # the closed form of a Gaussian checks the dimension as the quadrature does
    for g in (f, SymbolSum([f])):
        with pytest.raises(ValueError, match="complex coordinates"):
            heat_values(g, 1.0, np.zeros(shape))


def test_heat_transform_fixes_linear_functions():
    f = Polynomial(terms=[((1,), (0,), 1.0), ((0,), (1,), 1.0)])  # w + conj w
    pts = np.array([0.3, -0.7 + 0.2j])[:, None]
    got = heat_values(f, 1.0, pts)
    assert np.max(np.abs(got - f(pts))) < 1e-12


def test_heat_transform_semigroup():
    f = Gaussian(center=0.0, width=2.0)
    pts = np.array([0.0, 0.5])[:, None]
    once = heat_transform(f, 0.5, window=8.0, m=201)
    assert isinstance(once, GridSymbol)
    twice = heat_values(once, 0.5, pts)
    direct = heat_values(f, 1.0, pts)
    # tolerance dominated by the linear grid interpolation of the symbol
    assert np.max(np.abs(twice - direct)) < 1e-3


def test_berezin_equals_heat_transform_of_symbol():
    f = Gaussian(center=0.3, width=2.0)
    A = toeplitz(P, f)
    pts = np.array([0.0, 0.4 - 0.2j, 0.8])[:, None]
    got = berezin_values(A, pts)
    want = heat_values(f, P.t, pts, Q=P.Q)
    assert np.max(np.abs(got - want)) < 1e-10


def test_berezin_symbol_wrapper():
    A = identity_operator(P)
    s = BerezinSymbol(A)
    assert np.max(np.abs(s(np.array([0.2, 1.0])) - 1.0)) < 1e-14
