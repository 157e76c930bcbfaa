"""Weyl operators, Toeplitz operators, Berezin and heat transforms.

Toeplitz matrices, Berezin and heat transforms are Gaussian quadratures
of their defining integrals on the model grid; a Toeplitz quadrature is
summed one complex plane at a time.  Weyl matrices are not quadratures.
Their integrand is entire but not polynomial, so Gauss-Hermite order
Q = D + 2 misses them by 9e-7 to 3e-5 per entry at D = 16-24, |z| <= 2,
and each matrix cost a dim x Q^{2n} basis evaluation at shifted nodes.
They come instead from the closed Laguerre form of the matrix elements
(Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), evaluated by a
rescaled three-term recurrence in degree for many points at once.  It
agrees with a 30-digit mpmath evaluation to 3e-14 for D <= 60 and
|z| <= 14, and to 1e-13 (each entry to 1e-12 relative) at |z| = 13 and 17
for D = 24 and 40, which covers the exact convolution rules: their nodes
reach |z| = 12.8 at D = 24 and 16.9 at D = 40.  The alternating binomial
series for the same elements is unstable (error 9e-3 at D = 40, |z| = 4,
and 17 at |z| = 6) and is not used.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    FockOperator,
    FockParams,
    _grid_basis,
    basis_matrix,
    multi_indices,
)
from .quadrature import gaussian_grid
from .symbols import GridSymbol, Symbol

# Byte budget of one block of dim x dim complex matrices in the batched
# conjugations, of one block of shifted points in the shifted sums, and of
# one block of weighted rows in the last plane of a Toeplitz quadrature.
# A block and its few temporaries set the peak memory of a convolution;
# 1 MiB (about 100 matrices at D = 24) measured both lower peak memory and
# shorter runs than 4 MiB, and the products stay large enough for BLAS.
_CHUNK_BYTES = 2**20


def _axis_blocks(z: np.ndarray, t: float, D: int, i: np.ndarray) -> np.ndarray:
    """One-variable Weyl elements <W_z e_{i[s]}, e_{i[r]}> at [p, r, s], for z of shape (P,).

    With alpha = conj(z)/sqrt(t), x = |alpha|^2, lo = min(a, b) and
    k = |a - b| the element <W_z e_b, e_a> is g(lo, k) (alpha/|alpha|)^k
    for a >= b and g(lo, k) (-conj(alpha)/|alpha|)^k for a < b, where
    g(lo, k) = sqrt(lo!/(lo+k)!) e^{-x/2} x^{k/2} L_lo^k(x).  The Laguerre
    recurrence in lo, rescaled to g, keeps every value at most 1 in
    modulus; it runs for all P points and all k <= D at once.  Its
    starting values g(0, k) underflow once x exceeds about 1400, far
    beyond the grids used at any D below a few hundred.
    """
    alpha = np.conj(z) / math.sqrt(t)
    r = np.abs(alpha)
    x = (r**2)[:, None]
    k = np.arange(D + 1)
    # g(0, k) = e^{-x/2} x^{k/2} / sqrt(k!), with x^0 = 1 at x = 0
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
    # phase of <W_z e_b, e_a> at column a - b + D: u^(a-b) with u = alpha/|alpha|
    # on and below the diagonal, (-conj u)^(b-a) above it; u is any unit at
    # alpha = 0, where g(lo, k > 0) = 0
    u = np.where(r > 0, alpha / np.where(r > 0, r, 1.0), 1.0)
    phase = np.ones((z.shape[0], 2 * D + 1), dtype=complex)
    phase[:, D + 1 :] = np.cumprod(np.repeat(u[:, None], D, axis=1), axis=1)
    phase[:, :D] = (np.conj(phase[:, D + 1 :]) * (-1.0) ** k[1:])[:, ::-1]
    a, b = i[:, None], i[None, :]
    out = phase[:, a - b + D]
    out *= G[:, np.minimum(a, b), np.abs(a - b)]
    return out


def weyl_matrices(params: FockParams, zs) -> np.ndarray:
    """Matrices of the Weyl operators W_z for many points: shape (P, dim, dim).

    zs has shape (P, n).  Each entry is the exact matrix element
    <W_z e_b, e_a>; the compression of W_z to the degree box is the tensor
    product of one-variable blocks, so for n >= 2 an element is the
    product over axes of the one-variable elements at the indices'
    components.
    """
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim != 2 or zs.shape[1] != params.n:
        raise ValueError(f"points must have shape (P, {params.n}), got {zs.shape}")
    idx = np.array(multi_indices(params))
    W = _axis_blocks(zs[:, 0], params.t, params.D, idx[:, 0])
    for ax in range(1, params.n):
        W *= _axis_blocks(zs[:, ax], params.t, params.D, idx[:, ax])
    return W


def weyl(params: FockParams, z) -> FockOperator:
    """Matrix of the Weyl operator W_z f(w) = k_z(w) f(w - z).

    W_0 is the identity and W_{-z} = W_z^*; on the trusted sub-block
    (degrees <= D/2) the matrix is an isometry up to truncation.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return FockOperator(params, weyl_matrices(params, z[None, :])[0])


def _conjugations(params: FockParams, zs: np.ndarray, A: np.ndarray):
    """The conjugations W_i A W_i^* over the points zs, a block of points at a time.

    Yields (rows, W, WA): the slice of zs in the block, the Weyl matrices
    W_i and the products W_i A, so that W_i A W_i^* = WA[i] @ W[i]^*.
    The block size follows from _CHUNK_BYTES.
    """
    d = params.dim
    step = max(1, _CHUNK_BYTES // (16 * d * d))
    for start in range(0, zs.shape[0], step):
        rows = slice(start, min(start + step, zs.shape[0]))
        W = weyl_matrices(params, zs[rows])
        WA = (W.reshape(-1, d) @ A).reshape(W.shape)
        yield rows, W, WA


def _shifted_sums(f, points: np.ndarray, shifts: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The sums over j of coeffs[j] f(points[i] + shifts[j]), for every point i.

    f is evaluated once per block of points, on all of the block's
    shifted copies at once; the block size follows from _CHUNK_BYTES,
    counted on the array of shifted points.
    """
    S, n = shifts.shape
    step = max(1, _CHUNK_BYTES // (16 * n * S))
    out = np.empty(points.shape[0], dtype=complex)
    for start in range(0, points.shape[0], step):
        block = points[start : start + step]
        vals = np.asarray(f((block[:, None, :] + shifts[None, :, :]).reshape(-1, n)))
        out[start : start + step] = vals.reshape(block.shape[0], S) @ coeffs
    return out


def alpha_op(A: FockOperator, z) -> FockOperator:
    """Conjugation by Weyl operators: alpha_z(A) = W_z A W_{-z} = W_z A W_z^*."""
    W = weyl(A.params, z).matrix
    return FockOperator(A.params, W @ A.matrix @ W.conj().T)


def toeplitz(params: FockParams, f) -> FockOperator:
    """Toeplitz matrix M[a, b] = integral of f e_b conj(e_a) dmu_t.

    f may be a Symbol or any vectorized callable on (P, n) points.
    Real-valued f gives a Hermitian matrix to roundoff; f == c gives
    c * identity.

    The Gaussian-grid sum is contracted one plane at a time (sum
    factorisation; Orszag, J. Comput. Phys. 37 (1980)), so no
    dim x Q^{2n} basis matrix is formed.  With f on the grid reshaped to
    F[i_1, ..., i_n] and the plane factor (e, b) of _grid_basis,
    M[alpha, beta] = sum over i of F[i] prod_k b[alpha_k, i_k] e[beta_k, i_k].
    Planes 1 to n - 1 are each one product against the (Q^2, (D+1)^2)
    factor K[i, (a, b)] = b[a, i] e[b, i]; plane n is (b * G) @ e.T for
    every row G of what is left, a block of rows at a time; the
    alpha, beta entries are then gathered.  Plane n keeps the weighted
    form so that at n = 1 the result is the plain quadrature (b * f) @ e.T
    bit for bit; a product against K rounds differently.  At n = 2 and 3
    it agrees with the dense sum over the Q^{2n} nodes to 2e-15 relative.
    """
    e, b = _grid_basis(params)
    d, m = e.shape
    G = params.grid().evaluate(f)
    for _ in range(params.n - 1):
        # the leading plane is contracted, and its index pair goes last
        G = G.reshape(m, -1).T @ (b[:, None, :] * e[None, :, :]).reshape(d * d, m).T
    G = G.reshape(m, -1).T
    H = np.empty((G.shape[0], d, d), dtype=complex)
    step = max(1, _CHUNK_BYTES // (16 * d * m))
    for start in range(0, G.shape[0], step):
        rows = slice(start, start + step)
        H[rows] = ((b * G[rows, None, :]).reshape(-1, m) @ e.T).reshape(-1, d, d)
    # H[a_1, b_1, ..., a_n, b_n]; M[j, k] picks a = alpha_j and b = beta_k per plane
    idx = np.array(multi_indices(params))
    H = H.reshape((d, d) * params.n)
    return FockOperator(
        params, H[tuple(ix for k in range(params.n) for ix in (idx[:, k, None], idx[None, :, k]))]
    )


def berezin_values(A: FockOperator, points: np.ndarray) -> np.ndarray:
    """Berezin transform values A~(z) = <A k_z, k_z> at the given points.

    The truncated coherent states are renormalized to unit norm, so the
    contraction |A~| <= ||A||_op holds at every point and the transform
    of the identity is exactly 1 everywhere; inside the trusted window
    this agrees with the raw coefficient contraction up to the (tiny)
    truncation defect.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    params = A.params
    # kernel coefficient columns for all points at once
    E = basis_matrix(params, points)
    weights = np.exp(-np.sum(np.abs(points) ** 2, axis=1) / (2.0 * params.t))
    C = np.conj(E) * weights  # C[:, i] = coefficients of k_{z_i}
    raw = np.sum(np.conj(C) * (A.matrix @ C), axis=0)
    norms = np.sum(np.abs(C) ** 2, axis=0)
    return raw / norms


class BerezinSymbol(Symbol):
    """Exact Berezin transform of an operator as an evaluable symbol."""

    def __init__(self, A: FockOperator):
        self.A = A
        self.n = A.params.n

    def eval(self, points):
        return berezin_values(self.A, points)


def berezin(A: FockOperator, window: float | None = None, m: int = 61) -> GridSymbol:
    """Berezin transform sampled on a grid over the (default: trusted) window.

    Values outside the trusted window are computed but carry growing
    truncation bias; keep |z| below params.trusted_radius for trusted use.
    """
    if window is None:
        window = A.params.trusted_radius
    return GridSymbol.sample(BerezinSymbol(A), window, m, n=A.params.n)


def heat_values(f, t: float, points: np.ndarray, Q: int = 40) -> np.ndarray:
    """Heat transform values (pi t)^{-n} integral f(w) exp(-|z-w|^2/t) dV(w).

    points has shape (P, n), and n is read from it.  Substituting
    w = z + u turns the integral into an average of f(z + u) against
    mu_t(u), evaluated by Gauss-Hermite quadrature of order Q per real
    axis (Q^{2n} nodes).
    """
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2:
        # a flat array of P points would read as one point in C^P
        raise ValueError(f"points must have shape (P, n), got {points.shape}")
    grid = gaussian_grid(points.shape[1], t, Q)
    return _shifted_sums(f, points, grid.nodes, grid.weights)


def heat_transform(
    f: Symbol, t: float, window: float = 6.0, m: int = 61, Q: int = 40
) -> GridSymbol:
    """Heat transform of a symbol, sampled on an m-per-axis grid over the window.

    Satisfies berezin(toeplitz(f)) == heat_transform(f, t) within
    quadrature, interpolation and truncation tolerance.
    """
    return GridSymbol.sample(lambda pts: heat_values(f, t, pts, Q=Q), window, m, n=f.n)
