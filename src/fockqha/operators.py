"""Weyl operators, Toeplitz operators, Berezin and heat transforms.

Toeplitz matrices, Berezin and heat transforms are Gaussian quadratures
of their defining integrals on the model grid, and a Toeplitz quadrature
is summed one complex plane at a time.  The Toeplitz matrix and the heat
transform of a Gaussian are closed forms instead, exact to rounding:
the grid rule is not exact for a Gaussian (it misses the Toeplitz matrix
of e^{-|w - 0.3|^2/2} by 1.4e-10 of max |T| at D = 24, Q = 26).

Weyl matrices are not quadratures either.
Their integrand is entire but not polynomial, so Gauss-Hermite order
Q = D + 2 misses them by 9e-7 to 3e-5 per entry at D = 16-24, |z| <= 2,
and each matrix cost a dim x Q^{2n} basis evaluation at shifted nodes.
They come instead from the closed Laguerre form of the matrix elements
(Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), evaluated by a
rescaled three-term recurrence in degree for many points at once.  It
agrees with a 30-digit mpmath evaluation to 5e-14 for D <= 60 and
|z| <= 14 (worst at small |z| and high degree, where the recurrence
cancels: 4.4e-14 at D = 60, |z| = 0.05), and to 1e-13 (each entry to
1e-12 relative) at |z| = 13 and 17 for D = 24 and 40, which covers the
exact convolution rules: their nodes reach |z| = 9.2 at D = 24 and 12.1
at D = 40.  The alternating binomial series for the same elements is
unstable (error 9e-3 at D = 40, |z| = 4, and 17 at |z| = 6) and is not
used.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .model import (
    FockOperator,
    FockParams,
    _check_finite,
    _grid_basis,
    _pair_pick,
    _plane_products,
    _point_rows,
    basis_matrix,
    multi_indices,
)
from .quadrature import gaussian_grid
from .symbols import Gaussian, GridSymbol, Scale, Symbol, Translate

# Byte budget of one block of rows; _blocks is its one reader.  A row is
# one point's real Weyl matrix with its operand rows (inner loop) or its
# one-variable tables (outer loop) in the batched conjugations, one
# point's basis column in a Berezin transform, one point's Q^{2n}
# shifted copies in a heat transform, and in a translated Berezin sum
# one point's basis columns at all J translates and its d x d Gram
# matrix (outer loop) or one translate's basis column (inner loop).  For
# an operand with no nonzero entry off its diagonal, a berezin_values
# row holds each basis value's real squared modulus beside it (24 bytes
# a value), a translated-sum row only the real weights (8 bytes a value,
# 16 at n >= 2), and neither a Gram matrix.  A block and
# its few temporaries set the peak memory of a convolution; 1 MiB (about 100
# matrices at D = 24) measured both lower peak memory and shorter runs
# than 4 MiB, and the products stay large enough for BLAS.
_CHUNK_BYTES = 2**20


def _blocks(count: int, row_bytes: int) -> list:
    """The slices of range(count), in order, each within _CHUNK_BYTES and at least one row."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _polar(z: np.ndarray, t: float):
    """alpha = conj(z)/sqrt(t) as its modulus r and its unit u = alpha/|alpha| (1 at alpha = 0)."""
    alpha = np.conj(z) / math.sqrt(t)
    r = np.abs(alpha)
    return r, np.where(r > 0, alpha / np.where(r > 0, r, 1.0), 1.0)


def _unit_powers(u: np.ndarray, D: int) -> np.ndarray:
    """u^k at [..., k], k = 0..D, by running products."""
    powers = np.ones(u.shape + (D + 1,), dtype=complex)
    powers[..., 1:] = np.cumprod(np.repeat(u[..., None], D, axis=-1), axis=-1)
    return powers


def _real_blocks(r: np.ndarray, D: int) -> np.ndarray:
    """Real one-variable Weyl matrices at [p, a, b] for the moduli r = |alpha| of shape (P,).

    With x = r^2, lo = min(a, b) and k = |a - b|, the entry is
    g(lo, k) = sqrt(lo!/(lo+k)!) e^{-x/2} x^{k/2} L_lo^k(x) on and below
    the diagonal and (-1)^k g(lo, k) above it: the matrix of W_z at the
    real point z = r sqrt(t).  The Laguerre recurrence in lo, rescaled to
    g, keeps every value at most 1 in modulus.  It runs for all P points
    at once with the points last, so that step lo writes g(lo, .) straight
    into column lo below the diagonal and, signed, into row lo above it
    as whole runs of P values, for the k <= D - lo that the box holds,
    and returns the transposed view.  Its starting values g(0, k)
    underflow once x exceeds about 1400, far beyond the grids used at any
    D below a few hundred.  The recurrence runs in the precision of r and
    R is float64.  In float64 it loses up to 1.5e-14 at |z| = 0.3 and
    D = 40 (1.1e-13 at |z| = 0.05, D = 100), where its steps nearly
    repeat.  An r in numpy's longdouble, extended precision on x86-64,
    brings that to 2e-16 against 80-digit mpmath (1.8e-15 at |z| = 2,
    D = 141, from the float64 log-factorials); float64 input keeps its
    bits.
    """
    x = r**2
    k = np.arange(D + 1, dtype=r.dtype)[:, None]
    # g(0, k) = e^{-x/2} x^{k/2} / sqrt(k!), with x^0 = 1 at x = 0
    logx = np.log(np.where(x > 0, x, 1.0))
    lfact = np.array([math.lgamma(j + 1) for j in range(D + 1)])[:, None]
    g = np.exp(0.5 * k * logx - 0.5 * x - 0.5 * lfact)
    g = np.where((x > 0) | (k == 0), g, 0.0)
    sign = (-1.0) ** k
    # the recurrence's coefficients at [lo, k], lo < D, built once
    lo = np.arange(D, dtype=r.dtype)[:, None, None]
    diag, back, scale = 2 * lo + 1 + k, np.sqrt(lo * (lo + k)), np.sqrt((lo + 1) * (lo + 1 + k))
    R = np.empty((D + 1, D + 1, r.shape[0]))
    prev = g
    for j in range(D + 1):
        R[j:, j] = g
        R[j, j + 1 :] = g[1:] * sign[1 : D + 1 - j]
        if j < D:
            # g(j + 1, k) for k < D - j needs g(j, k) and g(j - 1, k) at the same k
            m = D - j
            prev, g = g, ((diag[j, :m] - x) * g[:m] - back[j, :m] * prev[:m]) / scale[j, :m]
    return R.transpose(2, 0, 1)


def _axis_blocks(z: np.ndarray, t: float, D: int) -> np.ndarray:
    """One-variable Weyl matrices <W_z e_b, e_a> at [p, a, b], for z of shape (P,).

    With alpha = conj(z)/sqrt(t) = r u, |u| = 1, the element is
    u^(a-b) R[a, b] for a >= b and conj(u)^(b-a) R[a, b] for a < b, with
    R = _real_blocks(r): the phase table at column a - b + D times the
    real matrix.  u is any unit at alpha = 0, where R is the identity.
    A clongdouble z runs the recurrence and the phase products in
    extended precision (_real_blocks).
    """
    r, u = _polar(z, t)
    powers = _unit_powers(u, D)
    phase = np.concatenate([np.conj(powers[:, :0:-1]), powers], axis=1)
    k = np.arange(D + 1)
    out = phase[:, k[:, None] - k + D]
    out *= _real_blocks(r, D)
    return out


def _box_product(params: FockParams, blocks) -> np.ndarray:
    """prod over axes k of blocks[k][p, alpha_k, beta_k] at [p, alpha, beta]: shape (P, dim, dim).

    blocks yields one (P, D + 1, D + 1) array per axis.  At n = 1 the
    graded order is 0..D and the block is the matrix.
    """
    if params.n == 1:
        return next(iter(blocks))
    pick = _pair_pick(params)
    blocks = (B[:, pick[2 * k], pick[2 * k + 1]] for k, B in enumerate(blocks))
    out = next(blocks)
    for B in blocks:
        out *= B
    return out


def weyl_matrices(params: FockParams, zs) -> np.ndarray:
    """Matrices of the Weyl operators W_z for many points: shape (P, dim, dim).

    zs has shape (P, n), or (n,) for one point; another shape, or an inf
    or NaN coordinate, raises ValueError (_point_rows).  Each entry is the
    exact matrix element <W_z e_b, e_a>; the compression of W_z to the
    degree box is the tensor product of one-variable blocks, so for
    n >= 2 an element is the product over axes of the one-variable
    elements at the indices' components.
    """
    zs = _point_rows(params, zs)
    return _box_product(params, (_axis_blocks(z, params.t, params.D) for z in zs.T))


def weyl(params: FockParams, z) -> FockOperator:
    """Matrix of the Weyl operator W_z f(w) = k_z(w) f(w - z).

    W_0 is the identity and W_{-z} = W_z^*; on the trusted sub-block
    (degrees <= D/2) the matrix is an isometry up to truncation.  An inf
    or NaN coordinate raises ValueError.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return FockOperator(params, weyl_matrices(params, z[None, :])[0])


def _factors(A: np.ndarray):
    """A = X Y^H from one SVD, with r columns each; (A, None) when r >= 2 dim / 3.

    r counts the singular values above s[0] dim eps, numpy's matrix_rank
    tolerance, so the dropped part E has ||E|| <= dim eps ||A||.  At
    r >= 2 dim / 3 the factored conjugation would cost more than the
    dense one, and A is kept whole.
    """
    d = A.shape[0]
    U, s, Vh = np.linalg.svd(A)
    r = int(np.count_nonzero(s > s[0] * d * np.finfo(float).eps))
    if 3 * r >= 2 * d:
        return A, None
    return U[:, :r] * s[:r], Vh[:r].conj().T


def _conjugations(params: FockParams, zs: np.ndarray, A: np.ndarray):
    """The conjugations W_i A W_i^* over the points zs, a block of points at a time.

    Yields (rows, WX, WY): the indices of zs in the block and two stacks
    with W_i A W_i^* = WX[i] @ WY[i]^H.  With A = X Y^H of rank r from
    _factors, WX = W X and WY = W Y are dim x r; at r >= 2 dim / 3,
    WX = W A and WY = W.  The dropped part E of A adds f * E to a
    convolution, with ||f * E|| <= ||f||_1 ||E|| (Young), and at most
    ||B||_1 ||E|| to a trace Tr(B W E W^*): both at the rounding of the
    dense sum.

    No complex Weyl matrix enters a product.  With alpha_k =
    conj(z_k)/sqrt(t) = r_k u_k, W_z = D_u R D_u^*, where D_u = diag(U),
    U[alpha] = prod_k u_k^alpha_k, and R[alpha, beta] =
    prod_k R_k[alpha_k, beta_k] is real, R_k the real Weyl matrix at the
    modulus r_k (_real_blocks).  So W M = U o (R @ (conj(U) o M)), with
    M = [X, Y] (or A): one real product against the interleaved real and
    imaginary parts of M, half the multiply-adds of the complex product.
    Only a full-rank A forms W = (U o R) o conj(U)^T, for WY.  R depends
    on the moduli alone, so the points are visited in order of their
    moduli, in runs of equal moduli (rows of them at n >= 2).  An outer
    block is a number of whole runs: it builds R_k once per distinct r_k
    among them and gathers it per point, so each distinct modulus is
    built once (the order-49 polar rule about a real centre has 625 for
    its 1250 nodes).  An outer block's row is a run's share of the R_k
    tables, at most one (D + 1)^2 table per axis; an inner block's row is
    a point's R, conj(U) o M and W M, and W at full rank.
    """
    d, D, n = params.dim, params.D, params.n
    X, Y = _factors(A)
    M = X if Y is None else np.concatenate([X, Y], axis=1)
    row_bytes = 8 * d * d + 32 * d * M.shape[1] + (16 * d * d if Y is None else 0)
    r, u = _polar(zs, params.t)
    order = np.lexsort(r.T[::-1])
    # the sorted points in runs of equal moduli, one run per distinct row
    _, starts = np.unique(r[order], axis=0, return_index=True)
    bounds = np.append(starts, zs.shape[0])
    idx = np.array(multi_indices(params))
    for runs in _blocks(starts.size, 8 * n * (D + 1) ** 2):
        outer = order[bounds[runs.start] : bounds[runs.stop]]
        tables = []
        for rk in r[outer].T:
            radii, inverse = np.unique(rk, return_inverse=True)
            tables.append((_real_blocks(radii, D), inverse))
        for inner in _blocks(outer.shape[0], row_bytes):
            rows = outer[inner]
            R = _box_product(params, (T[inverse[inner]] for T, inverse in tables))
            powers = _unit_powers(u[rows], D)
            U = powers[:, 0, idx[:, 0]]
            for k in range(1, n):
                U *= powers[:, k, idx[:, k]]
            V = np.conj(U)[:, :, None] * M
            WM = (R @ V.view(float)).view(complex)
            WM *= U[:, :, None]
            if Y is None:
                W = R * U[:, :, None]
                W *= np.conj(U)[:, None, :]
                yield rows, WM, W
            else:
                yield rows, WM[:, :, : X.shape[1]], WM[:, :, X.shape[1] :]


def alpha_op(A: FockOperator, z) -> FockOperator:
    """Conjugation by Weyl operators: alpha_z(A) = W_z A W_{-z} = W_z A W_z^*."""
    W = weyl(A.params, z).matrix
    return FockOperator(A.params, W @ A.matrix @ W.conj().T)


def _pascal(D: int) -> np.ndarray:
    """Pascal's triangle C(r, j), 0 <= r, j <= D, zero above the diagonal.

    Its sums of integers are exact in floats up to D = 57 and finite up to
    D = 1029.
    """
    binom = np.zeros((D + 1, D + 1))
    binom[:, 0] = 1.0
    for r in range(1, D + 1):
        binom[r, 1:] = binom[r - 1, 1:] + binom[r - 1, :-1]
    return binom


def _gaussian_plane(t: float, D: int, width: float, c: complex) -> np.ndarray:
    """One plane's Toeplitz matrix of e^{-|w - c|^2/width}: (D + 1) x (D + 1), exact.

    Completing the square, e^{-|w - c|^2/width} dmu_t(w) is
    rho e^{-|c|^2/(width + t)} times the Gaussian probability measure of
    variance rho t about t c/(width + t), with rho = width/(width + t).
    Its moments E[w^b conj(w)^a] = sum_j C(a, j) C(b, j) j! (rho t)^j
    (t c/(width + t))^(b-j) conj(t c/(width + t))^(a-j) give T = V V^H
    with, for j <= a,
    V[a, j] = S sqrt(a!)/(a - j)! conj(nu)^(a-j) sqrt(rho^j/j!)
            = V[a - j, 0] sqrt(C(a, j) rho^j),
    where nu = sqrt(t) c/(width + t) and S^2 = rho e^{-|c|^2/(width + t)}.
    Every term of a row-column product has the phase of conj(nu)^a nu^b,
    so nothing cancels.  Column 0, V[a, 0] = S conj(nu)^a/sqrt(a!), is a
    running product from S, and the prefactor S is folded in first, so
    every intermediate is an entry of V and nothing overflows:
    sum_j |V[a, j]|^2 = T[a, a] <= 1.
    """
    rho = width / (width + t)
    steps = np.empty(D + 1, dtype=complex)
    steps[0] = math.sqrt(rho) * math.exp(-0.5 * abs(c) ** 2 / (width + t))
    steps[1:] = math.sqrt(t) * np.conj(c) / (width + t) / np.sqrt(np.arange(1, D + 1))
    column = np.cumprod(steps)
    k = np.arange(D + 1)
    V = column[np.maximum(k[:, None] - k, 0)] * np.sqrt(_pascal(D) * rho**k)
    return V @ V.conj().T


def _gaussian_toeplitz(params: FockParams, f: Gaussian) -> np.ndarray:
    """The exact Toeplitz matrix of a Gaussian: the product of its plane matrices.

    The symbol and mu_t are products over the planes, and so is e_alpha,
    so M[alpha, beta] = amplitude prod_k T_k[alpha_k, beta_k], with T_k
    from the centre c_k that the Gaussian stores for plane k.  A Gaussian
    on another C^n raises ValueError.
    """
    if f.n != params.n:
        raise ValueError(f"a Gaussian on C^{f.n} has no Toeplitz matrix on C^{params.n}")
    planes = (_gaussian_plane(params.t, params.D, f.width, c)[None] for c in f.center)
    M = _box_product(params, planes)[0]
    M *= f.amplitude
    return M


def toeplitz(params: FockParams, f) -> FockOperator:
    """Toeplitz matrix M[a, b] = integral of f e_b conj(e_a) dmu_t.

    f may be a Symbol or any vectorized callable on (P, n) points.
    Real-valued f gives a Hermitian matrix to roundoff; f == c gives
    c * identity.

    A Gaussian takes its closed form (`_gaussian_toeplitz`) and builds no
    grid: it agrees with a 40-digit mpmath sum of its moment series to
    1e-14 of max |M| for D <= 40, |c_k| <= 5 and t from 0.05 to 1 (measured
    2.4e-15).  A Gaussian on another C^n raises ValueError.  Every other f
    takes quadrature on the model grid, which is exact for polynomial
    symbols only.

    The Gaussian-grid sum is contracted one plane at a time (sum
    factorisation; Orszag, J. Comput. Phys. 37 (1980)), so no
    dim x Q^{2n} basis matrix is formed.  With f on the grid reshaped to
    F[i_1, ..., i_n] and the plane factor (e, b) of _grid_basis,
    M[alpha, beta] = sum over i of F[i] prod_k b[alpha_k, i_k] e[beta_k, i_k].
    At n = 1 this is the dense sum (b * f) @ e.T.  At n >= 2 the
    (Q^2, (D+1)^2) factor K[i, (a, b)] = b[a, i] e[b, i] is formed once,
    every plane is one product against it, and the alpha, beta entries
    are then gathered.  K is not used at n = 1, where it would hold
    (D+1)^2 Q^2 entries for a (D+1)^2 result.  It agrees with the dense
    sum over the Q^{2n} nodes to 2e-15 relative at n = 2 and 3.
    """
    if isinstance(f, Gaussian):
        return FockOperator(params, _gaussian_toeplitz(params, f))
    e, b = _grid_basis(params)
    G = params.grid().evaluate(f)
    if params.n == 1:
        return FockOperator(params, (b * G) @ e.T)
    d, m = e.shape
    K = (b[:, None, :] * e[None, :, :]).reshape(d * d, m).T
    for _ in range(params.n):
        # the leading plane is contracted, and its index pair goes last
        G = G.reshape(m, -1).T @ K
    # G[a_1, b_1, ..., a_n, b_n] is the degree-pair box
    return FockOperator(params, G.reshape((d, d) * params.n)[_pair_pick(params)])


def _squared_norms(E: np.ndarray) -> np.ndarray:
    """Squared column norms of the complex (dim, P) array E: the one overflow rule.

    A column whose squared norm passes 2^512 (or overflows) is first
    divided, in place, by its largest modulus, which cancels in a
    renormalised Berezin value.  The threshold leaves room for the
    operator: <E, A E> stays finite whenever ||A|| dim < 2^512.
    """
    Er = E.view(float)
    with np.errstate(over="ignore"):
        norms = np.einsum("ap,ap->p", Er, Er).reshape(-1, 2).sum(axis=1)
    far = norms > 2.0**512
    if far.any():
        E[:, far] /= np.max(np.abs(E[:, far]), axis=0)
        norms[far] = np.sum(np.abs(E[:, far]) ** 2, axis=0)
    return norms


def _diagonal(M: np.ndarray):
    """The diagonal of the square matrix M if no entry off it is nonzero, else None."""
    diagonal = np.diagonal(M)
    return diagonal if np.count_nonzero(M) == np.count_nonzero(diagonal) else None


def _squared_moduli(E: np.ndarray) -> np.ndarray:
    """|E|^2 entry by entry, as a real array of the shape of the complex E."""
    S = np.square(E.real)
    S += np.square(E.imag)
    return S


def _degree_weights(params: FockParams, points: np.ndarray):
    """|E_alpha(w)|^2 = prod_a x_a^{alpha_a} / alpha_a!, x_a = |w_a|^2 / t, and its column sums.

    points: a finite complex (P, n) array.  Returns the real (dim, P)
    table and its column sums |E(w)|^2.  The table is _plane_products of
    the x_a with the steps 1 / (k t), the kernel of basis_matrix, with no
    squaring.  The sums are taken row by row, so a column's sum does
    not depend on P.  A column whose sum is not <= 2^512 (past it, or
    inf or NaN past the float range) is taken from basis_matrix,
    _squared_norms and _squared_moduli instead, as in berezin_values: so
    _squared_norms stays the one overflow rule, and basis_matrix raises
    past its range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.square(points.real) + np.square(points.imag)
        S = _plane_products(params, x, 1.0 / (np.arange(1, params.D + 1) * params.t))
        norms = S[0].copy()
        for row in S[1:]:
            norms += row
    far = ~(norms <= 2.0**512)
    if far.any():
        E = basis_matrix(params, points[far])
        norms[far] = _squared_norms(E)
        S[:, far] = _squared_moduli(E)
    return S, norms


def berezin_values(A: FockOperator, points: np.ndarray) -> np.ndarray:
    """Berezin transform values A~(z) = <A k_z, k_z> at the given points.

    points has shape (P, n); one point of shape (n,) is also accepted.
    The truncated coherent states are renormalized to unit norm, so the
    contraction |A~| <= ||A||_op holds at every point and the transform
    of the identity is 1 everywhere to rounding; inside the trusted window
    this agrees with the raw coefficient contraction up to the (tiny)
    truncation defect.  The Gaussian factor of k_z cancels and is left
    out, and _squared_norms scales a column whose squared norm passes
    2^512, so values stay finite while the basis values do; past that,
    at |z| = 6.611e5 for D = 60, t = 1, basis_matrix raises ValueError.

    With E the basis columns, the value is <E, A E> / |E|^2.  An A with
    no nonzero entry off its diagonal (T of a radial symbol, P_C, the
    identity) gives the mean diag(A) . |E|^2 / |E|^2 of its diagonal
    instead, from the squared moduli of the scaled columns: no dim x dim
    product.  Points go a block at a time within _CHUNK_BYTES, 16 dim
    bytes each, or 24 dim with the squared moduli (1598 or 1065 points at
    dim = 41), so memory is O(dim x block) whatever P is, and values round
    like one-point evaluations to 1e-15 of max |value|.  A non-finite
    point or entry of A raises ValueError.
    """
    params = A.params
    points = _point_rows(params, points)
    _check_finite(A.matrix)
    diagonal = _diagonal(A.matrix)
    out = np.empty(points.shape[0], dtype=complex)
    for rows in _blocks(points.shape[0], (16 if diagonal is None else 24) * params.dim):
        E = basis_matrix(params, points[rows])  # k_{z_i} without its Gaussian factor
        norms = _squared_norms(E)
        if diagonal is None:
            out[rows] = np.sum(E * (A.matrix @ np.conj(E)), axis=0) / norms
        else:
            S = _squared_moduli(E)
            out[rows] = (diagonal.real @ S + 1j * (diagonal.imag @ S)) / norms
    return out


def _weighted_degree_sums(params: FockParams, pairs: np.ndarray, c: np.ndarray, p: int):
    """sum_j c_j |E(w_ij)|^2 / |E(w_ij)|^2 at [i, alpha], for p points' point-major pairs w_ij.

    One product per point.  The table is freed on return, before the next
    block builds its own.
    """
    S, norms = _degree_weights(params, pairs)
    w = c / norms.reshape(p, -1)
    return (S.reshape(S.shape[0], p, -1).transpose(1, 0, 2) @ w[:, :, None])[:, :, 0]


class BerezinSymbol(Symbol):
    """Exact Berezin transform of an operator as an evaluable symbol."""

    def __init__(self, A: FockOperator):
        self.A = A
        self.n = A.params.n

    def eval(self, points):
        return berezin_values(self.A, points)


class BerezinTranslateSum(Symbol):
    """The symbol g(x) = sum_j c_j A~(x - z_j): weighted translates of a Berezin transform.

    The sums are taken translates first.  With E_a(w) = w^alpha /
    sqrt(alpha! t^{|alpha|}) the unscaled basis at w, the renormalised
    Berezin value is A~(w) = sum_{a,b} A[a, b] E_a(w) conj(E_b(w)) / |E(w)|^2
    (the Gaussian factor of k_w cancels).  So g(r) = <A, H_r>, the sum of
    the entrywise product, with the d x d matrix
    H_r = sum_j (c_j / |E(r - z_j)|^2) E(r - z_j) E(r - z_j)^H,
    one product over the J translates for each point r.  As in
    berezin_values, E(w) is basis_matrix at w, and _squared_norms scales
    E(w) where |E(w)|^2 passes 2^512.  If A has no nonzero entry off its
    diagonal, only the diagonal of H_r is needed:
    g(r) = sum_j c_j (diag(A) . |E(r - z_j)|^2) / |E(r - z_j)|^2, with no
    Gram product and no complex column: |E_alpha(w)|^2 is the real weight
    prod_a x_a^{alpha_a} / alpha_a!, x_a = |w_a|^2 / t, the Poisson law
    of the degree under a coherent state (_degree_weights).  A pair whose
    weights sum past 2^512 (about |w| = 93 at D = 60, t = 1) takes the
    squared moduli of its scaled column instead, bit for bit as before,
    so _squared_norms stays the one overflow rule and basis_matrix still
    raises past its range.

    E_a(i^m w) = i^{m|a|} E_a(w) and E_a(conj w) = conj(E_a(w)) exactly.
    When the nodes are distinct, closed under z -> i z and z -> conj z, and
    c is bit for bit equal on the images (as on every fit lattice; nodes,
    images and c are compared sorted by coordinates), the sum over j may
    be re-indexed by the image nodes, so
    g(i^m r) = <A o Phi_m, H_r> with Phi_m[a, b] = i^{m(|a| - |b|)}, and
    g(i^m conj r) = <(A o Phi_m)^T, H_r>: one H_r gives the eight values of
    the orbit of r (for a diagonal A all eight are g(r), since A o Phi_m
    and its transpose keep the diagonal).  Each point x is folded into
    the octant 0 <= Im <= Re of its first coordinate (x = i^m r or
    x = i^m conj r) by swapping and negating parts, which is exact, and H is built once
    per distinct r.  Otherwise every distinct point is its own r and only
    <A, H_r> is taken.  A point's value does not depend on the other
    points evaluated with it, at J = 1 too, where a lone point's pair is
    one basis column (_plane_products evaluates it as a batch).  The
    points are taken a block at a time, 16 d (J + d) bytes each within _CHUNK_BYTES (its J basis columns and
    its d x d H_r), or 8 d (J + 3) for a diagonal A (its J real weight
    columns, the diagonal of H_r and its product's output; 8 d (2 J + 3)
    at n >= 2, where gathering the plane rows makes a copy), and within a
    block the (point, translate) pairs a block of translates at a time;
    far pairs add their complex columns beside it.  With no nodes g = 0.
    Non-finite entries of A, nodes or coefficients, or unequal counts of
    nodes and coefficients, raise ValueError.

    Against the sum of its `parts`, the explicit expansion, it agrees to
    1.2e-12 / 8.4e-13 / 2.6e-13 of max |g| on the D = 24 grid at N = 8 for
    the three Theorem A targets (T of e^{-|z|^2/2}, W_0.5, P_C; one BLAS
    thread; the first and last are diagonal), and to 3.6e-14 for a random
    A.  For scale, eps sum_j |c_j| = 1.4e-11 there
    (eps = 2.2e-16): the translates cancel, and either order of the sums
    rounds on that scale.  For T of e^{-|z|^2/2} it agrees with 40-digit
    mpmath to 3.7e-15 relative from |z| = 0 to 300 (n = 1 at D = 24, 40,
    60; n = 2 at D = 14), on both sides of the 2^512 edge.
    """

    def __init__(self, A: FockOperator, nodes, coefficients):
        self.A = A
        self.n = A.params.n
        self.nodes = np.asarray(nodes, dtype=complex).reshape(-1, self.n)
        self.coefficients = np.asarray(coefficients)
        if self.coefficients.shape != (self.nodes.shape[0],):
            raise ValueError(
                f"{self.coefficients.size} coefficients for {self.nodes.shape[0]} nodes"
            )
        _check_finite(A.matrix)
        _check_finite(self.nodes)
        _check_finite(self.coefficients)

    @property
    def parts(self) -> list:
        """The explicit expansion [c_j * A~(. - z_j)] over the nodes."""
        base = BerezinSymbol(self.A)
        return [Scale(Translate(base, z), c) for z, c in zip(self.nodes, self.coefficients)]

    def _symmetric(self) -> bool:
        """Whether the nodes are distinct, closed under z -> i z and conj, and c equal on images."""
        c, z = self.coefficients, self.nodes

        def by_coordinates(w):
            # the sort compares values, so -0.0 and 0.0 are equal keys
            order = np.lexsort(np.concatenate([w.real, w.imag], axis=1).T)
            return w[order], c[order]

        zs, cs = by_coordinates(z)
        if np.any(np.all(zs[1:] == zs[:-1], axis=1)):
            return False
        images = (by_coordinates(1j * z), by_coordinates(np.conj(z)))
        return all(np.array_equal(v, zs) and np.array_equal(cv, cs) for v, cv in images)

    def eval(self, points):
        params = self.A.params
        points = _point_rows(params, points)
        A = self.A.matrix
        diagonal = _diagonal(A)
        symmetric = self._symmetric()
        if not symmetric:
            R, col = points, 0
        else:
            # m is the quadrant of the first coordinate: x = i^m y, y[0] in Re > 0, Im >= 0
            a, b = points[:, 0].real, points[:, 0].imag
            m = np.select([(a <= 0) & (b > 0), (a < 0) & (b <= 0), (a >= 0) & (b < 0)], [1, 2, 3])
            # a product with 1, -i, -1 or i swaps and negates parts, exactly
            R = points * np.array([1, -1j, -1, 1j])[m][:, None]
            # above the diagonal r = i conj(y) swaps the parts, so x = i^(m+1) conj(r)
            flip = R[:, 0].imag > R[:, 0].real
            R[flip] = 1j * np.conj(R[flip])
            col = np.where(flip, 4 + (m + 1) % 4, m)
        if diagonal is not None:
            # A o Phi_m and its transpose keep the diagonal: the eight values agree
            F, col = diagonal[:, None], 0
        elif symmetric:
            deg = np.array(multi_indices(params)).sum(axis=1)
            k = np.arange(4)[:, None, None] * (deg[:, None] - deg)
            turned = A * np.array([1, 1j, -1, -1j])[k % 4]  # A o Phi_m, m = 0..3, exactly
            F = np.concatenate([turned, turned.transpose(0, 2, 1)]).reshape(8, -1).T
        else:
            F = A.reshape(-1, 1)
        _, first, inverse = np.unique(R, axis=0, return_index=True, return_inverse=True)
        return self._orbit_values(R[first], F, diagonal is not None)[inverse.reshape(-1), col]

    def _orbit_values(self, X: np.ndarray, F: np.ndarray, diagonal: bool) -> np.ndarray:
        """<F[:, k], H_x> at every row x of X and every column k of F: shape (R, F.shape[1]).

        If diagonal, F holds diagonals, and only the diagonal of H_x,
        sum_j w_j |E(x - z_j)|^2, is formed.
        """
        params = self.A.params
        d, n = params.dim, params.n
        J = self.nodes.shape[0]
        if diagonal:
            # a pair's real weights (beside the plane rows gathered for them
            # at n >= 2); a point's diagonal of H_x and its product's output
            column, point = 8 * min(n, 2) * d, 24 * d
        else:
            # a pair's basis column; a point's d x d H_x
            column, point = 16 * d, 16 * d * d
        g = np.empty((X.shape[0], F.shape[1]), dtype=complex)
        for r in _blocks(X.shape[0], column * J + point):
            xs = X[r]
            p = xs.shape[0]
            H = np.zeros((p, F.shape[0]), dtype=complex)  # H_x, or its diagonal, flat
            for j in _blocks(J, column):
                zs = self.nodes[j]
                pairs = (xs[:, None, :] - zs[None, :, :]).reshape(-1, n)  # point-major
                if diagonal:
                    H += _weighted_degree_sums(params, pairs, self.coefficients[j], p)
                else:
                    E = basis_matrix(params, pairs)  # (d, pairs)
                    w = self.coefficients[j] / _squared_norms(E).reshape(p, -1)
                    E = E.reshape(d, p, -1).transpose(1, 0, 2)  # (point, a, node)
                    H += ((E * w[:, None, :]) @ np.conj(E).transpose(0, 2, 1)).reshape(p, -1)
            # one product per point, here and in _weighted_degree_sums, so
            # that its value does not depend on the block; a block-wide
            # product rounds by block shape
            g[r] = (H[:, None, :] @ F)[:, 0]
        return g


def berezin(A: FockOperator, window: float | None = None, m: int = 61) -> GridSymbol:
    """Berezin transform sampled on a grid over the (default: trusted) window.

    Values outside the trusted window are computed but carry growing
    truncation bias; keep |z| below params.trusted_radius for trusted use.
    """
    if window is None:
        window = A.params.trusted_radius
    return GridSymbol.sample(BerezinSymbol(A), window, m, n=A.params.n)


def heat_values(f, t: float, points: np.ndarray, Q: int = 40) -> np.ndarray:
    """Heat transform values (pi t)^{-n} integral f(w) exp(-|z-w|^2/t) dV(w), 0 < t < inf.

    points has shape (P, n), and n is read from it; a symbol on another
    C^n raises ValueError.  For a Gaussian
    a exp(-|w - c|^2/W) the transform is the Gaussian
    a (W/(W+t))^n exp(-|z - c|^2/(W+t)) (Zhu, Analysis on Fock Spaces,
    GTM 263 (2012)), evaluated in closed form and exact to rounding.  For
    any other f, substituting w = z + u turns the integral into an average
    of f(z + u) against mu_t(u), evaluated by Gauss-Hermite quadrature of
    order Q per real axis (Q^{2n} nodes).  f is evaluated once per block
    of points, on all of the block's shifted copies at once; the block
    size follows from _CHUNK_BYTES, counted on the array of shifted points.
    A point with an inf or NaN coordinate raises ValueError.
    """
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2:
        # a flat array of P points would read as one point in C^P
        raise ValueError(f"points must have shape (P, n), got {points.shape}")
    _check_finite(points)
    if not 0 < t < np.inf:
        raise ValueError(f"heat transform weight t must be positive and finite, got {t}")
    if isinstance(f, Gaussian):
        W, n = f.width, points.shape[1]
        smoothed = replace(f, width=W + t, amplitude=f.amplitude * (W / (W + t)) ** n)
        return smoothed(points).astype(complex)
    grid = gaussian_grid(points.shape[1], t, Q)
    S, n = grid.nodes.shape
    out = np.empty(points.shape[0], dtype=complex)
    for rows in _blocks(points.shape[0], 16 * n * S):
        block = points[rows]
        vals = np.asarray(f((block[:, None, :] + grid.nodes[None, :, :]).reshape(-1, n)))
        out[rows] = vals.reshape(block.shape[0], S) @ grid.weights
    return out


def heat_transform(
    f: Symbol, t: float, window: float = 6.0, m: int = 61, Q: int = 40
) -> GridSymbol:
    """Heat transform of a symbol, sampled on an m-per-axis grid over the window.

    Satisfies berezin(toeplitz(f)) == heat_transform(f, t) within
    quadrature, interpolation and truncation tolerance.
    """
    return GridSymbol.sample(lambda pts: heat_values(f, t, pts, Q=Q), window, m, n=f.n)
