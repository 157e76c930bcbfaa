"""Weyl operators, Toeplitz operators, Berezin and heat transforms.

Toeplitz matrices, Berezin and heat transforms are Gaussian quadratures
of their defining integrals on the model grid; a Toeplitz quadrature is
summed one complex plane at a time, and the heat transform of a Gaussian
is its closed form.  Weyl matrices are not quadratures.
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
from dataclasses import replace

import numpy as np

from .model import (
    FockOperator,
    FockParams,
    _basis_rows,
    _grid_basis,
    _pair_pick,
    _point_rows,
    basis_matrix,
    multi_indices,
)
from .quadrature import gaussian_grid
from .symbols import Gaussian, GridSymbol, Scale, Symbol, Translate

# Byte budget of one block of rows; _blocks is its one reader.  A row is
# one point's dim x dim Weyl matrix in the batched conjugations, one
# row's weighted plane (dim x Q^2) in the last plane of a Toeplitz
# quadrature, one point's basis column in a Berezin transform, one
# point's Q^{2n} shifted copies in a heat transform, and in a translated
# Berezin sum one point's basis columns at all J translates (outer loop)
# or one translate's basis column (inner loop).  A block and its few
# temporaries set the peak memory of a convolution; 1 MiB (about 100
# matrices at D = 24) measured both lower peak memory and shorter runs
# than 4 MiB, and the products stay large enough for BLAS.
_CHUNK_BYTES = 2**20


def _blocks(count: int, row_bytes: int) -> list:
    """The slices of range(count), in order, each within _CHUNK_BYTES and at least one row."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _axis_blocks(z: np.ndarray, t: float, D: int) -> np.ndarray:
    """One-variable Weyl matrices <W_z e_b, e_a> at [p, a, b], for z of shape (P,).

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
    a, b = k[:, None], k[None, :]
    out = phase[:, a - b + D]
    out *= G[:, np.minimum(a, b), np.abs(a - b)]
    return out


def weyl_matrices(params: FockParams, zs) -> np.ndarray:
    """Matrices of the Weyl operators W_z for many points: shape (P, dim, dim).

    zs has shape (P, n).  Each entry is the exact matrix element
    <W_z e_b, e_a>; the compression of W_z to the degree box is the tensor
    product of one-variable blocks, so for n >= 2 an element is the
    product over axes of the one-variable elements at the indices'
    components.  At n = 1 the graded order is 0..D and the block is the
    matrix.
    """
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim != 2 or zs.shape[1] != params.n:
        raise ValueError(f"points must have shape (P, {params.n}), got {zs.shape}")
    if params.n == 1:
        return _axis_blocks(zs[:, 0], params.t, params.D)
    pick = _pair_pick(params)
    blocks = (
        _axis_blocks(zs[:, k], params.t, params.D)[:, pick[2 * k], pick[2 * k + 1]]
        for k in range(params.n)
    )
    W = next(blocks)
    for B in blocks:
        W *= B
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
    for rows in _blocks(zs.shape[0], 16 * d * d):
        W = weyl_matrices(params, zs[rows])
        WA = (W.reshape(-1, d) @ A).reshape(W.shape)
        yield rows, W, WA


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
    for rows in _blocks(G.shape[0], 16 * d * m):
        H[rows] = ((b * G[rows, None, :]).reshape(-1, m) @ e.T).reshape(-1, d, d)
    # H[a_1, b_1, ..., a_n, b_n] is the degree-pair box
    return FockOperator(params, H.reshape((d, d) * params.n)[_pair_pick(params)])


def berezin_values(A: FockOperator, points: np.ndarray) -> np.ndarray:
    """Berezin transform values A~(z) = <A k_z, k_z> at the given points.

    points has shape (P, n); one point of shape (n,) is also accepted.
    The truncated coherent states are renormalized to unit norm, so the
    contraction |A~| <= ||A||_op holds at every point and the transform
    of the identity is exactly 1 everywhere; inside the trusted window
    this agrees with the raw coefficient contraction up to the (tiny)
    truncation defect.  The points are evaluated a block at a time, the
    block size following from _CHUNK_BYTES counted as 16 dim bytes per
    point (1598 points at dim = 41), so memory stays O(dim x block)
    whatever P is.  A block's products round like a one-point evaluation
    to within 1e-15 of max |value|.
    """
    params = A.params
    points = _point_rows(params, points)
    out = np.empty(points.shape[0], dtype=complex)
    for rows in _blocks(points.shape[0], 16 * params.dim):
        block = points[rows]
        weights = np.exp(-np.sum(np.abs(block) ** 2, axis=1) / (2.0 * params.t))
        C = np.conj(basis_matrix(params, block)) * weights  # C[:, i] = coefficients of k_{z_i}
        raw = np.sum(np.conj(C) * (A.matrix @ C), axis=0)
        out[rows] = raw / np.sum(np.abs(C) ** 2, axis=0)
    return out


class BerezinSymbol(Symbol):
    """Exact Berezin transform of an operator as an evaluable symbol."""

    def __init__(self, A: FockOperator):
        self.A = A
        self.n = A.params.n

    def eval(self, points):
        return berezin_values(self.A, points)


def _row_keys(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """One bytes key per row of points given by their real and imaginary parts.

    Equal keys mean equal coordinates; adding 0.0 maps -0.0 to 0.0.
    """
    f = np.ascontiguousarray(np.concatenate([re, im], axis=1) + 0.0)
    return f.view(np.dtype((np.void, 8 * f.shape[1])))[:, 0]


def _times_i_index(z: np.ndarray) -> np.ndarray:
    """For distinct rows z[k] of C^n, the row index of i z[k], or -1 if it is not a row.

    i z has coordinates (-Im z, Re z) exactly, so the match is by exact
    coordinates.
    """
    keys, turned = _row_keys(z.real, z.imag), _row_keys(-z.imag, z.real)
    order = np.argsort(keys)
    pos = order[np.minimum(np.searchsorted(keys[order], turned), z.shape[0] - 1)]
    return np.where(keys[pos] == turned, pos, -1)


class BerezinTranslateSum(Symbol):
    """The symbol g(x) = sum_j c_j A~(x - z_j): weighted translates of a Berezin transform.

    g is evaluated a block of (point, translate) pairs at a time, and the
    rotation z -> i z gives four values for the cost of one.  With
    v_alpha(w) = conj(w)^alpha / sqrt(alpha! t^{|alpha|}) the renormalised
    Berezin value is A~(w) = v^H A v / v^H v (the Gaussian factor of k_w
    cancels), and v_alpha(i^m w) = (-i)^{m |alpha|} v_alpha(w) exactly.
    So v^H v is the same at all four rotations, and
    v(i^m w)^H A v(i^m w) = sum_k i^{mk} P_k(w), where P_k sums
    conj(v_a) A[a, b] v_b over the pairs with |a| - |b| = k (mod 4): one
    product of A, its columns split by |b| mod 4, with v(w).  When the
    nodes z_j are closed under z -> i z, with sigma(j) the index of i z_j,
    g(i^m r) = sum_j c_{sigma^m(j)} A~(i^m (r - z_j)), so the pairs of one
    point r give g at r, ir, -r and -ir.  Each point x is written
    x = i^m r with the first coordinate of r in the quadrant Re > 0,
    Im >= 0 (m = 0 when that coordinate is 0 or the nodes are not
    closed); r = i^{-m} x only swaps and negates parts, so it is exact,
    and g is computed once per distinct r.  A point's value does not
    depend on the other points evaluated with it.

    Against the sum of its `parts`, the explicit expansion, it agrees to
    1.4e-12 of max |g| on the Theorem A grids (D = 24, N <= 8).
    """

    def __init__(self, A: FockOperator, nodes, coefficients):
        self.A = A
        self.n = A.params.n
        self.nodes = np.asarray(nodes, dtype=complex).reshape(-1, self.n)
        self.coefficients = np.asarray(coefficients)

    @property
    def parts(self) -> list:
        """The explicit expansion [c_j * A~(. - z_j)] over the nodes."""
        base = BerezinSymbol(self.A)
        return [Scale(Translate(base, z), c) for z, c in zip(self.nodes, self.coefficients)]

    def _coefficient_rotations(self) -> np.ndarray:
        """Columns c_{sigma^m(j)}, m = 0..3; only c if the nodes are not closed under z -> i z."""
        c, z = self.coefficients, self.nodes
        sigma = _times_i_index(z)
        distinct = np.unique(_row_keys(z.real, z.imag)).size == z.shape[0]
        if not (distinct and np.all(sigma >= 0)):
            return c[:, None]
        cols, j = [c], np.arange(c.size)
        for _ in range(3):
            j = sigma[j]
            cols.append(c[j])
        return np.stack(cols, axis=1)

    def eval(self, points):
        points = np.asarray(points, dtype=complex)
        C = self._coefficient_rotations()
        # m is the quadrant of the first coordinate: x = i^m r, r[0] in Re > 0, Im >= 0
        a, b = points[:, 0].real, points[:, 0].imag
        m = np.select([(a <= 0) & (b > 0), (a < 0) & (b <= 0), (a >= 0) & (b < 0)], [1, 2, 3])
        m = m if C.shape[1] == 4 else np.zeros_like(m)
        # a product with 1, -i, -1 or i swaps and negates parts, exactly
        R = points * np.array([1, -1j, -1, 1j])[m][:, None]
        _, first, inverse = np.unique(
            _row_keys(R.real, R.imag), return_index=True, return_inverse=True
        )
        return self._orbit_values(R[first], C)[inverse.reshape(-1), m]

    def _orbit_values(self, X: np.ndarray, C: np.ndarray) -> np.ndarray:
        """g(i^m x) at every row x of X, for the m of the columns of C: shape (R, C.shape[1])."""
        params = self.A.params
        d, n = params.dim, params.n
        cls = np.array(multi_indices(params)).sum(axis=1) % 4
        perm = np.argsort(cls, kind="stable")
        bounds = np.searchsorted(cls[perm], np.arange(5))
        A = self.A.matrix[np.ix_(perm, perm)]
        blocks = [np.ascontiguousarray(A[:, bounds[c] : bounds[c + 1]]) for c in range(4)]
        segments = (cls[perm][None, :] == np.arange(4)[:, None]).astype(float)  # (4, d)
        mk = np.arange(C.shape[1])[:, None] * np.arange(4)
        phase = np.array([1, 1j, -1, -1j])[mk % 4]  # i^{mk}, exactly
        J = self.nodes.shape[0]
        g = np.zeros((X.shape[0], C.shape[1]), dtype=complex)
        for r in _blocks(X.shape[0], 16 * d * J):
            xs = X[r]
            for j in _blocks(J, 16 * d):
                zs = self.nodes[j]
                # E = e(w) at w = x - z_j, in class order, and v = conj(E)
                E = _basis_rows(params, (xs[:, None, :] - zs[None, :, :]).reshape(-1, n), perm)
                V = np.conj(E)
                P = np.zeros((4, V.shape[1]), dtype=complex)
                for cb in range(4):
                    # S[ca] sums conj(v_a) A[a, b] v_b over |a| = ca, |b| = cb (mod 4),
                    # a real product on the complex values viewed as pairs of reals
                    Y = blocks[cb] @ V[bounds[cb] : bounds[cb + 1]]
                    Y *= E
                    S = (segments @ Y.view(float)).view(complex)
                    P += S[(np.arange(4) + cb) % 4]  # ca - cb = k
                Vr = V.view(float)
                P /= np.einsum("ap,ap->p", Vr, Vr).reshape(-1, 2).sum(axis=1)
                T = P.reshape(4 * xs.shape[0], -1) @ C[j]
                g[r] += np.einsum("krm,mk->rm", T.reshape(4, xs.shape[0], -1), phase)
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
    """
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2:
        # a flat array of P points would read as one point in C^P
        raise ValueError(f"points must have shape (P, n), got {points.shape}")
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
