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


def _image_index(z: np.ndarray, image: np.ndarray) -> np.ndarray:
    """For distinct rows z[k] of C^n, the row index of image[k] among them, or -1.

    The match is by exact coordinates, so an image formed by swapping and
    negating parts (i z, conj z) finds its row whenever it is one.
    """
    keys, images = _row_keys(z.real, z.imag), _row_keys(image.real, image.imag)
    order = np.argsort(keys)
    pos = order[np.minimum(np.searchsorted(keys[order], images), z.shape[0] - 1)]
    return np.where(keys[pos] == images, pos, -1)


class BerezinTranslateSum(Symbol):
    """The symbol g(x) = sum_j c_j A~(x - z_j): weighted translates of a Berezin transform.

    The sums are taken translates first.  With E_a(w) = w^alpha /
    sqrt(alpha! t^{|alpha|}) the unscaled basis at w, the renormalised
    Berezin value is A~(w) = sum_{a,b} A[a, b] E_a(w) conj(E_b(w)) / |E(w)|^2
    (the Gaussian factor of k_w cancels).  So g(r) = <A, H_r>, the sum of
    the entrywise product, with the d x d matrix
    H_r = sum_j (c_j / |E(r - z_j)|^2) E(r - z_j) E(r - z_j)^H,
    one product over the J translates for each point r.

    E_a(i^m w) = i^{m|a|} E_a(w) and E_a(conj w) = conj(E_a(w)) exactly.
    When the nodes are distinct, closed under z -> i z and z -> conj z, and
    c is bit for bit equal on the images (as on every fit lattice), the
    sum over j may be re-indexed by the image nodes, so
    g(i^m r) = <A o Phi_m, H_r> with Phi_m[a, b] = i^{m(|a| - |b|)}, and
    g(i^m conj r) = <(A o Phi_m)^T, H_r>: one H_r gives the eight values of
    the orbit of r.  Each point x is folded into the octant
    0 <= Im <= Re of its first coordinate (x = i^m r or x = i^m conj r)
    by swapping and negating parts, which is exact, and H is built once
    per distinct r.  Otherwise every distinct point is its own r and only
    <A, H_r> is taken.  A point's value does not depend on the other
    points evaluated with it.  The (point, translate) pairs are taken a
    block at a time, and with no nodes g = 0.

    Against the sum of its `parts`, the explicit expansion, it agrees to
    2.0e-12 / 1.1e-12 / 4.4e-13 of max |g| on the D = 24 grid at N = 8 for
    the three Theorem A targets (T of e^{-|z|^2/2}, W_0.5, P_C), and to
    3.6e-14 for a random A.  For scale, eps sum_j |c_j| = 1.4e-11 there
    (eps = 2.2e-16): the translates cancel, and either order of the sums
    rounds on that scale.
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

    def _symmetric(self) -> bool:
        """Whether the nodes are distinct, closed under z -> i z and conj, and c equal on images."""
        c, z = self.coefficients, self.nodes
        if np.unique(_row_keys(z.real, z.imag)).size != z.shape[0]:
            return False
        images = (_image_index(z, 1j * z), _image_index(z, np.conj(z)))
        return all(np.all(k >= 0) and np.array_equal(c[k], c) for k in images)

    def eval(self, points):
        params = self.A.params
        points = _point_rows(params, points)
        if self.nodes.shape[0] == 0:
            return np.zeros(points.shape[0], dtype=complex)
        A = self.A.matrix
        if not self._symmetric():
            R, col, F = points, 0, A.reshape(-1, 1)
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
            deg = np.array(multi_indices(params)).sum(axis=1)
            k = np.arange(4)[:, None, None] * (deg[:, None] - deg)
            turned = A * np.array([1, 1j, -1, -1j])[k % 4]  # A o Phi_m, m = 0..3, exactly
            F = np.concatenate([turned, turned.transpose(0, 2, 1)]).reshape(8, -1).T
        _, first, inverse = np.unique(
            _row_keys(R.real, R.imag), return_index=True, return_inverse=True
        )
        return self._orbit_values(R[first], F)[inverse.reshape(-1), col]

    def _orbit_values(self, X: np.ndarray, F: np.ndarray) -> np.ndarray:
        """<F[:, k], H_x> at every row x of X and every column k of F: shape (R, F.shape[1])."""
        params = self.A.params
        d, n = params.dim, params.n
        J = self.nodes.shape[0]
        g = np.empty((X.shape[0], F.shape[1]), dtype=complex)
        for r in _blocks(X.shape[0], 16 * d * J):
            xs = X[r]
            H = np.zeros((xs.shape[0], d, d), dtype=complex)
            for j in _blocks(J, 16 * d):
                zs = self.nodes[j]
                pairs = (xs[:, None, :] - zs[None, :, :]).reshape(-1, n)
                E = _basis_rows(params, pairs, np.arange(d))  # (d, pairs), point-major pairs
                Er = E.view(float)
                norms = np.einsum("ap,ap->p", Er, Er).reshape(xs.shape[0], -1, 2).sum(axis=2)
                E = E.reshape(d, xs.shape[0], -1).transpose(1, 0, 2)  # (point, a, node)
                w = self.coefficients[j] / norms
                H += (E * w[:, None, :]) @ np.conj(E).transpose(0, 2, 1)
            # one vector-matrix product per point, so that its value does not
            # depend on the block; a block-wide product rounds by block shape
            g[r] = (H.reshape(xs.shape[0], 1, d * d) @ F)[:, 0]
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
