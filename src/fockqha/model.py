"""Truncated Fock-space model.

The model space is spanned by the monomial basis
e_alpha(z) = z^alpha / sqrt(alpha! t^{|alpha|}) for all multi-indices
with total degree |alpha| <= D, in graded lexicographic order.  These
are orthonormal with respect to the Gaussian probability measure mu_t,
so vectors are plain coefficient arrays and operators are dense
complex matrices M[a, b] = <A e_b, e_a>.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .quadrature import gaussian_grid

# Truncation defect above which kernel_coefficients emits a warning:
# the coherent state at z carries weight outside degrees <= D.
KERNEL_DEFECT_THRESHOLD = 1e-6

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn(message: str) -> None:
    """Warn at the innermost frame outside this package: the caller's line."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@dataclass(frozen=True)
class FockParams:
    """Parameters fixing the truncated model.

    n : complex dimension
    t : Gaussian weight parameter (0 < t < inf)
    D : total-degree cutoff; basis = {e_alpha : |alpha| <= D}
    Q : Gauss-Hermite order per real axis (Q >= D + 2 so that
        polynomial integrands of degree <= 2D are exact)
    """

    n: int
    t: float
    D: int
    Q: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0 < self.t < math.inf:
            raise ValueError("t must be positive and finite")
        if self.D < 0:
            raise ValueError("D must be non-negative")
        if self.Q < self.D + 2:
            raise ValueError("Q must be >= D + 2 for exact polynomial quadrature")

    @property
    def dim(self) -> int:
        return math.comb(self.D + self.n, self.n)

    @property
    def trusted_radius(self) -> float:
        """Radius of the reliable window: |z|^2 <= t*D/4."""
        return math.sqrt(self.t * self.D / 4.0)

    def grid(self):
        """The Gaussian quadrature grid attached to this model."""
        return gaussian_grid(self.n, self.t, self.Q)


def _graded_indices(n: int, D: int):
    """All multi-indices with |alpha| <= D in graded lex order."""
    out = []

    def compositions(total, length):
        if length == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, length - 1):
                yield (first,) + rest

    for d in range(D + 1):
        out.extend(compositions(d, n))
    return tuple(out)


@lru_cache(maxsize=128)
def multi_indices(params: FockParams):
    """Ordered basis index list; position map is a bijection."""
    idx = _graded_indices(params.n, params.D)
    assert len(idx) == params.dim
    return idx


def _pair_pick(params: FockParams) -> tuple:
    """The 2n index arrays that pick a dim x dim matrix out of the degree-pair box.

    The box X[a_1, b_1, ..., a_n, b_n] has one index pair per complex
    plane, and entry [j, k] of the matrix sits at a = alpha_j and
    b = beta_k on every plane; so X[pick] is the matrix and
    X[pick] = M scatters M into the box.
    """
    idx = np.array(multi_indices(params))
    return tuple(ix for k in range(params.n) for ix in (idx[:, k, None], idx[None, :, k]))


def _point_rows(params: FockParams, points) -> np.ndarray:
    """points as a complex (P, n) array; one point of shape (n,) is one row.

    Any other shape raises ValueError: a flat array of P points at n = 1,
    or rows of the wrong length, would otherwise be read as other points.
    So does an inf or NaN coordinate, which has no basis values.
    """
    points = np.asarray(points, dtype=complex)
    if points.shape == (params.n,):
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] != params.n:
        raise ValueError(f"points must have shape (P, {params.n}), got {points.shape}")
    _check_finite(points)
    return points


def _plane_products(params: FockParams, values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The (dim, P) array prod_a T_a[alpha_a, p] of one running-product table T_a per plane.

    values: a real or complex (P, n) array; scale: shape (D,).  Plane a's
    table is T_a[0] = 1, T_a[k] = T_a[k - 1] values[p, a] scale[k - 1]:
    the (D, P) steps are formed once, then D in-place row products.  At
    n = 1 the table is the result; at n >= 2 the planes' rows are
    gathered by multi_indices and multiplied.  numpy's complex multiply
    rounds a one-element row differently from its vector loop, so a lone
    point is evaluated as two equal columns and one is kept: a column does
    not depend on the batch it is evaluated in.
    """
    P, D, n = values.shape[0], params.D, params.n
    if P == 1:
        return _plane_products(params, np.repeat(values, 2, axis=0), scale)[:, :1].copy()
    idx = np.array(multi_indices(params)) if n > 1 else None
    for a in range(n):
        tab = np.empty((D + 1, P), dtype=values.dtype)
        tab[0] = 1.0
        np.multiply(values[:, a], scale[:, None], out=tab[1:])  # the steps
        for k in range(1, D + 1):
            tab[k] *= tab[k - 1]
        if a == 0:
            out = tab if n == 1 else tab[idx[:, 0]]
        else:
            out *= tab[idx[:, a]]
    return out


def basis_matrix(params: FockParams, points: np.ndarray) -> np.ndarray:
    """Evaluate all basis elements at many points: E[j, i] = e_{alpha_j}(points[i]).

    points: (P, n) complex array, or one point of shape (n,).

    Each plane's table e_k(z_a), k = 0..D, is the normalised running
    product e_0 = 1, e_k = e_{k-1} z_a / sqrt(k t), taken by
    _plane_products, so a point's column does not depend on the other
    points evaluated with it, a lone point included.  It
    matches 40-digit mpmath to 4e-15 relative per entry for D <= 60 and
    |z| <= 9 (measured 1.7e-15 at D = 60, t = 0.3).  By the multinomial
    theorem e_alpha(z) <= e_{|alpha|}(|z|), which grows with the degree
    once |z|^2 >= D t, so a point with |z| past
    (float_max sqrt(D!))^(1/D) sqrt(t) raises ValueError naming that
    limit: 6.611e5 at D = 60, t = 1.
    """
    points = _point_rows(params, points)
    P, D = points.shape[0], params.D
    if D and P:
        # less 1e-12 relative, far more than the rounding of the limit and of the D products
        log_limit = (math.log(np.finfo(float).max) + 0.5 * math.lgamma(D + 1)) / D - 1e-12
        limit = math.exp(log_limit) * math.sqrt(params.t)
        far = np.max(reduce(np.hypot, np.abs(points).T))  # the Euclidean |z| of each point
        if far > limit:
            raise ValueError(
                f"|z| = {far:.4g} is past {limit:.4g}, where the degree-{D} basis "
                f"values overflow (t = {params.t})"
            )
    return _plane_products(params, points, 1.0 / np.sqrt(np.arange(1, D + 1) * params.t))


def _grid_basis(params: FockParams):
    """The plane factor of the Gaussian grid: one-variable basis values on one plane.

    The grid of params is the n-th tensor power of the Q^2-node rule on
    one complex plane, and e_alpha(z) is the product of e_{alpha_k}(z_k),
    so every quadrature of basis products factors plane by plane.
    Returns (e, b), both (D + 1) x Q^2: e[a, i] = e_a(x_i) on the plane's
    nodes x_i and b = conj(e) * plane weights, so that the plane Gram
    matrix is b @ e.T.  At n = 1 the plane is the whole grid and
    <f e_b, e_a> = (b * f) @ e.T.  The pair is built on every call and
    not kept: it takes 2 (D + 1) Q^2 16 bytes (2.3 MB at D = 40, Q = 42),
    which a cache would hold for a caller that never reads it again.
    """
    plane = FockParams(1, params.t, params.D, params.Q)
    grid = plane.grid()
    e = basis_matrix(plane, grid.nodes)
    return e, np.conj(e) * grid.weights


@dataclass(frozen=True)
class FockVector:
    """Coefficient vector with respect to the orthonormal basis e_alpha."""

    params: FockParams
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        if c.shape != (self.params.dim,):
            raise ValueError("coefficient length must equal the basis dimension")
        object.__setattr__(self, "coeffs", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "FockVector") -> complex:
        _check_params(self.params, other.params)
        return complex(np.vdot(other.coeffs, self.coeffs))


@dataclass(frozen=True)
class FockOperator:
    """Dense matrix M[a, b] = <A e_b, e_a> on the truncated basis."""

    params: FockParams
    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        d = self.params.dim
        if m.shape != (d, d):
            raise ValueError("matrix must be dim x dim")
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def __add__(self, other):
        _check_params(self.params, other.params)
        return FockOperator(self.params, self.matrix + other.matrix)

    def __sub__(self, other):
        _check_params(self.params, other.params)
        return FockOperator(self.params, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return FockOperator(self.params, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        _check_params(self.params, other.params)
        return FockOperator(self.params, self.matrix @ other.matrix)

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.params, self.matrix.conj().T)

    def apply(self, v: FockVector) -> FockVector:
        _check_params(self.params, v.params)
        return FockVector(self.params, self.matrix @ v.coeffs)


def _check_params(p1: FockParams, p2: FockParams):
    if p1 != p2:
        raise ValueError("FockParams mismatch between operands")


def basis_vector(params: FockParams, j: int) -> FockVector:
    c = np.zeros(params.dim, dtype=complex)
    c[j] = 1.0
    return FockVector(params, c)


def kernel_coefficients(params: FockParams, z) -> FockVector:
    """Coefficients of the normalized reproducing kernel k_z.

    c_alpha = exp(-|z|^2 / (2t)) conj(e_alpha(z)).  Inside the reliable
    window the Euclidean norm is 1 up to truncation; a large defect
    triggers a warning.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    E = basis_matrix(params, z[None, :])[:, 0]
    c = np.exp(-np.sum(np.abs(z) ** 2) / (2.0 * params.t)) * np.conj(E)
    defect = 1.0 - float(np.sum(np.abs(c) ** 2))
    if defect > KERNEL_DEFECT_THRESHOLD:
        _warn(f"kernel truncation defect {defect:.3e} at z={z} exceeds threshold")
    return FockVector(params, c)


def rank_one(y: FockVector, x: FockVector) -> FockOperator:
    """The operator x (x) y, i.e. f -> <f, y> x; trace = <x, y>."""
    _check_params(y.params, x.params)
    return FockOperator(x.params, np.outer(x.coeffs, np.conj(y.coeffs)))


def pc_operator(params: FockParams) -> FockOperator:
    """Projection onto constants, P = 1 (x) 1 (evaluation at 0)."""
    e0 = basis_vector(params, 0)
    return rank_one(e0, e0)


def parity_matrix(params: FockParams) -> FockOperator:
    """The parity operator Uf(w) = f(-w): diagonal (-1)^{|alpha|}."""
    degrees = np.array([sum(a) for a in multi_indices(params)])
    return FockOperator(params, np.diag((-1.0 + 0j) ** degrees))


def identity_operator(params: FockParams) -> FockOperator:
    return FockOperator(params, np.eye(params.dim, dtype=complex))


def degree_projector(params: FockParams, max_degree: int) -> FockOperator:
    """Orthogonal projection onto the span of degrees <= max_degree."""
    degrees = np.array([sum(a) for a in multi_indices(params)])
    return FockOperator(params, np.diag((degrees <= max_degree).astype(complex)))


def _check_finite(M: np.ndarray) -> None:
    """ValueError if M holds an inf or a NaN, which LAPACK would not reject cleanly."""
    if not np.all(np.isfinite(M)):
        raise ValueError("array must not contain infs or NaNs")


def _svdvals(M: np.ndarray) -> np.ndarray:
    """Singular values in descending order, by LAPACK gesdd.

    np.linalg.svd returns NaN for a matrix holding inf, so non-finite
    input is rejected first.
    """
    _check_finite(M)
    return np.linalg.svd(M, compute_uv=False)


def operator_norm_2(A: FockOperator) -> float:
    """Largest singular value (spectral norm on the truncated space)."""
    return float(_svdvals(A.matrix)[0])


def trusted_norm(A: FockOperator) -> float:
    """Spectral norm of the trusted sub-block of A: degrees <= D/2.

    Graded order lists those degrees first, so the block is the leading
    comb(D//2 + n, n) square; the top degrees of a truncated matrix carry
    truncation artifacts that no identity can be checked against.  The
    SVD is of that k x k block alone, k^3 work rather than dim^3.
    """
    k = math.comb(A.params.D // 2 + A.params.n, A.params.n)
    return float(_svdvals(A.matrix[:k, :k])[0])


def singular_values(A: FockOperator) -> np.ndarray:
    return _svdvals(A.matrix)


def schatten_norm(A: FockOperator, p0: float) -> float:
    """l^{p0} norm of the singular values: nuclear at p0 = 1, spectral at p0 = inf."""
    if not p0 >= 1:
        raise ValueError("p0 must be >= 1")
    sv = _svdvals(A.matrix)
    if sv[0] == 0:
        return 0.0
    # s_1 (sum (s_k / s_1)^p0)^{1/p0} neither overflows nor underflows at large p0
    return float(sv[0] * np.sum((sv / sv[0]) ** p0) ** (1.0 / p0))


def fock_p_norm(params: FockParams, coeffs: np.ndarray, p: float):
    """The F_t^p norm of the function with the given basis coefficients.

    Computed by quadrature against mu_{2t/p}, matching the definition
    of the p-Fock space as L^p(mu_{2t/p}) functions.  coeffs of shape
    (..., dim) give one norm per row.

    The grid is the n-th tensor power of one Q^2-node plane rule, so the
    values are contracted one plane at a time: the coefficients are
    scattered onto the (D + 1)^n box of per-variable degrees, and each
    plane is one product against the one-variable basis at the plane's
    nodes.  Only the values themselves, Q^{2n} per row, span the full
    grid; no dim x Q^{2n} basis matrix is formed.  At n = 1 the box is
    the coefficient vector and the product is the dense one.
    """
    Q, s = params.Q, 2.0 * params.t / p
    coeffs = np.asarray(coeffs)
    plane = basis_matrix(FockParams(1, params.t, params.D, params.Q), gaussian_grid(1, s, Q).nodes)
    batch = coeffs.shape[:-1]
    vals = np.zeros(batch + (params.D + 1,) * params.n, dtype=np.result_type(coeffs, plane))
    vals[(...,) + tuple(np.array(multi_indices(params)).T)] = coeffs
    for _ in range(params.n):
        # contract the leading degree axis; its plane's nodes go last
        vals = np.moveaxis(vals, len(batch), -1) @ plane
    vals = vals.reshape(batch + (-1,))
    return np.sum(gaussian_grid(params.n, s, Q).weights * np.abs(vals) ** p, axis=-1) ** (1.0 / p)


def p_operator_norm_lower_bound(
    A: FockOperator, p: float, trials: int, seed: int = 0
) -> float:
    """Sampled lower bound for the operator norm on F_t^p.

    Maximizes ||A g||_p / ||g||_p over random polynomial test vectors
    (plus the constant function).  This is a LOWER bound only and is
    monotone non-decreasing in the number of trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")
    params = A.params
    rng = np.random.default_rng(seed)
    # restrict samples to modest degrees so truncation does not inflate ratios
    degrees = np.array([sum(a) for a in multi_indices(params)])
    mask = degrees <= max(1, params.D // 2)
    # per trial the real parts are drawn before the imaginary parts, so a
    # run with more trials extends the candidates of a run with fewer
    draws = rng.standard_normal((trials, 2, params.dim))
    candidates = np.concatenate([np.ones((1, params.dim)), draws[:, 0] + 1j * draws[:, 1]])
    candidates = np.where(mask, candidates, 0.0)
    norms = fock_p_norm(params, np.concatenate([candidates, candidates @ A.matrix.T]), p)
    denom, num = norms[: trials + 1], norms[trials + 1 :]
    nonzero = denom > 0.0
    return float(np.max(num[nonzero] / denom[nonzero], initial=0.0))
