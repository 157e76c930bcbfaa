"""Werner-style convolutions between functions and operators.

* f * A  : operator-valued quadrature of f(z) alpha_z(A) dV(z)
* A * B  : the function z -> Tr(A alpha_z(U B U)), evaluated lazily

together with the trace identity Tr(A * B) = (pi t)^n Tr(A) Tr(B)
and the adjoint duality relations, exposed as residual computations.

Every dV integral is exact in the truncated model.  An entry of
alpha_z(A) = W_z A W_z^* is a polynomial of degree <= 4D in (z, conj z)
times exp(-|z|^2 / t), by the Laguerre form of the Weyl matrices; so is
(A * B)(z).  Against a Gaussian kernel f = a exp(-|z - c|^2 / w),
completing the square leaves the same polynomial times
exp(-|z - mu|^2 / tau) with 1/tau = 1/t + 1/w and mu = (tau / w) c, and
hermite_dv_grid at that centre and width, of order 2D + 1 per real axis,
integrates it exactly.  Any other f, and the trace-identity integrand,
use mu = 0 and tau = t; the rule is then exact for polynomial f of low
degree and spectrally accurate for smooth f.

A centred Gaussian kernel (c = 0, every heat kernel f_s) takes an exact
radial rule instead, one complex plane at a time.  With z = r e^{i theta}
and R_r the real Weyl matrix at r, W_z[a, c] = R_r[a, c] e^{-i (a - c) theta}
(Werner's phase covariance alpha_{e^{i theta} z} = U_theta alpha_z U_theta^*),
so the angular integral keeps only the terms A[c, c - a + b] of entry
(a, b), and what remains is an integral of exp(-beta x) times a polynomial
of degree <= 2D in x = r^2 / t, with beta = 1 + t / w.  Gauss-Laguerre of
order D + 1 integrates it exactly: D + 1 radial nodes per plane instead of
(2D + 1)^2 Hermite nodes, and no conjugation by dim x dim matrices.

On the Hermite rules a conjugation W_z A W_z^* costs 3 dim^2 r at the
rank r of the operand instead of 2 dim^3: A = X Y^H is factored once by
one SVD (operators._factors), and W_z A W_z^* = (W_z X)(W_z Y)^H.  Seven
of the eight Hermite passes of `verify` conjugate a rank-one operand.
The dropped part of A, below dim eps ||A|| in norm, adds at most
||f||_1 dim eps ||A|| to f * A (Young), the dense sum's own rounding.
An operand of rank r >= 2 dim / 3 is conjugated whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FockOperator,
    FockParams,
    _check_finite,
    _check_params,
    _pair_pick,
    parity_matrix,
    pc_operator,
)
from .operators import _axis_blocks, _conjugations
from .quadrature import GaussGrid, hermite_dv_grid
from .symbols import Gaussian, Symbol


@dataclass(frozen=True)
class ConvolutionConfig:
    """The Gauss-Hermite order per real axis of a convolution's dV rule.

    The radial rule of centred Gaussian kernels has its own fixed order.
    """

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")


def default_config(params: FockParams) -> ConvolutionConfig:
    """Order 2D + 1, exact for every integrand of the module docstring."""
    return ConvolutionConfig(2 * params.D + 1)


def _dv_grid(params: FockParams, cfg: ConvolutionConfig, f=None) -> GaussGrid:
    """The dV rule for f(z) times a polynomial times exp(-|z|^2 / t).

    Centre and width come from completing the square against f when f is
    a Gaussian; otherwise the rule is centred at 0 with width t.  A
    Gaussian on another C^n raises ValueError.
    """
    t = params.t
    if isinstance(f, Gaussian):
        if f.n != params.n:
            raise ValueError(f"a Gaussian on C^{f.n} has no convolution rule on C^{params.n}")
        tau = t * f.width / (t + f.width)
        return hermite_dv_grid(params.n, tau, cfg.m, (tau / f.width) * np.asarray(f.center))
    return hermite_dv_grid(params.n, t, cfg.m)


def r_t_operator(params: FockParams) -> FockOperator:
    """R_t = (pi t)^{-n} P_C; convolving with it is Toeplitz quantization."""
    return ((np.pi * params.t) ** (-params.n)) * pc_operator(params)


def u_conjugate(A: FockOperator) -> FockOperator:
    """U A U with the exact diagonal parity matrix."""
    U = parity_matrix(A.params).matrix
    return FockOperator(A.params, U @ A.matrix @ U)


def _is_radial(f, params: FockParams) -> bool:
    """Whether f * A takes the radial rule: f a centred Gaussian on C^n.

    Any other kernel, and a Gaussian whose dimension or amplitude the
    Hermite path would reject, stays on the Hermite path.
    """
    return (
        isinstance(f, Gaussian)
        and f.n == params.n
        and np.isfinite(f.amplitude)
        and not np.any(np.asarray(f.center))
    )


def _laguerre_pair(n: int, x: np.ndarray):
    """L_{n-1}(x) and L_n(x), summed from the differences d_k = L_k - L_{k-1}.

    d_{k+1} = (k d_k - x L_k) / (k + 1) is scipy's eval_genlaguerre
    recurrence.  The three-term recurrence for L_k itself costs the radial
    rule a factor of 10 at D = 24 (2.3e-14 of the largest entry against
    the Hermite oracle, where this one gives 2.5e-15).
    """
    d = -x
    prev, p = np.ones_like(x), d + 1.0
    for k in range(1, n):
        d = -x / (k + 1.0) * p + (k / (k + 1.0)) * d
        prev, p = p, p + d
    return prev, p


def _gauss_laguerre(n: int):
    """Nodes and weights of the n-point Gauss-Laguerre rule for exp(-x) on [0, inf).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix
    (diagonal 2k + 1, off-diagonal -k), refined by one Newton step on
    L_n; the weights are 1 / (L_{n-1} L_n') at the refined nodes, each
    factor rescaled by its geometric mid-range so the product neither
    overflows nor underflows, then normalized to sum to 1.  The nodes
    equal scipy's roots_laguerre bit for bit (orders 1 to 69).  scipy
    takes L_n' at the unrefined nodes; taking it at the refined ones
    brings the weights 3 to 15 times closer to the mpmath weights at
    those nodes (orders 7 to 61): 5.8e-15 relative at order 25, 3.8e-14
    at order 61.
    """
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) - np.diag(k, 1) - np.diag(k, -1))
    fm, f = _laguerre_pair(n, x)
    x -= f / (n * (f - fm) / x)
    fm, f = _laguerre_pair(n, x)
    dy = n * (f - fm) / x
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    return x, w * (1.0 / w.sum())


def _radial_kernel(params: FockParams, width: float):
    """The one-plane kernel K[a, b, c] of a centred Gaussian of the given width.

    One plane maps X to Y[a, b] = sum over c of K[a, b, c] X[c, e[a, b, c]]
    with e = c - a + b; K is 0 where e falls outside 0..D, and e is
    clipped there.  K sums w'_k R_k[a, c] R_k[b, e] over the Gauss-Laguerre
    nodes y_k of order D + 1, with R_k the real Weyl matrix at
    r_k = sqrt(t y_k / beta) and w'_k = w_k e^{y_k / beta}, one node at a
    time.  The plane's prefactor pi tau is left to the caller.  The rule
    is _gauss_laguerre's: numpy's laggauss weights are 30 times less
    accurate (4e-14 at D = 24).
    """
    t, D = params.t, params.D
    beta = 1.0 + t / width
    y, w = _gauss_laguerre(D + 1)
    R = _axis_blocks(np.sqrt(t * y / beta), t, D).real
    k = np.arange(D + 1)
    a, b, c = k[:, None, None], k[None, :, None], k[None, None, :]
    e = c - a + b
    inside = (e >= 0) & (e <= D)
    e = np.clip(e, 0, D)
    K = np.zeros((D + 1,) * 3)
    for wk, Rk in zip(w * np.exp(y / beta), R):
        K += wk * (Rk[a, c] * Rk[b, e])
    K *= inside
    return K, e


def _radial_conv(f: Gaussian, A: FockOperator) -> FockOperator:
    """f * A for a centred Gaussian f, on the radial rule of the module docstring.

    A is scattered onto the (D+1)^{2n} degree box, each plane's index
    pair is mapped by the one-plane kernel in turn (the Gaussian and the
    Weyl operators are products over planes), and the basis multi-indices
    are gathered back.
    """
    params = A.params
    d, n = params.D + 1, params.n
    tau = params.t * f.width / (params.t + f.width)
    K, e = _radial_kernel(params, f.width)
    pick = _pair_pick(params)
    X = np.zeros((d, d) * n, dtype=complex)
    X[pick] = A.matrix
    for _ in range(n):
        X = X.reshape(d, d, -1)
        Y = np.zeros_like(X)
        for c in range(d):
            Y += K[:, :, c, None] * X[c, e[:, :, c]]
        # the leading plane is mapped, and its index pair goes last
        X = Y.reshape(d * d, -1).T
    scale = f.amplitude * (np.pi * tau) ** n
    return FockOperator(params, scale * X.reshape((d, d) * n)[pick])


def conv_fun_op(f, A: FockOperator, cfg: ConvolutionConfig) -> FockOperator:
    """f * A = quadrature Bochner integral of f(z) alpha_z(A) dV(z).

    A centred Gaussian f takes the radial rule (_radial_conv), whatever
    cfg says.  Otherwise the sum of c_i W_i A W_i^* over the nodes with
    nonzero weight c_i = w_i f(z_i) is one (dim x B r) by (B r x dim)
    product per block of B nodes, on the rule of _dv_grid, with r the
    rank of A in _conjugations (r = dim when A is kept whole).  Satisfies
    ||f * A|| <= ||f||_{L^1} ||A|| up to truncation.  The blocks and the
    summation order are fixed, so results are reproducible bit-for-bit.
    A non-finite entry of A raises ValueError.
    """
    params = A.params
    _check_finite(A.matrix)
    if _is_radial(f, params):
        return _radial_conv(f, A)
    grid = _dv_grid(params, cfg, f)
    c = grid.weights * grid.evaluate(f)
    keep = np.flatnonzero(c)
    c = c[keep]
    d = params.dim
    acc = np.zeros((d, d), dtype=complex)
    for rows, WX, WY in _conjugations(params, grid.nodes[keep], A.matrix):
        WX *= c[rows, None, None]
        right = WY.transpose(0, 2, 1).reshape(-1, d)
        acc += WX.transpose(1, 0, 2).reshape(d, -1) @ np.conjugate(right, out=right)
    return FockOperator(params, acc)


class OperatorConvolution(Symbol):
    """A * B as a lazily evaluated function z -> Tr(A alpha_z(U B U)).

    Points are evaluated a block at a time: with W_z UBU W_z^* = WX WY^H
    from _conjugations, Tr(A W_z UBU W_z^*) is the sum of WX times the
    entries of A^T conj(WY).  A non-finite entry of A or B raises
    ValueError.
    """

    def __init__(self, A: FockOperator, B: FockOperator):
        _check_params(A.params, B.params)
        _check_finite(A.matrix)
        _check_finite(B.matrix)
        self.A = A
        self.B = B
        self.n = A.params.n
        self._ubu = u_conjugate(B).matrix

    def eval(self, points):
        params = self.A.params
        out = np.empty(points.shape[0], dtype=complex)
        At = self.A.matrix.T
        for rows, WX, WY in _conjugations(params, points, self._ubu):
            out[rows] = np.einsum("bjk,bjk->b", WX, At @ np.conj(WY))
        return out


def conv_op_op(A: FockOperator, B: FockOperator) -> OperatorConvolution:
    """The convolution A * B: z -> Tr(A (alpha_z(U B U)))."""
    return OperatorConvolution(A, B)


def toeplitz_via_convolution(
    f, params: FockParams, cfg: ConvolutionConfig
) -> FockOperator:
    """Toeplitz operator through the convolution pipeline: R_t * f.

    Independent of operators.toeplitz (a closed form for a Gaussian,
    model-grid quadrature otherwise); the two must agree in Frobenius
    norm within the combined quadrature tolerance.
    """
    return conv_fun_op(f, r_t_operator(params), cfg)


def _normalized(diff: complex, reference: complex) -> float:
    return float(abs(diff) / (1.0 + abs(reference)))


def trace_identity_residual(
    A: FockOperator, B: FockOperator, cfg: ConvolutionConfig
) -> float:
    """Residual of Tr(A * B) = (pi t)^n Tr(A) Tr(B), normalized."""
    params = A.params
    grid = _dv_grid(params, cfg)
    conv = conv_op_op(A, B)
    integral = np.sum(grid.weights * conv.eval(grid.nodes))
    target = (np.pi * params.t) ** params.n * A.trace * B.trace
    return _normalized(integral - target, target)


def adjoint_duality_residuals(
    f: Symbol,
    A1: FockOperator,
    A2: FockOperator,
    B: FockOperator,
    cfg: ConvolutionConfig,
):
    """Normalized residuals of the three adjoint duality identities.

    1. <f * A1, B>_tr = <f, B * (U A1 U)>_tr
    2. <f * A2, B>_tr = <A2, (U f) * B>_tr
    3. <A1 * A2, f>_tr = <A1, f * (U A2 U)>_tr

    where <g, h>_tr integrates g h against dV and <A, B>_tr = Tr(AB).
    U f is f.flipped(), a Gaussian again when f is one, so every integral
    is on its exact rule.
    """
    params = A1.params
    grid = _dv_grid(params, cfg, f)
    fvals = np.asarray(f(grid.nodes))

    def tr(X: FockOperator, Y: FockOperator) -> complex:
        return complex(np.sum(X.matrix * Y.matrix.T))

    lhs1 = tr(conv_fun_op(f, A1, cfg), B)
    rhs1 = np.sum(grid.weights * fvals * conv_op_op(B, u_conjugate(A1)).eval(grid.nodes))
    r1 = _normalized(lhs1 - rhs1, rhs1)

    lhs2 = tr(conv_fun_op(f, A2, cfg), B)
    rhs2 = tr(A2, conv_fun_op(f.flipped(), B, cfg))
    r2 = _normalized(lhs2 - rhs2, rhs2)

    lhs3 = np.sum(grid.weights * fvals * conv_op_op(A1, A2).eval(grid.nodes))
    rhs3 = tr(A1, conv_fun_op(f, u_conjugate(A2), cfg))
    r3 = _normalized(lhs3 - rhs3, rhs3)

    return r1, r2, r3
