"""Werner-style convolutions between functions and operators.

Realized numerically on a windowed Lebesgue grid:

* f * A  : operator-valued quadrature of f(z) alpha_z(A) dV(z)
* A * B  : the function z -> Tr(A alpha_z(U B U)), evaluated lazily
* f * g  : ordinary convolution by quadrature

together with the trace identity Tr(A * B) = (pi t)^n Tr(A) Tr(B)
and the adjoint duality relations, exposed as residual computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FockOperator,
    FockParams,
    _check_params,
    operator_norm_2,
    parity_matrix,
    pc_operator,
)
from .operators import _conjugations, _shifted_sums
from .quadrature import default_window, lebesgue_grid
from .symbols import Parity, Symbol


@dataclass(frozen=True)
class ConvolutionConfig:
    """Shared dV-grid settings for all convolution integrals."""

    window: float
    m: int = 40

    def __post_init__(self):
        if self.window <= 0 or self.m < 2:
            raise ValueError("window must be positive and m >= 2")

    def grid(self, n: int):
        return lebesgue_grid(self.window, self.m, n)

    def doubled(self) -> "ConvolutionConfig":
        return ConvolutionConfig(2.0 * self.window, 2 * self.m)


def default_config(params: FockParams, m: int = 64) -> ConvolutionConfig:
    return ConvolutionConfig(default_window(params.t, params.D), m)


def l1_window_norm(f, cfg: ConvolutionConfig, n: int = 1) -> float:
    """||f||_{L^1} restricted to the configured window."""
    grid = cfg.grid(n)
    return float(np.sum(grid.weights * np.abs(np.asarray(f(grid.nodes)))))


def window_unstable(f, cfg: ConvolutionConfig, n: int = 1, tol: float = 1e-6) -> bool:
    """Integrability check: does the L^1 mass move when the window doubles?"""
    a = l1_window_norm(f, cfg, n)
    b = l1_window_norm(f, cfg.doubled(), n)
    return abs(a - b) > tol * (1.0 + abs(b))


def r_t_operator(params: FockParams) -> FockOperator:
    """R_t = (pi t)^{-n} P_C; convolving with it is Toeplitz quantization."""
    return ((np.pi * params.t) ** (-params.n)) * pc_operator(params)


def u_conjugate(A: FockOperator) -> FockOperator:
    """U A U with the exact diagonal parity matrix."""
    U = parity_matrix(A.params).matrix
    return FockOperator(A.params, U @ A.matrix @ U)


def conv_fun_op(f, A: FockOperator, cfg: ConvolutionConfig) -> FockOperator:
    """f * A = quadrature Bochner integral of f(z) alpha_z(A) dV(z).

    The sum of c_i W_i A W_i^* over the nodes with nonzero weight
    c_i = w_i f(z_i) is one (dim x B dim) by (B dim x dim) product per
    block of B nodes.  Satisfies ||f * A|| <= ||f||_{L^1} ||A|| up to
    truncation.  The blocks and the summation order are fixed by the
    grid, so results are reproducible bit-for-bit.
    """
    params = A.params
    grid = cfg.grid(params.n)
    c = grid.weights * grid.evaluate(f)
    keep = np.flatnonzero(c)
    c = c[keep]
    d = params.dim
    acc = np.zeros((d, d), dtype=complex)
    for rows, W, WA in _conjugations(params, grid.nodes[keep], A.matrix):
        WA *= c[rows, None, None]
        right = W.transpose(0, 2, 1).reshape(-1, d)
        acc += WA.transpose(1, 0, 2).reshape(d, -1) @ np.conjugate(right, out=right)
    return FockOperator(params, acc)


class OperatorConvolution(Symbol):
    """A * B as a lazily evaluated function z -> Tr(A alpha_z(U B U)).

    Points are evaluated a block at a time: with W_z the Weyl matrices of
    the block, Tr(A W_z UBU W_z^*) is the sum of (W_z UBU) times the
    entries of A^T conj(W_z).
    """

    def __init__(self, A: FockOperator, B: FockOperator):
        _check_params(A.params, B.params)
        self.A = A
        self.B = B
        self.n = A.params.n
        self._ubu = u_conjugate(B).matrix

    def eval(self, points):
        params = self.A.params
        out = np.empty(points.shape[0], dtype=complex)
        At = self.A.matrix.T
        for rows, W, WX in _conjugations(params, points, self._ubu):
            out[rows] = np.einsum("bjk,bjk->b", WX, At @ np.conj(W))
        return out


def conv_op_op(A: FockOperator, B: FockOperator) -> OperatorConvolution:
    """The convolution A * B: z -> Tr(A (alpha_z(U B U)))."""
    return OperatorConvolution(A, B)


class FunctionConvolution(Symbol):
    """f * g(z) = integral f(w) g(z - w) dV(w), by windowed quadrature."""

    def __init__(self, f, g, cfg: ConvolutionConfig, n: int = 1):
        self.f = f
        self.g = g
        self.cfg = cfg
        self.n = n

    def eval(self, points):
        grid = self.cfg.grid(self.n)
        fvals = np.asarray(self.f(grid.nodes))
        return _shifted_sums(self.g, points, -grid.nodes, grid.weights * fvals)


def conv_fun_fun(f, g, cfg: ConvolutionConfig, n: int = 1) -> FunctionConvolution:
    return FunctionConvolution(f, g, cfg, n=n)


def toeplitz_via_convolution(
    f, params: FockParams, cfg: ConvolutionConfig
) -> FockOperator:
    """Toeplitz operator through the convolution pipeline: R_t * f.

    Independent of the Gaussian-quadrature construction in
    operators.toeplitz; the two must agree in Frobenius norm within
    the combined quadrature tolerance.
    """
    return conv_fun_op(f, r_t_operator(params), cfg)


def _normalized(diff: complex, reference: complex) -> float:
    return float(abs(diff) / (1.0 + abs(reference)))


def trace_identity_residual(
    A: FockOperator, B: FockOperator, cfg: ConvolutionConfig
) -> float:
    """Residual of Tr(A * B) = (pi t)^n Tr(A) Tr(B), normalized."""
    params = A.params
    grid = cfg.grid(params.n)
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

    where <g, h>_tr integrates g h over the window and <A, B>_tr = Tr(AB).
    """
    params = A1.params
    grid = cfg.grid(params.n)
    fvals = np.asarray(f(grid.nodes))

    def tr(X: FockOperator, Y: FockOperator) -> complex:
        return complex(np.sum(X.matrix * Y.matrix.T))

    lhs1 = tr(conv_fun_op(f, A1, cfg), B)
    rhs1 = np.sum(grid.weights * fvals * conv_op_op(B, u_conjugate(A1)).eval(grid.nodes))
    r1 = _normalized(lhs1 - rhs1, rhs1)

    lhs2 = tr(conv_fun_op(f, A2, cfg), B)
    rhs2 = tr(A2, conv_fun_op(Parity(f), B, cfg))
    r2 = _normalized(lhs2 - rhs2, rhs2)

    lhs3 = np.sum(grid.weights * fvals * conv_op_op(A1, A2).eval(grid.nodes))
    rhs3 = tr(A1, conv_fun_op(f, u_conjugate(A2), cfg))
    r3 = _normalized(lhs3 - rhs3, rhs3)

    return r1, r2, r3


def young_ratio(f, A: FockOperator, cfg: ConvolutionConfig) -> float:
    """Empirical ratio ||f * A||_op / (||f||_{L^1(window)} ||A||_op)."""
    denom = l1_window_norm(f, cfg, A.params.n) * operator_norm_2(A)
    if denom == 0.0:
        return 0.0
    return operator_norm_2(conv_fun_op(f, A, cfg)) / denom
