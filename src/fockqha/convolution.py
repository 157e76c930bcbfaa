"""Werner-style convolutions between functions and operators.

* f * A  : operator-valued quadrature of f(z) alpha_z(A) dV(z)
* A * B  : the function z -> Tr(A alpha_z(U B U)), evaluated lazily

together with the trace identity Tr(A * B) = (pi t)^n Tr(A) Tr(B)
and the adjoint duality relations, exposed as residual computations.

Every dV integral is one Gauss-Hermite rule, and in the truncated model
that rule is exact.  An entry of alpha_z(A) = W_z A W_z^* is a polynomial
of degree <= 4D in (z, conj z) times exp(-|z|^2 / t), by the Laguerre
form of the Weyl matrices; so is (A * B)(z).  Against a Gaussian kernel
f = a exp(-|z - c|^2 / w), completing the square leaves the same
polynomial times exp(-|z - mu|^2 / tau) with 1/tau = 1/t + 1/w and
mu = (tau / w) c, and hermite_dv_grid at that centre and width, of order
2D + 1 per real axis, integrates it exactly.  Any other f, and the
trace-identity integrand, use mu = 0 and tau = t; the rule is then exact
for polynomial f of low degree and spectrally accurate for smooth f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FockOperator,
    FockParams,
    _check_params,
    parity_matrix,
    pc_operator,
)
from .operators import _conjugations
from .quadrature import GaussGrid, hermite_dv_grid
from .symbols import Gaussian, Symbol


@dataclass(frozen=True)
class ConvolutionConfig:
    """The Gauss-Hermite order per real axis of every convolution's dV rule."""

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
    a Gaussian; otherwise the rule is centred at 0 with width t.
    """
    t = params.t
    if isinstance(f, Gaussian):
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


def conv_fun_op(f, A: FockOperator, cfg: ConvolutionConfig) -> FockOperator:
    """f * A = quadrature Bochner integral of f(z) alpha_z(A) dV(z).

    The sum of c_i W_i A W_i^* over the nodes with nonzero weight
    c_i = w_i f(z_i) is one (dim x B dim) by (B dim x dim) product per
    block of B nodes, on the rule of _dv_grid.  Satisfies
    ||f * A|| <= ||f||_{L^1} ||A|| up to truncation.  The blocks and the
    summation order are fixed by the grid, so results are reproducible
    bit-for-bit.
    """
    params = A.params
    grid = _dv_grid(params, cfg, f)
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
