"""Constructive Toeplitz approximation.

Two steps realize the constructive scheme:

1. Fit the narrow heat kernel f_{t/N} by a weighted sum of width-t
   Gaussian translates f_t(. - z_j), recording the L^1 residual against
   the 1/N target.  The fit is fixed: nodes on the square lattice of
   pitch sqrt(t/N)/2 inside the disk of radius 3 sqrt(t) + sqrt(t/N),
   least squares with relative ridge 1e-8 (escalated only if the normal
   equations fail), coefficients rescaled to sum to 1.  The least-squares
   grid is the tensor square of an 80-node Gauss-Legendre rule and f_{t/N}
   and every translate factor over the two real axes, so the normal
   equations and the residual are assembled from 1-d Gram factors, never
   from the (80^2 x J) design matrix; the numbers equal the dense
   assembly's to roundoff.
2. For an operator A in the trusted class, build the symbol
   g_N = sum_j c_j * (Berezin transform of A)(. - z_j) and compare A
   with the Toeplitz operator T_{g_N}.  g_N is evaluated as one batched
   Berezin quadratic form per block of (point, translate) pairs, not one
   Berezin pass per translate, and every fit lattice is closed under
   z -> i z, which gives g_N at four points for the cost of one (the
   docstring of operators.BerezinTranslateSum explains how).  It agrees
   with the explicit sum of translates (the symbol's `parts`) to 1.4e-12
   of max |g_N|.  Alongside runs the
   baseline curve ||A - f_{t/N} * A||_op, which must dominate the error
   up to ||A|| times the fit residual (Young's inequality
   ||f * A|| <= ||f||_1 ||A|| has constant 1).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._output import params_dict, write_csv, write_json
from .convolution import conv_fun_op, default_config
from .model import FockOperator, FockParams, _warn, operator_norm_2, trusted_norm
from .operators import _CHUNK_BYTES, BerezinTranslateSum, toeplitz
from .quadrature import _legendre_rule
from .symbols import Symbol, heat_gaussian

# relative ridge: large oscillating coefficients amplify Berezin
# truncation bias outside the trusted window
RIDGE = 1e-8
RIDGE_ESCALATION = 100.0
MAX_RIDGE = 1e-4


@dataclass
class HeatKernelFit:
    """Weighted Gaussian-translate fit of the stage-N heat kernel."""

    N: int
    nodes: np.ndarray  # (J, n) complex translate centers
    coefficients: np.ndarray  # (J,) real
    l1_residual: float
    ridge: float


def fit_heat_kernel(params: FockParams, N: int) -> HeatKernelFit:
    """Least-squares fit of f_{t/N} by translates of f_t on a dV grid.

    Stage N = 1 is the exact fit: a single node at the origin with unit
    coefficient.  For N >= 2 the coefficients solve the ridge-regularized
    normal equations on the lattice of the module docstring and are
    rescaled to sum to 1 (f_{t/N} and every atom have unit mass); the L^1
    residual is evaluated a posteriori.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return HeatKernelFit(
            N=1,
            nodes=np.zeros((1, params.n), dtype=complex),
            coefficients=np.ones(1),
            l1_residual=0.0,
            ridge=0.0,
        )
    if params.n != 1:
        raise NotImplementedError("heat-kernel fitting lattices are built for n = 1")
    t, s = params.t, params.t / N
    pitch = 0.5 * np.sqrt(s)
    radius = 3.0 * np.sqrt(t) + np.sqrt(s)
    k = int(np.floor(radius / pitch))
    axis = pitch * np.arange(-k, k + 1)
    z = (axis[:, None] + 1j * axis[None, :]).ravel()
    inside = np.flatnonzero(np.abs(z) <= radius + 1e-12)
    nodes = z[inside][:, None]
    a, b = np.divmod(inside, axis.size)  # lattice indices of each node

    # The dV window (the lattice plus the Gaussian tails of f_t) is the
    # square of a 1-d rule, and f_s and every atom f_t(. - z_j) factor over
    # the real and imaginary axes, so the weighted normal equations are
    # products of entries of the 1-d Gram matrix G1 = E^T diag(w) E.
    x, w = _legendre_rule(float(radius + 4.0 * np.sqrt(t)), 80)
    E = np.exp(-((x[:, None] - axis[None, :]) ** 2) / t)  # (80, 2k + 1)
    G1 = E.T @ (w[:, None] * E)
    g = np.exp(-(x**2) / s)
    r1 = E.T @ (w * g)
    rhs = r1[a] * r1[b] / (np.pi**2 * s * t)

    lam = RIDGE
    while True:
        GT = _normal_matrix_transpose(G1, a, b, t)
        scale = float(np.trace(GT)) / GT.shape[0]
        GT.flat[:: GT.shape[0] + 1] += lam * scale
        try:
            # G1 is symmetric only to roundoff, so GT.T is the normal
            # matrix itself, in the Fortran order LAPACK factors in place
            c = scipy.linalg.solve(GT.T, rhs, assume_a="pos", overwrite_a=True)
            if np.all(np.isfinite(c)):
                break
        except scipy.linalg.LinAlgError:
            pass
        lam *= RIDGE_ESCALATION
        if lam > MAX_RIDGE:
            raise RuntimeError("heat-kernel fit normal equations remain ill-conditioned")
    if lam > RIDGE:
        _warn(f"heat-kernel fit ridge escalated to {lam:.1e}")

    c = c / float(np.sum(c))
    # L^1 residual on the same grid; the fitted field on it is E C E^T / (pi t)
    C = np.zeros((axis.size, axis.size))
    C[a, b] = c
    err = np.outer(g, g) / (np.pi * s) - (E @ C @ E.T) / (np.pi * t)
    resid = float(w @ np.abs(err) @ w)
    return HeatKernelFit(N=N, nodes=nodes, coefficients=c, l1_residual=resid, ridge=lam)


def _normal_matrix_transpose(G1, a, b, t: float) -> np.ndarray:
    """The transpose of the fit's normal matrix G[i, j] = G1[a_i, a_j] G1[b_i, b_j] / (pi t)^2.

    It is the fit's only J x J array (10 MB at N = 8), filled a block of
    rows at a time, and it lives in its own anonymous mapping, which is
    unmapped when the array is released.  From the malloc heap, a freed
    block that size raises glibc's dynamic mmap threshold, after which up
    to twice that much freed heap stays resident or not depending on the
    heap layout: the peak RSS of identical Theorem A runs differed by 8 MB.
    """
    J = a.size
    GT = np.frombuffer(mmap.mmap(-1, 8 * J * J), dtype=float).reshape(J, J)
    step = max(1, _CHUNK_BYTES // (8 * J))
    for start in range(0, J, step):
        rows = slice(start, start + step)
        np.multiply(G1.T[np.ix_(a[rows], a)], G1.T[np.ix_(b[rows], b)], out=GT[rows])
    GT *= (np.pi * t) ** -2
    return GT


def build_symbol_from_berezin(A: FockOperator, fit: HeatKernelFit) -> Symbol:
    """Symbol sum_j c_j * (A~)(. - z_j) from the Berezin transform of A.

    Nodes outside the Berezin trusted window are flagged with a warning
    (evaluation still proceeds; the bias grows with |z|).
    """
    radius = A.params.trusted_radius
    outside = [z for z in fit.nodes if np.sqrt(np.sum(np.abs(z) ** 2)) > radius]
    if outside:
        _warn(f"{len(outside)} fit nodes lie outside the trusted Berezin window")
    return BerezinTranslateSum(A, fit.nodes, fit.coefficients)


@dataclass
class ApproximationStage:
    N: int
    fit: HeatKernelFit
    op_error: float
    baseline_error: float  # ||A - f_{t/N} * A||_op

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "node_count": int(self.fit.nodes.shape[0]),
            "l1_residual": self.fit.l1_residual,
            "ridge": self.fit.ridge,
            "op_error": self.op_error,
            "baseline_error": self.baseline_error,
        }


@dataclass
class ApproximationReport:
    """Per-stage records of the constructive approximation of one operator."""

    target: str
    params: FockParams
    stages: list = field(default_factory=list)
    norm_target: float = 0.0

    def domination_holds(self, slack: float = 0.10) -> bool:
        """Check op_error <= baseline + ||A|| * l1_residual (with slack)."""
        for st in self.stages:
            bound = st.baseline_error + self.norm_target * st.fit.l1_residual
            if st.op_error > (1.0 + slack) * bound + 1e-12:
                return False
        return True

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "params": params_dict(self.params),
            "norm_target": self.norm_target,
            "stages": [s.as_dict() for s in self.stages],
        }

    def to_json(self, path) -> None:
        write_json(path, self.as_dict())

    def to_csv(self, path) -> None:
        rows = (
            (st.N, st.fit.l1_residual, st.op_error, st.baseline_error)
            for st in self.stages
        )
        write_csv(path, ["N", "l1_residual", "op_error", "baseline_error"], rows)


def toeplitz_approximation(
    A: FockOperator, stages, target: str = "operator"
) -> ApproximationReport:
    """Run the constructive scheme for each stage N.

    A should be built from Toeplitz / Weyl / finite-rank constructors
    (membership in the trusted class is by construction, not verified).
    """
    params = A.params
    report = ApproximationReport(target=target, params=params, norm_target=operator_norm_2(A))
    stages = list(stages)
    # the baseline ||A - f_{t/N} * A|| is the approximate-identity error at s = t/N
    baselines = approximate_identity_sweep(A, [params.t / N for N in stages])
    for N, (_, baseline) in zip(stages, baselines):
        fit = fit_heat_kernel(params, N)
        symbol = build_symbol_from_berezin(A, fit)
        T = toeplitz(params, symbol)
        # measured on the trusted sub-block: the top degrees of the truncated
        # matrices carry O(1) truncation artifacts for non-compact targets
        # such as Weyl operators
        op_error = trusted_norm(A - T)
        report.stages.append(
            ApproximationStage(N=N, fit=fit, op_error=op_error, baseline_error=baseline)
        )
    return report


def approximate_identity_sweep(A: FockOperator, s_list):
    """Errors ||f_s * A - A||_op for a decreasing list of widths s.

    For operators in the trusted (Toeplitz-built) class the errors
    decrease as s -> 0.  The errors are spectral norms of the trusted
    sub-block (degrees <= D/2): conjugation by truncated Weyl matrices is
    not exact at the top degrees.  Each f_s * A is the exact rule of order
    2D + 1, centred and scaled for f_s.
    """
    params = A.params
    cfg = default_config(params)
    out = []
    for s in s_list:
        diff = conv_fun_op(heat_gaussian(s, params.n), A, cfg) - A
        out.append((float(s), trusted_norm(diff)))
    return out
