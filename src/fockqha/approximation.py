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
   from the (80^2 x J) design matrix.  The problem is invariant under the
   eight symmetries of the lattice, so it is solved for one coefficient
   per orbit (156 unknowns instead of J = 1117 at N = 8), and no J x J
   matrix is formed; the numbers equal the dense assembly's to roundoff.
2. For an operator A in the trusted class, build the symbol
   g_N = sum_j c_j * (Berezin transform of A)(. - z_j) and compare A
   with the Toeplitz operator T_{g_N}.  g_N is evaluated translates first,
   not one Berezin pass per translate: for each point r one Gram matrix
   H_r of the translated basis rows, weighted by c_j over their squared
   norms (rows scaled first where those overflow), gives
   g_N(r) = <A, H_r>.  A diagonal A (T of e^{-|z|^2/2} and P_C among
   the Theorem A targets) needs only the diagonal of H_r, the weighted
   squared moduli of the translated rows, and no Gram product; those
   are the real weights x^alpha / alpha!, x = |w|^2 / t, formed with no
   complex row (only pairs past 2^512 take the scaled rows).  Every
   fit lattice is closed under z -> i z and conjugation with
   coefficients equal on each orbit, so one H_r gives g_N at all eight
   points of the orbit of r (the docstring of
   operators.BerezinTranslateSum explains how).  It agrees with the
   explicit sum of translates (the symbol's `parts`) to 2.0e-12 of
   max |g_N|.  Alongside runs the baseline curve ||A - f_{t/N} * A||_op,
   which must dominate the error up to ||A|| times the fit residual
   (Young's inequality ||f * A|| <= ||f||_1 ||A|| has constant 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._output import params_dict, write_csv, write_json
from .convolution import conv_fun_op, default_config
from .model import FockOperator, FockParams, _warn, operator_norm_2, trusted_norm
from .operators import BerezinTranslateSum, toeplitz
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
    normal equations on the lattice of the module docstring, reduced to
    the lattice's orbits under z -> i z and conjugation (the coefficients
    are exactly equal on each orbit), and are rescaled to sum to 1 (f_{t/N}
    and every atom have unit mass); the L^1 residual is evaluated a
    posteriori.
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
    # the D4 orbit of each node: the problem is invariant under z -> i z
    # and conjugation, so its unique minimiser is constant on each orbit
    u, v = np.abs(a - k), np.abs(b - k)
    _, orbit, sizes = np.unique(
        np.maximum(u, v) * (k + 1) + np.minimum(u, v), return_inverse=True, return_counts=True
    )

    # The dV window (the lattice plus the Gaussian tails of f_t) is the
    # square of a 1-d rule, and f_s and every atom f_t(. - z_j) factor over
    # the real and imaginary axes, so the normal matrix is
    # G[i, j] = G1[a_i, a_j] G1[b_i, b_j] / (pi t)^2 with the symmetric 1-d
    # Gram matrix G1 = E^T diag(w) E.  Summed over orbits, with V_o the
    # orbit's indicator on the lattice square, (P^T G P)[o', o] = <V_o', G1 V_o G1>.
    x, w = _legendre_rule(float(radius + 4.0 * np.sqrt(t)), 80)
    E = np.exp(-((x[:, None] - axis[None, :]) ** 2) / t)  # (80, 2k + 1)
    F = np.sqrt(w)[:, None] * E
    G1 = F.T @ F
    g = np.exp(-(x**2) / s)
    r1 = E.T @ (w * g)
    rhs = np.bincount(orbit, weights=r1[a] * r1[b] / (np.pi**2 * s * t))
    V = np.zeros((sizes.size, axis.size, axis.size))
    V[orbit, a, b] = 1.0
    Y = G1 @ (V @ G1)
    Gr = V.reshape(sizes.size, -1) @ Y.reshape(sizes.size, -1).T / (np.pi * t) ** 2
    d = np.diag(G1)
    scale = float(d[a] @ d[b]) / (np.pi * t) ** 2 / a.size  # trace(G) / J

    lam = RIDGE
    while True:
        try:
            c = np.linalg.solve(Gr + np.diag(lam * scale * sizes), rhs)
            if np.all(np.isfinite(c)):
                break
        except np.linalg.LinAlgError:
            pass
        lam *= RIDGE_ESCALATION
        if lam > MAX_RIDGE:
            raise RuntimeError("heat-kernel fit normal equations remain ill-conditioned")
    if lam > RIDGE:
        _warn(f"heat-kernel fit ridge escalated to {lam:.1e}")

    c = c[orbit]
    c = c / float(np.sum(c))
    # L^1 residual on the same grid; the fitted field on it is E C E^T / (pi t)
    C = np.zeros((axis.size, axis.size))
    C[a, b] = c
    err = np.outer(g, g) / (np.pi * s) - (E @ C @ E.T) / (np.pi * t)
    resid = float(w @ np.abs(err) @ w)
    return HeatKernelFit(N=N, nodes=nodes, coefficients=c, l1_residual=resid, ridge=lam)


def build_symbol_from_berezin(A: FockOperator, fit: HeatKernelFit) -> Symbol:
    """Symbol sum_j c_j * (A~)(. - z_j) from the Berezin transform of A.

    Nodes outside the Berezin trusted window are flagged with a warning
    (evaluation still proceeds; the bias grows with |z|).
    """
    symbol = BerezinTranslateSum(A, fit.nodes, fit.coefficients)  # validates before warning
    # |z| as sqrt(sum |z_k|^2): np.linalg.norm rounds the lattice nodes that
    # lie on the window's edge differently and would change the count
    norms = np.sqrt(np.sum(np.abs(fit.nodes) ** 2, axis=1))
    outside = np.count_nonzero(norms > A.params.trusted_radius)
    if outside:
        _warn(f"{outside} fit nodes lie outside the trusted Berezin window")
    return symbol


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
    not exact at the top degrees.  Each f_s * A is the closed form of
    conv_fun_op for a centred Gaussian, the classical-noise channel, exact
    to rounding; no dV rule is built.
    """
    params = A.params
    cfg = default_config(params)
    out = []
    for s in s_list:
        diff = conv_fun_op(heat_gaussian(s, params.n), A, cfg) - A
        out.append((float(s), trusted_norm(diff)))
    return out
