"""Constructive Toeplitz approximation.

Two steps realize the constructive scheme:

1. Fit the narrow heat kernel f_{t/N} by a weighted sum of width-t
   Gaussian translates f_t(. - z_j) (ridge-regularized least squares on
   a node lattice), recording the L^1 residual against the 1/N target.
2. For an operator A in the trusted class, build the symbol
   g_N = sum_j c_j * (Berezin transform of A)(. - z_j) and compare A
   with the Toeplitz operator T_{g_N}, alongside the baseline curve
   ||A - f_{t/N} * A||_op which must dominate the error up to the
   measured convolution constant times the fit residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._output import params_dict, write_csv, write_json
from .convolution import ConvolutionConfig, conv_fun_op, l1_window_norm
from .model import FockOperator, FockParams, degree_projector, operator_norm_2
from .operators import BerezinSymbol, toeplitz
from .quadrature import lebesgue_grid
from .symbols import Gaussian, Scale, Symbol, SymbolSum, Translate, heat_gaussian

DEFAULT_RIDGE = 1e-12
# stronger regularization for the operator pipeline: large oscillating
# coefficients amplify Berezin truncation bias outside the trusted window
ENGINE_RIDGE = 1e-8
RIDGE_ESCALATION = 100.0
MAX_RIDGE = 1e-4


@dataclass(frozen=True)
class NodeLayout:
    """Square lattice of candidate translate centers inside a disk."""

    pitch: float
    radius: float

    def points(self, n: int) -> np.ndarray:
        if n != 1:
            raise NotImplementedError("heat-kernel fitting lattices are built for n = 1")
        k = int(np.floor(self.radius / self.pitch))
        axis = self.pitch * np.arange(-k, k + 1)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        z = (X + 1j * Y).ravel()
        z = z[np.abs(z) <= self.radius + 1e-12]
        return z[:, None]


def default_layout(params: FockParams, N: int) -> NodeLayout:
    """Lattice pitch sqrt(t)/2 inside radius 3 sqrt(t) + sqrt(t/N)."""
    t = params.t
    return NodeLayout(pitch=0.5 * np.sqrt(t), radius=3.0 * np.sqrt(t) + np.sqrt(t / N))


def refined_layout(params: FockParams, N: int) -> NodeLayout:
    """Pitch shrunk with the target width so high stages stay expressive."""
    t = params.t
    return NodeLayout(
        pitch=0.5 * np.sqrt(t / N), radius=3.0 * np.sqrt(t) + np.sqrt(t / N)
    )


@dataclass
class HeatKernelFit:
    """Weighted Gaussian-translate fit of the stage-N heat kernel."""

    N: int
    nodes: np.ndarray  # (J, n) complex translate centers
    coefficients: np.ndarray  # (J,) real
    l1_residual: float
    ridge: float
    flagged: bool = False

    def symbol(self, params: FockParams) -> Symbol:
        """The fitted sum of translated width-t Gaussians."""
        parts = [
            Scale(Translate(heat_gaussian(params.t, params.n), z), c)
            for z, c in zip(self.nodes, self.coefficients)
        ]
        return SymbolSum(parts)


def _fit_grid(params: FockParams, layout: NodeLayout, cfg: ConvolutionConfig | None):
    if cfg is not None:
        return cfg.grid(params.n)
    # window covering the lattice plus the Gaussian tails of f_t
    W = layout.radius + 4.0 * np.sqrt(params.t)
    return lebesgue_grid(float(W), 80, params.n)


def fit_heat_kernel(
    params: FockParams,
    N: int,
    node_layout: NodeLayout | None = None,
    cfg: ConvolutionConfig | None = None,
    ridge: float = DEFAULT_RIDGE,
    refine_l1: bool = True,
    normalize_sum: bool = False,
) -> HeatKernelFit:
    """Least-squares fit of f_{t/N} by translates of f_t on the dV grid.

    Coefficients minimize the squared-L^2 residual (normal equations
    with ridge regularization); the L^1 residual is evaluated a
    posteriori and stored.  Stage N = 1 is the exact fit: a single node
    at the origin with unit coefficient.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    t = params.t
    if N == 1:
        grid = _fit_grid(params, node_layout or default_layout(params, 1), cfg)
        target = heat_gaussian(t, params.n)
        fitted = heat_gaussian(t, params.n)
        resid = float(
            np.sum(grid.weights * np.abs(target(grid.nodes) - fitted(grid.nodes)))
        )
        return HeatKernelFit(
            N=1,
            nodes=np.zeros((1, params.n), dtype=complex),
            coefficients=np.ones(1),
            l1_residual=resid,
            ridge=0.0,
        )

    layout = node_layout or default_layout(params, N)
    nodes = layout.points(params.n)
    grid = _fit_grid(params, layout, cfg)
    target = heat_gaussian(t / N, params.n)(grid.nodes).real

    # design matrix: Phi[i, j] = f_t(x_i - z_j)
    diff = grid.nodes[:, None, 0] - nodes[None, :, 0]
    Phi = (np.pi * t) ** (-params.n) * np.exp(-np.abs(diff) ** 2 / t)
    lam = ridge
    flagged = False

    def solve_weighted(row_weights, lam):
        sw2 = np.sqrt(row_weights)
        Aw2 = Phi * sw2[:, None]
        G = Aw2.T @ Aw2
        scale = float(np.trace(G)) / G.shape[0]
        try:
            return scipy.linalg.solve(
                G + lam * scale * np.eye(G.shape[0]), Aw2.T @ (target * sw2), assume_a="pos"
            )
        except scipy.linalg.LinAlgError:
            return None

    while True:
        c = solve_weighted(grid.weights, lam)
        if c is not None and np.all(np.isfinite(c)):
            break
        lam *= RIDGE_ESCALATION
        flagged = True
        if lam > MAX_RIDGE:
            raise RuntimeError("heat-kernel fit normal equations remain ill-conditioned")
    if flagged:
        warnings.warn(f"heat-kernel fit ridge escalated to {lam:.1e}", stacklevel=2)

    def l1_of(c):
        return float(np.sum(grid.weights * np.abs(target - Phi @ c)))

    # a few deterministic L1-reweighting refinements; keep the best iterate,
    # so the result is never worse than the plain least-squares fit
    best_c, best_l1 = c, l1_of(c)
    row_w = grid.weights
    for _ in range(6 if refine_l1 else 0):
        resid_now = np.abs(target - Phi @ best_c)
        row_w = grid.weights / np.maximum(resid_now, 1e-3 * resid_now.max() + 1e-300)
        c_new = solve_weighted(row_w, lam)
        if c_new is None or not np.all(np.isfinite(c_new)):
            break
        l1_new = l1_of(c_new)
        if l1_new < best_l1:
            best_c, best_l1 = c_new, l1_new
    c, resid = best_c, best_l1
    if normalize_sum:
        # both f_{t/N} and the dictionary atoms have unit mass, so the exact
        # coefficient sum is 1; enforcing it makes mass-sensitive targets
        # (identity-like operators) exact
        total = float(np.sum(c))
        if total != 0.0:
            c = c / total
            resid = l1_of(c)
    return HeatKernelFit(
        N=N, nodes=nodes, coefficients=c, l1_residual=resid, ridge=lam, flagged=flagged
    )


def build_symbol_from_berezin(A: FockOperator, fit: HeatKernelFit) -> Symbol:
    """Symbol sum_j c_j * (A~)(. - z_j) from the Berezin transform of A.

    Nodes outside the Berezin trusted window are flagged with a warning
    (evaluation still proceeds; the bias grows with |z|).
    """
    base = BerezinSymbol(A)
    radius = A.params.trusted_radius
    outside = [z for z in fit.nodes if np.sqrt(np.sum(np.abs(z) ** 2)) > radius]
    if outside:
        warnings.warn(
            f"{len(outside)} fit nodes lie outside the trusted Berezin window",
            stacklevel=2,
        )
    parts = [
        Scale(Translate(base, z), c) for z, c in zip(fit.nodes, fit.coefficients)
    ]
    return SymbolSum(parts)


def stage_convolution_config(params: FockParams, N: int) -> ConvolutionConfig:
    """dV window adapted to the width of f_{t/N} (narrow kernels need
    a tight, well-resolved window)."""
    s = params.t / N
    return ConvolutionConfig(window=6.0 * np.sqrt(s), m=48)


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
    young_constant: float = 1.0

    def domination_holds(self, slack: float = 0.10) -> bool:
        """Check op_error <= baseline + C * ||A|| * l1_residual (with slack)."""
        for st in self.stages:
            bound = st.baseline_error + self.young_constant * self.norm_target * st.fit.l1_residual
            if st.op_error > (1.0 + slack) * bound + 1e-12:
                return False
        return True

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "params": params_dict(self.params),
            "norm_target": self.norm_target,
            "young_constant": self.young_constant,
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
    A: FockOperator,
    stages,
    cfg: ConvolutionConfig | None = None,
    target: str = "operator",
    young_constant: float = 1.0,
) -> ApproximationReport:
    """Run the constructive scheme for each stage N.

    A should be built from Toeplitz / Weyl / finite-rank constructors
    (membership in the trusted class is by construction, not verified).
    """
    params = A.params
    # errors are measured on the trusted sub-block (degrees <= D/2): the top
    # degrees of the truncated matrices carry O(1) truncation artifacts for
    # non-compact targets such as Weyl operators
    proj = degree_projector(params, params.D // 2)
    report = ApproximationReport(
        target=target,
        params=params,
        norm_target=operator_norm_2(A),
        young_constant=young_constant,
    )
    for N in stages:
        # the plain least-squares solution tracks the low-frequency content of
        # f_{t/N} best, which is what the operator error responds to
        fit = fit_heat_kernel(
            params,
            N,
            node_layout=refined_layout(params, N),
            refine_l1=False,
            normalize_sum=True,
            ridge=ENGINE_RIDGE,
        )
        symbol = build_symbol_from_berezin(A, fit)
        T = toeplitz(params, symbol)
        op_error = operator_norm_2(proj @ (A - T) @ proj)
        stage_cfg = cfg if cfg is not None else stage_convolution_config(params, N)
        smoothed = conv_fun_op(heat_gaussian(params.t / N, params.n), A, stage_cfg)
        baseline = operator_norm_2(proj @ (A - smoothed) @ proj)
        report.stages.append(
            ApproximationStage(
                N=N,
                fit=fit,
                op_error=op_error,
                baseline_error=baseline,
            )
        )
    return report


def approximate_identity_sweep(A: FockOperator, s_list, cfg: ConvolutionConfig | None = None):
    """Errors ||f_s * A - A||_op for a decreasing list of widths s.

    For operators in the trusted (Toeplitz-built) class the errors
    decrease as s -> 0.  Like the approximation reports, the errors are
    spectral norms of the trusted sub-block (degrees <= D/2): conjugation
    by truncated Weyl matrices is not exact at the top degrees.
    """
    params = A.params
    proj = degree_projector(params, params.D // 2)
    out = []
    for s in s_list:
        s_cfg = cfg if cfg is not None else ConvolutionConfig(window=6.0 * np.sqrt(s), m=48)
        diff = conv_fun_op(heat_gaussian(s, params.n), A, s_cfg) - A
        out.append((float(s), operator_norm_2(proj @ diff @ proj)))
    return out


def measured_young_constant(params: FockParams, cfg: ConvolutionConfig) -> float:
    """Empirical convolution constant over standard probes (>= 1 floor)."""
    from .convolution import young_ratio
    from .model import pc_operator

    probes = [
        (heat_gaussian(params.t, params.n), pc_operator(params)),
        (Gaussian(center=0.5, width=1.0, n=params.n), pc_operator(params)),
    ]
    best = 1.0
    for f, A in probes:
        best = max(best, young_ratio(f, A, cfg))
    return best
