"""Experiment runners for the analytic claims.

Three families of desk-scale experiments:

* quantization sweeps: semiclassical limits ||T_f T_g - T_{fg}|| -> 0
  and ||fg - heat(fg)||_inf -> 0 as t -> 0, rebuilding the model per t
  (Toeplitz matrices and heat transforms of Gaussians are closed forms);
* compactness diagnostics: Berezin decay profiles on circles, together
  with the singular-value list (truncation makes every matrix compact,
  so only the decay profile is diagnostic);
* invariance checks: residuals of alpha_w(T_f) = T_f on the trusted
  sub-block for symbols invariant under a subgroup of translations,
  with a radial negative control.

Each runner returns plain records; `write_sweep_csv` writes them as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._output import params_dict, write_csv
from .approximation import ApproximationReport, toeplitz_approximation
from .model import (
    FockOperator,
    FockParams,
    operator_norm_2,
    singular_values,
    trusted_norm,
)
from .operators import berezin_values, heat_values, toeplitz, weyl, alpha_op
from .symbols import Symbol


@dataclass
class SweepRecord:
    """One measured point of a parameter sweep."""

    parameter: float
    quantity: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity < 0:
            raise ValueError("measured quantities are non-negative")

    def as_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "quantity": self.quantity,
            "metadata": self.metadata,
        }


def write_sweep_csv(records: list, path, columns=("parameter", "quantity")) -> None:
    """Two-column CSV of a sweep; values serialized with repr for exactness."""
    write_csv(path, columns, ((float(r.parameter), float(r.quantity)) for r in records))


def _trusted_points(params: FockParams, m: int = 21) -> np.ndarray:
    """A deterministic sampling grid covering the trusted window in the first coordinate plane."""
    r = params.trusted_radius / np.sqrt(2.0)
    ax = np.linspace(-r, r, m)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    pts = np.zeros((m * m, params.n), dtype=complex)
    pts[:, 0] = (X + 1j * Y).ravel()
    return pts


def quantization_sweep(
    f: Symbol, g: Symbol, t_list, base: FockParams, m: int = 21
) -> tuple[list, list]:
    """Semiclassical quantization errors per weight t.

    For each t the model and its operators are rebuilt from scratch; no
    cross-t state survives.  Returns two record lists: the operator-norm
    deficiency ||T_f T_g - T_{fg}||_op and the heat sup-norm deficiency
    max |fg - heat(fg, t)| over the trusted window.  When f and g are
    Gaussians, fg is a Gaussian, so the three Toeplitz matrices and the
    heat transform are closed forms (`toeplitz`, `heat_values`), no
    quadrature grid is built, and both records are exact to rounding;
    otherwise they carry the error of the model grid and of Gauss-Hermite
    order Q.
    """
    fg = f * g
    op_records, sup_records = [], []
    for t in t_list:
        params = FockParams(base.n, float(t), base.D, base.Q)
        Tf = toeplitz(params, f)
        Tg = toeplitz(params, g)
        Tfg = toeplitz(params, fg)
        op_err = operator_norm_2(Tf @ Tg - Tfg)
        pts = _trusted_points(params, m)
        smoothed = heat_values(fg, params.t, pts, Q=params.Q)
        sup_err = float(np.max(np.abs(fg(pts) - smoothed)))
        meta = {"params": params_dict(params)}
        op_records.append(SweepRecord(float(t), op_err, meta))
        sup_records.append(SweepRecord(float(t), sup_err, meta))
    return op_records, sup_records


@dataclass
class CompactnessDiagnostic:
    """Berezin decay profile on circles plus the singular-value list."""

    radii: np.ndarray
    profile: np.ndarray  # max |A~| per circle
    svals: np.ndarray

    def records(self) -> list:
        return [
            SweepRecord(float(r), float(p)) for r, p in zip(self.radii, self.profile)
        ]


def compactness_diagnostic(
    A: FockOperator, radii, samples_per_circle: int = 64
) -> CompactnessDiagnostic:
    """Max of |A~| on circles of the given radii (radii inside the window).

    A decaying profile is the numerical witness of a C_0 Berezin
    transform; the singular values are reported alongside but carry no
    compactness information on a truncated space.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii > A.params.trusted_radius + 1e-12):
        raise ValueError("all radii must lie inside the trusted window")
    theta = 2.0 * np.pi * np.arange(samples_per_circle) / samples_per_circle
    # the circles lie in the first coordinate plane
    rings = np.zeros((radii.shape[0] * samples_per_circle, A.params.n), dtype=complex)
    rings[:, 0] = (radii[:, None] * np.exp(1j * theta)).ravel()
    values = np.abs(berezin_values(A, rings)).reshape(radii.shape[0], samples_per_circle)
    return CompactnessDiagnostic(
        radii=radii, profile=np.max(values, axis=1), svals=singular_values(A)
    )


def invariance_check(
    f: Symbol, params: FockParams, directions, magnitudes
) -> float:
    """Max residual of alpha_w(T_f) = T_f over w = lambda * direction.

    The residual is the spectral norm of the difference on the trusted
    sub-block (degrees <= D/2); the full truncated matrices cannot commute
    with translations at the top degrees.
    """
    Tf = toeplitz(params, f)
    worst = 0.0
    for direction in directions:
        d = np.atleast_1d(np.asarray(direction, dtype=complex))
        for lam in magnitudes:
            worst = max(worst, trusted_norm(alpha_op(Tf, lam * d) - Tf))
    return worst


def ccr_weyl_approximation(z0, params: FockParams, stages) -> ApproximationReport:
    """Theorem A applied to a Weyl operator: W_{z0} as a Toeplitz limit."""
    z = np.atleast_1d(np.asarray(z0, dtype=complex))
    if np.sqrt(np.sum(np.abs(z) ** 2)) > params.trusted_radius:
        raise ValueError("z0 must lie inside the trusted window")
    A = weyl(params, z)
    return toeplitz_approximation(A, list(stages), target=f"weyl z0={z0}")
