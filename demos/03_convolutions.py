"""Function-operator convolutions and their exact identities.

Checks, at desk scale, the trace identity Tr(A * B) = (pi t)^n Tr A Tr B,
one adjoint duality, the closed form (P_C * P_C)(z) = e^{-|z|^2/t}, and
the agreement of the two independent Toeplitz pipelines T_f and R_t * f.
"""

import numpy as np

from fockqha.convolution import (
    adjoint_duality_residuals,
    conv_op_op,
    default_config,
    toeplitz_via_convolution,
    trace_identity_residual,
)
from fockqha.model import FockParams, identity_operator, kernel_coefficients, pc_operator, rank_one
from fockqha.operators import toeplitz
from fockqha.symbols import Gaussian

params = FockParams(n=1, t=1.0, D=16, Q=20)
cfg = default_config(params)
print(f"dV rule: polar order {cfg.m} = 2D + 1 (Gauss-Laguerre radii x equispaced angles), exact for the pointwise integrals below")
print("Gaussian kernels f * A: closed form, noise channel plus one Weyl conjugation per plane (no rule)")

# trace identity for a pair of coherent projections
k1 = kernel_coefficients(params, 0.3)
k2 = kernel_coefficients(params, -0.2 + 0.4j)
A, B = rank_one(k1, k1), rank_one(k2, k2)
print(f"trace identity residual: {trace_identity_residual(A, B, cfg):.2e}")

# adjoint dualities
rs = adjoint_duality_residuals(
    Gaussian(center=0.2, width=1.0), A, B, identity_operator(params), cfg
)
print("adjoint duality residuals:", ", ".join(f"{r:.2e}" for r in rs))

# P_C * P_C in closed form
conv = conv_op_op(pc_operator(params), pc_operator(params))
pts = np.array([0.0, 0.6, 1.0 - 0.5j])[:, None]
got = conv.eval(pts).real
want = np.exp(-np.abs(pts[:, 0]) ** 2 / params.t)
print(f"(P_C * P_C) closed-form max diff: {np.max(np.abs(got - want)):.2e}")

# two pipelines to the same Toeplitz operator
f = Gaussian(center=0.3, width=2.0)
direct = toeplitz(params, f)
via = toeplitz_via_convolution(f, params, cfg)
rel = np.linalg.norm(direct.matrix - via.matrix) / np.linalg.norm(direct.matrix)
print(f"two-pipeline relative Frobenius error: {rel:.2e}")
