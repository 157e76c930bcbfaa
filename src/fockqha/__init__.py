"""Numerical harmonic analysis on truncated Fock spaces.

Truncated Fock-space models (monomial basis under a Gaussian weight),
Weyl and Toeplitz operators, Berezin and heat transforms, quantum
harmonic-analysis convolutions between functions and operators, and the
constructive approximation of Toeplitz-algebra elements by Toeplitz
operators with translated-Berezin symbols.

Importing the package defaults the BLAS thread-count variables to 1
before numpy loads: threaded reductions are not bit-reproducible across
pool sizes.  Variables already set are left as they are.

The package needs numpy only; importing it loads nothing heavier.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .approximation import (
    ApproximationReport,
    HeatKernelFit,
    approximate_identity_sweep,
    build_symbol_from_berezin,
    fit_heat_kernel,
    toeplitz_approximation,
)
from .convolution import (
    ConvolutionConfig,
    adjoint_duality_residuals,
    conv_fun_op,
    conv_op_op,
    default_config,
    r_t_operator,
    toeplitz_via_convolution,
    trace_identity_residual,
    u_conjugate,
)
from .experiments import (
    SweepRecord,
    ccr_weyl_approximation,
    compactness_diagnostic,
    invariance_check,
    quantization_sweep,
)
from .model import (
    FockOperator,
    FockParams,
    FockVector,
    basis_matrix,
    basis_vector,
    degree_projector,
    identity_operator,
    kernel_coefficients,
    multi_indices,
    operator_norm_2,
    parity_matrix,
    pc_operator,
    rank_one,
    schatten_norm,
    singular_values,
)
from .operators import (
    BerezinSymbol,
    alpha_op,
    berezin,
    berezin_values,
    heat_transform,
    heat_values,
    toeplitz,
    weyl,
    weyl_matrices,
)
from .quadrature import GaussGrid, gaussian_grid, lebesgue_grid
from .serialize import load_operator, save_operator
from .symbols import (
    Constant,
    Gaussian,
    GridSymbol,
    Horizontal,
    Parity,
    PlaneWave,
    Polynomial,
    Radial,
    Symbol,
    Translate,
    heat_gaussian,
)

__version__ = "0.1.0"
