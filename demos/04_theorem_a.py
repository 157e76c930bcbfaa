"""The constructive Toeplitz-approximation scheme.

Step 1 fits the narrow heat kernel f_{t/N} by width-t Gaussian
translates; step 2 approximates an operator A by the Toeplitz operator
whose symbol is the matching weighted sum of translates of the Berezin
transform of A.  The error curves decrease with N and are dominated by
the smoothing baseline ||A - f_{t/N} * A|| plus ||A|| times the fit
residual.
"""

import warnings

from fockqha.approximation import fit_heat_kernel, toeplitz_approximation
from fockqha.model import FockParams
from fockqha.operators import toeplitz, weyl
from fockqha.symbols import Gaussian

params = FockParams(n=1, t=1.0, D=24, Q=26)

# the Wiener step: L1 fit quality of the narrow heat kernel
print("heat-kernel fits used by the scheme (target 1/N):")
for N in [1, 2, 4, 8]:
    fit = fit_heat_kernel(params, N)
    print(f"  N={N}: {fit.nodes.shape[0]:4d} nodes, L1 residual {fit.l1_residual:.4f}")

# error curves for two targets in the Toeplitz algebra
for name, A in [
    ("T_f, f a Gaussian bump", toeplitz(params, Gaussian(center=0.3, width=2.0))),
    ("W_{0.5}, a Weyl operator", weyl(params, 0.5)),
]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = toeplitz_approximation(A, [1, 2, 4, 8], target=name)
    print(f"\ntarget {name}:")
    print("    N   l1_residual   op_error   baseline")
    for st in report.stages:
        print(
            f"  {st.N:3d}   {st.fit.l1_residual:11.4e}  {st.op_error:9.3e}  {st.baseline_error:9.3e}"
        )
    print(f"  domination inequality holds: {report.domination_holds()}")
    for w in caught:
        print(f"  flag  {w.message}")
