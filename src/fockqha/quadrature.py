"""Quadrature on C^n ~ R^{2n}.

Four families of grids are provided:

* Gaussian grids for the probability measure
  dmu_t(z) = (pi t)^{-n} exp(-|z|^2 / t) dV(z),
  built from tensorized Gauss-Hermite rules.  Polynomials in
  (z, conj z) of total degree <= 2Q - 1 are integrated exactly.
* Gauss-Hermite rules for dV itself, centred at mu with width tau:
  the nodes of the mu_tau grid shifted by mu, with the Gaussian weight
  divided out.  They integrate P(z) exp(-|z - mu|^2 / tau) exactly when
  P has degree <= 2Q - 1 in each real coordinate.  No convolution uses
  them; they stay as an independent check on the polar rules.
* Polar product rules for dV, centred at mu with width tau: on each
  complex plane, Gauss-Laguerre nodes in s = |z - mu|^2 / tau times
  equispaced angles (Stroud, Approximate Calculation of Multiple
  Integrals (1971), section 2.6).  Order m integrates
  P(z, conj z) exp(-|z - mu|^2 / tau) exactly when P has degree <= m in
  z and <= m in conj z on each plane, with (m + 1) ceil((m + 1) / 2)
  nodes per plane; every convolution integral of the truncated model
  has that form.
* Windowed Lebesgue grids for dV restricted to [-W, W]^{2n},
  built from tensorized Gauss-Legendre rules; the heat-kernel fit
  tensors their 1-d rule.

All grids are immutable and all integration is a plain deterministic
weighted sum, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._output import write_csv


@dataclass(frozen=True)
class GaussGrid:
    """Quadrature nodes in C^n with positive weights.

    nodes has shape (P, n) complex; weights has shape (P,).  Both arrays
    are read-only copies, since the grid builders cache and share their
    grids.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in (("nodes", None), ("weights", float)):
            arr = np.array(getattr(self, name), dtype=dtype, order="C")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.nodes.ndim != 2 or self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes must be (P, n) and weights (P,)")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def evaluate(self, f) -> np.ndarray:
        """f at every node as an array; a non-finite value raises ValueError naming its node."""
        vals = np.asarray(f(self.nodes))
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite value at node {self.nodes[np.argmax(bad)]}")
        return vals

    def to_csv(self, path) -> None:
        """Dump nodes and weights for audit (one row per node)."""
        n = self.nodes.shape[1]
        header = [f"{part}_z{a}" for a in range(n) for part in ("re", "im")]
        cols = np.empty((self.size, 2 * n + 1))
        cols[:, 0 : 2 * n : 2] = self.nodes.real
        cols[:, 1 : 2 * n : 2] = self.nodes.imag
        cols[:, -1] = self.weights
        write_csv(path, header + ["weight"], cols.tolist())


def _tensor_power(nodes_1d: np.ndarray, weights_1d: np.ndarray, k: int):
    """The k-th tensor power of a 1-d rule: nodes (P, k), one column per axis, and weights (P,)."""
    mesh = np.meshgrid(*[nodes_1d] * k, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    return nodes, reduce(np.multiply.outer, [weights_1d] * k).ravel()


def _tensorize(nodes_1d: np.ndarray, weights_1d: np.ndarray, n: int):
    """Tensor a 1-d real rule over the 2n real axes of C^n."""
    coords, w = _tensor_power(nodes_1d, weights_1d, 2 * n)
    return coords[:, 0::2] + 1j * coords[:, 1::2], w


@lru_cache(maxsize=64)
def gaussian_grid(n: int, t: float, Q: int) -> GaussGrid:
    """Tensor Gauss-Hermite grid for the Gaussian probability measure mu_t.

    Order Q per real axis; exact for monomials z^a conj(z)^b with
    |a| + |b| <= 2Q - 1.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    x, w = np.polynomial.hermite.hermgauss(Q)
    # substitute u = x / sqrt(t): weight exp(-u^2/t) du / sqrt(pi t)
    nodes = np.sqrt(t) * x
    weights = w / np.sqrt(np.pi)
    z, wt = _tensorize(nodes, weights, n)
    return GaussGrid(z, wt)


def hermite_dv_grid(n: int, tau: float, Q: int, center=0.0) -> GaussGrid:
    """Gauss-Hermite rule for dV centred at `center` with width tau.

    Nodes center + u_i, with u_i the nodes of gaussian_grid(n, tau, Q);
    weights (pi tau)^n w_i exp(|u_i|^2 / tau).  The 1-d factors
    sqrt(tau) w_k exp(x_k^2) are formed before tensoring, so no weight
    underflows or overflows while Q stays below about 300.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    x, w = np.polynomial.hermite.hermgauss(Q)
    z, wt = _tensorize(np.sqrt(tau) * x, np.sqrt(tau) * w * np.exp(x**2), n)
    center = np.broadcast_to(np.asarray(center, dtype=complex), (n,))
    return GaussGrid(z + center, wt)


def _laguerre_functions(L: int, x: np.ndarray) -> np.ndarray:
    """The Laguerre functions e^{-x/2} L_j(x) at [j, k], j = 0..L, by the three-term recurrence.

    Each is at most 1 in modulus on x >= 0.
    """
    out = np.empty((L + 1,) + x.shape)
    out[0] = np.exp(-x / 2)
    out[1] = (1 - x) * out[0]
    for j in range(1, L):
        out[j + 1] = ((2 * j + 1 - x) * out[j] - j * out[j - 1]) / (j + 1)
    return out


def _laguerre_rule(L: int):
    """Nodes x_k and scaled weights w_k e^{x_k} of the L-point Gauss-Laguerre rule for e^{-x} dx.

    Golub-Welsch (Math. Comp. 23 (1969)): the nodes are the eigenvalues
    of the Jacobi matrix (diagonal 2j + 1, off-diagonal -j), refined by
    two Newton steps on L_L, with L_L' = L (L_L - L_{L-1}) / x.  The
    scaled weights take the Christoffel form
    w_k e^{x_k} = 1 / sum_{j < L} (e^{-x_k/2} L_j(x_k))^2, a sum of
    positive terms that nothing cancels in.  Against a 50-digit mpmath
    rule they are 1.7e-15 / 1.5e-14 / 4.2e-14 off in relative terms at
    L = 25 / 41 / 61, and the nodes 2.3e-15 / 7.6e-15 / 3.4e-14; numpy's
    laggauss gives weights times e^x 2.2e-13 off at L = 25.
    """
    j = np.arange(1.0, L)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(L) + 1.0) - np.diag(j, 1) - np.diag(j, -1))
    for _ in range(2):
        F = _laguerre_functions(L, x)
        x = x - x * F[L] / (L * (F[L] - F[L - 1]))
    return x, 1.0 / np.sum(_laguerre_functions(L, x)[:L] ** 2, axis=0)


def polar_dv_grid(n: int, tau: float, m: int, center=0.0) -> GaussGrid:
    """Polar product rule of order m for dV centred at `center` with width tau.

    On each plane, with z - center = sqrt(tau s) e^{i theta}, dV is
    (tau / 2) ds dtheta: the L = ceil((m + 1) / 2) Gauss-Laguerre nodes s_k
    in s, exact for s^p with p <= 2L - 1, times the M = m + 1 angles
    (j + 1/2) 2 pi / M, which sum every frequency 0 < |p - q| < M to zero.
    So (z - center)^p conj(z - center)^q exp(-|z - center|^2 / tau), whose
    integral is pi tau^{p+1} p! delta_pq, is integrated exactly for
    p, q <= m; the plane weight is (pi tau / M) w_k e^{s_k}.  The planes
    are tensored.  Each plane's angles are built in the upper half-plane
    and conjugated, so the nodes about a real centre come in conjugate
    pairs of equal modulus bit for bit.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    M = m + 1
    s, w = _laguerre_rule((m + 2) // 2)
    half = np.exp((np.arange(M // 2) + 0.5) * (2j * np.pi / M))
    unit = np.concatenate([half, -np.ones(M % 2), np.conj(half[::-1])])
    z1 = np.multiply.outer(np.sqrt(tau * s), unit).ravel()
    z, wt = _tensor_power(z1, np.repeat((np.pi * tau / M) * w, M), n)
    center = np.broadcast_to(np.asarray(center, dtype=complex), (n,))
    return GaussGrid(z + center, wt)


def _legendre_rule(W: float, m: int):
    """The 1-d Gauss-Legendre rule on [-W, W] that lebesgue_grid tensors."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if W <= 0:
        raise ValueError("W must be positive")
    x, w = np.polynomial.legendre.leggauss(m)
    return W * x, W * w


def lebesgue_grid(W: float, m: int, n: int) -> GaussGrid:
    """Tensor Gauss-Legendre grid for dV on the window [-W, W]^{2n}."""
    z, wt = _tensorize(*_legendre_rule(W, m), n)
    return GaussGrid(z, wt)


def integrate(grid: GaussGrid, f) -> complex:
    """Weighted sum of f over the grid nodes.

    f may be any callable accepting an array of points (P, n) and
    returning (P,) values.  A non-finite value aborts with the
    offending node in the message; NaNs never propagate silently.
    """
    return complex(np.sum(grid.weights * grid.evaluate(f)))
