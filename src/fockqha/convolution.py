"""Werner-style convolutions between functions and operators.

* f * A  : the operator-valued integral of f(z) alpha_z(A) dV(z)
* A * B  : the function z -> Tr(A alpha_z(U B U)), evaluated lazily

together with the trace identity Tr(A * B) = (pi t)^n Tr(A) Tr(B)
and the adjoint duality relations, exposed as residual computations.

A Gaussian kernel f = a exp(-|z - c|^2 / w) on the model's C^n, at any
finite centre, takes a closed form one complex plane at a time: no
quadrature.  Centred on a plane (c_k = 0), f * A / (a pi w) averages
W_z A W_z^* over the Gaussian of mean |z|^2 = w: it is the
classical-noise channel of mean photon number n = w / t, an attenuator
of transmissivity 1 / (1 + n) followed by an amplifier of gain 1 + n
(Werner, J. Math. Phys. 25 (1984)).  Both have operator-sum forms with
binomial coefficients (Ivan, Sabapathy & Simon, Phys. Rev. A 84, 042311
(2011)), both keep the band b - a of an entry (a, b), and the amplifier
only raises degrees, so the truncated convolution is exact: the
attenuator maps the box into itself, and what the amplifier lifts past
D never comes back.  Each band is mapped by one (D + 1)^2 kernel whose
every term is positive, so nothing cancels (_noise_kernels).  Off
centre, translation covariance (Werner 1984),
(tau_c f) * A = alpha_c(f * A), gives f(. - c) * A = W_c (f_0 * A) W_c^*
with f_0 the same Gaussian centred at 0.  W_c moves degrees, so f_0 * A
is taken on the plane's index pair zero-padded to degree D + K, where
the channel is exact again, and conjugated by the rows <= D of the
one-plane Weyl block at c_k; K follows from |c_k|, D and t by one rule
(_padding), and only the Weyl elements it leaves out err.  A centre so
far out that the padding would pass degree 200 (|c_k| > 5.4 at D = 24,
t = 1) sends its Gaussian to the exact rule below instead.

Every other kernel takes a polar dV rule, exact in the truncated model.
An entry <W_z e_b, e_a> is a polynomial of degree <= b in z and <= a in
conj z times exp(-|z|^2 / 2t), by the Laguerre form of the Weyl
matrices; so an entry of alpha_z(A) = W_z A W_z^*, and (A * B)(z), has
degree <= 2D in z and <= 2D in conj z on each plane, times
exp(-|z|^2 / t).  polar_dv_grid of order 2D + 1 at centre 0 and width t
(on each plane, D + 1 Gauss-Laguerre radii in |z|^2 / t times 2D + 2
equispaced angles, 1250 nodes at D = 24) is exact for f of degree <= 1
in z and in conj z on each plane (|z|^2 included) and spectrally
accurate for smooth f.  The pointwise integrals of the dualities, and
a Gaussian centred too far out for the padding, take the rule against
their Gaussian instead: completing the square leaves a
polynomial of the same degrees times exp(-|z - mu|^2 / tau) with
1/tau = 1/t + 1/w and mu = (tau / w) c, which the rule of order 2D + 1
at that centre and width integrates exactly.

On the polar rules a conjugation W_z A W_z^* works at the rank r of
the operand: A = X Y^H is factored once by one SVD (operators._factors),
and W_z A W_z^* = (W_z X)(W_z Y)^H.  The three quadrature passes of
`verify`, all pointwise (A * B)(z), conjugate a rank-one operand.  The
dropped part of A, below dim eps ||A|| in norm, adds at most
||f||_1 dim eps ||A|| to f * A (Young), the dense sum's own rounding.
An operand of rank r >= 2 dim / 3 is conjugated whole.  Phase
covariance, W_{e^{i theta} z} = U W_z U^* with U = diag(e^{-i a theta}),
factors every Weyl matrix as W_z = D_u R D_u^*, with D_u diagonal and R
real and depending on |z| alone (on the |z_k| at n >= 2), so
W_z X = u o (R @ (conj(u) o X)) is a real product: a node costs
8 dim^2 r real multiply-adds where complex Weyl matrices took 12, and a
full-rank operand 6 dim^3 where they took 8.  R is built once per
distinct radius, (D + 1)^2 entries per radius and axis, and copied to
each node.  The order-49 rule's 1250 nodes lie on 25 circles; centred,
their moduli round to 77 distinct values across the angles, and about a
real centre each plane's nodes pair up under conjugation with equal
moduli bit for bit, 625 radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FockOperator,
    FockParams,
    _check_finite,
    _check_params,
    _pair_pick,
    _point_rows,
    parity_matrix,
    pc_operator,
)
from .operators import _axis_blocks, _conjugations, _pascal
from .quadrature import GaussGrid, polar_dv_grid
from .symbols import Gaussian, Symbol


@dataclass(frozen=True)
class ConvolutionConfig:
    """The order m of a convolution's polar dV rule (quadrature.polar_dv_grid).

    It integrates p(z, conj z) exp(-|z - mu|^2 / tau) exactly when p has
    degree <= m in z and <= m in conj z on each plane, with
    (m + 1) ceil((m + 1) / 2) nodes per plane.  It serves the pointwise
    integrals of the identities and the kernels that are not Gaussians:
    a Gaussian on the model's C^n takes a closed form and no rule, unless
    it is centred too far out for that form's padding (conv_fun_op).
    """

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")


def default_config(params: FockParams) -> ConvolutionConfig:
    """Order 2D + 1, exact for every integrand of the module docstring."""
    return ConvolutionConfig(2 * params.D + 1)


def _dv_grid(params: FockParams, cfg: ConvolutionConfig, f=None) -> GaussGrid:
    """The polar dV rule of order cfg.m for f(z) times a polynomial times exp(-|z|^2 / t).

    Centre and width come from completing the square against f when f is
    a Gaussian, as in the dualities' pointwise integrals and for a
    Gaussian centred too far out for the closed form; otherwise the
    rule is centred at 0 with width t.  A Gaussian on another C^n raises
    ValueError.
    """
    t = params.t
    if isinstance(f, Gaussian):
        if f.n != params.n:
            raise ValueError(f"a Gaussian on C^{f.n} has no convolution rule on C^{params.n}")
        tau = t * f.width / (t + f.width)
        return polar_dv_grid(params.n, tau, cfg.m, (tau / f.width) * np.array(f.center))
    return polar_dv_grid(params.n, t, cfg.m)


def r_t_operator(params: FockParams) -> FockOperator:
    """R_t = (pi t)^{-n} P_C; convolving with it is Toeplitz quantization."""
    return ((np.pi * params.t) ** (-params.n)) * pc_operator(params)


def u_conjugate(A: FockOperator) -> FockOperator:
    """U A U with the exact diagonal parity matrix."""
    U = parity_matrix(A.params).matrix
    return FockOperator(A.params, U @ A.matrix @ U)


def _gaussian_paddings(f, params: FockParams) -> list[int] | None:
    """The padding K_k of each plane if f * A takes the closed form, else None.

    f must be a Gaussian on C^n, and no plane may be padded past
    _MAX_PADDED_DEGREE.  A Gaussian on another C^n stays on the quadrature
    path and raises there; one centred too far out for the padding takes
    that path's exact rule.
    """
    if not (isinstance(f, Gaussian) and f.n == params.n):
        return None
    paddings = [_padding(params.t, params.D, c) for c in f.center]
    return None if None in paddings else paddings


def _noise_kernels(t: float, D: int, width: float) -> np.ndarray:
    """The band kernels K[delta], delta = 0..D, of a centred Gaussian of the given width.

    On a plane the convolution is the classical-noise channel of mean
    photon number n = width / t (module docstring); let eta = 1 / (1 + n)
    and q = n / (1 + n).  Both of its stages keep the band delta = |b - a|
    of an entry (a, b), indexed by lo = min(a, b).  The attenuator takes
    the entry at hi to the one at lo <= hi with the weight
    G[hi, lo] = sqrt(C(hi + delta, lo + delta) C(hi, lo)) q^(hi - lo) eta^(lo + delta/2),
    and the amplifier takes lo up to hi with the weight eta G[hi, lo], so
    K[delta] = eta G G^T, zero-padded to (D + 1)^2.  Every term is
    positive and every factor at most 1; eta^x is taken as (1 + n)^-x,
    and q is formed directly.  (1 + n)^x overflows only where the weight
    it divides is below 1e-200, which is then 0.  hi + delta <= D, so the
    (D + 1)-row Pascal triangle holds every binomial.
    """
    nbar = width / t
    binom = _pascal(D)
    k = np.arange(D + 1)
    # q^|hi - lo| at [hi, lo]; binom is 0 where it takes the wrong sign
    power = (nbar / (1.0 + nbar)) ** np.abs(k[:, None] - k)
    K = np.zeros((D + 1,) * 3)
    for delta in range(D + 1):
        m = D + 1 - delta
        Gt = np.sqrt(binom[delta:, delta:] * binom[:m, :m]) * power[:m, :m]
        with np.errstate(over="ignore"):
            Gt /= (1.0 + nbar) ** (k[:m] + delta / 2.0)
        K[delta, :m, :m] = Gt @ Gt.T
    return K / (1.0 + nbar)


def _band_map(K: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The band kernels K applied to the leading index pair of X, shape (e, e, rest), e = len(K).

    The pair's entries are read band by band, above and below the
    diagonal, lo running 0..e-1 with positions past the band's end
    clipped to e - 1: they meet the kernel's zero columns.
    """
    e = K.shape[0]
    k = np.arange(e)
    below, delta, lo = np.arange(2)[:, None, None], k[:, None], k
    rows = np.minimum(lo + below * delta, e - 1)
    cols = np.minimum(lo + (1 - below) * delta, e - 1)
    a, b = k[:, None], k
    band = (b < a).astype(int), np.abs(b - a), np.minimum(a, b)
    return (K @ X[rows, cols].view(float)).view(complex)[band]


# the most degrees a padded plane may have: its kernels take
# (D + K + 1)^3 floats, 64 MB at 200
_MAX_PADDED_DEGREE = 200


def _padding(t: float, D: int, c: complex) -> int | None:
    """The degrees K a plane is padded by before its conjugation by W_c: the K rule.

    With x = |c|^2 / t and |L_a^k(x)| <= C(a + k, a) e^{x/2} (Szego,
    Orthogonal Polynomials, 7.21), an element <W_c e_m, e_a> with a <= D
    and k = m - a > 0 has modulus at most sqrt(C(m, a) x^k / k!).  K is
    the least K >= 0 for which that bound is at most 1e-16 for every
    a <= D at m = D + K + 1, and 0 at c = 0; for m beyond, the bound falls
    faster still.  Measured at t = 0.5, 1, 2, D <= 60, |c| <= 3 and
    widths 1/8 to 8, the result moves by at most 2.7e-16 of its largest
    entry when K grows by 40.  K is 22 at D = 24, |c| = 0.3, t = 1, and
    66 at |c| = 2.  The log of the bound squared is carried from K to
    K + 1 by log(m x) - 2 log(k).  None once D + K would pass
    _MAX_PADDED_DEGREE: past |c| = 5.4 at D = 24, 3.7 at D = 60 (t = 1).
    """
    if c == 0:
        return 0
    log_x = 2 * math.log(abs(c)) - math.log(t)
    logfact = np.array([math.lgamma(j + 1) for j in range(D + 2)])
    k = np.arange(D + 1, 0, -1.0)  # m - a at m = D + 1, for a = 0..D
    log_bound = logfact[D + 1] - logfact[: D + 1] - 2 * logfact[D + 1 : 0 : -1] + k * log_x
    K = 0
    while log_bound.max() > 2 * math.log(1e-16):
        K += 1
        if D + K > _MAX_PADDED_DEGREE:
            return None
        k += 1
        log_bound += math.log(D + K + 1) + log_x - 2 * np.log(k)
    return K


def _gaussian_conv(f: Gaussian, A: FockOperator, paddings: list[int]) -> FockOperator:
    """f * A for a Gaussian f, one complex plane at a time (module docstring).

    A is scattered onto the (D+1)^{2n} degree box, and each plane's index
    pair is mapped in turn: the Gaussian and the Weyl operators are
    products over planes.  On a plane with centre c_k = 0 the band
    kernels map the pair.  Otherwise the pair is zero-padded to degree
    D + K, with the plane's K from _padding in paddings, mapped by the
    band kernels at that degree, and conjugated by the rows <= D of the
    one-plane Weyl block at c_k, which crops it back: f(. - c) * A = W_c (f_0 * A) W_c^*.  The padded plane
    holds (D + K + 1)^2 (D + 1)^{2n - 2} complex numbers.  The block is
    built in extended precision (_real_blocks), since one conjugation
    passes its error on whole where quadrature averaged it over nodes.
    The basis multi-indices are then gathered back.
    """
    params = A.params
    D, n, t = params.D, params.n, params.t
    d = D + 1
    pick = _pair_pick(params)
    X = np.zeros((d, d) * n, dtype=complex)
    X[pick] = A.matrix
    for c, K in zip(f.center, paddings):
        X = X.reshape(d, d, -1)
        X = _band_map(_noise_kernels(t, D + K, f.width), np.pad(X, ((0, K), (0, K), (0, 0))))
        if K:
            W = _axis_blocks(np.array([c], dtype=np.clongdouble), t, D + K)[0, :d]
            X = np.conj(W) @ (W @ X.reshape(d + K, -1)).reshape(d, d + K, -1)
        # the leading plane is mapped, and its index pair goes last
        X = X.reshape(d * d, -1).T
    scale = f.amplitude * (np.pi * f.width) ** n
    return FockOperator(params, scale * X.reshape((d, d) * n)[pick])


def conv_fun_op(f, A: FockOperator, cfg: ConvolutionConfig) -> FockOperator:
    """f * A = the Bochner integral of f(z) alpha_z(A) dV(z).

    A Gaussian f on the model's C^n takes the closed form (_gaussian_conv)
    whatever cfg says, and builds no rule, unless a centre would pad its
    plane past degree 200 (|c| > 5.4 at D = 24, t = 1).  That Gaussian, and
    any other f, is a quadrature: the sum of c_i W_i A W_i^* over the nodes
    with nonzero weight c_i = w_i f(z_i) is one (dim x B r) by (B r x dim)
    product per block of B nodes, on the polar rule of _dv_grid, with r the
    rank of A in _conjugations (r = dim when A is kept whole).
    Satisfies ||f * A|| <= ||f||_{L^1} ||A|| up to truncation.  The blocks
    and the summation order are fixed, so results are reproducible
    bit-for-bit.
    A non-finite entry of A raises ValueError.
    """
    params = A.params
    _check_finite(A.matrix)
    paddings = _gaussian_paddings(f, params)
    if paddings is not None:
        return _gaussian_conv(f, A, paddings)
    grid = _dv_grid(params, cfg, f)
    c = grid.weights * grid.evaluate(f)
    keep = np.flatnonzero(c)
    c = c[keep]
    d = params.dim
    acc = np.zeros((d, d), dtype=complex)
    for rows, WX, WY in _conjugations(params, grid.nodes[keep], A.matrix):
        WX *= c[rows, None, None]
        right = WY.transpose(0, 2, 1).reshape(-1, d)
        acc += WX.transpose(1, 0, 2).reshape(d, -1) @ np.conjugate(right, out=right)
    return FockOperator(params, acc)


class OperatorConvolution(Symbol):
    """A * B as a lazily evaluated function z -> Tr(A alpha_z(U B U)).

    Points have shape (P, n), and one point of shape (n,) is one row, as
    in berezin_values.  They are evaluated a block at a time: with
    W_z UBU W_z^* = WX WY^H from _conjugations, Tr(A W_z UBU W_z^*) is the
    sum of WX times the entries of A^T conj(WY).  A non-finite entry of A
    or B raises ValueError.
    """

    def __init__(self, A: FockOperator, B: FockOperator):
        _check_params(A.params, B.params)
        _check_finite(A.matrix)
        _check_finite(B.matrix)
        self.A = A
        self.B = B
        self.n = A.params.n
        self._ubu = u_conjugate(B).matrix

    def eval(self, points):
        params = self.A.params
        points = _point_rows(params, points)
        out = np.empty(points.shape[0], dtype=complex)
        At = self.A.matrix.T
        for rows, WX, WY in _conjugations(params, points, self._ubu):
            out[rows] = np.einsum("bjk,bjk->b", WX, At @ np.conj(WY))
        return out


def conv_op_op(A: FockOperator, B: FockOperator) -> OperatorConvolution:
    """The convolution A * B: z -> Tr(A (alpha_z(U B U)))."""
    return OperatorConvolution(A, B)


def toeplitz_via_convolution(
    f, params: FockParams, cfg: ConvolutionConfig
) -> FockOperator:
    """Toeplitz operator through the convolution pipeline: R_t * f.

    Independent of operators.toeplitz (a closed form for a Gaussian,
    model-grid quadrature otherwise); the two must agree in Frobenius
    norm within the combined quadrature tolerance.  For a Gaussian both
    sides are closed forms: the moments of the completed square there,
    the noise channel and one Weyl conjugation per plane here.
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
    U f is f.flipped(), a Gaussian again when f is one.  For a Gaussian f
    every f * X is the closed form of conv_fun_op, and the dV integrals
    of (B * U A1 U) and (A1 * A2) are pointwise sums on the rule exact
    against f: so 1 and 3 compare the closed form with quadrature, and 2
    compares the closed form at c with itself at -c.
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
