"""Convolution formalism: trace identity, dualities, two-pipeline agreement."""

import numpy as np
import pytest

from fockqha.convolution import (
    ConvolutionConfig,
    adjoint_duality_residuals,
    conv_fun_fun,
    conv_fun_op,
    conv_op_op,
    default_config,
    l1_window_norm,
    r_t_operator,
    toeplitz_via_convolution,
    trace_identity_residual,
    u_conjugate,
    window_unstable,
    young_ratio,
)
from fockqha.model import (
    FockOperator,
    FockParams,
    FockVector,
    degree_projector,
    identity_operator,
    kernel_coefficients,
    operator_norm_2,
    parity_matrix,
    pc_operator,
    rank_one,
)
from fockqha.operators import (
    _CHUNK_BYTES,
    BerezinSymbol,
    alpha_op,
    berezin_values,
    toeplitz,
    weyl,
)
from fockqha.symbols import Constant, Gaussian, PlaneWave, Translate, heat_gaussian

P = FockParams(1, 1.0, 16, 20)
CFG = default_config(P)


def test_config_validation():
    with pytest.raises(ValueError):
        ConvolutionConfig(-1.0, 10)
    with pytest.raises(ValueError):
        ConvolutionConfig(2.0, 1)
    assert CFG.doubled().window == 2 * CFG.window


def test_r_t_is_scaled_pc():
    R = r_t_operator(P)
    assert R.matrix[0, 0] == pytest.approx(1.0 / np.pi)
    assert np.count_nonzero(R.matrix) == 1


def test_u_conjugate_matches_parity_sandwich():
    A = toeplitz(P, Gaussian(center=0.4, width=1.0))
    U = parity_matrix(P).matrix
    assert np.array_equal(u_conjugate(A).matrix, U @ A.matrix @ U)


def test_conv_zero_function_gives_zero_operator():
    out = conv_fun_op(Constant(0.0), pc_operator(P), CFG)
    assert np.max(np.abs(out.matrix)) == 0.0


def test_conv_fun_op_matches_per_node_sum():
    # the batched blocks against the defining sum c_i W_i A W_i^*, node by node
    p = FockParams(1, 1.0, 10, 12)
    cfg = ConvolutionConfig(4.0, 12)
    f = Gaussian(center=0.3 - 0.2j, width=1.5)
    A = toeplitz(p, Gaussian(center=-0.4, width=2.0)) + 0.5 * rank_one(
        kernel_coefficients(p, 0.2j), kernel_coefficients(p, 0.5)
    )
    grid = cfg.grid(1)
    want = np.zeros((p.dim, p.dim), dtype=complex)
    for z, c in zip(grid.nodes, grid.weights * f(grid.nodes)):
        W = weyl(p, z).matrix
        want += c * (W @ A.matrix @ W.conj().T)
    got = conv_fun_op(f, A, cfg).matrix
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_operator_convolution_matches_per_point_trace():
    p = FockParams(1, 1.0, 10, 12)
    A = toeplitz(p, Gaussian(center=0.3, width=1.0))
    B = rank_one(kernel_coefficients(p, 0.1), kernel_coefficients(p, -0.3j))
    pts = np.array([0.0, 0.4 - 0.7j, -1.5, 2.0j])[:, None]
    UBU = u_conjugate(B).matrix
    want = [np.trace(A.matrix @ alpha_op(FockOperator(p, UBU), z).matrix) for z in pts]
    assert np.max(np.abs(conv_op_op(A, B)(pts) - want)) < 1e-14


def test_approximate_identity_two_point():
    A = toeplitz(P, Gaussian(center=0.0, width=2.0))
    errs = []
    for s in [1.0, 0.25]:
        cfg = ConvolutionConfig(6.0 * np.sqrt(s), 48)
        errs.append(operator_norm_2(conv_fun_op(heat_gaussian(s), A, cfg) - A))
    assert errs[1] < errs[0]


def test_young_inequality_with_slack():
    cases = [
        (heat_gaussian(1.0), pc_operator(P)),
        (Gaussian(center=0.5, width=1.0), toeplitz(P, Gaussian(center=0.0, width=2.0))),
    ]
    for f, A in cases:
        assert young_ratio(f, A, CFG) <= 1.05


def test_berezin_of_heat_smoothed_pc():
    # f_t * P_C has Berezin transform (1/2) e^{-|z|^2/(2t)} at t=1
    A = conv_fun_op(heat_gaussian(P.t), pc_operator(P), CFG)
    pts = np.array([0.0, 0.5, -0.8j])[:, None]
    want = 0.5 * np.exp(-np.abs(pts[:, 0]) ** 2 / (2.0 * P.t))
    assert np.max(np.abs(berezin_values(A, pts) - want)) < 1e-8


def test_pc_star_pc_closed_form():
    conv = conv_op_op(pc_operator(P), pc_operator(P))
    pts = np.array([0.0, 0.6, 1.0 - 0.5j])[:, None]
    want = np.exp(-np.abs(pts[:, 0]) ** 2 / P.t)
    assert np.max(np.abs(conv.eval(pts) - want)) < 1e-12


def test_berezin_is_pc_convolution():
    A = toeplitz(P, Gaussian(center=0.2, width=1.5))
    conv = conv_op_op(pc_operator(P), A)
    pts = np.array([0.0, 0.4 + 0.3j, -0.7])[:, None]
    assert np.max(np.abs(conv.eval(pts) - berezin_values(A, pts))) < 1e-12


def test_op_op_commutativity():
    k1 = kernel_coefficients(P, 0.3)
    k2 = kernel_coefficients(P, -0.2 + 0.4j)
    A, B = rank_one(k1, k1), rank_one(k2, k2)
    pts = np.array([0.0, 0.5, 0.3 - 0.6j])[:, None]
    lhs = conv_op_op(A, B).eval(pts)
    rhs = conv_op_op(B, A).eval(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_fun_fun_gaussian_semigroup():
    fs, fu = heat_gaussian(0.7), heat_gaussian(0.5)
    pts = np.array([0.0, 0.4, -0.3 + 0.5j])[:, None]
    got = conv_fun_fun(fs, fu, CFG).eval(pts)
    want = heat_gaussian(1.2)(pts)
    assert np.max(np.abs(got - want)) < 1e-6


def test_fun_fun_matches_per_point_sum():
    # more points than one block of shifted points holds, and n = 2
    for n, cfg, count in [(1, ConvolutionConfig(4.0, 40), 200), (2, ConvolutionConfig(3.0, 8), 40)]:
        grid = cfg.grid(n)
        assert count > _CHUNK_BYTES // (16 * n * grid.size)
        f = Gaussian(center=np.full(n, 0.3 - 0.1j), width=1.5, n=n)
        g = PlaneWave(zeta=np.full(n, 0.7 + 0.2j), n=n) * Gaussian(
            center=np.zeros(n, dtype=complex), width=2.0, n=n
        )
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        want = [np.sum(grid.weights * f(grid.nodes) * g(z[None, :] - grid.nodes)) for z in pts]
        got = conv_fun_fun(f, g, cfg, n=n).eval(pts)
        assert np.max(np.abs(got - want)) < 1e-14


def test_fun_fun_commutes():
    f = Gaussian(center=0.3, width=1.0)
    g = Gaussian(center=-0.2, width=2.0)
    pts = np.array([0.0, 0.5])[:, None]
    a = conv_fun_fun(f, g, CFG).eval(pts)
    b = conv_fun_fun(g, f, CFG).eval(pts)
    assert np.max(np.abs(a - b)) < 1e-10


def test_two_pipeline_toeplitz_constant():
    T = toeplitz_via_convolution(Constant(1.0), P, CFG)
    assert np.max(np.abs(T.matrix - np.eye(P.dim))) < 1e-6


def test_two_pipeline_toeplitz_gaussian_and_planewave():
    for f in [Gaussian(center=0.3, width=2.0), PlaneWave(zeta=1.0 + 0.5j)]:
        direct = toeplitz(P, f)
        via = toeplitz_via_convolution(f, P, CFG)
        rel = np.linalg.norm(direct.matrix - via.matrix) / np.linalg.norm(direct.matrix)
        assert rel < 1e-4


def test_trace_identity_pc_pair():
    assert trace_identity_residual(pc_operator(P), pc_operator(P), CFG) < 1e-6


def test_trace_identity_zero_operator():
    zero = 0.0 * pc_operator(P)
    assert trace_identity_residual(zero, pc_operator(P), CFG) < 1e-12


def test_trace_identity_random_low_rank():
    rng = np.random.default_rng(21)
    decay = np.exp(-0.3 * np.arange(P.dim))

    def rand_vec():
        c = (rng.standard_normal(P.dim) + 1j * rng.standard_normal(P.dim)) * decay
        return FockVector(P, c / np.linalg.norm(c))

    A = rank_one(rand_vec(), rand_vec()) + rank_one(rand_vec(), rand_vec())
    B = sum(
        (rank_one(rand_vec(), rand_vec()) for _ in range(2)),
        rank_one(rand_vec(), rand_vec()),
    )
    assert trace_identity_residual(A, B, CFG) < 1e-4


def test_adjoint_dualities_zero_operands():
    zero = 0.0 * pc_operator(P)
    rs = adjoint_duality_residuals(Constant(0.0), zero, zero, zero, CFG)
    assert max(rs) == 0.0


def test_adjoint_dualities_pc_operands():
    rs = adjoint_duality_residuals(
        heat_gaussian(1.0), pc_operator(P), pc_operator(P), pc_operator(P), CFG
    )
    assert max(rs) < 1e-4


def test_adjoint_dualities_random_rank_one():
    rng = np.random.default_rng(5)
    decay = np.exp(-0.3 * np.arange(P.dim))
    c = (rng.standard_normal(P.dim) + 1j * rng.standard_normal(P.dim)) * decay
    v = FockVector(P, c / np.linalg.norm(c))
    A = rank_one(v, v)
    rs = adjoint_duality_residuals(
        Gaussian(center=0.2, width=1.0), A, pc_operator(P), identity_operator(P), CFG
    )
    assert max(rs) < 1e-4


def test_translation_covariance():
    p = FockParams(1, 1.0, 24, 28)
    cfg = default_config(p)
    f = Gaussian(center=0.0, width=1.0)
    A = pc_operator(p)
    z = 0.25
    lhs = alpha_op(conv_fun_op(f, A, cfg), z)
    rhs = conv_fun_op(Translate(f, z), A, cfg)
    assert operator_norm_2(lhs - rhs) < 1e-6


def test_associativity_spot_check():
    k1 = kernel_coefficients(P, 0.3)
    k2 = kernel_coefficients(P, -0.2 + 0.1j)
    A, B = rank_one(k1, k1), rank_one(k2, k2)
    g = Gaussian(center=0.0, width=1.0)
    pts = np.array([0.0, 0.4, -0.3 + 0.5j])[:, None]
    lhs = conv_fun_fun(conv_op_op(A, B), g, CFG).eval(pts)
    rhs = conv_op_op(A, conv_fun_op(g, B, CFG)).eval(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-4


def test_smoothing_property():
    f = Gaussian(center=0.0, width=1.0)
    A = pc_operator(P)
    pts = np.array([0.0, 0.4, -0.3 + 0.5j])[:, None]
    lhs = berezin_values(conv_fun_op(f, A, CFG), pts)
    rhs = conv_fun_fun(f, BerezinSymbol(A), CFG).eval(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_window_instability_detection():
    cfg = ConvolutionConfig(2.0, 24)
    assert window_unstable(Constant(1.0), cfg)  # non-integrable
    assert not window_unstable(heat_gaussian(0.25), cfg)


def test_l1_window_norm_of_unit_mass():
    assert l1_window_norm(heat_gaussian(1.0), CFG) == pytest.approx(1.0, abs=1e-8)
