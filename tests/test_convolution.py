"""Convolution formalism: trace identity, dualities, two-pipeline agreement.

The function-side integrals of the Werner identities are written here
against an explicit Gauss-Hermite rule, so the oracles share no code with
the rule the package uses.
"""

import re
import warnings
from functools import reduce

import numpy as np
import pytest

from fockqha import convolution, operators
from fockqha.convolution import (
    ConvolutionConfig,
    OperatorConvolution,
    adjoint_duality_residuals,
    conv_fun_op,
    conv_op_op,
    default_config,
    r_t_operator,
    toeplitz_via_convolution,
    trace_identity_residual,
    u_conjugate,
)
from fockqha.model import (
    FockOperator,
    FockParams,
    FockVector,
    degree_projector,
    identity_operator,
    kernel_coefficients,
    multi_indices,
    operator_norm_2,
    parity_matrix,
    pc_operator,
    rank_one,
)
from fockqha.operators import (
    BerezinSymbol,
    _factors,
    alpha_op,
    berezin_values,
    toeplitz,
    weyl_matrices,
)
from fockqha.quadrature import hermite_dv_grid, polar_dv_grid
from fockqha.symbols import Constant, Gaussian, PlaneWave, Polynomial, Translate, heat_gaussian

P = FockParams(1, 1.0, 16, 20)
CFG = default_config(P)


def hermite_dv(t, m, center=0.0, n=1):
    """Nodes and weights of the order-m Gauss-Hermite rule for dV on C^n.

    Exact for p(z) exp(-|z - center|^2 / t) with p of degree <= 2m - 1 in
    each real coordinate.
    """
    x, w = np.polynomial.hermite.hermgauss(m)
    w1 = np.sqrt(t) * w * np.exp(x**2)
    z1 = np.sqrt(t) * (x[:, None] + 1j * x[None, :]).ravel()
    c1 = np.outer(w1, w1).ravel()
    z = np.stack(np.meshgrid(*[z1] * n, indexing="ij"), axis=-1).reshape(-1, n)
    return center + z, reduce(np.multiply.outer, [c1] * n).ravel()


def per_node_sum(p, f, A, nodes, weights):
    """The defining sum of c_i W_i A W_i^* over the nodes, c_i = w_i f(z_i)."""
    c = weights * f(nodes)
    want = np.zeros((p.dim, p.dim), dtype=complex)
    for start in range(0, c.size, 512):
        W = weyl_matrices(p, nodes[start : start + 512])
        CW = c[start : start + 512, None, None] * W
        want += np.einsum("kac,cd,kbd->ab", CW, A.matrix, W.conj(), optimize=True)
    return want


def test_config_validation():
    with pytest.raises(ValueError):
        ConvolutionConfig(0)
    assert CFG.m == 2 * P.D + 1


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
    # the batched blocks of the quadrature path against the defining sum
    # c_i W_i A W_i^*, node by node.  A Translate of a Gaussian is not a
    # Gaussian, so it takes the rule, centred at 0 with width t; m = 12 is
    # below the exact order, so the sum runs over the nodes of that rule
    p = FockParams(1, 1.0, 10, 12)
    cfg = ConvolutionConfig(12)
    f = Translate(Gaussian(width=1.5), 0.3 - 0.2j)
    A = toeplitz(p, Gaussian(center=-0.4, width=2.0)) + 0.5 * rank_one(
        kernel_coefficients(p, 0.2j), kernel_coefficients(p, 0.5)
    )
    grid = polar_dv_grid(1, p.t, 12)
    want = per_node_sum(p, f, A, grid.nodes, grid.weights)
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


def operand(p, rank):
    """A test operand of rank 0, 1 (k k^H), 2 (x y^H + u v^H, not Hermitian) or "full"."""
    rng = np.random.default_rng(25)
    if rank == "full":
        return FockOperator(p, rng.standard_normal((p.dim, p.dim)) + 1j * rng.standard_normal((p.dim, p.dim)))
    decay = np.exp(-0.3 * np.sum(np.array(multi_indices(p)), axis=1))

    def vec():
        return FockVector(p, (rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)) * decay)

    if rank == 1:
        # at D = 2 the truncated kernel misses 1.3e-5 of its norm, which
        # warns; k k^H is rank one all the same
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="kernel truncation defect")
            k = kernel_coefficients(p, np.full(p.n, (0.3 - 0.2j) / p.n))
        return rank_one(k, k)
    return sum((rank_one(vec(), vec()) for _ in range(rank)), 0.0 * identity_operator(p))


RANK_CASES = [
    pytest.param(n, D, rank, id=f"n{n}-D{D}-rank{rank}")
    for n, D in [(1, 10), (1, 24), (2, 4), (3, 2), (1, 40)]
    for rank in (0, 1, 2, "full")
]


@pytest.mark.parametrize("n, D, rank", RANK_CASES)
def test_factors_keep_the_rank(n, D, rank):
    p = FockParams(n, 1.0, D, D + 2)
    A = operand(p, rank).matrix
    X, Y = _factors(A)
    if rank == "full":
        assert X is A and Y is None
    else:
        assert X.shape == Y.shape == (p.dim, rank)
        # measured <= 1.0e-15 of max |entry|
        assert np.max(np.abs(X @ Y.conj().T - A), initial=0.0) <= 1e-14 * np.max(np.abs(A))


@pytest.mark.parametrize("n, D, rank", RANK_CASES)
def test_conv_fun_op_at_the_operands_rank_matches_per_node_sum(n, D, rank):
    # the factored conjugations (full rank: the dense ones) of the
    # quadrature path against the defining sum on the same nodes.  A
    # Translate of a Gaussian is not a Gaussian, so it takes the polar rule
    # of order 2D + 1 about 0 with width t; measured <= 1.8e-15 of max |entry|
    p = FockParams(n, 1.0, D, D + 2)
    A = operand(p, rank)
    f = Translate(Gaussian(width=1.5, n=n), np.full(n, 0.3 - 0.2j))
    grid = convolution._dv_grid(p, default_config(p), f)
    want = per_node_sum(p, f, A, grid.nodes, grid.weights)
    got = conv_fun_op(f, A, default_config(p)).matrix
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if rank == 0:
        assert not np.any(got)


# the covariance route conjugates once by a Weyl block built in numpy's
# longdouble; cases whose float64 block reads more than half their 1e-14
# bound need it to be wider than float64 (x86-64 extended precision)
EXTENDED = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="needs a longdouble wider than float64",
)


@pytest.mark.parametrize(
    "n, D, rank",
    [
        pytest.param(*case.values, id=case.id, marks=EXTENDED if case.values[1:] in [(24, "full"), (40, "full")] else ())
        for case in RANK_CASES
    ],
)
def test_off_centre_gaussian_at_the_operands_rank_matches_per_node_hermite_sum(n, D, rank):
    # the covariance route at every rank of the operand against the
    # defining sum on the Hermite rule completed against f, exact at order
    # 2D + 1; measured <= 1.3e-15 of max |entry| at ranks 1 and 2 and
    # 3.5e-15 at full rank (D = 40), where a float64 block read 7.1e-15
    p = FockParams(n, 1.0, D, D + 2)
    A = operand(p, rank)
    c = np.full(n, 0.3 - 0.2j)
    f = Gaussian(center=c, width=1.5, n=n)
    tau = 1.5 / 2.5
    want = per_node_sum(p, f, A, *hermite_dv(tau, 2 * D + 1, (tau / 1.5) * c, n=n))
    got = conv_fun_op(f, A, default_config(p)).matrix
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if rank == 0:
        assert not np.any(got)


@pytest.mark.parametrize("n, D, rank", RANK_CASES)
def test_operator_convolution_at_the_operands_rank_matches_per_point_trace(n, D, rank):
    # B's rank sets the rank of the conjugated U B U; measured <= 1.7e-15 of
    # max |value|
    p = FockParams(n, 1.0, D, D + 2)
    A = toeplitz(p, Gaussian(center=np.full(n, 0.3), width=1.0, n=n))
    B = operand(p, rank)
    pts = np.array([0.0, 0.4 - 0.7j, -1.5, 2.0j, 3.0j])[:, None] * np.array([1.0, 0.5 - 0.5j, -0.3j])[:n]
    UBU = u_conjugate(B)
    want = np.array([np.trace(A.matrix @ alpha_op(UBU, z).matrix) for z in pts])
    got = conv_op_op(A, B)(pts)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if rank == 0:
        assert not np.any(got)


def test_non_finite_operands_raise():
    for bad in (np.nan, np.inf):
        M = pc_operator(P).matrix.copy()
        M[3, 2] = bad
        A = FockOperator(P, M)
        for f in (Gaussian(center=0.3, width=2.0), heat_gaussian(1.0)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                conv_fun_op(f, A, CFG)
        for pair in ((A, pc_operator(P)), (pc_operator(P), A)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                conv_op_op(*pair)


def test_gaussian_on_another_dimension_names_both():
    f = Gaussian(center=[0.3, 0.1], width=2.0, n=2)
    with pytest.raises(ValueError, match=r"C\^2 .* C\^1"):
        conv_fun_op(f, pc_operator(P), CFG)
    with pytest.raises(ValueError, match=r"C\^2 .* C\^1"):
        adjoint_duality_residuals(f, pc_operator(P), pc_operator(P), pc_operator(P), CFG)


def test_conjugation_blocks_only_move_the_boundaries(monkeypatch):
    # one point per block against the default blocks, for conv_fun_op on its
    # quadrature path (a Translate is not a Gaussian) and
    # OperatorConvolution.eval; measured 5.5e-16 and 0 of max |entry|
    p = FockParams(1, 1.0, 8, 10)
    f = Translate(Gaussian(width=1.5), 0.3 - 0.2j)
    A = toeplitz(p, Gaussian(center=-0.4, width=2.0)) + 0.5 * rank_one(
        kernel_coefficients(p, 0.2j), kernel_coefficients(p, 0.5)
    )
    B = rank_one(kernel_coefficients(p, 0.1), kernel_coefficients(p, -0.3j))
    pts = np.linspace(-2.0, 2.0 - 1.0j, 30)[:, None]
    want = conv_fun_op(f, A, default_config(p)).matrix, conv_op_op(A, B)(pts)
    monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
    got = conv_fun_op(f, A, default_config(p)).matrix, conv_op_op(A, B)(pts)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


def test_conjugations_build_one_real_block_per_radius(monkeypatch):
    # the order-49 polar rule at D = 24: its 1250 nodes lie on 25 circles,
    # and |z| rounds to several distinct moduli per circle when centred
    # (77 measured); about a real centre the conjugate pairs tie bit for
    # bit, 625 moduli.  The outer blocks take whole runs of equal moduli,
    # so each modulus is built exactly once
    p = FockParams(1, 1.0, 24, 26)
    built = []
    real_blocks = operators._real_blocks

    def counting(r, D):
        built.extend(r)
        return real_blocks(r, D)

    monkeypatch.setattr(operators, "_real_blocks", counting)
    A = rank_one(kernel_coefficients(p, 0.3), kernel_coefficients(p, 0.3))
    for center in (0.0, 0.2):
        nodes = polar_dv_grid(1, p.t, 2 * p.D + 1, center).nodes
        moduli = np.unique(np.abs(nodes))
        for B in (A, operand(p, "full")):
            built.clear()
            conv_op_op(B, B)(nodes)
            assert sorted(built) == list(moduli)


@pytest.mark.parametrize("params", [FockParams(1, 1.0, 6, 8), FockParams(2, 1.0, 4, 6)])
def test_operator_convolution_takes_one_point_of_shape_n(params):
    # the points go through model._point_rows, as in berezin_values
    A = operand(params, 2)
    conv = OperatorConvolution(A, A)
    z = np.array([0.5, -0.2j][: params.n])
    assert np.array_equal(conv.eval(z), conv.eval(z[None, :]))
    with pytest.raises(ValueError, match=re.escape(f"(P, {params.n}), got (3,)")):
        conv.eval(np.full(3, 0.5))


def test_approximate_identity_two_point():
    A = toeplitz(P, Gaussian(center=0.0, width=2.0))
    errs = []
    for s in [1.0, 0.25]:
        errs.append(operator_norm_2(conv_fun_op(heat_gaussian(s), A, CFG) - A))
    assert errs[1] < errs[0]


def test_young_inequality_with_slack():
    # ||f||_{L^1} of a e^{-|z - c|^2 / w} is |a| pi w
    cases = [
        (heat_gaussian(1.0), 1.0, pc_operator(P)),
        (Gaussian(center=0.5, width=1.0), np.pi, toeplitz(P, Gaussian(center=0.0, width=2.0))),
    ]
    for f, l1, A in cases:
        ratio = operator_norm_2(conv_fun_op(f, A, CFG)) / (l1 * operator_norm_2(A))
        assert ratio <= 1.05


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


def test_two_pipeline_toeplitz_constant():
    T = toeplitz_via_convolution(Constant(1.0), P, CFG)
    assert np.max(np.abs(T.matrix - np.eye(P.dim))) < 1e-12


def test_two_pipeline_toeplitz_gaussian_and_planewave():
    for f in [Gaussian(center=0.3, width=2.0), PlaneWave(zeta=1.0 + 0.5j)]:
        direct = toeplitz(P, f)
        via = toeplitz_via_convolution(f, P, CFG)
        rel = np.linalg.norm(direct.matrix - via.matrix) / np.linalg.norm(direct.matrix)
        assert rel < 1e-4


def test_trace_identity_pc_pair():
    assert trace_identity_residual(pc_operator(P), pc_operator(P), CFG) < 1e-12


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
    assert trace_identity_residual(A, B, CFG) < 1e-12


def test_adjoint_dualities_zero_operands():
    zero = 0.0 * pc_operator(P)
    rs = adjoint_duality_residuals(Constant(0.0), zero, zero, zero, CFG)
    assert max(rs) == 0.0


def test_adjoint_dualities_pc_operands():
    rs = adjoint_duality_residuals(
        heat_gaussian(1.0), pc_operator(P), pc_operator(P), pc_operator(P), CFG
    )
    assert max(rs) < 1e-12


def test_adjoint_dualities_random_rank_one():
    rng = np.random.default_rng(5)
    decay = np.exp(-0.3 * np.arange(P.dim))
    c = (rng.standard_normal(P.dim) + 1j * rng.standard_normal(P.dim)) * decay
    v = FockVector(P, c / np.linalg.norm(c))
    A = rank_one(v, v)
    rs = adjoint_duality_residuals(
        Gaussian(center=0.2, width=1.0), A, pc_operator(P), identity_operator(P), CFG
    )
    assert max(rs) < 1e-12


def test_translation_covariance():
    p = FockParams(1, 1.0, 24, 28)
    cfg = default_config(p)
    f = Gaussian(center=0.0, width=1.0)
    A = pc_operator(p)
    z = 0.25
    lhs = alpha_op(conv_fun_op(f, A, cfg), z)
    for g in (Translate(f, z), f.translated(z)):
        assert operator_norm_2(lhs - conv_fun_op(g, A, cfg)) < 1e-6


def test_associativity_spot_check():
    # (A * B) * g = A * (g * B); the left side is a function convolution,
    # integral (A * B)(w) g(z - w) dV(w), on the rule exact for it
    k1 = kernel_coefficients(P, 0.3)
    k2 = kernel_coefficients(P, -0.2 + 0.1j)
    A, B = rank_one(k1, k1), rank_one(k2, k2)
    g = Gaussian(center=0.0, width=1.0)
    conv = conv_op_op(A, B)
    pts = np.array([0.0, 0.4, -0.3 + 0.5j])
    tau = 1.0 / (1.0 / P.t + 1.0)
    lhs = []
    for z in pts:
        nodes, weights = hermite_dv(tau, 2 * P.D + 1, tau * z)
        lhs.append(np.sum(weights * conv.eval(nodes) * g(z - nodes)))
    rhs = conv_op_op(A, conv_fun_op(g, B, CFG)).eval(pts[:, None])
    assert np.max(np.abs(np.array(lhs) - rhs)) < 1e-12


def test_smoothing_property():
    # Berezin(f * A) = f * Berezin(A), the right side against dV on the
    # rule centred for e^{-|w|^2} e^{-|z - w|^2 / t}
    f = Gaussian(center=0.0, width=1.0)
    A = pc_operator(P)
    pts = np.array([0.0, 0.4, -0.3 + 0.5j])
    lhs = berezin_values(conv_fun_op(f, A, CFG), pts[:, None])
    tau = 1.0 / (1.0 + 1.0 / P.t)
    rhs = []
    for z in pts:
        nodes, weights = hermite_dv(tau, 2 * P.D + 1, tau * z / P.t)
        rhs.append(np.sum(weights * f(nodes) * BerezinSymbol(A)(z - nodes)))
    assert np.max(np.abs(lhs - np.array(rhs))) < 1e-6


@pytest.fixture(scope="module", params=[(1, 16, 20), (2, 6, 8)], ids=["n1", "n2"])
def gaussian_pipelines(request):
    """T_f by toeplitz, R_t * f, and the closed form diag((2/3)^{|alpha|+n}) for f = e^{-|z|^2/2}."""
    n, D, Q = request.param
    p = FockParams(n, 1.0, D, Q)
    f = Gaussian(center=np.zeros(n, dtype=complex), width=2.0, n=n)
    degrees = np.sum(np.array(multi_indices(p)), axis=1)
    closed = np.diag((2.0 / 3.0) ** (degrees + n))
    return toeplitz(p, f).matrix, toeplitz_via_convolution(f, p, default_config(p)).matrix, closed


def test_r_t_star_gaussian_is_exact(gaussian_pipelines):
    _, via, closed = gaussian_pipelines
    assert np.max(np.abs(via - closed)) < 1e-13


def test_two_pipeline_residual_is_toeplitz_error(gaussian_pipelines):
    # the convolution side is exact, and toeplitz takes the Gaussian's closed
    # form, so toeplitz's own error and the residual are both roundoff:
    # measured 1.2e-16 / 1.8e-16 and 9.3e-16 / 7.6e-16 at n = 1 / n = 2
    # (quadrature at the model's Q left 7.9e-8 and 2.1e-3)
    direct, via, closed = gaussian_pipelines
    residual = np.linalg.norm(direct - via) / np.linalg.norm(direct)
    toeplitz_error = np.linalg.norm(direct - closed) / np.linalg.norm(direct)
    assert toeplitz_error <= 1e-15
    assert residual <= 4e-15


def _off_centre_square(a, c):
    """a |z - c|^2 as a Polynomial."""
    return Polynomial(
        [((1,), (1,), a), ((1,), (0,), -a * np.conj(c)), ((0,), (1,), -a * c), ((0,), (0,), a * abs(c) ** 2)]
    )


# every Gaussian takes the closed form whatever cfg.m says, so the order is
# tested on a kernel of degree 1 in z and in conj z, for which the rule
# about 0 of width t is exact at order 2D + 1.  With a = 0.02, f * A has
# max |entry| 2.6, the size the Gaussian kernel of this test gave (2.5),
# and the two orders measured 5.5e-15 apart.  The closed form is checked
# against its oracles below
@pytest.mark.parametrize("f", [_off_centre_square(0.02, 0.7 - 0.4j)], ids=["off-centre"])
def test_conv_fun_op_is_exact_at_order_2d_plus_1(f):
    rng = np.random.default_rng(3)
    c = rng.standard_normal((2, P.dim)) + 1j * rng.standard_normal((2, P.dim))
    c *= np.exp(-0.2 * np.arange(P.dim))
    A = rank_one(FockVector(P, c[0]), FockVector(P, c[1])) + toeplitz(P, Gaussian(width=2.0))
    exact = conv_fun_op(f, A, ConvolutionConfig(2 * P.D + 1)).matrix
    higher = conv_fun_op(f, A, ConvolutionConfig(2 * P.D + 9)).matrix
    assert np.max(np.abs(exact - higher)) < 1e-14


@pytest.mark.parametrize(
    "n, D, s",
    [
        (1, 0, 0.5),
        (2, 0, 0.125),
        (1, 10, 1.0),
        (1, 10, 0.125),
        (1, 24, 1.0),
        (1, 24, 0.125),
        (1, 40, 0.125),
        (2, 6, 0.125),
        (3, 2, 0.5),
        (3, 2, 0.125),
    ],
)
def test_radial_rule_matches_per_node_hermite_sum(n, D, s):
    # a centred Gaussian takes the closed form; the oracle is the defining
    # sum on the Hermite rule completed against f, exact at order 2D + 1
    p = FockParams(n, 1.0, D, D + 2)
    rng = np.random.default_rng(14)
    A = FockOperator(p, rng.standard_normal((p.dim, p.dim)) + 1j * rng.standard_normal((p.dim, p.dim)))
    f = heat_gaussian(s, n)
    tau = p.t * s / (p.t + s)
    want = per_node_sum(p, f, A, *hermite_dv(tau, 2 * D + 1, n=n))
    got = conv_fun_op(f, A, ConvolutionConfig(1)).matrix
    # measured <= 2.5e-15, 2.9e-15 at D = 40 (1.3e-15 at n = 2 and 3, and
    # 2.0e-16 and 4.2e-16 at D = 0)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


COVARIANCE_CASES = [
    pytest.param(1, D, c, id=f"n1-D{D}-c{c}", marks=EXTENDED if (D, c) in [(40, 0.3), (40, -0.3)] else ())
    for D in (10, 24, 40)
    for c in (0.3, -0.3, 0.3 + 0.2j, 1.0, 1.66j, 2.0)
] + [
    pytest.param(2, 6, (0.3, -0.2j), id="n2-D6"),
    pytest.param(3, 2, (0.3 - 0.2j, 2.0, -1.0j), id="n3-D2"),
]


@pytest.mark.parametrize("n, D, c", COVARIANCE_CASES)
def test_off_centre_gaussian_matches_per_node_hermite_sum(n, D, c):
    # translation covariance, f(. - c) * A = W_c (f_0 * A) W_c^*, one plane
    # at a time on the padded box, against the defining sum on the Hermite
    # rule completed against f, exact at order 2D + 1: the oracle shares no
    # code with the noise channel.  Measured <= 2.2e-15 of max |entry|; a
    # float64 Weyl block read 9.1e-15 at D = 40, c = 0.3 (1.3e-14 on
    # another random operand)
    p = FockParams(n, 1.0, D, D + 2)
    rng = np.random.default_rng(14)
    A = FockOperator(p, rng.standard_normal((p.dim, p.dim)) + 1j * rng.standard_normal((p.dim, p.dim)))
    c = np.broadcast_to(np.asarray(c, dtype=complex), (n,))
    f = Gaussian(center=c, width=1.5, n=n)
    tau = 1.5 / 2.5
    grid = hermite_dv_grid(n, tau, 2 * D + 1, (tau / 1.5) * c)
    want = per_node_sum(p, f, A, grid.nodes, grid.weights)
    got = conv_fun_op(f, A, ConvolutionConfig(1)).matrix
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_gaussian_kernels_take_no_quadrature(monkeypatch):
    # every Gaussian on the model's C^n takes the closed form: no dV rule is
    # built and no Weyl conjugation is summed, at any centre the K rule admits
    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature path was taken")

    monkeypatch.setattr(convolution, "_dv_grid", refuse)
    monkeypatch.setattr(convolution, "_conjugations", refuse)
    p2 = FockParams(2, 1.0, 4, 6)
    cases = [
        (P, heat_gaussian(0.5)),
        (P, Gaussian(center=0.3, width=2.0)),
        (P, Gaussian(center=-2.0 + 1.0j, width=0.5, amplitude=1j)),
        (p2, Gaussian(center=[0.3, 0.0], width=1.5, n=2)),
        (p2, Gaussian(center=0.3 - 0.2j, width=1.5, n=2)),
    ]
    for p, f in cases:
        out = conv_fun_op(f, pc_operator(p), default_config(p))
        assert np.all(np.isfinite(out.matrix)) and np.any(out.matrix)
    toeplitz_via_convolution(Gaussian(center=0.3, width=2.0), P, CFG)


def test_far_centre_takes_the_exact_rule():
    # |c| = 6 would pad the plane past degree 200 at D = 24, so the
    # Gaussian takes the polar rule completed against it, exact at order
    # 2D + 1: the same nodes summed one by one, measured 2.5e-15 of max
    # |entry|.  The shifted operand still lies partly inside the box: f * A
    # reaches 0.36 of max |A|
    p = FockParams(1, 1.0, 24, 26)
    f = Gaussian(center=6.0, width=1.5)
    assert convolution._padding(p.t, p.D, 6.0) is None
    assert convolution._gaussian_paddings(f, p) is None
    A = operand(p, "full")
    grid = convolution._dv_grid(p, default_config(p), f)
    want = per_node_sum(p, f, A, grid.nodes, grid.weights)
    got = conv_fun_op(f, A, default_config(p)).matrix
    assert np.max(np.abs(want)) > 0.1 * np.max(np.abs(A.matrix))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("center", [20.0, 1e6])
def test_padding_stops_at_its_cap(center):
    # the K rule's loop ends once D + K passes 200, however far out the
    # centre (|c|^2 overflows at 1e200); so far out, the shifted operand
    # leaves the box
    assert convolution._padding(P.t, P.D, 5.0) is not None
    assert convolution._padding(P.t, P.D, center) is None
    assert convolution._padding(P.t, P.D, 1e200) is None
    out = conv_fun_op(Gaussian(center=center, width=1.0), pc_operator(P), CFG)
    assert np.max(np.abs(out.matrix)) < 1e-60


@pytest.mark.parametrize("n, D", [(1, 24), (1, 40), (1, 60), (2, 12), (3, 4)])
@pytest.mark.parametrize("s", [1.0, 0.125, 4.0])
def test_heat_kernel_takes_the_vacuum_to_the_thermal_state(n, D, s):
    # an oracle that shares nothing with the band kernels: f_s * P_C is the
    # thermal state of mean photon number nbar = s / t per plane, truncated,
    # the diagonal nbar^|alpha| / (1 + nbar)^(|alpha| + n)
    p = FockParams(n, 1.0, D, D + 2)
    got = conv_fun_op(heat_gaussian(s, n), pc_operator(p), ConvolutionConfig(1)).matrix
    deg = np.array(multi_indices(p)).sum(axis=1)
    nbar = s / p.t
    want = np.diag(nbar**deg / (1.0 + nbar) ** (deg + n))
    # measured <= 2.2e-16 of the largest entry; each entry is within
    # 3.5e-15 of its own size at D = 60, the float q^k of the kernels
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


def test_radial_rule_keeps_the_hermite_paths_errors():
    # a kernel the Hermite path rejects is not taken by the closed form
    p2 = FockParams(2, 1.0, 4, 6)
    with pytest.raises(ValueError):
        conv_fun_op(heat_gaussian(1.0), identity_operator(p2), ConvolutionConfig(3))
    with pytest.raises(ValueError, match="non-finite"):
        conv_fun_op(Gaussian(amplitude=np.nan), pc_operator(P), ConvolutionConfig(3))
    with pytest.raises(ValueError, match="non-finite"):
        conv_fun_op(Gaussian(center=np.nan), pc_operator(P), ConvolutionConfig(3))
