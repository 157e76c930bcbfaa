"""Fock-core oracles: basis order, kernels, rank-one algebra, norms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fockqha.model as M
from fockqha.model import (
    FockOperator,
    FockParams,
    FockVector,
    basis_matrix,
    basis_vector,
    fock_p_norm,
    identity_operator,
    kernel_coefficients,
    multi_indices,
    operator_norm_2,
    p_operator_norm_lower_bound,
    parity_matrix,
    pc_operator,
    rank_one,
    schatten_norm,
    singular_values,
)
from fockqha.operators import weyl
from fockqha.quadrature import gaussian_grid

P1 = FockParams(1, 1.0, 12, 16)


def eval_basis(params: FockParams, alpha, z) -> complex:
    """e_alpha(z) = sqrt(1 / (alpha! t^{|alpha|})) z^alpha for a single point."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    norm = math.exp(
        -0.5 * (sum(math.lgamma(a + 1) for a in alpha) + sum(alpha) * math.log(params.t))
    )
    mono = complex(np.prod([z[a] ** alpha[a] for a in range(params.n)]))
    return norm * mono


def test_params_validation():
    with pytest.raises(ValueError):
        FockParams(1, -1.0, 4, 8)
    with pytest.raises(ValueError):
        FockParams(0, 1.0, 4, 8)
    with pytest.raises(ValueError):
        FockParams(1, 1.0, 10, 8)  # Q < D + 2


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
def test_params_reject_a_weight_that_is_not_positive_and_finite(t):
    # nan <= 0 is False, so a bare sign test let nan through
    with pytest.raises(ValueError, match="t must be positive and finite"):
        FockParams(1, t, 4, 6)


def test_basis_order_one_variable():
    p = FockParams(1, 1.0, 2, 4)
    assert multi_indices(p) == ((0,), (1,), (2,))


def test_basis_order_two_variables():
    p = FockParams(2, 1.0, 1, 3)
    assert multi_indices(p) == ((0, 0), (1, 0), (0, 1))
    p2 = FockParams(2, 1.0, 2, 4)
    assert len(multi_indices(p2)) == math.comb(4, 2)


def test_eval_basis_values():
    assert eval_basis(P1, (0,), 0.7 + 0.2j) == pytest.approx(1.0)
    assert eval_basis(P1, (2,), 1.0) == pytest.approx(1.0 / math.sqrt(2.0))
    p2 = FockParams(1, 2.0, 4, 6)
    assert eval_basis(p2, (1,), 1j) == pytest.approx(1j / math.sqrt(2.0))


def test_orthonormality_on_quadrature_grid():
    p = FockParams(1, 1.0, 10, 14)
    E, B = M._grid_basis(p)
    gram = B @ E.T
    assert np.max(np.abs(gram - np.eye(p.dim))) < 1e-12


def test_kernel_at_origin_is_e0():
    c = kernel_coefficients(P1, 0.0).coeffs
    want = np.zeros(P1.dim)
    want[0] = 1.0
    assert np.array_equal(c, want.astype(complex))


def test_kernel_norm_inside_window():
    p = FockParams(1, 1.0, 20, 24)
    nrm2 = np.sum(np.abs(kernel_coefficients(p, 1.0).coeffs) ** 2)
    assert 1.0 - 1e-8 <= nrm2 <= 1.0 + 1e-14


def test_kernel_entry_closed_form():
    c = kernel_coefficients(P1, 1.0).coeffs
    assert c[1] == pytest.approx(np.exp(-0.5))  # e^{-1/2} conj(e_1(1))


def test_kernel_truncation_warning():
    p = FockParams(1, 1.0, 6, 10)
    with pytest.warns(UserWarning, match="defect"):
        kernel_coefficients(p, 3.0)


def test_rank_one_pc_matrix():
    A = pc_operator(P1)
    want = np.zeros((P1.dim, P1.dim), dtype=complex)
    want[0, 0] = 1.0
    assert np.array_equal(A.matrix, want)


def test_rank_one_trace():
    e0, e1 = basis_vector(P1, 0), basis_vector(P1, 1)
    assert rank_one(e1, e0).trace == 0.0
    k = kernel_coefficients(P1, 0.5)
    assert abs(rank_one(k, k).trace - 1.0) < 1e-10


def test_parity_matrix():
    p = FockParams(1, 1.0, 2, 4)
    U = parity_matrix(p)
    assert np.array_equal(np.diag(U.matrix), np.array([1.0, -1.0, 1.0], dtype=complex))
    assert np.array_equal((U @ U).matrix, np.eye(3, dtype=complex))
    PC = pc_operator(p)
    assert np.array_equal((U @ PC @ U).matrix, PC.matrix)


def test_operator_norm_examples():
    assert operator_norm_2(identity_operator(P1)) == pytest.approx(1.0)
    e0 = basis_vector(P1, 0)
    assert operator_norm_2(rank_one(e0, e0)) == pytest.approx(1.0)
    assert operator_norm_2(2.0 * parity_matrix(P1)) == pytest.approx(2.0)
    zero = FockOperator(P1, np.zeros((P1.dim, P1.dim)))
    assert operator_norm_2(zero) == 0.0


@pytest.mark.parametrize(
    "params", [FockParams(1, 1.0, 6, 8), FockParams(2, 1.0, 4, 6), FockParams(3, 1.0, 3, 5)]
)
def test_pair_pick_scatter_then_gather_is_exact(params):
    rng, d = np.random.default_rng(22), params.dim
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    pick = M._pair_pick(params)
    X = np.zeros((params.D + 1,) * (2 * params.n), dtype=complex)
    X[pick] = A
    assert np.array_equal(X[pick], A)
    # every entry of A has a box entry of its own
    assert np.count_nonzero(X) == A.size


def test_pair_pick_places_an_n2_entry_by_hand():
    # graded lex order at n = 2, D = 2: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)
    p = FockParams(2, 1.0, 2, 4)
    assert multi_indices(p)[1] == (1, 0) and multi_indices(p)[5] == (0, 2)
    A = np.arange(p.dim * p.dim, dtype=complex).reshape(p.dim, p.dim)
    X = np.zeros((3, 3, 3, 3), dtype=complex)
    X[M._pair_pick(p)] = A
    # entry [1, 5] pairs degree 1 with 0 on plane 1, and 0 with 2 on plane 2
    assert X[1, 0, 0, 2] == A[1, 5]


def test_schatten_examples():
    e0 = basis_vector(P1, 0)
    proj = rank_one(e0, e0)
    for p0 in [1.0, 2.0, 5.0]:
        assert schatten_norm(proj, p0) == pytest.approx(1.0)
    assert schatten_norm(identity_operator(P1), 1.0) == pytest.approx(P1.dim)
    rng = np.random.default_rng(7)
    A = FockOperator(P1, rng.standard_normal((P1.dim, P1.dim)))
    assert schatten_norm(A, 2.0) ** 2 == pytest.approx(np.sum(np.abs(A.matrix) ** 2))
    for p0 in [0.5, np.nan]:
        with pytest.raises(ValueError, match="p0"):
            schatten_norm(A, p0)


@pytest.mark.parametrize("c", [3.0, 0.5])
@pytest.mark.parametrize("p0", [700.0, 2000.0, np.inf])
def test_schatten_norm_at_large_and_infinite_p0(c, p0):
    # c**p0 overflows or underflows: 3**700 and 0.5**2000 are beyond a double
    A = FockOperator(P1, c * np.eye(P1.dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert schatten_norm(A, p0) == pytest.approx(c * P1.dim ** (1.0 / p0), rel=1e-14)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "norm", [operator_norm_2, singular_values, lambda A: schatten_norm(A, 2.0)],
    ids=["operator_norm_2", "singular_values", "schatten_norm"],
)
def test_singular_values_reject_non_finite_entries(norm, bad):
    # LAPACK would return NaN singular values for an inf entry, silently
    M = np.eye(P1.dim, dtype=complex)
    M[2, 3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        norm(FockOperator(P1, M))


def test_norm_chain():
    rng = np.random.default_rng(11)
    A = FockOperator(
        P1, rng.standard_normal((P1.dim, P1.dim)) + 1j * rng.standard_normal((P1.dim, P1.dim))
    )
    s_inf = operator_norm_2(A)
    s4 = schatten_norm(A, 4.0)
    s2 = schatten_norm(A, 2.0)
    s1 = schatten_norm(A, 1.0)
    assert s_inf <= s4 + 1e-12 <= s2 + 1e-12 <= s1 + 1e-12


def test_p_norm_lower_bound_identity_and_zero():
    A = identity_operator(P1)
    assert p_operator_norm_lower_bound(A, 4.0, trials=3) == pytest.approx(1.0, abs=1e-8)
    zero = FockOperator(P1, np.zeros((P1.dim, P1.dim)))
    assert p_operator_norm_lower_bound(zero, 4.0, trials=3) == 0.0


def test_p_norm_lower_bound_weyl_isometry():
    p = FockParams(1, 1.0, 16, 20)
    A = weyl(p, 0.4)
    lb = p_operator_norm_lower_bound(A, 2.0, trials=8)
    assert lb <= 1.0 + 1e-6
    assert lb > 0.9


def test_p_norm_lower_bound_monotone_in_trials():
    p = FockParams(1, 1.0, 10, 14)
    A = weyl(p, 0.3)
    a = p_operator_norm_lower_bound(A, 3.0, trials=2, seed=5)
    b = p_operator_norm_lower_bound(A, 3.0, trials=10, seed=5)
    # same seed: the first two candidates coincide, so more trials never lose
    assert b >= a - 1e-15


def test_fock_p_norm_n1_is_the_dense_sum_bit_for_bit():
    # at n = 1 the degree box is the coefficient vector, so the plane
    # contraction is the dense product against the basis on the whole grid
    rng = np.random.default_rng(7)
    params = FockParams(1, 1.0, 16, 20)
    rows = rng.standard_normal((5, params.dim)) + 1j * rng.standard_normal((5, params.dim))
    for p in (1.5, 2.0, 3.0):
        grid = gaussian_grid(1, 2.0 * params.t / p, params.Q)
        for coeffs in (rows, rows[0], rows.real):
            vals = coeffs @ basis_matrix(params, grid.nodes)
            dense = np.sum(grid.weights * np.abs(vals) ** p, axis=-1) ** (1.0 / p)
            assert np.array_equal(fock_p_norm(params, coeffs, p), dense)


def test_fock_p_norm_n2_matches_dense_oracle():
    # dense oracle: every e_alpha(z) = prod_k z_k^a_k / sqrt(a_k! t^a_k) on
    # the full Q^4-node grid, with no plane factoring
    rng = np.random.default_rng(8)
    params = FockParams(2, 0.8, 6, 8)
    coeffs = rng.standard_normal((3, params.dim)) + 1j * rng.standard_normal((3, params.dim))
    for p in (4.0 / 3.0, 2.0, 3.0):
        grid = gaussian_grid(2, 2.0 * params.t / p, params.Q)
        z = grid.nodes
        E = np.ones((params.dim, z.shape[0]), dtype=complex)
        for j, alpha in enumerate(multi_indices(params)):
            for k, a in enumerate(alpha):
                E[j] *= z[:, k] ** a / math.sqrt(math.factorial(a) * params.t**a)
        dense = np.sum(grid.weights * np.abs(coeffs @ E) ** p, axis=-1) ** (1.0 / p)
        got = fock_p_norm(params, coeffs, p)
        assert np.max(np.abs(got - dense) / dense) <= 1e-13


def test_fock_p_norm_n2_builds_no_full_basis():
    # the dim x Q^4 basis of FockParams(2, 1.0, 14, 16) alone is 126 MB, and
    # the dense evaluation peaked at 273 MiB; plane by plane it is 23 MiB,
    # the Q^4 values of the ten candidate rows and their powers
    params = FockParams(2, 1.0, 14, 16)
    tracemalloc.start()
    try:
        bound = p_operator_norm_lower_bound(identity_operator(params), 3.0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound == pytest.approx(1.0, abs=1e-8)
    assert peak < 32 * 2**20


def test_vector_and_operator_validation():
    with pytest.raises(ValueError):
        FockVector(P1, np.ones(3))
    with pytest.raises(ValueError):
        FockOperator(P1, np.ones((2, 2)))
    other = FockParams(1, 2.0, 12, 16)
    v = FockVector(P1, np.ones(P1.dim))
    w = FockVector(other, np.ones(other.dim))
    with pytest.raises(ValueError):
        v.inner(w)


def test_basis_matrix_consistency():
    # n = 2 and n = 3 check the per-axis gather of the power tables
    cases = [
        (P1, [[0.3 - 0.4j], [1.0 + 0.0j]]),
        (FockParams(2, 0.7, 6, 8), [[0.3 - 0.4j, 1.1j], [1.0, -0.2 + 0.5j], [0.0, 0.9]]),
        (FockParams(3, 1.3, 5, 7), [[0.3 - 0.4j, 1.1j, -0.6], [1.0, 0.0, 0.4 + 0.8j]]),
    ]
    for params, pts in cases:
        pts = np.array(pts, dtype=complex)
        E = basis_matrix(params, pts)
        for j, alpha in enumerate(multi_indices(params)):
            for i in range(pts.shape[0]):
                assert E[j, i] == pytest.approx(eval_basis(params, alpha, pts[i]), rel=1e-14)


def basis_by_mpmath(params: FockParams, alpha, z):
    """e_alpha(z) = prod_k z_k^alpha_k / sqrt(alpha_k! t^alpha_k) in 40-digit mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        value = mp.mpf(1)
        for a, zk in zip(alpha, z):
            value *= mp.mpc(complex(zk)) ** a / mp.sqrt(mp.factorial(a) * mp.mpf(params.t) ** a)
        return complex(value)


@pytest.mark.parametrize(
    "params",
    [
        FockParams(1, 1.0, 24, 26),
        FockParams(1, 1.0, 40, 42),
        FockParams(1, 0.3, 60, 62),
        FockParams(2, 0.7, 14, 16),
        FockParams(3, 1.3, 6, 8),
    ],
)
def test_basis_matrix_matches_mpmath(params):
    # 50 random points at each of |z| = 0.5, 3 and 9, relative per entry;
    # measured 9.8e-16 / 1.3e-15 / 1.7e-15 / 1.1e-15 / 7.9e-16
    rng = np.random.default_rng(0)
    z = rng.standard_normal((150, params.n)) + 1j * rng.standard_normal((150, params.n))
    z *= np.repeat([0.5, 3.0, 9.0], 50)[:, None] / np.linalg.norm(z, axis=1, keepdims=True)
    E = basis_matrix(params, z)
    want = np.array([[basis_by_mpmath(params, a, w) for w in z] for a in multi_indices(params)])
    assert np.max(np.abs(E - want) / np.abs(want)) <= 4e-15


@pytest.mark.parametrize(
    "params", [FockParams(1, 1.0, 24, 26), FockParams(2, 1.0, 10, 12)], ids=["n1-D24", "n2-D10"]
)
def test_basis_matrix_column_does_not_depend_on_the_batch(params):
    # numpy's complex multiply rounds a one-element row apart from its
    # vector loop: evaluated alone as one column, 989 of these 1000 points
    # at n = 1 and 999 at n = 2 differed from their batched columns
    rng = np.random.default_rng(11)
    z = 2.0 * (rng.standard_normal((1000, params.n)) + 1j * rng.standard_normal((1000, params.n)))
    E = basis_matrix(params, z)
    assert all(np.array_equal(basis_matrix(params, w), E[:, i : i + 1]) for i, w in enumerate(z))
    for P in (2, 3, 16):
        assert np.array_equal(basis_matrix(params, z[:P]), E[:, :P])


def test_basis_matrix_at_n1_is_one_table_in_place():
    # at n = 1 the plane table is the result; a copy of the 0.9 MB table by
    # fancy indexing doubled the peak (1.8 MB above entry)
    params = FockParams(1, 1.0, 40, 42)
    rng = np.random.default_rng(8)
    z = rng.standard_normal((1372, 1)) + 1j * rng.standard_normal((1372, 1))
    tracemalloc.start()
    try:
        E = basis_matrix(params, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert E.nbytes > 2**19 and peak < 1.5 * E.nbytes, (E.nbytes, peak)
