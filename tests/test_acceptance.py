"""Acceptance criteria, one test per criterion with a single pass/fail line.

Each test prints ``ACCEPTANCE <k> (<summary>): PASS|FAIL`` and then
asserts, so the verdicts are readable both from captured output and
from the pytest result lines.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fockqha.model as M
from fockqha.approximation import approximate_identity_sweep, toeplitz_approximation
from fockqha.convolution import (
    adjoint_duality_residuals,
    conv_op_op,
    default_config,
    toeplitz_via_convolution,
    trace_identity_residual,
)
from fockqha.experiments import invariance_check, quantization_sweep
from fockqha.model import (
    FockParams,
    FockVector,
    degree_projector,
    identity_operator,
    kernel_coefficients,
    operator_norm_2,
    parity_matrix,
    rank_one,
)
from fockqha.operators import berezin_values, toeplitz, weyl
from fockqha.symbols import Gaussian, Horizontal, PlaneWave, Polynomial, Radial


def _report(k: int, summary: str, ok: bool) -> None:
    print(f"ACCEPTANCE {k} ({summary}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_exact_quadrature_identities():
    t0 = time.monotonic()
    p = FockParams(1, 1.0, 30, 40)
    E, B = M._grid_basis(p)
    r_gram = np.max(np.abs(B @ E.T - np.eye(p.dim)))
    r_one = np.max(np.abs(toeplitz(p, lambda z: np.ones(z.shape[0])).matrix - np.eye(p.dim)))
    T2 = toeplitz(p, Polynomial(terms=[((1,), (1,), 1.0)]))
    want = np.diag([p.t * (k + 1) for k in range(p.D + 1)]).astype(complex)
    r_diag = np.max(np.abs(T2.matrix - want))
    U = parity_matrix(p)
    parity_exact = np.array_equal((U @ U).matrix, np.eye(p.dim, dtype=complex))
    elapsed = time.monotonic() - t0
    ok = r_gram <= 1e-12 and r_one <= 1e-12 and r_diag <= 1e-12 and parity_exact and elapsed < 5.0
    _report(1, "exact quadrature identities, < 5 s", ok)


def test_criterion_02_weyl_algebra():
    pairs = [(0.8, 0.5j), (1.0, 0.3 - 0.4j), (0.2 + 0.9j, -0.6)]

    def commutation_residual(p):
        proj = degree_projector(p, p.D // 2)
        worst = 0.0
        for z, w in pairs:
            phase = np.exp(-1j * np.imag(z * np.conj(w)) / p.t)
            diff = weyl(p, z) @ weyl(p, w) - phase * weyl(p, z + w)
            worst = max(worst, operator_norm_2(proj @ diff @ proj))
        return worst

    r20 = commutation_residual(FockParams(1, 1.0, 20, 24))
    p40 = FockParams(1, 1.0, 40, 44)
    r40 = commutation_residual(p40)
    proj = degree_projector(p40, p40.D // 2)
    inv = weyl(p40, 0.7 - 0.2j) @ weyl(p40, -0.7 + 0.2j)
    r_inv = operator_norm_2(proj @ (inv - identity_operator(p40)) @ proj)
    ok = r40 <= 1e-6 and r40 <= r20 / 10.0 and r_inv <= 1e-8
    _report(2, "Weyl commutation + inverse, 10x decay D 20->40", ok)


def test_criterion_03_berezin_closed_form():
    p = FockParams(1, 1.0, 32, 36)
    R = np.sqrt(p.t * p.D) / 2.0
    centers = [0.0, 0.5 + 0.5j, 0.99 * R, 0.7j * R, -0.6 * R + 0.4j * R]
    probes = np.array(
        [0.0, 0.3 - 0.2j, 0.95 * R, -0.8j * R, 0.7 * R, 0.5 * R - 0.5j * R]
    )[:, None]
    worst = 0.0
    for z0 in centers:
        k = kernel_coefficients(p, z0)
        A = rank_one(k, k)
        got = berezin_values(A, probes)
        want = np.exp(-np.abs(probes[:, 0] - z0) ** 2 / p.t)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _report(3, "Berezin closed form on coherent projections", worst <= 1e-8)


def test_criterion_04_convolution_identities():
    p = FockParams(1, 1.0, 16, 20)
    cfg = default_config(p)
    rng = np.random.default_rng(0)
    decay = np.exp(-0.3 * np.arange(p.dim))

    def rand_vec():
        c = (rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)) * decay
        return FockVector(p, c / np.linalg.norm(c))

    worst_trace = 0.0
    for _ in range(20):
        A = rank_one(rand_vec(), rand_vec())
        B = rank_one(rand_vec(), rand_vec())
        worst_trace = max(worst_trace, trace_identity_residual(A, B, cfg))

    A = rank_one(rand_vec(), rand_vec())
    rs = adjoint_duality_residuals(
        Gaussian(center=0.2, width=1.0), A, rank_one(rand_vec(), rand_vec()),
        identity_operator(p), cfg,
    )
    k1, k2 = kernel_coefficients(p, 0.3), kernel_coefficients(p, -0.2 + 0.4j)
    C1, C2 = rank_one(k1, k1), rank_one(k2, k2)
    pts = np.array([0.0, 0.5, 0.3 - 0.6j, 1.0, -0.8j])[:, None]
    comm = np.max(np.abs(conv_op_op(C1, C2).eval(pts) - conv_op_op(C2, C1).eval(pts)))
    ok = worst_trace <= 1e-12 and max(rs) <= 1e-12 and comm <= 1e-6
    _report(4, "trace identity, dualities, commutativity", ok)


def test_criterion_05_two_pipeline_toeplitz():
    p = FockParams(1, 1.0, 16, 20)
    cfg = default_config(p)
    worst = 0.0
    for f in [Gaussian(center=0.3, width=2.0), PlaneWave(zeta=1.0 + 0.5j)]:
        direct = toeplitz(p, f)
        via = toeplitz_via_convolution(f, p, cfg)
        worst = max(
            worst,
            np.linalg.norm(direct.matrix - via.matrix) / np.linalg.norm(direct.matrix),
        )
    _report(5, "quadrature vs convolution Toeplitz pipelines", worst <= 1e-4)


def test_criterion_06_approximate_identity():
    t0 = time.monotonic()
    p = FockParams(1, 1.0, 16, 20)
    A = toeplitz(p, Gaussian(center=0.0, width=2.0))
    errs = [e for _, e in approximate_identity_sweep(A, [1.0, 0.5, 0.25, 0.125])]
    decreasing = all(errs[i + 1] <= 1.1 * errs[i] for i in range(3))
    elapsed = time.monotonic() - t0
    ok = decreasing and errs[-1] < errs[0] and elapsed < 60.0
    _report(6, "approximate identity sweep decreasing, < 60 s", ok)


def test_criterion_07_theorem_a_constructive_scheme():
    t0 = time.monotonic()
    p = FockParams(1, 1.0, 24, 26)
    k0 = kernel_coefficients(p, 0.0)
    targets = [
        ("toeplitz-gaussian", toeplitz(p, Gaussian(center=0.3, width=2.0))),
        ("weyl-0.5", weyl(p, 0.5)),
        ("rank-one-k0", rank_one(k0, k0)),
    ]
    ok = True
    with pytest.warns(UserWarning, match="trusted"):
        for name, A in targets:
            report = toeplitz_approximation(A, [1, 2, 4, 8], target=name)
            errs = [st.op_error for st in report.stages]
            mono = all(errs[i + 1] <= 1.1 * errs[i] for i in range(3))
            ok = ok and mono and errs[-1] <= errs[0] / 3.0 and report.domination_holds(0.10)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _report(7, "constructive Toeplitz approximation curves, < 5 min", ok)


def test_criterion_08_quantization_sweep():
    p = FockParams(1, 1.0, 16, 20)
    f = Gaussian(center=0.0, width=4.0)
    op_recs, sup_recs = quantization_sweep(f, f, [1.0, 0.5, 0.25, 0.125], p)
    op = [r.quantity for r in op_recs]
    sup = [r.quantity for r in sup_recs]
    ok = all(op[i + 1] < 1.15 * op[i] and op[i + 1] < op[i] for i in range(3))
    ok = ok and all(sup[i + 1] < 1.15 * sup[i] and sup[i + 1] < sup[i] for i in range(3))
    _report(8, "quantization estimates strictly decreasing in t", ok)


def test_criterion_09_invariance():
    p = FockParams(1, 1.0, 40, 44)
    r_h = invariance_check(Horizontal(width=1.0), p, [1j], [0.25, 0.5, 1.0])
    r = np.linspace(0.0, 6.0, 25)
    radial = Radial(radii=r, values=np.exp(-r))
    r_neg = invariance_check(radial, p, [1.0], [0.25, 0.5, 1.0])
    ok = r_h <= 1e-6 and r_neg >= 0.01
    _report(9, "horizontal invariance + radial negative control", ok)


def test_criterion_10_determinism(tmp_path):
    blas = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas}
    pinned = {**unset, **dict.fromkeys(blas, "1")}
    outs = []
    # same outdir every run: the resolved config embedded in the output
    # must be identical; neither --threads nor an environment without the
    # BLAS variables (the package import defaults them to 1) may change a byte
    for threads, env in [("1", pinned), ("4", pinned), ("1", unset)]:
        cmd = [
            sys.executable, "-m", "fockqha.cli",
            "--D", "16", "--Q", "20", "--seed", "3",
            "--threads", threads, "--outdir", str(tmp_path), "verify",
        ]
        res = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append((tmp_path / "verify_report.json").read_bytes())
    _report(10, "byte-identical outputs across thread counts", outs[0] == outs[1] == outs[2])
