"""Smoke checks in two complex variables (n = 2)."""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

import fockqha.model as M
from fockqha.cli import main
from fockqha.model import (
    FockParams,
    identity_operator,
    kernel_coefficients,
    rank_one,
    trusted_norm,
)
from fockqha.operators import berezin_values, toeplitz, weyl, weyl_matrices
from fockqha.quadrature import hermite_dv_grid
from fockqha.serialize import load_operator
from fockqha.symbols import Constant, Gaussian, heat_gaussian

P2 = FockParams(2, 1.0, 4, 6)


def test_orthonormality_n2():
    # the grid is a product of planes, so the n = 2 Gram matrix is the
    # product of plane Gram entries at the multi-indices' components
    e, b = M._grid_basis(P2)
    plane = b @ e.T
    assert np.max(np.abs(plane - np.eye(P2.D + 1))) < 1e-12
    idx = np.array(M.multi_indices(P2))
    gram = plane[idx[:, 0, None], idx[None, :, 0]] * plane[idx[:, 1, None], idx[None, :, 1]]
    assert np.max(np.abs(gram - np.eye(P2.dim))) < 1e-12


def test_toeplitz_of_one_n2():
    T = toeplitz(P2, Constant(1.0, n=2))
    assert np.max(np.abs(T.matrix - np.eye(P2.dim))) < 1e-12


def test_weyl_vacuum_element_n2():
    z = np.array([0.3, -0.2j])
    W = weyl(P2, z)
    assert abs(W.matrix[0, 0] - np.exp(-np.sum(np.abs(z) ** 2) / 2.0)) < 1e-12


def test_berezin_identity_n2():
    pts = np.array([[0.0, 0.0], [0.3, -0.2j], [0.5j, 0.1]])
    vals = berezin_values(identity_operator(P2), pts)
    assert np.max(np.abs(vals - 1.0)) < 1e-13


def test_kernel_norm_n2():
    c = kernel_coefficients(P2, np.array([0.2, 0.1j])).coeffs
    assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-6


def test_toeplitz_gaussian_hermitian_n2():
    f = Gaussian(center=np.zeros(2, dtype=complex), width=2.0, n=2)
    T = toeplitz(P2, f)
    assert np.max(np.abs(T.matrix - T.matrix.conj().T)) < 1e-12


def test_verify_runs_n2(tmp_path):
    # every identity is checked and reported; at D = 6 only the Weyl
    # commutation fails, by truncation (9.4e-3 against 1e-6), and the two
    # Toeplitz pipelines agree to roundoff (measured 6.0e-16)
    argv = ["--n", "2", "--D", "6", "--Q", "8", "--m", "8", "--outdir", str(tmp_path), "verify"]
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    assert status == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failing = [r["identity"] for r in report["records"] if not r["residual"] <= r["cfg"]["tolerance"]]
    assert failing == ["weyl-commutation"]
    (pipeline,) = [r for r in report["records"] if r["identity"] == "two-pipeline-toeplitz"]
    assert pipeline["residual"] <= 1e-14
    assert [r["identity"] for r in report["records"]] == [
        "orthonormality",
        "toeplitz-of-one",
        "weyl-commutation",
        "trace-identity",
        "duality-1",
        "duality-2",
        "duality-3",
        "two-pipeline-toeplitz",
    ]
    assert report["passed"] is (status == 0)


def test_approx_identity_sweep_n2(tmp_path):
    argv = ["--n", "2", "--D", "6", "--Q", "8", "--outdir", str(tmp_path), "sweep", "approx-identity"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with open(tmp_path / "sweep_approx_identity.csv") as fh:
        rows = [(float(s), float(e)) for s, e in list(csv.reader(fh))[1:]]
    assert [s for s, _ in rows] == [1.0, 0.5, 0.25, 0.125]
    errors = [e for _, e in rows]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
    # the first row against the defining sum of f_1 * A on the Hermite rule
    # completed against f_1 (1/tau = 1/t + 1/s), exact at order 2D + 1
    p = FockParams(2, 1.0, 6, 8)
    A = toeplitz(p, Gaussian(center=np.zeros(2, dtype=complex), width=2.0, n=2))
    f = heat_gaussian(1.0, 2)
    grid = hermite_dv_grid(2, 0.5, 2 * p.D + 1)
    c = grid.weights * f(grid.nodes)
    conv = np.zeros((p.dim, p.dim), dtype=complex)
    for start in range(0, grid.size, 512):
        W = weyl_matrices(p, grid.nodes[start : start + 512])
        CW = c[start : start + 512, None, None] * W
        conv += np.einsum("kac,cd,kbd->ab", CW, A.matrix, W.conj(), optimize=True)
    assert abs(errors[0] - trusted_norm(M.FockOperator(p, conv) - A)) < 1e-12


@pytest.mark.parametrize("symbol", ["horizontal", "radial"])
def test_invariance_sweep_n2(symbol, tmp_path):
    # the shift direction repeats on every axis; the two symbols need not
    # separate at this small D (0.33 and 0.16 at D = 6)
    argv = ["--n", "2", "--D", "4", "--Q", "6", "--outdir", str(tmp_path),
            "sweep", "invariance", "--symbol", symbol]  # fmt: skip
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    doc = json.loads((tmp_path / "sweep_invariance.json").read_text())
    (record,) = doc["records"]
    assert np.isfinite(record["quantity"]) and record["quantity"] > 0


def _export(tmp_path, target):
    argv = ["--n", "2", "--D", "4", "--Q", "6", "--outdir", str(tmp_path), "export-operator", target]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return load_operator(tmp_path / "operator.json")


def test_export_targets_n2(tmp_path):
    # weyl:<z> and rank-one:<z> repeat z on every axis
    p = FockParams(2, 1.0, 4, 6)
    W = _export(tmp_path, "weyl:0.5")
    assert W.params == p
    assert np.array_equal(W.matrix, weyl(p, [0.5, 0.5]).matrix)
    R = _export(tmp_path, "rank-one:0.1")
    k = kernel_coefficients(p, [0.1, 0.1])
    assert np.array_equal(R.matrix, rank_one(k, k).matrix)


def test_export_berezin_n2_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the CSV grid is defined for n = 1, so the command must refuse before
    # it spends time on the Berezin grid
    import fockqha.operators

    def never(*args, **kwargs):
        raise AssertionError("the Berezin grid was computed")

    monkeypatch.setattr(fockqha.operators, "berezin", never)
    argv = ["--n", "2", "--D", "4", "--Q", "6", "--outdir", str(tmp_path),
            "export-berezin", "rank-one:0", "--grid-m", "5"]
    assert main(argv) == 2
    assert "n = 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_approx_n2_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the heat-kernel fit lattice is built for n = 1, so the command must
    # refuse before any stage runs
    import fockqha.approximation

    def never(*args, **kwargs):
        raise AssertionError("the approximation ran")

    monkeypatch.setattr(fockqha.approximation, "toeplitz_approximation", never)
    argv = ["--n", "2", "--D", "4", "--Q", "6", "--outdir", str(tmp_path), "approx", "weyl:0.5"]
    assert main(argv) == 2
    assert "n = 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
