"""Constructive approximation: heat-kernel fits and the Toeplitz scheme."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fockqha.approximation import (
    RIDGE,
    approximate_identity_sweep,
    build_symbol_from_berezin,
    fit_heat_kernel,
    toeplitz_approximation,
)
from fockqha.model import (
    FockParams,
    identity_operator,
    kernel_coefficients,
    pc_operator,
    rank_one,
)
from fockqha.operators import toeplitz, weyl
from fockqha.quadrature import lebesgue_grid
from fockqha.symbols import Gaussian

P = FockParams(1, 1.0, 16, 20)


def test_node_layout_lattice():
    fit = fit_heat_kernel(P, 2)
    pts = fit.nodes
    radius = 3.0 * np.sqrt(P.t) + np.sqrt(P.t / 2)
    assert pts.shape[1] == 1
    assert np.all(np.abs(pts[:, 0]) <= radius + 1e-12)
    assert any(abs(z) < 1e-15 for z in pts[:, 0])  # origin included
    assert abs(np.sum(fit.coefficients) - 1.0) < 1e-12
    with pytest.raises(NotImplementedError):
        fit_heat_kernel(FockParams(2, 1.0, 4, 6), 2)


def test_stage_one_fit_is_exact():
    fit = fit_heat_kernel(P, 1)
    assert fit.nodes.shape == (1, 1)
    assert fit.coefficients[0] == 1.0
    assert fit.l1_residual < 1e-10


def test_stage_four_meets_quarter_target():
    fit = fit_heat_kernel(P, 4)
    assert fit.l1_residual <= 0.25


def test_invalid_stage():
    with pytest.raises(ValueError):
        fit_heat_kernel(P, 0)


def _dense_fit(params, N):
    """The fit assembled densely: the design matrix on every 2-d grid node."""
    t, s = params.t, params.t / N
    pitch, radius = 0.5 * np.sqrt(s), 3.0 * np.sqrt(t) + np.sqrt(s)
    k = int(radius / pitch)
    axis = pitch * np.arange(-k, k + 1)
    lattice = (axis[:, None] + 1j * axis[None, :]).ravel()
    nodes = lattice[np.abs(lattice) <= radius + 1e-12]
    grid = lebesgue_grid(float(radius + 4.0 * np.sqrt(t)), 80, 1)
    x, sw = grid.nodes[:, 0], np.sqrt(grid.weights)
    target = np.exp(-np.abs(x) ** 2 / s) / (np.pi * s)
    Phi = np.exp(-np.abs(x[:, None] - nodes[None, :]) ** 2 / t) / (np.pi * t)
    G = (Phi * sw[:, None]).T @ (Phi * sw[:, None])
    ridge = RIDGE * np.trace(G) / G.shape[0]
    rhs = Phi.T @ (grid.weights * target)
    c = scipy.linalg.solve(G + ridge * np.eye(G.shape[0]), rhs, assume_a="pos")
    c = c / np.sum(c)
    return nodes, c, float(np.sum(grid.weights * np.abs(target - Phi @ c)))


@pytest.mark.parametrize("N", [2, 4])
def test_factored_fit_matches_dense_assembly(N):
    # same quadrature, same least-squares problem: only the summation order
    # differs, and the 1e-8-ridge normal equations amplify its roundoff to
    # relative coefficient deltas of 7e-8 (N = 2) and 1.9e-7 (N = 4)
    fit = fit_heat_kernel(P, N)
    nodes, c, resid = _dense_fit(P, N)
    assert np.array_equal(fit.nodes[:, 0], nodes)
    assert fit.ridge == RIDGE
    assert np.max(np.abs(fit.coefficients - c)) <= 1e-6 * np.max(np.abs(c))
    assert abs(fit.l1_residual - resid) <= 1e-8


def test_fit_builds_no_dense_design_matrix():
    # the dense assembly peaks at 239 MB here (6400 x 1117 complex design
    # matrix and two real copies); the factored one at about 21 MB
    tracemalloc.start()
    try:
        fit_heat_kernel(P, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


_RSS_PROBE = """
import resource
from fockqha import FockParams, fit_heat_kernel

def rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) for l in fh if l.startswith("VmRSS")) / 1024

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

P = FockParams(1, 1.0, 24, 26)
fit_heat_kernel(P, 2)
rss0, peak0 = rss_mb(), peak_mb()
for _ in range(3):
    fit_heat_kernel(P, 8)
    fit_heat_kernel(P, 4)
print(rss_mb() - rss0, peak_mb() - peak0)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc")
def test_fit_returns_its_normal_matrix_memory():
    # a fresh interpreter, so that no earlier test has shaped the heap; the
    # 1117 x 1117 normal matrix of N = 8 (10 MB) is the only large array,
    # and it is unmapped on release: 3.8 MB stay resident and the peak
    # rises 12 MB, where the malloc-heap assembly kept 39 MB resident and
    # peaked 38 MB higher
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    resident, peak = map(float, res.stdout.split())
    assert resident < 8.0
    assert peak < 20.0


def test_symbol_from_identity_is_one():
    fit = fit_heat_kernel(P, 1)
    sym = build_symbol_from_berezin(identity_operator(P), fit)
    pts = np.array([0.0, 0.5, -0.3 + 0.2j])
    assert np.max(np.abs(sym(pts) - 1.0)) < 1e-12


def test_symbol_from_pc_single_node():
    fit = fit_heat_kernel(P, 1)
    sym = build_symbol_from_berezin(pc_operator(P), fit)
    pts = np.array([0.0, 0.7, 1.0j])
    want = np.exp(-np.abs(pts) ** 2 / P.t)
    assert np.max(np.abs(sym(pts) - want)) < 1e-10


def test_symbol_magnitude_bounded_by_coefficients():
    fit = fit_heat_kernel(P, 2)
    with pytest.warns(UserWarning, match="trusted"):
        sym = build_symbol_from_berezin(weyl(P, 0.4), fit)
    pts = np.linspace(-1.0, 1.0, 9)
    bound = np.sum(np.abs(fit.coefficients))
    assert np.max(np.abs(sym(pts))) <= bound + 1e-10


def test_symbol_construction_linearity():
    fit = fit_heat_kernel(P, 2)
    A = pc_operator(P)
    B = toeplitz(P, Gaussian(center=0.2, width=1.0))
    pts = np.array([0.0, 0.4 - 0.3j])
    with pytest.warns(UserWarning, match="trusted"):
        lhs = build_symbol_from_berezin(A + B, fit)(pts)
        rhs = build_symbol_from_berezin(A, fit)(pts) + build_symbol_from_berezin(B, fit)(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_out_of_window_nodes_flagged():
    # the stage-2 lattice reaches radius 3.71, beyond the trusted radius 2 of P
    fit = fit_heat_kernel(P, 2)
    with pytest.warns(UserWarning, match="trusted"):
        build_symbol_from_berezin(pc_operator(P), fit)


def test_warning_names_the_callers_line():
    # the fit-node warning is raised two calls deep in the package; it must
    # point at this file, not at a library line
    with pytest.warns(UserWarning, match="trusted") as caught:
        toeplitz_approximation(pc_operator(P), [2], target="pc")
    assert [w.filename for w in caught] == [__file__]


def test_identity_target_is_exact():
    with pytest.warns(UserWarning, match="trusted"):
        report = toeplitz_approximation(identity_operator(P), [1, 2, 4], target="identity")
    for st in report.stages:
        assert st.op_error < 1e-6


def test_approximate_identity_sweep_identity_operator():
    # exact in infinite dimensions; at desk scale the error is the trusted
    # sub-block defect of W_z W_{-z}, which vanishes rapidly as s -> 0
    out = approximate_identity_sweep(identity_operator(P), [0.25, 0.125])
    errs = [e for _, e in out]
    assert errs[1] < errs[0]
    assert max(errs) < 5e-3


def test_approximate_identity_sweep_rank_one_decreasing():
    k = kernel_coefficients(P, 0.0)
    A = rank_one(k, k)
    out = approximate_identity_sweep(A, [1.0, 0.5, 0.25])
    errs = [e for _, e in out]
    assert errs[2] < errs[1] < errs[0]


def test_report_serialization(tmp_path):
    with pytest.warns(UserWarning, match="trusted"):
        report = toeplitz_approximation(pc_operator(P), [1, 2], target="pc")
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    report.to_json(jpath)
    report.to_csv(cpath)
    doc = json.loads(jpath.read_text())
    assert doc["target"] == "pc" and len(doc["stages"]) == 2
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "N,l1_residual,op_error,baseline_error"
    assert len(lines) == 3
