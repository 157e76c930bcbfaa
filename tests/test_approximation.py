"""Constructive approximation: heat-kernel fits and the Toeplitz scheme."""

import json
import os
from dataclasses import replace
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fockqha.approximation import (
    RIDGE,
    HeatKernelFit,
    approximate_identity_sweep,
    build_symbol_from_berezin,
    fit_heat_kernel,
    toeplitz_approximation,
)
from fockqha.model import (
    FockOperator,
    FockParams,
    identity_operator,
    kernel_coefficients,
    pc_operator,
    rank_one,
    trusted_norm,
)
from fockqha import operators
from fockqha.operators import BerezinTranslateSum, toeplitz, weyl
from fockqha.quadrature import lebesgue_grid
from fockqha.symbols import Gaussian, SymbolSum

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


def test_fit_escalates_the_ridge_when_the_solve_fails(monkeypatch):
    solve, calls = np.linalg.solve, []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", fail_once)
    with pytest.warns(UserWarning, match="ridge escalated to 1.0e-06"):
        fit = fit_heat_kernel(P, 2)
    assert len(calls) == 2 and fit.ridge == 1e-6
    assert np.sum(fit.coefficients) == pytest.approx(1.0, abs=1e-12)

    def always_fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", always_fail)
    with pytest.raises(RuntimeError, match="ill-conditioned"):
        fit_heat_kernel(P, 2)


@pytest.mark.parametrize("N", [2, 4, 8])
def test_fit_coefficients_are_constant_on_lattice_orbits(N):
    # the fit is solved for one coefficient per orbit of the lattice's
    # symmetries, so z -> i z and conjugation map each coefficient onto an
    # exactly equal one
    fit = fit_heat_kernel(P, N)
    pitch = 0.5 * np.sqrt(P.t / N)
    index = {(round(z.real / pitch), round(z.imag / pitch)): j for j, z in enumerate(fit.nodes[:, 0])}
    assert len(index) == fit.nodes.shape[0]
    c = fit.coefficients
    for (p, q), j in index.items():
        assert c[index[(-q, p)]] == c[j]  # i z
        assert c[index[(p, -q)]] == c[j]  # conj(z)
    assert np.unique(c).size < fit.nodes.shape[0] / 6


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
    # relative coefficient deltas of 8.1e-8 (N = 2) and 2.1e-7 (N = 4) on
    # one BLAS thread, 6.3e-8 and 3.7e-7 on two
    fit = fit_heat_kernel(P, N)
    nodes, c, resid = _dense_fit(P, N)
    assert np.array_equal(fit.nodes[:, 0], nodes)
    assert fit.ridge == RIDGE
    assert np.max(np.abs(fit.coefficients - c)) <= 1e-6 * np.max(np.abs(c))
    assert abs(fit.l1_residual - resid) <= 1e-8


def _orbit_indicator_fit(params, N):
    """The fit with its orbit normal matrix summed over orbit indicators.

    V_o is the orbit's indicator on the lattice square, and the orbit
    normal matrix is <V_o', G1 V_o G1> / (pi t)^2, formed through three
    (orbits x side x side) arrays; the rest is the fit's own recipe.
    """
    t, s = params.t, params.t / N
    pitch, radius = 0.5 * np.sqrt(s), 3.0 * np.sqrt(t) + np.sqrt(s)
    k = int(radius / pitch)
    axis = pitch * np.arange(-k, k + 1)
    lattice = (axis[:, None] + 1j * axis[None, :]).ravel()
    a, b = np.divmod(np.flatnonzero(np.abs(lattice) <= radius + 1e-12), axis.size)
    u, v = np.abs(a - k), np.abs(b - k)
    _, orbit, sizes = np.unique(
        np.maximum(u, v) * (k + 1) + np.minimum(u, v), return_inverse=True, return_counts=True
    )
    W = float(radius + 4.0 * np.sqrt(t))
    x, w = np.polynomial.legendre.leggauss(80)
    x, w = W * x, W * w
    E = np.exp(-((x[:, None] - axis[None, :]) ** 2) / t)
    G1 = E.T @ (w[:, None] * E)
    g = np.exp(-(x**2) / s)
    r1 = E.T @ (w * g)
    rhs = np.bincount(orbit, weights=r1[a] * r1[b] / (np.pi**2 * s * t))
    V = np.zeros((sizes.size, axis.size, axis.size))
    V[orbit, a, b] = 1.0
    Y = G1 @ (V @ G1)
    Gr = V.reshape(sizes.size, -1) @ Y.reshape(sizes.size, -1).T / (np.pi * t) ** 2
    d = np.diag(G1)
    ridge = RIDGE * float(d[a] @ d[b]) / (np.pi * t) ** 2 / a.size
    c = np.linalg.solve(Gr + np.diag(ridge * sizes), rhs)[orbit]
    c = c / np.sum(c)
    C = np.zeros((axis.size, axis.size))
    C[a, b] = c
    err = np.outer(g, g) / (np.pi * s) - (E @ C @ E.T) / (np.pi * t)
    return c, float(w @ np.abs(err) @ w)


@pytest.mark.parametrize("N", [2, 4, 8])
def test_eight_image_normal_matrix_matches_orbit_indicators(N):
    # the same orbit normal matrix summed over orbit indicators: only the
    # summation order differs, which the 1e-8-ridge normal equations
    # amplify to relative coefficient deltas of 2.5e-8 (N = 2), 1.3e-7
    # (N = 4) and 2.7e-7 (N = 8) on one BLAS thread, 2.9e-7 at N = 8 on
    # two, and to residual deltas of at most 7.1e-9 (N = 8, two threads);
    # the dense assembly above stops at N = 4: at N = 8 it peaks at 239 MB
    fit = fit_heat_kernel(P, N)
    c, resid = _orbit_indicator_fit(P, N)
    assert fit.ridge == RIDGE
    assert np.max(np.abs(fit.coefficients - c)) <= 1e-6 * np.max(np.abs(c))
    assert abs(fit.l1_residual - resid) <= 1e-8


def test_fit_builds_no_dense_design_matrix():
    # the dense assembly peaks at 239 MB here (6400 x 1117 complex design
    # matrix and two real copies); the orbit indicators and their Gram
    # products (156 x 37 x 37 each) at 5.3 MB; the eight-image gathers of
    # (156 x 156) at 0.95 MB
    tracemalloc.start()
    try:
        fit_heat_kernel(P, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


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
    # fit solves for one coefficient per lattice orbit (156 at N = 8), and
    # its largest arrays are the (orbits x orbits) normal matrix and its
    # eight-image gathers (0.2 MB each at N = 8): measured -0.04 MB
    # resident and a 0.45-0.51 MB peak rise
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    resident, peak = map(float, res.stdout.split())
    assert resident < 1.0
    assert peak < 2.0


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


# The symbol is built from one Gram matrix H_r of the translates per point
# r, each point folded exactly into the octant 0 <= Im <= Re of its first
# coordinate; its oracle is the sum of its explicit parts c_j * A~(. - z_j),
# one Berezin call per part.  Bounds are relative to max |g|, with a few
# times the measured margin.
P24 = FockParams(1, 1.0, 24, 26)


def _random_operator(params, seed):
    rng = np.random.default_rng(seed)
    shape = (params.dim, params.dim)
    return FockOperator(params, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _symbol_deviation(sym, pts):
    g, ref = sym.eval(pts), SymbolSum(sym.parts).eval(pts)
    return float(np.max(np.abs(g - ref)) / np.max(np.abs(ref)))


def _count_gram_points(monkeypatch):
    """Counters of the (point, translate) pairs a translate sum evaluates, by route.

    count["basis"] counts the points of operators.basis_matrix (the
    complex columns of a dense operand, and the far columns of a diagonal
    one), count["table"] those of operators._degree_weights (the real
    weights of a diagonal operand); a far column counts on both.  The
    parts reach basis_matrix through berezin_values, so a test that also
    evaluates them reads the count before it does.
    """
    count = {"basis": 0, "table": 0}

    def counting(key, evaluate):
        def counted(params, points):
            count[key] += points.shape[0]
            return evaluate(params, points)

        return counted

    monkeypatch.setattr(operators, "basis_matrix", counting("basis", operators.basis_matrix))
    monkeypatch.setattr(
        operators, "_degree_weights", counting("table", operators._degree_weights)
    )
    return count


@pytest.mark.filterwarnings("ignore:.*trusted")
@pytest.mark.parametrize("N", [1, 2, 4, 8])
def test_symbol_matches_parts_on_the_toeplitz_grid(N):
    # measured at N = 1 / 2 / 4 / 8: 1.9e-15 / 3.3e-14 / 3.7e-13 / 2.0e-12, the
    # worst of the three Theorem A targets and a random non-normal A
    fit = fit_heat_kernel(P24, N)
    targets = [
        toeplitz(P24, Gaussian(center=0.0, width=2.0)),
        weyl(P24, 0.5),
        pc_operator(P24),
        _random_operator(P24, 3),
    ]
    for A in targets:
        sym = build_symbol_from_berezin(A, fit)
        assert len(sym.parts) == fit.nodes.shape[0]
        assert _symbol_deviation(sym, P24.grid().nodes) <= 5e-12


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_matches_parts_off_the_grid():
    # partial orbits (x, ix, -x without -ix), a full orbit with repeats, the
    # origin and random points; measured 8.8e-15
    rng = np.random.default_rng(5)
    sym = build_symbol_from_berezin(_random_operator(P24, 4), fit_heat_kernel(P24, 2))
    x, y = 0.7 - 1.3j, -0.4 + 0.9j
    special = np.array([x, 1j * x, -x, y, 1j * y, -y, -1j * y, y, -y, 0.0, 2.5 + 0.1j])
    random = 3.0 * (rng.random(50) - 0.5 + 1j * (rng.random(50) - 0.5))
    pts = np.concatenate([special, random])[:, None]
    assert _symbol_deviation(sym, pts) <= 1e-13
    # a point and its repeat get the same value bit for bit
    g = sym.eval(pts)
    assert g[3] == g[7] and g[5] == g[8]


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_matches_parts_at_reflected_points(monkeypatch):
    # x, its conjugate and their rotations, then points on the diagonal
    # Re = Im and on the axes, where the fold's boundaries lie; measured 1.5e-14
    fit = fit_heat_kernel(P24, 4)
    sym = build_symbol_from_berezin(_random_operator(P24, 11), fit)
    x = 0.9 + 0.35j
    orbit = [u * z for z in (x, np.conj(x)) for u in (1, 1j, -1, -1j)]
    diagonal = [a * u for a in (0.6, 1.7) for u in (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)]
    axes = [a * u for a in (0.45, 2.2) for u in (1, 1j, -1, -1j)]
    pts = np.array(orbit + diagonal + axes)[:, None]
    assert _symbol_deviation(sym, pts) <= 1e-13
    # the eight points of the orbit share one Gram matrix
    count = _count_gram_points(monkeypatch)
    sym.eval(pts[:8])
    assert sum(count.values()) == fit.nodes.shape[0]


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_without_orbit_constant_coefficients(monkeypatch):
    # coefficients perturbed off orbit-constancy: the images of a point no
    # longer share its value, so every distinct point is its own
    # representative (676 Gram matrices per node, not 91); measured 1.1e-14
    fit = fit_heat_kernel(P24, 2)
    noise = np.random.default_rng(12).standard_normal(fit.coefficients.size)
    c = fit.coefficients * (1.0 + 1e-6 * noise)
    sym = build_symbol_from_berezin(_random_operator(P24, 12), replace(fit, coefficients=c))
    count = _count_gram_points(monkeypatch)
    g = sym.eval(P24.grid().nodes)
    assert sum(count.values()) == P24.grid().nodes.shape[0] * fit.nodes.shape[0]
    ref = SymbolSum(sym.parts).eval(P24.grid().nodes)
    assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


def _theorem_a_target(kind):
    """W_0.5 (dense), T of e^{-|z|^2/2} (diagonal: no Gram matrices are formed), or P_C."""
    if kind == "projection":
        return pc_operator(P24)
    return weyl(P24, 0.5) if kind == "dense" else toeplitz(P24, Gaussian(width=2.0))


@pytest.mark.filterwarnings("ignore:.*trusted")
@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_symbol_builds_one_gram_matrix_per_folded_point(monkeypatch, kind):
    # the 676 nodes of the Q = 26 grid fold onto 91 octant representatives
    # (169 if only the rotation were used); each costs one evaluation per
    # translate: complex basis columns for a Gram matrix, or the real
    # degree weights alone, which stay in range on this grid
    fit = fit_heat_kernel(P24, 8)
    sym = build_symbol_from_berezin(_theorem_a_target(kind), fit)
    count = _count_gram_points(monkeypatch)
    sym.eval(P24.grid().nodes)
    assert sum(count.values()) == 91 * fit.nodes.shape[0]
    assert count["table" if kind == "dense" else "basis"] == 0


def test_diagonal_pairs_leave_the_table_only_past_its_range(monkeypatch):
    # at D = 60 the table's column sum is about 1e110 at |w| = 40, which
    # stays on the real weights, and about 1e215 at |w| = 300, past 2^512,
    # where the pairs take the complex columns of basis_matrix as well
    params = FockParams(1, 1.0, 60, 62)
    sym = BerezinTranslateSum(toeplitz(params, Gaussian(width=2.0)), [[0.0]], [1.0])
    turns = np.exp(1j * np.array([0.3, 2.0, 4.0]))[:, None]
    count = _count_gram_points(monkeypatch)
    sym.eval(40.0 * turns)
    assert count == {"basis": 0, "table": 3}
    sym.eval(300.0 * turns)
    assert count == {"basis": 3, "table": 6}


@pytest.mark.filterwarnings("ignore:.*trusted")
@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("kind", ["dense", "diagonal", "projection"])
def test_symbol_value_does_not_depend_on_the_batch(kind, N):
    # a grid node alone and the same node inside the whole grid, bit for
    # bit; the picks include points reflected across the diagonal.  At
    # N = 1 a lone node's pair is one basis column: evaluated as a
    # one-element complex row, W_0.5 differed alone at 585 of the 676 nodes
    sym = build_symbol_from_berezin(_theorem_a_target(kind), fit_heat_kernel(P24, N))
    nodes = P24.grid().nodes
    g = sym.eval(nodes)
    picks = np.random.default_rng(10).choice(nodes.shape[0], 40, replace=False)
    z = nodes[picks, 0]
    assert np.any(np.abs(z.imag) > np.abs(z.real))  # folded by the reflection
    alone = np.array([sym.eval(nodes[k : k + 1])[0] for k in picks])
    assert np.array_equal(alone, g[picks])


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_matches_parts_on_an_odd_grid():
    # Q odd puts a node at the origin, its own representative; measured 8.9e-15
    params = FockParams(1, 1.0, 24, 27)
    assert np.any(params.grid().nodes == 0)
    sym = build_symbol_from_berezin(_random_operator(params, 6), fit_heat_kernel(params, 2))
    assert _symbol_deviation(sym, params.grid().nodes) <= 1e-13


def test_symbol_matches_parts_in_two_variables():
    # the N = 1 fit at n = 2: phases by total degree, every coordinate
    # folded with the first; measured 1.2e-15 on the grid and on the shifted
    # grid, and 5.3e-16 for the diagonal of the same A
    params = FockParams(2, 1.0, 6, 8)
    A = _random_operator(params, 7)
    for B in (A, FockOperator(params, np.diag(np.diagonal(A.matrix)))):
        sym = build_symbol_from_berezin(B, fit_heat_kernel(params, 1))
        for pts in (params.grid().nodes, params.grid().nodes + 0.3):
            assert _symbol_deviation(sym, pts) <= 1e-14


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_with_nodes_off_the_symmetric_lattice():
    # shifted nodes are not closed under z -> i z, so every point is its own
    # representative; measured 9.5e-15
    fit = fit_heat_kernel(P24, 2)
    shifted = replace(fit, nodes=fit.nodes + (0.05 - 0.02j))
    sym = build_symbol_from_berezin(_random_operator(P24, 8), shifted)
    assert _symbol_deviation(sym, P24.grid().nodes) <= 1e-13


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_folds_with_conjugated_nodes(monkeypatch):
    # conj of the lattice is the lattice, but its real nodes carry -0.0
    # imaginary parts, which compare equal to 0.0: the grid still folds to
    # 91 Gram matrices per node; measured 1.1e-14
    fit = fit_heat_kernel(P24, 2)
    nodes = np.conj(fit.nodes)
    assert np.any(np.signbit(nodes.imag) & (nodes.imag == 0))
    sym = BerezinTranslateSum(_random_operator(P24, 14), nodes, fit.coefficients)
    count = _count_gram_points(monkeypatch)
    g = sym.eval(P24.grid().nodes)
    assert sum(count.values()) == 91 * fit.nodes.shape[0]
    ref = SymbolSum(sym.parts).eval(P24.grid().nodes)
    assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore:.*trusted")
@pytest.mark.parametrize("case", ["duplicated node", "rotation orbit"])
def test_symbol_without_the_symmetry_takes_the_unfolded_path(monkeypatch, case):
    # a repeated node, or the orbit (1 + 2j) i^m, closed under z -> i z but
    # not under conjugation: every grid node is its own representative
    # (676 Gram matrices per node); measured 6.9e-15 and 5.5e-16
    if case == "duplicated node":
        fit = fit_heat_kernel(P24, 2)
        nodes = np.concatenate([fit.nodes, fit.nodes[:1]])
        coefficients = np.concatenate([fit.coefficients, fit.coefficients[:1]])
    else:
        nodes = (1 + 2j) * np.array([1, 1j, -1, -1j])[:, None]
        coefficients = np.full(4, 0.25)
    sym = BerezinTranslateSum(_random_operator(P24, 15), nodes, coefficients)
    count = _count_gram_points(monkeypatch)
    g = sym.eval(P24.grid().nodes)
    assert sum(count.values()) == P24.grid().nodes.shape[0] * nodes.shape[0]
    ref = SymbolSum(sym.parts).eval(P24.grid().nodes)
    assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_splits_the_nodes_of_a_large_fit(monkeypatch):
    # with a 16 KiB budget one block holds 40 of the 349 (point, node) pairs
    # of a point, so the nodes are split across blocks and the partial sums
    # add up; measured 2.9e-15
    monkeypatch.setattr(operators, "_CHUNK_BYTES", 2**14)
    sym = build_symbol_from_berezin(_random_operator(P24, 9), fit_heat_kernel(P24, 2))
    pts = np.array([0.3 + 0.2j, -0.2 + 0.3j, -0.3 - 0.2j, 0.2 - 0.3j, 1.1, 0.0])[:, None]
    assert _symbol_deviation(sym, pts) <= 1e-13


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_symbol_memory_counts_the_gram_matrices(kind):
    # an N = 1 fit (one node) at D = 40 on 4000 points: blocks sized by the
    # basis columns alone held a 41 x 41 Gram matrix for each of 1598 points
    # and peaked at 90.4 MB of traced memory; counting them too, 3.4 MB.  A
    # diagonal A forms no Gram matrix, and its blocks count the real
    # weights, the diagonal of H_x and its product's output: 1.4 MB (3.1 MB
    # from the complex columns).  An entry at [1, 0] makes A dense
    params = FockParams(1, 1.0, 40, 42)
    A = toeplitz(params, Gaussian(width=4.0))
    if kind == "dense":
        M = A.matrix.copy()
        M[1, 0] = 1.0
        A = FockOperator(params, M)
    sym = build_symbol_from_berezin(A, fit_heat_kernel(params, 1))
    rng = np.random.default_rng(8)
    pts = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))[:, None]
    sym.eval(pts[:2])  # warm the model's caches
    tracemalloc.start()
    try:
        sym.eval(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_symbol_with_no_nodes_is_zero():
    params = FockParams(1, 1.0, 4, 6)
    sym = BerezinTranslateSum(identity_operator(params), np.zeros((0, 1)), np.zeros(0))
    assert np.array_equal(sym.eval(np.array([[0.5], [1j], [0.0]])), np.zeros(3))


@pytest.mark.parametrize("count, nodes", [(3, 2), (1, 3)])
def test_symbol_rejects_a_coefficient_count_other_than_the_node_count(count, nodes):
    # a hand-built fit: three coefficients for two nodes would weight the
    # first two, and one coefficient for three would weight all three
    params = FockParams(1, 1.0, 4, 6)
    fit = HeatKernelFit(
        N=1,
        nodes=np.linspace(0.0, 0.3, nodes)[:, None] + 0j,
        coefficients=np.ones(count),
        l1_residual=0.0,
        ridge=0.0,
    )
    with pytest.raises(ValueError, match=f"{count} coefficients for {nodes} nodes"):
        build_symbol_from_berezin(identity_operator(params), fit)


@pytest.mark.parametrize("bad", ["node", "coefficient"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_symbol_rejects_non_finite_nodes_and_coefficients(bad, value):
    # a NaN node would make every value NaN, and the sort that decides
    # the fold is undefined on NaN rows
    params = FockParams(1, 1.0, 4, 6)
    nodes, coefficients = np.array([[0.0], [0.3]], dtype=complex), np.ones(2)
    if bad == "node":
        nodes[1, 0] = complex(value, 0.0)
    else:
        coefficients[1] = value
    fit = HeatKernelFit(N=1, nodes=nodes, coefficients=coefficients, l1_residual=0.0, ridge=0.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        build_symbol_from_berezin(identity_operator(params), fit)
    with pytest.raises(ValueError, match="infs or NaNs"):
        BerezinTranslateSum(identity_operator(params), nodes, coefficients)


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_eval_validates_points(n):
    # one point of shape (n,) is one row, as in berezin_values; rows of the
    # wrong width and a flat array of several points are rejected
    params = FockParams(n, 1.0, 4, 6)
    sym = build_symbol_from_berezin(_random_operator(params, 13), fit_heat_kernel(params, 1))
    point = np.full(n, 0.4 - 0.2j)
    assert np.array_equal(sym.eval(point), sym.eval(point[None, :]))
    for bad in (np.zeros((1, n + 1)), np.zeros(n + 2)):
        with pytest.raises(ValueError, match="shape"):
            sym.eval(bad)


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_symbol_evaluation_memory():
    # one block of (point, translate) pairs is dim x 2234 complex values at
    # D = 24, N = 8 (0.9 MB); measured peak 2.2 MiB for the whole evaluation
    # with the conjugate taken in place (2.8 MiB with a conjugate copy)
    sym = build_symbol_from_berezin(weyl(P24, 0.5), fit_heat_kernel(P24, 8))
    pts = P24.grid().nodes
    tracemalloc.start()
    try:
        sym.eval(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_diagonal_symbol_forms_no_gram_matrices():
    # T of e^{-|z|^2/2} on the D = 24 grid at N = 8: blocks of four points'
    # real degree weights at their 1117 translates take 1.06 MiB of traced
    # memory at peak.  The complex columns with their squared moduli, one
    # point a block, took 1.4 MiB, and the Gram path's (point, a, b)
    # stacks, with the weighted columns and their conjugates, 2.8 MiB
    sym = build_symbol_from_berezin(_theorem_a_target("diagonal"), fit_heat_kernel(P24, 8))
    pts = P24.grid().nodes
    sym.eval(pts[:1])  # warm the model's caches
    tracemalloc.start()
    try:
        sym.eval(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.filterwarnings("ignore:.*trusted")
def test_op_error_matches_the_parts_route():
    # measured: within 3.4e-13 for every Theorem A target and stage
    A = weyl(P24, 0.5)
    report = toeplitz_approximation(A, [2, 8], target="weyl")
    for st in report.stages:
        parts = build_symbol_from_berezin(A, st.fit).parts
        assert abs(st.op_error - trusted_norm(A - toeplitz(P24, SymbolSum(parts)))) <= 1e-10
