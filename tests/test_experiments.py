"""Experiment runners: quantization, compactness, invariance, CCR."""

import json
import tracemalloc

import numpy as np
import pytest

from fockqha.experiments import (
    SweepRecord,
    ccr_weyl_approximation,
    compactness_diagnostic,
    invariance_check,
    quantization_sweep,
    write_sweep_csv,
)
from fockqha._output import write_json
from fockqha.model import (
    FockParams,
    identity_operator,
    kernel_coefficients,
    rank_one,
)
from fockqha.operators import toeplitz
from fockqha.symbols import Constant, Gaussian, Horizontal, Radial

P = FockParams(1, 1.0, 16, 20)


def test_sweep_record_rejects_negative_quantity():
    with pytest.raises(ValueError):
        SweepRecord(1.0, -0.5)


def test_a_sweep_holds_no_model_basis():
    # the sweep rebuilds the model per weight t; no plane basis of any t
    # (2 (D + 1) Q^2 16 bytes, 2.3 MB here) outlives it
    base = FockParams(1, 1.0, 40, 42)
    f, g = Gaussian(width=4.0), Gaussian(width=2.0)
    weights = 2.0 ** -np.arange(8)
    # fill the other caches (grids, index tables) before tracing
    quantization_sweep(f, g, weights, base, m=5)
    tracemalloc.start()
    try:
        quantization_sweep(f, g, weights, base, m=5)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    held = sum(stat.size for stat in arrays.statistics("filename"))
    assert held == 0, held


def test_quantization_trivial_constant_symbols():
    ones = Constant(1.0)
    op_recs, sup_recs = quantization_sweep(ones, ones, [1.0, 0.5], P, m=9)
    for r in op_recs + sup_recs:
        assert r.quantity < 1e-10


def test_quantization_gaussian_decreasing():
    f = Gaussian(center=0.0, width=4.0)
    op_recs, sup_recs = quantization_sweep(f, f, [1.0, 0.5, 0.25], P, m=9)
    op = [r.quantity for r in op_recs]
    sup = [r.quantity for r in sup_recs]
    assert op[2] < op[1] < op[0]
    assert sup[2] < sup[1] < sup[0]


@pytest.mark.parametrize("params", [P, FockParams(2, 1.0, 6, 8)], ids=["n1", "n2"])
def test_quantization_sup_records_are_the_closed_form_sup(params):
    # fg is the centred Gaussian of width W = 4/3 and heat_t(fg) is
    # (W/(W+t))^n e^{-|z|^2/(W+t)}; |fg - heat_t(fg)| peaks at z = 0, a grid
    # point, at 1 - (W/(W+t))^n, which is t/(W+t) at n = 1
    n = params.n
    center = 0.0 if n == 1 else np.zeros(n, dtype=complex)
    f, g = Gaussian(center=center, width=4.0, n=n), Gaussian(center=center, width=2.0, n=n)
    t_list, W = [1.0, 0.5, 0.25], 4.0 * 2.0 / (4.0 + 2.0)
    _, sup_recs = quantization_sweep(f, g, t_list, params, m=9)
    for t, rec in zip(t_list, sup_recs):
        want = t / (W + t) if n == 1 else 1.0 - (W / (W + t)) ** n
        assert abs(rec.quantity - want) < 1e-15


def test_compactness_coherent_projection_profile():
    k = kernel_coefficients(P, 0.0)
    A = rank_one(k, k)
    radii = np.linspace(0.0, 1.5, 4)
    diag = compactness_diagnostic(A, radii)
    want = np.exp(-(radii**2) / P.t)
    assert np.max(np.abs(diag.profile - want)) < 1e-10
    assert diag.svals[0] == pytest.approx(1.0)


def test_compactness_identity_flat_profile():
    diag = compactness_diagnostic(identity_operator(P), [0.0, 0.5, 1.0, 1.5])
    assert np.max(np.abs(diag.profile - 1.0)) < 1e-12


def test_compactness_toeplitz_bump_decays():
    A = toeplitz(P, Gaussian(center=0.0, width=0.5))
    diag = compactness_diagnostic(A, [0.0, 1.0, 2.0])
    assert diag.profile[2] < diag.profile[1] < diag.profile[0]


def test_compactness_rejects_radii_outside_window():
    with pytest.raises(ValueError):
        compactness_diagnostic(identity_operator(P), [P.trusted_radius + 1.0])


def test_invariance_constant_symbol():
    # residual is limited by the non-unitarity of truncated Weyl matrices,
    # which dies out quickly as the cutoff grows
    p = FockParams(1, 1.0, 32, 36)
    res = invariance_check(Constant(1.0), p, [1j], [0.25, 0.5, 1.0])
    assert res < 1e-6


def test_invariance_horizontal_decays_with_cutoff():
    f = Horizontal(width=1.0)
    r16 = invariance_check(f, FockParams(1, 1.0, 16, 20), [1j], [0.5])
    r24 = invariance_check(f, FockParams(1, 1.0, 24, 28), [1j], [0.5])
    assert r24 < r16 / 5.0


def test_invariance_radial_negative_control():
    r = np.linspace(0.0, 6.0, 25)
    f = Radial(radii=r, values=np.exp(-r))
    res = invariance_check(f, P, [1.0], [0.25, 0.5, 1.0])
    assert res >= 0.01


def test_ccr_weyl_zero_is_exact():
    # the N = 2 lattice reaches past the trusted radius 2 at D = 16
    with pytest.warns(UserWarning, match="fit nodes lie outside the trusted Berezin window"):
        report = ccr_weyl_approximation(0.0, P, [1, 2])
    for st in report.stages:
        assert st.op_error < 1e-8


def test_ccr_weyl_rejects_far_point():
    with pytest.raises(ValueError):
        ccr_weyl_approximation(10.0, P, [1])


def test_csv_and_sidecar_output(tmp_path):
    recs = [SweepRecord(1.0, 0.5), SweepRecord(0.5, 0.25)]
    cpath = tmp_path / "sweep.csv"
    write_sweep_csv(recs, cpath, ("s", "err"))
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "s,err" and len(lines) == 3
    jpath = tmp_path / "sweep.json"
    write_json(jpath, {"records": [r.as_dict() for r in recs]})
    doc = json.loads(jpath.read_text())
    assert doc["schema"] == "1" and len(doc["records"]) == 2
