"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The closed forms in `references.py` are checked against direct `mpmath`
quadrature of their defining integrals, and a small pass of every
workload runs through the real command with every check on, so the
harness cannot rot unnoticed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def plane_integral(f, L=8.0):
    """Integral of f(w) dV(w) over the square [-L, L]^2 of C."""
    with mp.workdps(15):
        box = [-L, 0, L]
        return complex(mp.quad(lambda x, y: f(mp.mpc(x, y)), box, box, method="gauss-legendre"))


def radial_integral(f):
    """Integral of a radial f(r) dV = 2 pi r f(r) dr over C."""
    with mp.workdps(20):
        return float(mp.quad(lambda r: 2 * mp.pi * r * f(r), [0, 2, 6, mp.inf]))


@pytest.mark.parametrize("w,t,k", [(2.0, 1.0, 0), (2.0, 1.0, 5), (4.0, 0.5, 3)])
def test_toeplitz_diagonal_is_the_defining_integral(w, t, k):
    # <T_f e_k, e_k> = integral of f |e_k|^2 dmu_t
    def integrand(r):
        return mp.exp(-(r**2) / w) * r ** (2 * k) / (mp.factorial(k) * t**k) * mp.exp(-(r**2) / t) / (mp.pi * t)

    assert abs(radial_integral(integrand) - ref.toeplitz_gaussian_diagonal(k, w, t, 1)) < 1e-12


@pytest.mark.parametrize("z,a,s", [(0.7 + 0.4j, 4.0 / 3.0, 1.0), (-1.1j, 2.0, 0.25)])
def test_gaussian_smoothed_is_the_convolution_integral(z, a, s):
    # (f_s * e^{-|.|^2/a})(z) = integral of e^{-|w|^2/a} f_s(z - w) dV(w)
    def integrand(w):
        return mp.exp(-abs(w) ** 2 / a - abs(z - w) ** 2 / s) / (mp.pi * s)

    assert abs(plane_integral(integrand) - ref.gaussian_smoothed(abs(z) ** 2, a, s, 1)) < 1e-12


@pytest.mark.parametrize("t,a,b", [(1.0, 2, 1), (0.5, 1, 3)])
def test_weyl_laguerre_is_the_defining_integral(t, a, b):
    # <W_z e_b, e_a> = integral of k_z(w) e_b(w - z) conj(e_a(w)) dmu_t(w)
    z = 0.6 - 0.3j

    def e(k, w):
        return w**k / mp.sqrt(mp.factorial(k) * t**k)

    def integrand(w):
        kz = mp.exp(w * mp.conj(z) / t - abs(z) ** 2 / (2 * t))
        return kz * e(b, w - z) * mp.conj(e(a, w)) * mp.exp(-abs(w) ** 2 / t) / (mp.pi * t)

    exact = complex(ref.weyl_laguerre(z, t, 3)[a][b])
    assert abs(plane_integral(integrand) - exact) < 1e-12


def test_weyl_laguerre_keeps_the_package_commutation_phase():
    # W_z W_w = e^{-i Im(z conj w)/t} W_{z+w}; compared on a low block of
    # matrices truncated far above it
    t, z, w, D, k = 0.8, 0.4 + 0.3j, -0.2 + 0.5j, 40, 8
    Wz, Ww, Wzw = (np.array(ref.weyl_laguerre(u, t, D), dtype=complex) for u in (z, w, z + w))
    phase = np.exp(-1j * np.imag(z * np.conj(w)) / t)
    assert np.max(np.abs((Wz @ Ww)[:k, :k] - phase * Wzw[:k, :k])) < 1e-12


def test_weyl_reference_is_the_tensor_product_of_axes():
    indices = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    z = np.array([0.3, -0.2j])
    M = ref.weyl_reference(z, 1.0, indices)
    axis = [np.array(ref.weyl_laguerre(u, 1.0, 2), dtype=complex) for u in z]
    assert abs(M[4, 1] - axis[0][1, 1] * axis[1][1, 0]) < 1e-15
    assert abs(M[0, 0] - np.exp(-np.sum(np.abs(z) ** 2) / 2.0)) < 1e-15


@pytest.mark.parametrize("z0,s,t", [(0.5, 1.0, 1.0), (0.3 - 0.8j, 0.25, 0.5)])
def test_weyl_smoothing_factor_is_the_fourier_integral(z0, s, t):
    # alpha_z(W_z0) = e^{-2i Im(z conj z0)/t} W_z0, so f_s * W_z0 is W_z0 times
    # the integral of f_s(z) e^{-2i Im(z conj z0)/t} dV(z)
    def integrand(z):
        return mp.exp(-abs(z) ** 2 / s - 2j * mp.im(z * mp.conj(z0)) / t) / (mp.pi * s)

    assert abs(plane_integral(integrand) - ref.weyl_smoothing_factor(z0, s, t)) < 1e-12


@pytest.mark.parametrize("s,t,k", [(1.0, 1.0, 0), (0.25, 1.0, 2), (0.5, 0.5, 1)])
def test_vacuum_smoothing_is_a_toeplitz_diagonal(s, t, k):
    # <(f_s * P_C) e_k, e_k> = integral of f_s(z) |<k_z, e_k>|^2 dV(z), which
    # baseline_vacuum reads as (t/s) (s/(s+t))^(k+1)
    def integrand(r):
        return mp.exp(-(r**2) / s) / (mp.pi * s) * mp.exp(-(r**2) / t) * r ** (2 * k) / (mp.factorial(k) * t**k)

    expected = (t / s) * ref.toeplitz_gaussian_diagonal(k, s, t, 1)
    assert abs(radial_integral(integrand) - expected) < 1e-12


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def _run(*args, cwd=HERE.parent):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_small_pass(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = [m[0] for m in (tracing.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "identities", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
