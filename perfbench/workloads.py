"""The four workloads: inputs made from the seed, operations, and checks.

Each workload builds its inputs and its references in the constructor,
outside any timed region.  A round runs `ops` in order through the public
API of ``fockqha``; each op is `(name, run, check)`, where `run(outputs)`
may read the outputs of earlier ops and `check(output, checks)` compares
its result with a reference from `references.py` or with a property the
method guarantees.  Nothing is compared with a stored copy of the
program's output.

Every call goes through a module attribute (``fq.toeplitz``), never a name
bound at import time, so a traced round sees the wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import fockqha as fq
import fockqha.cli

import references as ref


def _disk_points(rng, count, radius, n):
    """count points uniform in the ball |z| <= radius of C^n."""
    x = rng.standard_normal((count, 2 * n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= radius * rng.random((count, 1)) ** (1.0 / (2 * n))
    return x[:, 0::2] + 1j * x[:, 1::2]


class Identities:
    """`fockqha verify` at n = 1 on a dV grid of m^2 nodes.

    The seed is verify's --seed, which draws its random test vector.
    """

    name = "identities"

    @staticmethod
    def models(small):
        return [fq.FockParams(1, 1.0, 14, 16) if small else fq.FockParams(1, 1.0, 24, 26)]

    def __init__(self, seed, small, outdir):
        (p,) = self.models(small)
        m = 40 if small else 48
        self.report = Path(outdir) / "verify_report.json"
        self.argv = [
            "--n", "1", "--t", "1.0", "--D", str(p.D), "--Q", str(p.Q), "--m", str(m),
            "--seed", str(seed), "--outdir", str(outdir), "verify",
        ]  # fmt: skip
        self.ops = [("verify", self.verify, self.check_verify)]

    def verify(self, outputs):
        with contextlib.redirect_stdout(io.StringIO()):
            return fq.cli.main(self.argv)

    def check_verify(self, status, checks):
        checks.true("verify exit status is 0", status == 0)
        report = json.loads(self.report.read_text())
        checks.true("verify report passed", report["passed"] is True)
        for r in report["records"]:
            # each identity holds exactly, so its residual is the deviation
            checks.close(r["identity"], r["residual"], 0.0, r["cfg"]["tolerance"])


class TheoremA:
    """The constructive scheme of the main theorem on three targets.

    Inputs do not depend on the seed; in a traced run the seed picks the
    Weyl arguments whose matrices are checked against the Laguerre form.
    """

    name = "theorem_a"
    STAGES = (1, 2, 4, 8)
    WIDTH = 2.0  # Toeplitz target: T of e^{-|z|^2/WIDTH}
    Z0 = 0.5  # Weyl target W_Z0
    # baseline errors against their closed forms: the Toeplitz-type targets
    # commute with the truncation and agree to 4e-10; W_Z0 at N = 1 carries
    # the truncation of W_z to degrees <= D for |z| up to 6 sqrt(2): 5.2e-3
    # at D = 24 and 1.0e-2 at D = 18
    BASELINE_TOL = {"gaussian": 1e-8, "weyl": 2e-2, "vacuum": 1e-8}

    @staticmethod
    def models(small):
        return [fq.FockParams(1, 1.0, 18, 20) if small else fq.FockParams(1, 1.0, 24, 26)]

    def __init__(self, seed, small, outdir):
        (p,) = self.models(small)
        D = p.D
        s = [p.t / N for N in self.STAGES]
        self.baselines = {
            "gaussian": [ref.baseline_toeplitz_gaussian(self.WIDTH, si, p.t, D) for si in s],
            "weyl": [ref.baseline_weyl(self.Z0, si, p.t, D) for si in s],
            "vacuum": [ref.baseline_vacuum(si, p.t, D) for si in s],
        }
        targets = {
            "gaussian": lambda: fq.toeplitz(p, fq.Gaussian(center=0.0, width=self.WIDTH)),
            "weyl": lambda: fq.weyl(p, self.Z0),
            "vacuum": lambda: fq.pc_operator(p),
        }
        self.ops = [
            (name, self._approximate(name, build), self._checker(name))
            for name, build in targets.items()
        ]

    def _approximate(self, name, build):
        return lambda outputs: fq.toeplitz_approximation(build(), list(self.STAGES), target=name)

    def _checker(self, name):
        def check(report, checks):
            errs = [st.op_error for st in report.stages]
            checks.true(
                f"{name}: op_error decreases stage to stage (10% slack)",
                all(b <= 1.1 * a for a, b in zip(errs, errs[1:])),
            )
            checks.true(f"{name}: last op_error <= first / 3", errs[-1] <= errs[0] / 3.0)
            checks.true(f"{name}: domination_holds(0.10)", report.domination_holds(0.10))
            for st, expected in zip(report.stages, self.baselines[name]):
                checks.close(f"{name} baseline N={st.N}", st.baseline_error, expected, self.BASELINE_TOL[name])

        return check


class Semiclassical:
    """quantization_sweep of a Gaussian pair over t, plus Berezin values of T_f.

    The seed draws the Berezin probe points in the trusted window.
    """

    name = "semiclassical"
    W_F, W_G = 4.0, 2.0

    @staticmethod
    def models(small):
        # the sweep rebuilds the model for every other t inside the round
        return [fq.FockParams(1, 1.0, 40, 42)]

    def __init__(self, seed, small, outdir):
        (self.base,) = self.models(small)
        D = self.base.D
        self.m, probes = (11, 200) if small else (41, 4000)
        self.t_list = [1.0, 0.5] if small else list(2.0 ** -np.arange(0.0, 5.0, 0.5))
        self.f = fq.Gaussian(center=0.0, width=self.W_F)
        self.g = fq.Gaussian(center=0.0, width=self.W_G)
        rng = np.random.default_rng(seed)
        self.probes = _disk_points(rng, probes, self.base.trusted_radius, 1)
        w_fg = self.W_F * self.W_G / (self.W_F + self.W_G)
        self.op_refs = [ref.quantization_error(self.W_F, self.W_G, t, D) for t in self.t_list]
        # quantization_sweep takes the sup over an m x m square grid of half
        # side trusted_radius / sqrt(2)
        self.sup_refs = []
        for t in self.t_list:
            r = np.sqrt(t * D / 4.0) / np.sqrt(2.0)
            ax = np.linspace(-r, r, self.m)
            z2 = (ax[:, None] ** 2 + ax[None, :] ** 2).ravel()
            self.sup_refs.append(ref.heat_sup_error(w_fg, t, z2))
        z2 = np.abs(self.probes[:, 0]) ** 2
        self.berezin_ref = ref.gaussian_smoothed(z2, self.W_F, self.base.t, 1)
        self.ops = [
            ("sweep", self.sweep, self.check_sweep),
            ("berezin", self.berezin, self.check_berezin),
        ]

    def sweep(self, outputs):
        return fq.quantization_sweep(self.f, self.g, self.t_list, self.base, m=self.m)

    def berezin(self, outputs):
        return fq.berezin_values(fq.toeplitz(self.base, self.f), self.probes)

    def check_sweep(self, records, checks):
        op_records, sup_records = records
        for t, rec, expected in zip(self.t_list, op_records, self.op_refs):
            checks.close(f"||T_f T_g - T_fg|| at t={t:g}", rec.quantity, expected, 1e-10)
        for t, rec, expected in zip(self.t_list, sup_records, self.sup_refs):
            checks.close(f"sup |fg - heat(fg)| at t={t:g}", rec.quantity, expected, 1e-10)

    def check_berezin(self, values, checks):
        checks.close("Berezin transform of T_f", values, self.berezin_ref, 1e-9)


class TwoVariables:
    """n = 2: Gram matrix, a Toeplitz matrix, Weyl commutation, Berezin values.

    The seed draws the Berezin probe points in the trusted ball.
    """

    name = "two_variables"
    WIDTH = 2.0
    PAIRS = [
        ((0.5, 0.2j), (0.25 + 0.25j, -0.1)),
        ((0.3j, 0.4), (0.1, 0.2 + 0.1j)),
        ((-0.4, 0.1 + 0.3j), (0.2j, -0.3)),
    ]

    @staticmethod
    def models(small):
        return [fq.FockParams(2, 1.0, 10, 14) if small else fq.FockParams(2, 1.0, 14, 16)]

    def __init__(self, seed, small, outdir):
        (p,) = self.models(small)
        self.params = p
        probes = 200 if small else 2000
        rng = np.random.default_rng(seed)
        self.probes = _disk_points(rng, probes, p.trusted_radius, 2)
        degrees = [sum(alpha) for alpha in fq.multi_indices(p)]
        self.toeplitz_ref = np.diag(ref.toeplitz_gaussian_diagonal(degrees, self.WIDTH, p.t, 2))
        z2 = np.sum(np.abs(self.probes) ** 2, axis=1)
        self.berezin_ref = ref.gaussian_smoothed(z2, self.WIDTH, p.t, 2)
        self.ops = [
            ("gram", self.gram, self.check_gram),
            ("toeplitz", self.toeplitz, self.check_toeplitz),
            ("commutation", self.commutation, self.check_commutation),
            ("berezin", self.berezin, self.check_berezin),
        ]

    def gram(self, outputs):
        return fq.toeplitz(self.params, fq.Constant(1.0, n=2))

    def toeplitz(self, outputs):
        f = fq.Gaussian(center=np.zeros(2, dtype=complex), width=self.WIDTH, n=2)
        return fq.toeplitz(self.params, f)

    def commutation(self, outputs):
        """||P(W_z W_w - e^{-i Im<z, w>/t} W_{z+w})P|| on degrees <= D/2."""
        p = self.params
        proj = fq.degree_projector(p, p.D // 2)
        out = []
        for z, w in self.PAIRS:
            z, w = np.array(z), np.array(w)
            lhs = fq.weyl(p, z) @ fq.weyl(p, w)
            phase = np.exp(-1j * np.imag(np.sum(z * np.conj(w))) / p.t)
            out.append(fq.operator_norm_2(proj @ (lhs - phase * fq.weyl(p, z + w)) @ proj))
        return out

    def berezin(self, outputs):
        return fq.berezin_values(outputs["toeplitz"], self.probes)

    def check_gram(self, T1, checks):
        checks.close("Gram matrix", T1.matrix, np.eye(self.params.dim), 1e-10)

    def check_toeplitz(self, T, checks):
        checks.close("Toeplitz matrix of a centred Gaussian", T.matrix, self.toeplitz_ref, 1e-5)

    def check_commutation(self, residuals, checks):
        # the degree <= D/2 block still feels the truncation at degree D:
        # 5e-8 at D = 14, 2e-5 at D = 10
        checks.close("Weyl commutation", residuals, 0.0, 1e-4)

    def check_berezin(self, values, checks):
        checks.close("Berezin transform of T_f", values, self.berezin_ref, 1e-4)


WORKLOADS = {w.name: w for w in (Identities, TheoremA, Semiclassical, TwoVariables)}
