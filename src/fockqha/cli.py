"""Command-line driver: verify suites, approximation runs, sweeps, exports.

Configuration comes from an optional flat key=value file with dotted
section names (model.D=24, conv.m=64, ...) which individual flags
override; ``--print-config`` dumps the fully resolved form.  Exit codes:
0 success, 1 tolerance failure, 2 usage or configuration error.

Determinism: the seed fixes every randomized choice, and importing
``fockqha`` defaults the BLAS thread-count variables to 1 before numpy
loads.  ``--threads`` is accepted and ignored, so it never changes any
output byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ._output import write_json

DEFAULTS = {
    "model.n": 1,
    "model.t": 1.0,
    "model.D": 16,
    "model.Q": 20,
    "conv.window": None,  # None -> default_window(t, D)
    "conv.m": 48,
    "run.seed": 0,
    "run.outdir": ".",
    "tol.identity": 1e-10,
    "tol.weyl": 1e-6,
    "tol.trace": 1e-4,
    "tol.duality": 1e-4,
    "tol.pipeline": 1e-4,
}

_CASTS = {
    "model.n": int,
    "model.D": int,
    "model.Q": int,
    "conv.m": int,
    "run.seed": int,
    "run.outdir": str,
}


class ConfigError(Exception):
    pass


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' comments and blank lines ignored."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(args) -> dict:
    """Defaults <- config file <- command-line flags, with casting."""
    cfg = dict(DEFAULTS)
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        for key, raw in parse_config_file(args.config).items():
            if key not in cfg:
                raise ConfigError(f"unknown config key: {key}")
            cfg[key] = raw
    for key, flag in [
        ("model.n", "n"),
        ("model.t", "t"),
        ("model.D", "D"),
        ("model.Q", "Q"),
        ("conv.window", "window"),
        ("conv.m", "m"),
        ("run.seed", "seed"),
        ("run.outdir", "outdir"),
    ]:
        val = getattr(args, flag, None)
        if val is not None:
            cfg[key] = val
    for key, value in cfg.items():
        if value is None:
            continue
        cast = _CASTS.get(key, float)
        try:
            cfg[key] = cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return cfg


def _build_model(cfg):
    from .model import FockParams

    try:
        return FockParams(cfg["model.n"], cfg["model.t"], cfg["model.D"], cfg["model.Q"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _conv_config(cfg, params):
    from .convolution import ConvolutionConfig
    from .quadrature import default_window

    W = cfg["conv.window"]
    if W is None:
        W = default_window(params.t, params.D)
    return ConvolutionConfig(float(W), cfg["conv.m"])


def _outpath(cfg, name) -> Path:
    outdir = Path(cfg["run.outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def parse_target(spec: str, params):
    """Target grammar: toeplitz:<width>[:<center>] | weyl:<z> | rank-one:<z>.

    Complex numbers use python literal syntax, e.g. 0.5+0.5j.  At n >= 2
    the centre and z are repeated on every axis.
    """
    import numpy as np

    from .model import kernel_coefficients, rank_one
    from .operators import toeplitz, weyl
    from .symbols import Gaussian

    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "toeplitz":
            width = float(parts[1]) if len(parts) > 1 else 2.0
            center = complex(parts[2]) if len(parts) > 2 else 0.0
            return toeplitz(params, Gaussian(center=center, width=width, n=params.n))
        if kind == "weyl":
            z = complex(parts[1]) if len(parts) > 1 else 0.0
            return weyl(params, np.full(params.n, z))
        if kind == "rank-one":
            z = complex(parts[1]) if len(parts) > 1 else 0.0
            k = kernel_coefficients(params, np.full(params.n, z))
            return rank_one(k, k)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed target spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown target kind {kind!r} (toeplitz | weyl | rank-one)")


def cmd_verify(cfg) -> int:
    """Run the identity suites; exit 0 iff every residual passes."""
    import numpy as np

    from .convolution import (
        ResidualRecord,
        adjoint_duality_residuals,
        toeplitz_via_convolution,
        trace_identity_residual,
        window_unstable,
    )
    from .model import (
        _grid_basis,
        identity_operator,
        kernel_coefficients,
        degree_projector,
        operator_norm_2,
        rank_one,
    )
    from .operators import toeplitz, weyl
    from .symbols import Constant, Gaussian, heat_gaussian

    params = _build_model(cfg)
    conv_cfg = _conv_config(cfg, params)
    rng = np.random.default_rng(cfg["run.seed"])
    records = []

    def record(identity, operands, residual, tol):
        records.append(
            ResidualRecord(
                identity=identity,
                operands=operands,
                residual=float(residual),
                cfg={"tolerance": tol, "window": conv_cfg.window, "m": conv_cfg.m},
            )
        )
        return float(residual) <= tol

    ok = True
    flags = []

    E, B = _grid_basis(params)
    gram = B @ E.T
    ok &= record(
        "orthonormality",
        "basis Gram matrix",
        np.max(np.abs(gram - np.eye(params.dim))),
        cfg["tol.identity"],
    )
    T1 = toeplitz(params, Constant(1.0, n=params.n))
    ok &= record(
        "toeplitz-of-one",
        "T_1 vs identity",
        np.max(np.abs(T1.matrix - np.eye(params.dim))),
        cfg["tol.identity"],
    )

    proj = degree_projector(params, params.D // 2)
    # z and w repeat z0 and w0 on every axis; the phase is e^{-i Im<z, w>/t}
    z0, w0 = 0.5, 0.25 + 0.25j
    z, w = np.full(params.n, z0, dtype=complex), np.full(params.n, w0, dtype=complex)
    lhs = weyl(params, z) @ weyl(params, w)
    phase = np.exp(-1j * np.imag(np.vdot(w, z)) / params.t)
    rhs = phase * weyl(params, z + w)
    ok &= record(
        "weyl-commutation",
        f"z={z0}, w={w0}",
        operator_norm_2(proj @ (lhs - rhs) @ proj),
        cfg["tol.weyl"],
    )

    k0 = kernel_coefficients(params, np.full(params.n, 0.3))
    c = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
    decay = np.exp(-0.3 * np.arange(params.dim))
    from .model import FockVector

    v = FockVector(params, c * decay / np.linalg.norm(c * decay))
    A = rank_one(k0, k0)
    Bop = rank_one(v, v)
    ok &= record(
        "trace-identity",
        "rank-one pair",
        trace_identity_residual(A, Bop, conv_cfg),
        cfg["tol.trace"],
    )

    f = Gaussian(center=0.3, width=2.0, n=params.n)
    r1, r2, r3 = adjoint_duality_residuals(f, A, Bop, identity_operator(params), conv_cfg)
    for name, r in [("duality-1", r1), ("duality-2", r2), ("duality-3", r3)]:
        ok &= record(name, "gaussian / rank-one operands", r, cfg["tol.duality"])

    T_direct = toeplitz(params, f)
    T_conv = toeplitz_via_convolution(f, params, conv_cfg)
    rel = np.linalg.norm(T_direct.matrix - T_conv.matrix) / np.linalg.norm(
        T_direct.matrix
    )
    ok &= record("two-pipeline-toeplitz", "gaussian symbol", rel, cfg["tol.pipeline"])

    if window_unstable(heat_gaussian(params.t, params.n), conv_cfg, params.n):
        flags.append("window-instability: L1 mass moved when the window doubled")

    write_json(
        _outpath(cfg, "verify_report.json"),
        {
            "config": cfg,
            "records": [r.as_dict() for r in records],
            "flags": flags,
            "passed": bool(ok),
        },
    )
    for r in records:
        status = "pass" if r.residual <= r.cfg["tolerance"] else "FAIL"
        print(f"{status}  {r.identity}: residual {r.residual:.3e}")
    for fl in flags:
        print(f"flag  {fl}")
    if not ok:
        failing = [r.identity for r in records if r.residual > r.cfg["tolerance"]]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_approx(cfg, target_spec: str) -> int:
    from .approximation import toeplitz_approximation

    params = _build_model(cfg)
    if params.n != 1:
        raise ConfigError("approx fits heat kernels for n = 1 only")
    A = parse_target(target_spec, params)
    report = toeplitz_approximation(A, [1, 2, 4, 8], target=target_spec)
    report.to_csv(_outpath(cfg, "approx_report.csv"))
    write_json(_outpath(cfg, "approx_report.json"), {"config": cfg, "report": report.as_dict()})
    for st in report.stages:
        print(f"N={st.N}  l1={st.fit.l1_residual:.4e}  op_error={st.op_error:.4e}")
    return 0


def cmd_sweep(cfg, kind: str, symbol: str) -> int:
    import numpy as np

    from .approximation import approximate_identity_sweep
    from .experiments import (
        SweepRecord,
        compactness_diagnostic,
        invariance_check,
        quantization_sweep,
        write_sweep_csv,
    )
    from .operators import toeplitz
    from .symbols import Gaussian, Horizontal, Radial

    params = _build_model(cfg)
    meta = {"kind": kind, "symbol": symbol}

    if kind == "quantization":
        f = g = Gaussian(center=0.0, width=4.0, n=params.n)
        op_recs, sup_recs = quantization_sweep(f, g, [1.0, 0.5, 0.25, 0.125], params)
        write_sweep_csv(op_recs, _outpath(cfg, "sweep_quantization_op.csv"), ("t", "op_error"))
        write_sweep_csv(sup_recs, _outpath(cfg, "sweep_quantization_sup.csv"), ("t", "sup_error"))
        records = op_recs
    elif kind == "approx-identity":
        A = toeplitz(params, Gaussian(center=0.0, width=2.0, n=params.n))
        pairs = approximate_identity_sweep(A, [1.0, 0.5, 0.25, 0.125])
        records = [SweepRecord(s, e) for s, e in pairs]
        write_sweep_csv(records, _outpath(cfg, "sweep_approx_identity.csv"), ("s", "op_error"))
    elif kind == "compactness":
        A = parse_target(symbol or "rank-one:0", params)
        radii = np.linspace(0.0, params.trusted_radius, 9)
        diag = compactness_diagnostic(A, radii)
        records = diag.records()
        write_sweep_csv(records, _outpath(cfg, "sweep_compactness.csv"), ("radius", "berezin_max"))
    elif kind == "invariance":
        if symbol == "radial":
            r = np.linspace(0.0, 6.0, 25)
            f = Radial(radii=r, values=np.exp(-r), n=params.n)
            meta["negative_control"] = True
            direction = 1.0
        else:
            f = Horizontal(width=1.0, n=params.n)
            direction = 1j
        res = invariance_check(f, params, [direction], [0.25, 0.5, 1.0])
        records = [SweepRecord(1.0, res, meta)]
        write_sweep_csv(records, _outpath(cfg, "sweep_invariance.csv"), ("direction", "residual"))
        if meta.get("negative_control"):
            print(f"negative control residual {res:.3e} (expected large)")
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")

    write_json(
        _outpath(cfg, f"sweep_{kind}.json"),
        {
            "config": cfg,
            "kind": kind,
            "metadata": meta,
            "records": [r.as_dict() for r in records],
        },
    )
    for r in records:
        print(f"{r.parameter:.6g}\t{r.quantity:.6e}")
    return 0


def cmd_export_operator(cfg, target_spec: str) -> int:
    from .serialize import save_operator

    params = _build_model(cfg)
    A = parse_target(target_spec, params)
    path = _outpath(cfg, "operator.json")
    save_operator(A, path, extra={"target": target_spec, "config": cfg})
    print(f"wrote {path}")
    return 0


def cmd_export_berezin(cfg, target_spec: str, m: int) -> int:
    from .operators import berezin

    params = _build_model(cfg)
    if params.n != 1:
        raise ConfigError("export-berezin writes n = 1 grids only")
    A = parse_target(target_spec, params)
    path = _outpath(cfg, "berezin.csv")
    berezin(A, m=m).to_csv(path)
    write_json(
        _outpath(cfg, "berezin.json"),
        {"config": cfg, "target": target_spec, "window": float(params.trusted_radius), "m": m},
    )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockqha",
        description="Truncated Fock-space harmonic analysis driver. "
        "CSV columns: sweeps (parameter, quantity); approx reports "
        "(N, l1_residual, op_error, baseline_error); berezin exports "
        "(re_z, im_z, re_value, im_value).",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--print-config", action="store_true", help="dump resolved config and exit")
    parser.add_argument("--n", type=int, help="complex dimension")
    parser.add_argument("--t", type=float, help="Gaussian weight parameter")
    parser.add_argument("--D", type=int, help="total-degree cutoff")
    parser.add_argument("--Q", type=int, help="quadrature order per axis")
    parser.add_argument("--window", type=float, help="convolution dV window half-width")
    parser.add_argument("--m", type=int, help="convolution grid points per axis")
    parser.add_argument("--seed", type=int, help="seed for all randomized choices")
    parser.add_argument("--outdir", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    sub = parser.add_subparsers(dest="command")
    sub.add_parser("verify", help="run all identity suites")
    p_approx = sub.add_parser("approx", help="constructive Toeplitz approximation of a target")
    p_approx.add_argument("target", help="toeplitz:<width>[:<center>] | weyl:<z> | rank-one:<z>")
    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    p_sweep.add_argument("kind", help="quantization | approx-identity | compactness | invariance")
    p_sweep.add_argument("--symbol", default="", help="sweep-specific symbol selector")
    p_exp = sub.add_parser("export-operator", help="write an operator as a JSON document")
    p_exp.add_argument("target")
    p_ber = sub.add_parser("export-berezin", help="write a Berezin transform grid as CSV")
    p_ber.add_argument("target")
    p_ber.add_argument("--grid-m", type=int, default=41, help="samples per axis")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.print_config:
        for key in sorted(cfg):
            print(f"{key}={cfg[key]}")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "approx":
            return cmd_approx(cfg, args.target)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.kind, args.symbol)
        if args.command == "export-operator":
            return cmd_export_operator(cfg, args.target)
        if args.command == "export-berezin":
            return cmd_export_berezin(cfg, args.target, args.grid_m)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
