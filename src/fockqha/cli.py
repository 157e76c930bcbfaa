"""Command-line driver: verify suites, approximation runs, sweeps, exports.

Every setting is one entry of ``SETTINGS``: its default, its type, and
the flag and help text of the keys that have a flag.  A value comes from
the default, then an optional flat key=value file with dotted section
names (model.D=24, run.seed=3, ...), then the flag; the ``tol.*`` keys are
set from a file only.  ``--print-config`` dumps the fully resolved form.
Each subcommand binds its handler ``cmd_*(cfg, params, args)`` in
``build_parser``.  A handler computes, writes its CSV files, prints its
lines and returns ``(status, report_name, payload)``.  ``main`` runs it
with the package's warnings collected as flags, writes the JSON report
as ``{"config", "flags", **payload}`` and then prints one ``flag`` line
per flag.  ``export-operator`` names no report: ``operator.json`` is a
``load_operator`` document, and its ``meta`` keeps the config.  Exit
codes: 0 success, 1 tolerance failure, 2 usage or configuration error,
which writes no report.

Determinism: the seed fixes every randomized choice, and importing
``fockqha`` defaults the BLAS thread-count variables to 1 before numpy
loads.  ``--threads`` is accepted and ignored, so it never changes any
output byte.  So is ``--m``: every dV rule of the convolutions has the
exact order 2D + 1, and a Gaussian kernel takes a closed form and no
rule.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from ._output import write_json
from .approximation import approximate_identity_sweep, toeplitz_approximation
from .convolution import (
    adjoint_duality_residuals,
    default_config,
    toeplitz_via_convolution,
    trace_identity_residual,
)
from .experiments import (
    SweepRecord,
    compactness_diagnostic,
    invariance_check,
    quantization_sweep,
    write_sweep_csv,
)
from .model import (
    FockParams,
    FockVector,
    _grid_basis,
    identity_operator,
    kernel_coefficients,
    rank_one,
    trusted_norm,
)
from .operators import berezin, toeplitz, weyl
from .serialize import save_operator
from .symbols import Constant, Gaussian, Horizontal, Radial

# key: (default, type, flag, help); the tol.* keys have no flag
SETTINGS = {
    "model.n": (1, int, "--n", "complex dimension"),
    "model.t": (1.0, float, "--t", "Gaussian weight parameter"),
    "model.D": (16, int, "--D", "total-degree cutoff"),
    "model.Q": (20, int, "--Q", "quadrature order per axis"),
    "run.seed": (0, int, "--seed", "seed for all randomized choices"),
    "run.outdir": (".", str, "--outdir", "output directory"),
    "tol.identity": (1e-10, float, None, None),
    "tol.weyl": (1e-6, float, None, None),
    "tol.trace": (1e-12, float, None, None),
    "tol.duality": (1e-12, float, None, None),
    "tol.pipeline": (1e-4, float, None, None),
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
    """Defaults <- config file <- command-line flags, cast by each key's type."""
    cfg = {key: default for key, (default, *_) in SETTINGS.items()}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        for key, raw in parse_config_file(args.config).items():
            if key not in cfg:
                raise ConfigError(f"unknown config key: {key}")
            cfg[key] = raw
    for key, (_, cast, _, _) in SETTINGS.items():
        flagged = getattr(args, key, None)
        value = cfg[key] if flagged is None else flagged
        try:
            cfg[key] = cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return cfg


def _build_model(cfg):
    try:
        return FockParams(cfg["model.n"], cfg["model.t"], cfg["model.D"], cfg["model.Q"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _outpath(cfg, name) -> Path:
    outdir = Path(cfg["run.outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


@contextlib.contextmanager
def _warnings_as_flags():
    """Collect each distinct UserWarning of the block as a flag message.

    Under `python -m fockqha.cli` every frame down to the module runner is
    package code, so a warning would name `<frozen runpy>` and no useful
    line; every command reports them as flags instead.  The yielded list
    receives the messages in order when the block ends; warnings of other
    categories are shown as usual.
    """
    flags = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        yield flags
    for w in caught:
        if w.category is not UserWarning:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        elif str(w.message) not in flags:
            flags.append(str(w.message))


def _finite(name: str, value):
    """value, or ValueError naming it if it is not finite."""
    if not np.isfinite(value):
        raise ValueError(f"{name} {value} is not finite")
    return value


def parse_target(spec: str, params):
    """Target grammar: toeplitz:<width>[:<center>] | weyl:<z> | rank-one:<z>.

    Complex numbers use python literal syntax, e.g. 0.5+0.5j.  At n >= 2
    the centre and z are repeated on every axis.  Every number must be
    finite.
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "toeplitz":
            width = _finite("width", float(parts[1])) if len(parts) > 1 else 2.0
            center = _finite("center", complex(parts[2])) if len(parts) > 2 else 0.0
            return toeplitz(params, Gaussian(center=center, width=width, n=params.n))
        if kind in ("weyl", "rank-one"):
            z = _finite("z", complex(parts[1])) if len(parts) > 1 else 0.0
            if kind == "weyl":
                return weyl(params, np.full(params.n, z))
            k = kernel_coefficients(params, np.full(params.n, z))
            return rank_one(k, k)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed target spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown target kind {kind!r} (toeplitz | weyl | rank-one)")


def cmd_verify(cfg, params, args):
    """Run the identity suites; exit 0 iff every residual passes."""
    conv_cfg = default_config(params)
    rng = np.random.default_rng(cfg["run.seed"])
    results = []  # (identity, operands, residual, tolerance)

    # the plane Gram matrix; toeplitz-of-one checks the full n-variable one
    e, b = _grid_basis(params)
    plane_defect = np.max(np.abs(b @ e.T - np.eye(params.D + 1)))
    results.append(("orthonormality", "basis Gram matrix", plane_defect, cfg["tol.identity"]))
    eye = np.eye(params.dim)
    T1 = toeplitz(params, Constant(1.0, n=params.n)).matrix
    results.append(
        ("toeplitz-of-one", "T_1 vs identity", np.max(np.abs(T1 - eye)), cfg["tol.identity"])
    )

    # z and w repeat z0 and w0 on every axis; the phase is e^{-i Im<z, w>/t}
    z0, w0 = 0.5, 0.25 + 0.25j
    z, w = np.full(params.n, z0, dtype=complex), np.full(params.n, w0, dtype=complex)
    lhs = weyl(params, z) @ weyl(params, w)
    phase = np.exp(-1j * np.imag(np.vdot(w, z)) / params.t)
    rhs = phase * weyl(params, z + w)
    commutation = trusted_norm(lhs - rhs)
    results.append(("weyl-commutation", f"z={z0}, w={w0}", commutation, cfg["tol.weyl"]))

    k0 = kernel_coefficients(params, np.full(params.n, 0.3))
    c = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
    decay = np.exp(-0.3 * np.arange(params.dim))
    v = FockVector(params, c * decay / np.linalg.norm(c * decay))
    A = rank_one(k0, k0)
    Bop = rank_one(v, v)
    trace = trace_identity_residual(A, Bop, conv_cfg)
    results.append(("trace-identity", "rank-one pair", trace, cfg["tol.trace"]))

    f = Gaussian(center=0.3, width=2.0, n=params.n)
    dualities = adjoint_duality_residuals(f, A, Bop, identity_operator(params), conv_cfg)
    for name, r in zip(("duality-1", "duality-2", "duality-3"), dualities):
        results.append((name, "gaussian / rank-one operands", r, cfg["tol.duality"]))

    T_direct = toeplitz(params, f).matrix
    T_conv = toeplitz_via_convolution(f, params, conv_cfg).matrix
    rel = np.linalg.norm(T_direct - T_conv) / np.linalg.norm(T_direct)
    results.append(("two-pipeline-toeplitz", "gaussian symbol", rel, cfg["tol.pipeline"]))

    records = [
        {"identity": name, "operands": ops, "residual": float(r), "cfg": {"tolerance": tol}}
        for name, ops, r, tol in results
    ]
    failing = [name for name, _, r, tol in results if not r <= tol]
    for name, _, r, tol in results:
        print(f"{'pass' if r <= tol else 'FAIL'}  {name}: residual {r:.3e}")
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
    return (1 if failing else 0), "verify_report.json", {"records": records, "passed": not failing}


def cmd_approx(cfg, params, args):
    if params.n != 1:
        raise ConfigError("approx fits heat kernels for n = 1 only")
    A = parse_target(args.target, params)
    report = toeplitz_approximation(A, [1, 2, 4, 8], target=args.target)
    report.to_csv(_outpath(cfg, "approx_report.csv"))
    for st in report.stages:
        print(f"N={st.N}  l1={st.fit.l1_residual:.4e}  op_error={st.op_error:.4e}")
    return 0, "approx_report.json", {"report": report.as_dict()}


def cmd_sweep(cfg, params, args):
    kind, symbol = args.kind, args.symbol
    # invariance reads one of two symbols, compactness a target spec, the others none
    accepted = {"invariance": ("", "horizontal", "radial"), "compactness": (symbol,)}
    if symbol not in accepted.get(kind, ("",)):
        raise ConfigError(f"sweep {kind} does not read --symbol {symbol!r}")
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
        # the direction repeats on every axis, as parse_target's z does
        res = invariance_check(f, params, [np.full(params.n, direction)], [0.25, 0.5, 1.0])
        records = [SweepRecord(1.0, res, meta)]
        write_sweep_csv(records, _outpath(cfg, "sweep_invariance.csv"), ("direction", "residual"))
        if meta.get("negative_control"):
            print(f"negative control residual {res:.3e} (expected large)")
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")

    for r in records:
        print(f"{r.parameter:.6g}\t{r.quantity:.6e}")
    payload = {"kind": kind, "metadata": meta, "records": [r.as_dict() for r in records]}
    return 0, f"sweep_{kind}.json", payload


def cmd_export_operator(cfg, params, args):
    A = parse_target(args.target, params)
    path = _outpath(cfg, "operator.json")
    # a load_operator document, not a report: its meta keeps the config
    save_operator(A, path, extra={"target": args.target, "config": cfg})
    print(f"wrote {path}")
    return 0, None, None


def cmd_export_berezin(cfg, params, args):
    if params.n != 1:
        raise ConfigError("export-berezin writes n = 1 grids only")
    A = parse_target(args.target, params)
    try:
        grid = berezin(A, m=args.grid_m)
    except ValueError as exc:
        raise ConfigError(f"bad --grid-m: {exc}") from exc
    path = _outpath(cfg, "berezin.csv")
    grid.to_csv(path)
    print(f"wrote {path}")
    payload = {"target": args.target, "window": float(params.trusted_radius), "m": args.grid_m}
    return 0, "berezin.json", payload


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
    for key, (_, cast, flag, help_text) in SETTINGS.items():
        if flag:
            parser.add_argument(flag, dest=key, metavar=flag[2:].upper(), type=cast, help=help_text)
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument(
        "--m", type=int, help="accepted and ignored: convolutions use the exact order 2D + 1"
    )

    # the handlers are looked up when the parser is built, so a wrapper
    # rebound onto this module (a tracer, say) is the one that runs
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("verify", help="run all identity suites").set_defaults(handler=cmd_verify)
    p_approx = sub.add_parser("approx", help="constructive Toeplitz approximation of a target")
    p_approx.add_argument("target", help="toeplitz:<width>[:<center>] | weyl:<z> | rank-one:<z>")
    p_approx.set_defaults(handler=cmd_approx)
    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    p_sweep.add_argument("kind", help="quantization | approx-identity | compactness | invariance")
    p_sweep.add_argument("--symbol", default="", help="sweep-specific symbol selector")
    p_sweep.set_defaults(handler=cmd_sweep)
    p_exp = sub.add_parser("export-operator", help="write an operator as a JSON document")
    p_exp.add_argument("target")
    p_exp.set_defaults(handler=cmd_export_operator)
    p_ber = sub.add_parser("export-berezin", help="write a Berezin transform grid as CSV")
    p_ber.add_argument("target")
    p_ber.add_argument("--grid-m", type=int, default=41, help="samples per axis")
    p_ber.set_defaults(handler=cmd_export_berezin)
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
        params = _build_model(cfg)
        with _warnings_as_flags() as flags:
            status, name, payload = args.handler(cfg, params, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if name is not None:
        write_json(_outpath(cfg, name), {"config": cfg, "flags": flags, **payload})
    for fl in flags:
        print(f"flag  {fl}")
    return status


if __name__ == "__main__":
    sys.exit(main())
