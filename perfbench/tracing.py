"""Spans around the package's public functions, installed from outside.

`Tracer.install` wraps each traced function and rebinds the wrapper under
every name that refers to the original in a loaded ``fockqha`` module: a
``from .operators import weyl`` gives ``convolution``, ``experiments`` and
the package itself names of their own, and wrapping only
``operators.weyl`` would miss the calls made through them.  Methods are
wrapped on their class.  Nothing in the package is edited.

A span records its name, start, end and the span that was open when it
began.  A span's self time is its duration minus the durations of its
direct children.  Counters are recorded at the same boundaries, so ratios
such as distinct arguments per call are measured where the work happens.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name); methods are "Class.method"
TRACED = [
    ("fockqha.quadrature", "gaussian_grid", "quadrature.grid"),
    ("fockqha.quadrature", "lebesgue_grid", "quadrature.grid"),
    ("fockqha.model", "basis_matrix", "model.basis_matrix"),
    ("fockqha.symbols", "SymbolSum.eval", "symbols.SymbolSum.eval"),
    ("fockqha.operators", "weyl", "operators.weyl"),
    ("fockqha.operators", "toeplitz", "operators.toeplitz"),
    ("fockqha.operators", "berezin_values", "operators.berezin_values"),
    ("fockqha.operators", "heat_values", "operators.heat_values"),
    ("fockqha.convolution", "conv_fun_op", "convolution.conv_fun_op"),
    ("fockqha.convolution", "OperatorConvolution.eval", "convolution.OperatorConvolution.eval"),
    ("fockqha.approximation", "fit_heat_kernel", "approximation.fit_heat_kernel"),
    ("fockqha.approximation", "build_symbol_from_berezin", "approximation.build_symbol_from_berezin"),
    ("fockqha.approximation", "toeplitz_approximation", "approximation.toeplitz_approximation"),
    ("fockqha.experiments", "quantization_sweep", "experiments.quantization_sweep"),
    ("fockqha.cli", "cmd_verify", "cli.cmd_verify"),
]


# per-layer metrics reported by a traced run: (name, unit, better)
PER_LAYER = [
    ("quadrature.grid.calls", "count", "lower"),
    ("quadrature.grid.builds", "count", "lower"),
    ("quadrature.grid.self_s", "s", "lower"),
    ("model.basis_matrix.calls", "count", "lower"),
    ("model.basis_matrix.self_s", "s", "lower"),
    ("model.basis_matrix.points", "count", "lower"),
    ("model.basis_matrix.bytes_max", "bytes", "lower"),
    ("symbols.SymbolSum.eval.calls", "count", "lower"),
    ("symbols.SymbolSum.eval.self_s", "s", "lower"),
    ("symbols.SymbolSum.eval.part_points", "count", "lower"),
    ("operators.weyl.calls", "count", "lower"),
    ("operators.weyl.self_s", "s", "lower"),
    ("operators.weyl.distinct_ratio", "ratio", "higher"),
    ("operators.weyl.err_max", "abs", "lower"),
    ("operators.toeplitz.calls", "count", "lower"),
    ("operators.toeplitz.self_s", "s", "lower"),
    ("operators.berezin_values.calls", "count", "lower"),
    ("operators.berezin_values.self_s", "s", "lower"),
    ("operators.berezin_values.points", "count", "lower"),
    ("operators.heat_values.calls", "count", "lower"),
    ("operators.heat_values.self_s", "s", "lower"),
    ("operators.heat_values.points", "count", "lower"),
    ("convolution.conv_fun_op.calls", "count", "lower"),
    ("convolution.conv_fun_op.self_s", "s", "lower"),
    ("convolution.conv_fun_op.nodes", "count", "lower"),
    ("convolution.conv_fun_op.gflop", "Gflop", "lower"),
    ("convolution.conv_fun_op.gflop_per_s", "Gflop/s", "higher"),
    ("convolution.OperatorConvolution.eval.calls", "count", "lower"),
    ("convolution.OperatorConvolution.eval.self_s", "s", "lower"),
    ("convolution.OperatorConvolution.eval.points", "count", "lower"),
    ("approximation.fit_heat_kernel.calls", "count", "lower"),
    ("approximation.fit_heat_kernel.self_s", "s", "lower"),
    ("approximation.fit_heat_kernel.distinct_ratio", "ratio", "higher"),
    ("approximation.build_symbol_from_berezin.parts", "count", "lower"),
    ("approximation.toeplitz_approximation.self_s", "s", "lower"),
    ("experiments.quantization_sweep.self_s", "s", "lower"),
    ("cli.cmd_verify.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _weyl_key(args):
    return (args[0], tuple(np.atleast_1d(np.asarray(args[1], dtype=complex)).tolist()))


def _count(tracer, name, args, kwargs, result):
    """Work counters for one finished call of the named function."""
    c = tracer.counters
    if name == "model.basis_matrix":
        c["model.basis_matrix.points"] += result.shape[1]
        c["model.basis_matrix.bytes_max"] = max(c["model.basis_matrix.bytes_max"], result.nbytes)
    elif name == "symbols.SymbolSum.eval":
        c["symbols.SymbolSum.eval.part_points"] += len(args[0].parts) * args[1].shape[0]
    elif name == "operators.weyl":
        tracer.weyl_keys.append(_weyl_key(args))
    elif name == "operators.berezin_values":
        c["operators.berezin_values.points"] += result.shape[0]
    elif name == "operators.heat_values":
        c["operators.heat_values.points"] += result.shape[0]
    elif name == "convolution.conv_fun_op":
        A, cfg = args[1], args[2]
        nodes = cfg.m ** (2 * A.params.n)
        c["convolution.conv_fun_op.nodes"] += nodes
        # two complex dim x dim products per node, 8 dim^3 real flops each
        c["convolution.conv_fun_op.gflop"] += nodes * 16.0 * A.params.dim**3 / 1e9
    elif name == "convolution.OperatorConvolution.eval":
        c["convolution.OperatorConvolution.eval.points"] += args[1].shape[0]
    elif name == "approximation.fit_heat_kernel":
        tracer.fit_keys.add(repr((args, sorted(kwargs.items()))))
    elif name == "approximation.build_symbol_from_berezin":
        c["approximation.build_symbol_from_berezin.parts"] += len(result.parts)


class Tracer:
    """In-memory spans and counters for the calls made while installed."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counters = defaultdict(int)
        self.weyl_keys = []
        self.fit_keys = set()

    def _wrap(self, name, fn):
        # lru_cached grids: count the calls the cache could not serve
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            misses = cache_info().misses if cache_info else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if cache_info:
                self.counters[f"{name}.builds"] += cache_info().misses - misses
            _count(self, name, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "fockqha" or k.startswith("fockqha.")]
        for module_name, path, name in TRACED:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def metrics(self) -> dict:
        """Per-layer figures of the calls recorded since the last reset.

        operators.weyl.err_max and trace.overhead_s read 0 here; the caller
        measures them.
        """
        duration = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += duration[i]
        calls, self_s = defaultdict(int), defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_s[s[0]] += duration[i] - child[i]
        c = self.counters
        derived = {
            "operators.weyl.distinct_ratio": _ratio(len(set(self.weyl_keys)), calls["operators.weyl"]),
            "approximation.fit_heat_kernel.distinct_ratio": _ratio(
                len(self.fit_keys), calls["approximation.fit_heat_kernel"]
            ),
            "convolution.conv_fun_op.gflop_per_s": _ratio(
                c["convolution.conv_fun_op.gflop"], self_s["convolution.conv_fun_op"]
            ),
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, what = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif what == "calls":
                out[metric] = calls[layer]
            elif what == "self_s":
                out[metric] = self_s[layer]
            else:
                out[metric] = c.get(metric, 0.0)
        return out


def _ratio(num, den):
    return num / den if den else 0.0
