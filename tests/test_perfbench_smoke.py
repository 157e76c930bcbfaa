"""The benchmark harness still runs: one small traced pass per workload.

No timing is gated here; each pass checks that the harness imports the
package, that its references accept the outputs, and that the traced
spans still find the functions they wrap.
"""

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fockqha.convolution import ConvolutionConfig, conv_fun_op
from fockqha.model import FockParams, pc_operator
from fockqha.symbols import Gaussian

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
TRACING = RUN.parent / "tracing.py"

# a span of each workload's own path that the tracer must still wrap
SPANS = {
    "identities": "cli.cmd_verify.self_s",
    "theorem_a": "approximation.fit_heat_kernel.calls",
    "semiclassical": "operators.heat_values.calls",
    "two_variables": "operators.toeplitz.calls",
}

# spans each workload must still reach with at least one call: the
# identities pass must still convolve, or its conv_fun_op counters read 0
CALLED = {"identities": ["convolution.conv_fun_op.calls"]}

# workloads whose Berezin probes the tracer sees through model.basis_matrix:
# berezin_values must run and build its columns there, besides the plane
# basis, or the basis counters would silently miss the probes
BEREZIN_PROBES = {"semiclassical", "two_variables"}

# the translated Berezin sum of the dense W_0.5 evaluates its (point,
# translate) pairs through model.basis_matrix: 114,800 points in the small
# theorem_a pass, where the plane basis alone gave 400 (the diagonal
# targets' pairs take the real degree weights, which the tracer does not see)
BASIS_POINTS = {"theorem_a": 100_000}


@pytest.mark.parametrize("workload", sorted(SPANS))
def test_small_traced_pass(workload):
    argv = ["--workload", workload, "--small", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(RUN), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    assert metrics[SPANS[workload]]["value"] > 0
    for name in CALLED.get(workload, []):
        assert metrics[name]["value"] > 0, name
    if workload in BEREZIN_PROBES:
        assert metrics["operators.berezin_values.calls"]["value"] > 0
        assert metrics["model.basis_matrix.calls"]["value"] >= 2
    if workload in BASIS_POINTS:
        assert metrics["model.basis_matrix.points"]["value"] > BASIS_POINTS[workload]


def test_tracer_finds_the_convolution_order():
    # perfbench/tracing.py counts conv_fun_op's nodes from cfg.m, read from
    # the third positional argument; the signature must keep cfg there, and
    # the traced identities pass above calls it through verify
    assert list(inspect.signature(conv_fun_op).parameters)[:3] == ["f", "A", "cfg"]
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    params = FockParams(1, 1.0, 4, 6)
    A = pc_operator(params)
    tracing._count(tracer, "convolution.conv_fun_op", (Gaussian(), A, ConvolutionConfig(7)), {}, A)
    assert tracer.counters["convolution.conv_fun_op.nodes"] == 7**2
