"""The benchmark harness still runs: one small traced pass per workload.

No timing is gated here; each pass checks that the harness imports the
package, that its references accept the outputs, and that the traced
spans still find the functions they wrap.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# a span of each workload's own path that the tracer must still wrap
SPANS = {
    "identities": "cli.cmd_verify.self_s",
    "theorem_a": "approximation.fit_heat_kernel.calls",
    "semiclassical": "operators.heat_values.calls",
    "two_variables": "operators.toeplitz.calls",
}

# workloads whose Berezin probes the tracer sees through model.basis_matrix:
# berezin_values must run and build its columns there, besides the plane
# basis, or the basis counters would silently miss the probes
BEREZIN_PROBES = {"semiclassical", "two_variables"}


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
    if workload in BEREZIN_PROBES:
        assert metrics["operators.berezin_values.calls"]["value"] > 0
        assert metrics["model.basis_matrix.calls"]["value"] >= 2
