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
    assert result["metrics"][SPANS[workload]]["value"] > 0
