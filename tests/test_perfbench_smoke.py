"""The benchmark harness still runs: one small traced pass of `identities`.

No timing is gated here; the pass checks that the harness imports the
package, that its references accept the outputs, and that the traced
spans still find the functions they wrap.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_identities_small_traced_pass():
    argv = ["--workload", "identities", "--small", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(RUN), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    # the span exists: the tracer still wraps the verify command
    assert result["metrics"]["cli.cmd_verify.self_s"]["value"] > 0
