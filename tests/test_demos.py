"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run(tmp_path):
    assert DEMOS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p
    )
    for demo in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, f"{demo.name} failed:\n{proc.stderr}"
