"""Start-up cost: importing the package and its CLI loads numpy, not scipy."""

import os
import subprocess
import sys
from pathlib import Path

_PROBE = """
import sys
import fockqha, fockqha.cli
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_import_loads_no_scipy():
    # a fresh interpreter, since this one has scipy from other tests; scipy
    # cost 0.35 s of start-up and is imported only by the first heat-kernel fit
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []
