"""Start-up cost: the package, its CLI and its heat-kernel fit load numpy, not scipy."""

import os
import subprocess
import sys
from pathlib import Path

_LOADED_SCIPY = """
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules_after(code: str) -> list:
    # a fresh interpreter, since this one has scipy from other tests
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))}
    probe = "import sys\n" + code + _LOADED_SCIPY
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_import_loads_no_scipy():
    # scipy cost 0.35 s of start-up
    assert _scipy_modules_after("import fockqha, fockqha.cli") == []


def test_heat_kernel_fit_loads_no_scipy():
    # the fit solves its orbit-reduced normal equations with numpy; its
    # scipy.linalg import cost the first fit about 0.23 s
    code = "from fockqha import FockParams, fit_heat_kernel\nfit_heat_kernel(FockParams(1, 1.0, 24, 26), 8)"
    assert _scipy_modules_after(code) == []
