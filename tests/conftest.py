"""The suite runs on the package's one-BLAS-thread default.

Importing fockqha defaults the BLAS thread-count variables to 1 before
numpy loads, because threaded reductions are not bit-reproducible across
pool sizes.  Most test modules import numpy before fockqha, which would
leave the pool at one thread per core, so the package is imported here,
before any test module is collected.  If numpy is loaded already, the
default cannot take effect any more, and the session stops.
"""

import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py, so the BLAS thread-count "
        "defaults of fockqha cannot take effect; run the suite in a fresh interpreter"
    )

import fockqha  # noqa: E402,F401  (sets the defaults, then loads numpy)
