"""`python -m fockqha`: the command-line interface without installing the package."""

from .cli import main

raise SystemExit(main())
