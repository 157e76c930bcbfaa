"""Self-describing data files for operators, vectors and spectra.

Operators travel as JSON documents carrying the model parameters, the
ordered multi-index basis, and the matrix entries as (re, im) pairs, so
a file can be validated and reloaded without out-of-band context.
Vectors and singular-value lists export to CSV.
"""

from __future__ import annotations

import json

import numpy as np

from ._output import check_schema, params_dict, stamped, write_csv, write_json
from .model import FockOperator, FockParams, FockVector, multi_indices, singular_values


def operator_to_dict(A: FockOperator, extra: dict | None = None) -> dict:
    """JSON-ready dictionary for an operator, schema version included."""
    p = A.params
    doc = {
        "kind": "fock-operator",
        "params": params_dict(p),
        "basis": [list(alpha) for alpha in multi_indices(p)],
        "entries": [
            [[v.real, v.imag] for v in row] for row in A.matrix
        ],
    }
    if extra:
        doc["meta"] = extra
    return stamped(doc)


def save_operator(A: FockOperator, path, extra: dict | None = None) -> None:
    write_json(path, operator_to_dict(A, extra), indent=None)


def load_operator(path) -> FockOperator:
    """Reload an operator document, validating schema, shape and basis order."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "fock-operator":
        raise ValueError("not an operator document")
    check_schema(doc)
    p = doc["params"]
    params = FockParams(int(p["n"]), float(p["t"]), int(p["D"]), int(p["Q"]))
    basis = tuple(tuple(a) for a in doc["basis"])
    if basis != multi_indices(params):
        raise ValueError("basis order in file does not match the model order")
    entries = np.asarray(doc["entries"], dtype=float)
    if entries.shape != (params.dim, params.dim, 2):
        raise ValueError("entry array has the wrong shape")
    return FockOperator(params, entries[..., 0] + 1j * entries[..., 1])


def vector_to_csv(v: FockVector, path) -> None:
    """CSV rows (multi-index, re, im) in basis order."""
    rows = (
        (" ".join(map(str, alpha)), c.real, c.imag)
        for alpha, c in zip(multi_indices(v.params), v.coeffs.tolist())
    )
    write_csv(path, ["alpha", "re", "im"], rows)


def singular_values_to_csv(A: FockOperator, path) -> None:
    write_csv(path, ["index", "sigma"], enumerate(singular_values(A).tolist()))
