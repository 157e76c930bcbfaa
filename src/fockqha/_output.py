"""The one output format for every file the package writes.

JSON documents carry the schema stamp and sorted keys.  CSV files carry
a header row, and every float cell is written as ``repr(float(x))``, so
it reads back as the same float.  This module imports nothing from the
package, so every module, leaf modules included, can write through it.
"""

from __future__ import annotations

import csv
import json

SCHEMA_VERSION = "1"


def stamped(payload: dict) -> dict:
    """The payload with the schema stamp added."""
    return {"schema": SCHEMA_VERSION, **payload}


def check_schema(doc: dict) -> None:
    """Raise ValueError unless the document carries this writer's schema."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {doc.get('schema')!r} (expected {SCHEMA_VERSION!r})"
        )


def write_json(path, payload: dict, indent: int | None = 2) -> None:
    """Write a stamped JSON document; indent=None writes it on one line."""
    with open(path, "w") as fh:
        json.dump(stamped(payload), fh, indent=indent, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a header row and the rows; float cells are written with repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows
        )


def params_dict(params) -> dict:
    """The FockParams fields as a JSON-ready dictionary."""
    return {"n": params.n, "t": params.t, "D": params.D, "Q": params.Q}
